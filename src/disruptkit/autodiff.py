"""Dense float64 tensors and a minimal reverse-mode differentiation tape.

The primitive set is the closure needed by the toy two-stage models and the
disruption losses: affine maps, elementwise activations (tanh/sigmoid),
reshape, broadcast, concatenate, mean, squared difference, plus add/scale for
residual blocks and loss combination. Every op keeps leading (batch) axes, so
a stack of inputs runs through the same code as a single one. Everything runs
in 64-bit floats so gradients can be validated tightly against central finite
differences.

Recording is opt-in: ops consult the active tape and compute
plainly when none is active (used for frozen reference values). A tape tracks
only the tensors it watches and the outputs of ops it recorded; an op with no
tracked input is not recorded, and a backward pass computes no gradient for an
untracked input (model weights, frozen references). A backward pass always
differentiates the sum of the loss's elements, so one pass over a stack's
per-image losses gives each image its own gradient. A tape is never mutated
by a backward pass, so it can be differentiated repeatedly.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import LineageError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "ParameterSet",
    "recording",
    "stop_recording",
    "active_tape",
    "forward_affine",
    "activation",
    "tanh",
    "sigmoid",
    "reshape",
    "broadcast",
    "concatenate",
    "mean",
    "squared_difference",
    "add",
    "scale",
    "mse_loss",
    "backward",
    "finite_difference_gradient",
]

ACTIVATION_KINDS = ("tanh", "sigmoid")


class Tensor:
    """Immutable dense array of 64-bit floats in row-major order."""

    # a weak reference to the recording tape: the tape holds its outputs, so
    # a strong one would make every tape a cycle that only the cyclic GC frees
    __slots__ = ("_data", "_tape_ref")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, copy=True, order="C")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        arr.flags.writeable = False
        self._data = arr
        self._tape_ref = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: takes ownership of a freshly computed array.
        # np.asarray (not ascontiguousarray) so 0-d scalars keep shape ().
        t = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        t._data = arr
        t._tape_ref = None
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def _tape(self) -> "Tape | None":
        """The tape that recorded this tensor, while that tape is alive."""
        return None if self._tape_ref is None else self._tape_ref()

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self._data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self._data.reshape(()))

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index) -> "Tensor":
        """Rows along the leading axis (numpy indexing): read-only, recorded on no tape."""
        return Tensor._wrap(self._data[index])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass
class _Record:
    op: str
    inputs: tuple[Tensor, ...]
    needs: tuple[bool, ...]  # per input: is it tracked by the tape
    output: Tensor
    # (output gradient, needs) -> per-input gradients; those not needed are
    # ignored, so a VJP may skip computing them
    vjp_fn: Callable[[np.ndarray, tuple[bool, ...]], tuple[np.ndarray | None, ...]]


class Tape:
    """Ordered record of primitive operations, in topological (creation) order.

    Backward passes accumulate gradients into a scratch dict keyed by tensor
    identity; the tape itself is never modified, so repeated calls on the
    same tape return identical gradients.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._known: set[int] = set()
        self._watched: list[Tensor] = []
        self._ref = weakref.ref(self)

    def watch(self, t: Tensor) -> Tensor:
        """Register a leaf tensor so it can be differentiated against."""
        self._known.add(id(t))
        self._watched.append(t)
        return t

    def _record(self, op, inputs, output, vjp_fn):
        # every tracked tensor is held by _watched or a record, so ids stay unique
        known = self._known
        needs = tuple([id(t) in known for t in inputs])
        if True not in needs:
            return
        self._records.append(_Record(op, tuple(inputs), needs, output, vjp_fn))
        self._known.add(id(output))
        output._tape_ref = self._ref


_STACK: list[Tape | None] = []  # innermost last; None suspends recording


def active_tape() -> Tape | None:
    return _STACK[-1] if _STACK else None


@contextmanager
def recording(tape: Tape):
    _STACK.append(tape)
    try:
        yield tape
    finally:
        _STACK.pop()


@contextmanager
def stop_recording():
    """Suspend recording, e.g. while computing frozen reference values."""
    _STACK.append(None)
    try:
        yield
    finally:
        _STACK.pop()


def _emit(op, inputs, out_arr, vjp_fn) -> Tensor:
    out = Tensor._wrap(out_arr)
    tape = active_tape()
    if tape is not None:
        tape._record(op, inputs, out, vjp_fn)
    return out


# ---------------------------------------------------------------------------
# Differentiable primitives
# ---------------------------------------------------------------------------


def forward_affine(input: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """weights @ input + bias over the last axis of ``input``.

    ``weights`` is [out, in], ``bias`` is [out]; leading axes of ``input``
    are preserved.
    """
    w, b = weights.data, bias.data
    if w.ndim != 2:
        raise ShapeError(f"affine weights must be rank 2, got shape {weights.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"affine bias shape {bias.shape} does not match weights {weights.shape}")
    if input.data.ndim < 1 or input.shape[-1] != w.shape[1]:
        raise ShapeError(
            f"affine input shape {input.shape} does not match weights {weights.shape}"
        )
    n_in = w.shape[1]
    n_out = w.shape[0]
    out_shape = input.shape[:-1] + (n_out,)
    y = (input.data.reshape(-1, n_in) @ w.T + b).reshape(out_shape)
    x_saved = input.data

    def vjp(g, needs):
        g2 = g.reshape(-1, n_out)
        gx = (g2 @ w).reshape(x_saved.shape) if needs[0] else None
        gw = g2.T @ x_saved.reshape(-1, n_in) if needs[1] else None
        gb = g2.sum(axis=0) if needs[2] else None
        return gx, gw, gb

    return _emit("affine", (input, weights, bias), y, vjp)


def activation(input: Tensor, kind: str) -> Tensor:
    """Elementwise tanh / sigmoid.

    The sigmoid is computed in its numerically stable split form so large
    inputs stay finite.
    """
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unsupported activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")
    x = input.data
    if kind == "tanh":
        y = np.tanh(x)
        def vjp(g, needs, y=y):
            return (g * (1.0 - y * y),)
    else:
        y = _stable_sigmoid(x)
        def vjp(g, needs, y=y):
            return (g * y * (1.0 - y),)
    return _emit(kind, (input,), y, vjp)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; e^-|x| never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(t: Tensor) -> Tensor:
    return activation(t, "tanh")


def sigmoid(t: Tensor) -> Tensor:
    return activation(t, "sigmoid")


def reshape(input: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != input.size:
        raise ShapeError(f"cannot reshape {input.shape} to {shape}")
    old_shape = input.shape

    def vjp(g, needs):
        return (g.reshape(old_shape),)

    return _emit("reshape", (input,), input.data.reshape(shape), vjp)


def broadcast(input: Tensor, shape: Sequence[int]) -> Tensor:
    """``input`` repeated to ``shape`` by numpy rules: new leading axes, stretched size-1 axes.

    The VJP sums the output gradient over every added or stretched axis.
    """
    shape = tuple(shape)
    old_shape = input.shape
    try:
        y = np.broadcast_to(input.data, shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {old_shape} to {shape}") from None
    added = len(shape) - len(old_shape)
    stretched = tuple(added + i for i, s in enumerate(old_shape) if s != shape[added + i])

    def vjp(g, needs):
        if stretched:
            g = g.sum(axis=stretched, keepdims=True)
        return (g.sum(axis=tuple(range(added))) if added else g,)

    return _emit("broadcast", (input,), y, vjp)


def concatenate(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concatenate needs at least one tensor")
    arrs = [p.data for p in parts]
    y = np.concatenate(arrs, axis=axis)
    sizes = [a.shape[axis] for a in arrs]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g, needs):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit("concat", tuple(parts), y, vjp)


def mean(input: Tensor, axes: int | None = None) -> Tensor:
    """Mean over the last ``axes`` axes (all of them by default).

    The result keeps the leading axes, so with ``axes=None`` it is a scalar
    (shape ``()``) tensor and otherwise one mean per leading index.
    """
    shape = input.shape
    k = len(shape) if axes is None else int(axes)
    if not 0 <= k <= len(shape):
        raise ShapeError(f"cannot take the mean over {k} trailing axes of shape {shape}")
    lead = len(shape) - k
    n = math.prod(shape[lead:])

    def vjp(g, needs):
        out = np.empty(shape)
        out[...] = (g / n).reshape(g.shape + (1,) * k)
        return (out,)

    # the same bits as np.mean, without its per-call overhead
    y = input.data.sum(axis=tuple(range(lead, len(shape)))) / n
    return _emit("mean", (input,), y, vjp)


def squared_difference(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"squared_difference shapes differ: {a.shape} vs {b.shape}")
    d = a.data - b.data

    def vjp(g, needs, d=d):
        gd = 2.0 * d * g
        return gd, (-gd if needs[1] else None)

    return _emit("sqdiff", (a, b), d * d, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def vjp(g, needs):
        return g, g

    return _emit("add", (a, b), a.data + b.data, vjp)


def scale(input: Tensor, factor: float) -> Tensor:
    c = float(factor)

    def vjp(g, needs):
        return (c * g,)

    return _emit("scale", (input,), c * input.data, vjp)


def mse_loss(a: Tensor, b: Tensor, axes: int | None = None) -> Tensor:
    """Mean of squared elementwise differences over the last ``axes`` axes (all by default)."""
    return mean(squared_difference(a, b), axes)


def backward(loss: Tensor, wrt: Tensor) -> Tensor:
    """Gradient of the sum of a recorded ``loss``'s elements with respect to ``wrt``.

    The loss may have any shape: every element is seeded with exactly 1, so
    a scalar loss gets its plain gradient, and per-image losses of a stack
    give each image its own gradient. The tape is discovered from the loss
    tensor and left untouched, so it can be differentiated again (also
    against other tensors). The caller keeps the tape alive: a tensor refers
    to its tape only weakly.
    """
    tape = loss._tape
    if tape is None:
        raise LineageError("loss tensor was not produced under a live tape")
    if id(wrt) not in tape._known:
        raise LineageError("requested tensor was never recorded on this tape")
    if id(loss) not in tape._known:
        raise LineageError("loss tensor was never recorded on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape, dtype=np.float64)}
    for rec in reversed(tape._records):
        g_out = grads.get(id(rec.output))
        if g_out is None:
            continue
        for t, needed, g in zip(rec.inputs, rec.needs, rec.vjp_fn(g_out, rec.needs)):
            if needed:
                acc = grads.get(id(t))
                grads[id(t)] = g if acc is None else acc + g
    g = grads.get(id(wrt))
    return Tensor._wrap(np.zeros(wrt.shape) if g is None else g.reshape(wrt.shape))


# ---------------------------------------------------------------------------
# Untaped utilities
# ---------------------------------------------------------------------------


def finite_difference_gradient(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a tensor-to-scalar function."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    flat = x.data.reshape(-1).copy()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _as_float(f(Tensor._wrap(flat.reshape(x.shape).copy())))
        flat[i] = orig - h
        fm = _as_float(f(Tensor._wrap(flat.reshape(x.shape).copy())))
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return Tensor._wrap(g.reshape(x.shape))


def _as_float(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


# ---------------------------------------------------------------------------
# Parameter storage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSet:
    """Named, immutable collection of tensors."""

    tensors: Mapping[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self.tensors.keys())

    @property
    def count(self) -> int:
        return sum(t.size for t in self.tensors.values())
