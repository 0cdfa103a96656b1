"""Dense float64 tensors, a minimal reverse-mode differentiation tape, and compiled programs.

The primitive set is the closure needed by the toy two-stage models and the
disruption losses: a layer ``act(W x + b)`` as one op (``forward_affine``
with an optional tanh/sigmoid), the MSE loss as one op, reshape and add for
residual blocks, plus the elementwise activations, concatenate, mean,
squared difference and scale as standalone ops. Every op keeps leading
(batch) axes, so a stack of inputs runs through the same code as a single
one. ``add`` and the affine bias broadcast those axes by numpy rules (their
VJPs sum each gradient back to its input's shape), so a term computed once
serves an input that was never fanned out. Everything runs in 64-bit floats
so gradients can be validated tightly against central finite differences.

Each primitive is an op and a kernel. The kernel, ``kernel(*arrays) ->
(output, vjp)``, holds the arithmetic; the op checks its input tensors,
calls the kernel once and records it on the active tape.

Recording is opt-in: ops consult the active tape and compute plainly when none
is active (evaluation runs so); ``recording(None)`` suspends an active tape. A
tape watches one tensor, its input, and tracks it and the outputs of ops it
recorded; an op with no tracked input is not recorded. A layer's weights and
bias are constants: a backward pass that meets a tracked one raises
LineageError rather than return a zero gradient. A backward pass always
differentiates the sum of the loss's elements, so one pass over a stack's
per-image losses gives each image its own gradient. A backward pass replays
the tape's records and leaves the tape as it is, so it can be differentiated
repeatedly.

A tape records program steps and keeps no VJP: each recorded op is one
``_Step`` (its kernel, the slots of its tracked inputs, the arrays of its
untracked ones). ``compile(loss, wrt)`` hands the steps, unchanged, to a
``Program`` of the watched ``wrt``. A program's kernel calls the steps'
kernels on a new input of the recorded shape, and its VJP walks the VJPs of
those calls: the one reverse walk. ``run_program`` is that kernel and its
VJP seeded with ones, and ``backward`` is ``run_program`` at ``wrt``'s own
values. So a program returns the bits that recording and differentiating the
loss at the new input would, without a tape, op checks or recomputed
constants (weights, frozen references, terms computed off the tape). Called
on a tensor, a program is itself one op, so it nests in a larger recorded loss.
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import LineageError, ShapeError

ACTIVATION_KINDS = ("tanh", "sigmoid")
_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """Immutable array of 64-bit floats.

    Computed tensors are dense and row-major; indexing (``t[i]``,
    ``t[:, :n]``) gives read-only views of the indexed tensor.
    """

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
    def _wrap(cls, arr: np.ndarray, dense: bool = True) -> "Tensor":
        # Internal fast path: takes ownership of a freshly computed array, or
        # (dense=False) keeps a view of a frozen one as it is, strided or not.
        # np.asarray (not ascontiguousarray) so 0-d scalars keep shape ().
        t = cls.__new__(cls)
        if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64:
            arr = np.asarray(arr, dtype=np.float64)
        if dense and not arr.flags.c_contiguous:
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
        """Numpy indexing, recorded on no tape; rows and slices are read-only views, not copies."""
        return Tensor._wrap(self._data[index], dense=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Step(NamedTuple):
    """One recorded op, and so one kernel call of a program.

    Input i is the value in tape slot ``slots[i]`` when it is tracked
    (``needs[i]``), and otherwise the constant ``consts[i]``; ``out`` is the
    output's slot. A VJP, ``vjp(output gradient, needs)``, returns per-input
    gradients; those not needed are ignored, so a VJP may skip computing them.
    """

    op: str
    kernel: Callable
    slots: tuple[int | None, ...]
    needs: tuple[bool, ...]
    consts: tuple[np.ndarray | None, ...]
    out: int


class Tape:
    """Ordered steps of primitive operations, in topological (creation) order.

    Each tracked tensor has a slot: the one watched tensor is slot 0, and
    the output of record i is slot i + 1. ``_slots`` maps the tensor itself
    to it (a Tensor hashes by identity) and keeps it alive. A tape keeps no
    VJP and no kernel temporary: a backward pass calls the kernels again.
    """

    def __init__(self):
        self._records: list[_Step] = []
        self._slots: dict[Tensor, int] = {}
        self._ref = weakref.ref(self)

    def watch(self, t: Tensor) -> Tensor:
        """Make ``t`` the tape's one input; LineageError for a second tensor or an output."""
        if self._slots and self._slots.get(t) != 0:
            raise LineageError("a tape watches one tensor, and not an output it recorded")
        self._slots[t] = 0
        return t

    def _record(self, op, kernel, inputs, output):
        slots = tuple([self._slots.get(t) for t in inputs])
        needs = tuple([s is not None for s in slots])
        if True not in needs:
            return
        consts = tuple([t._data if s is None else None for s, t in zip(slots, inputs)])
        out = self._slots[output] = len(self._slots)
        self._records.append(_Step(op, kernel, slots, needs, consts, out))
        output._tape_ref = self._ref


_STACK: list[Tape | None] = []  # innermost last; None suspends recording


@contextmanager
def recording(tape: Tape | None):
    """Record ops on ``tape`` inside the block; None suspends recording."""
    _STACK.append(tape)
    try:
        yield tape
    finally:
        _STACK.pop()


def _apply(op: str, kernel: Callable, inputs: tuple[Tensor, ...]) -> Tensor:
    """Call ``kernel`` on the inputs' arrays once; record it on the active tape, if any."""
    out = Tensor._wrap(kernel(*[t._data for t in inputs])[0])
    tape = _STACK[-1] if _STACK else None
    if tape is not None:
        tape._record(op, kernel, inputs, out)
    return out


# ---------------------------------------------------------------------------
# Differentiable primitives
#
# Each primitive is a public op, which checks its input tensors, and a kernel
# ``kernel(*arrays) -> (output, vjp)``, which holds its arithmetic. An op's
# static arguments (an activation kind, a shape, an axis) are bound into its
# kernel with functools.partial, so a recorded kernel can be called again on
# new arrays of the recorded shapes (see compile).
# ---------------------------------------------------------------------------


def forward_affine(input: Tensor, weights: Tensor, bias: Tensor, act: str | None = None) -> Tensor:
    """act(weights @ input + bias) over the last axis of ``input``, as one taped op.

    ``weights`` is [out, in] and ``bias`` is [..., out]. The leading axes of
    ``input`` and ``bias`` broadcast by numpy rules, so a bias computed once
    (say, a conditioning term for K attributes) serves an input that was never
    fanned out to K. ``act`` is None (plain affine) or one of
    ``ACTIVATION_KINDS``; its derivative is applied inside the same VJP.
    ``weights`` and ``bias`` are constants: the VJP raises LineageError if either is tracked.
    """
    w, b, x = weights.data, bias.data, input.data
    if w.ndim != 2:
        raise ShapeError(f"affine weights must be rank 2, got shape {weights.shape}")
    if b.ndim < 1 or b.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine bias shape {bias.shape} does not match weights {weights.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(
            f"affine input shape {input.shape} does not match weights {weights.shape}"
        )
    if act is not None:
        _check_kind(act)
    return _apply("affine" if act is None else f"affine_{act}", _AFFINE[act],
                  (input, weights, bias))


def _affine_kernel(act: str | None, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    n_out, n_in = w.shape
    x_shape = x.shape
    y = (x.reshape(-1, n_in) @ w.T).reshape(x_shape[:-1] + (n_out,))
    if b.ndim == 1:
        y += b
    else:
        try:
            y = y + b
        except ValueError:
            raise ShapeError(
                f"affine bias shape {b.shape} does not broadcast against input {x_shape}"
            ) from None
    _activate(y, act)

    def vjp(g, needs):
        if needs[1] or needs[2]:
            op = "affine" if act is None else f"affine_{act}"
            raise LineageError(f"{op}: weights and bias (a computed bias too) are constants")
        g = _sum_to(_activation_vjp(g, y, act), x_shape[:-1] + (n_out,))
        return (g.reshape(-1, n_out) @ w).reshape(x_shape), None, None

    return y, vjp


def activation(input: Tensor, kind: str) -> Tensor:
    """Elementwise tanh / sigmoid (the sigmoid stays finite for any input)."""
    _check_kind(kind)
    return _apply(kind, _ACTIVATION[kind], (input,))


def _activation_kernel(kind: str, x: np.ndarray):
    y = _activate(np.array(x), kind)

    def vjp(g, needs):
        return (_activation_vjp(g, y, kind),)

    return y, vjp


_AFFINE = {act: functools.partial(_affine_kernel, act) for act in (None, *ACTIVATION_KINDS)}
_ACTIVATION = {kind: functools.partial(_activation_kernel, kind) for kind in ACTIVATION_KINDS}


def _check_kind(kind: str) -> None:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unsupported activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")


def _activate(x: np.ndarray, kind: str | None) -> np.ndarray:
    """``kind`` applied to the fresh array ``x`` in place (None leaves it as is)."""
    if kind == "tanh":
        np.tanh(x, out=x)
    elif kind == "sigmoid":
        # 0.5 tanh(x/2) + 0.5: finite for any x, and exactly 0 below x ~ -37
        x *= 0.5
        np.tanh(x, out=x)
        x *= 0.5
        x += 0.5
    return x


def _activation_vjp(g: np.ndarray, y: np.ndarray, kind: str | None) -> np.ndarray:
    """``g`` times the derivative of ``kind`` at the input, from its output ``y``.

    The result is a fresh array (``g`` itself when ``kind`` is None): ``g``
    may be shared with other gradients, so it is never written.
    """
    if kind == "tanh":
        d = y * y
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=d)
    if kind == "sigmoid":
        d = g * y
        d *= 1.0 - y
        return d
    return g


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``g`` summed over the axes that broadcasting ``shape`` to ``g.shape`` added or stretched."""
    if g.shape == shape:
        return g
    added = g.ndim - len(shape)
    stretched = tuple(added + i for i, s in enumerate(shape) if s == 1 and g.shape[added + i] != 1)
    return g.sum(axis=tuple(range(added)) + stretched).reshape(shape)


def reshape(input: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != input.size:
        raise ShapeError(f"cannot reshape {input.shape} to {shape}")
    return _apply("reshape", functools.partial(_reshape_kernel, shape), (input,))


def _reshape_kernel(shape: tuple[int, ...], x: np.ndarray):
    old_shape = x.shape

    def vjp(g, needs):
        return (g.reshape(old_shape),)

    return x.reshape(shape), vjp


def concatenate(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concatenate needs at least one tensor")
    return _apply("concat", functools.partial(_concat_kernel, axis), tuple(parts))


def _concat_kernel(axis: int, *arrs: np.ndarray):
    y = np.concatenate(arrs, axis=axis)
    offsets = np.cumsum([a.shape[axis] for a in arrs])[:-1]

    def vjp(g, needs):
        return tuple(np.split(g, offsets, axis=axis))

    return y, vjp


def _trailing(shape: tuple[int, ...], axes: int | None) -> tuple[tuple[int, ...], int]:
    """The trailing ``axes`` axes of ``shape`` (all by default) and how many values they hold."""
    k = len(shape) if axes is None else int(axes)
    if not 0 <= k <= len(shape):
        raise ShapeError(f"cannot take the mean over {k} trailing axes of shape {shape}")
    return tuple(range(len(shape) - k, len(shape))), math.prod(shape[len(shape) - k:])


def mean(input: Tensor, axes: int | None = None) -> Tensor:
    """Mean over the last ``axes`` axes (all of them by default).

    The result keeps the leading axes, so with ``axes=None`` it is a scalar
    (shape ``()``) tensor and otherwise one mean per leading index.
    """
    reduced, n = _trailing(input.shape, axes)
    return _apply("mean", functools.partial(_mean_kernel, reduced, n), (input,))


def _mean_kernel(reduced: tuple[int, ...], n: int, x: np.ndarray):
    shape = x.shape

    def vjp(g, needs):
        out = np.empty(shape)
        out[...] = (g / n).reshape(g.shape + (1,) * len(reduced))
        return (out,)

    # the same bits as np.mean, without its per-call overhead
    return x.sum(axis=reduced) / n, vjp


def squared_difference(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"squared_difference shapes differ: {a.shape} vs {b.shape}")
    return _apply("sqdiff", _sqdiff_kernel, (a, b))


def _sqdiff_kernel(a: np.ndarray, b: np.ndarray):
    d = a - b

    def vjp(g, needs):
        gd = 2.0 * d * g
        return gd, (-gd if needs[1] else None)

    return d * d, vjp


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` with numpy broadcasting; each gradient is summed back to its input's shape."""
    return _apply("add", _add_kernel, (a, b))


def _add_kernel(a: np.ndarray, b: np.ndarray):
    try:
        y = a + b
    except ValueError:
        raise ShapeError(f"add shapes do not broadcast: {a.shape} vs {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g, needs):
        return _sum_to(g, a_shape), _sum_to(g, b_shape)

    return y, vjp


def scale(input: Tensor, factor: float) -> Tensor:
    return _apply("scale", functools.partial(_scale_kernel, float(factor)), (input,))


def _scale_kernel(c: float, x: np.ndarray):
    def vjp(g, needs):
        return (c * g,)

    return c * x, vjp


def mse_loss(a: Tensor, b: Tensor, axes: int | None = None) -> Tensor:
    """Mean of squared elementwise differences over the last ``axes`` axes (all by default).

    One taped op, with the bits of ``mean(squared_difference(a, b), axes)``.
    """
    if a.shape != b.shape:
        raise ShapeError(f"mse_loss shapes differ: {a.shape} vs {b.shape}")
    reduced, n = _trailing(a.shape, axes)
    return _apply("mse", functools.partial(_mse_kernel, reduced, n), (a, b))


def _mse_kernel(reduced: tuple[int, ...], n: int, a: np.ndarray, b: np.ndarray):
    d = a - b

    def vjp(g, needs):
        gd = 2.0 * d
        gd *= (g / n).reshape(g.shape + (1,) * len(reduced))
        return gd, (-gd if needs[1] else None)

    return (d * d).sum(axis=reduced) / n, vjp


# ---------------------------------------------------------------------------
# Differentiation: a recorded loss compiles to a program, and every gradient
# is one replay of it
# ---------------------------------------------------------------------------


def backward(loss: Tensor, wrt: Tensor) -> Tensor:
    """Gradient of the sum of a recorded ``loss``'s elements with respect to the watched ``wrt``.

    Every loss element is seeded with exactly 1, so a scalar loss gets its
    plain gradient and per-image losses of a stack give each image its own.
    It is ``run_program`` of the loss compiled against ``wrt`` at ``wrt``'s
    own values, so the tape is left as it is. A tensor refers to its tape
    only weakly: the caller keeps the tape alive.
    """
    return Tensor._wrap(run_program(compile(loss, wrt), wrt.data)[1])


class Program(NamedTuple):
    """A recorded loss as steps that run on a new input; see ``compile``.

    Called on a tensor, a program is one op: its kernel runs the steps, and
    its VJP is their reverse walk, so it nests in a larger recorded loss.
    """

    steps: tuple[_Step, ...]  # the last one's output is the loss
    shape: tuple[int, ...]  # the input's recorded shape

    def __call__(self, x: Tensor) -> Tensor:
        return _apply("program", functools.partial(_program_kernel, self), (x,))


def compile(loss: Tensor, wrt: Tensor) -> Program:
    """The recorded computation of ``loss`` as a program of the watched ``wrt``.

    The program's steps are the tape's own records, up to the loss's. A
    record's untracked inputs are constants whose arrays it holds: a layer's
    weights, a frozen reference, a term computed off the tape (say, a
    conditioning term), computed once, when the loss was recorded. Neither
    the tape nor the program holds a recorded intermediate or a VJP, and the
    program holds no tape, so the tape can be dropped once compiled.
    LineageError unless ``loss`` was recorded on a live tape that watches ``wrt``.
    """
    tape = loss._tape
    if tape is None:
        raise LineageError("loss tensor was not produced under a live tape")
    if tape._slots.get(wrt) != 0:
        raise LineageError("requested tensor is not watched by the tape that recorded the loss")
    return Program(tuple(tape._records[:tape._slots[loss]]), wrt.shape)


def _program_kernel(program: Program, x: np.ndarray):
    """A program's loss at ``x``, and as its VJP the one reverse walk (the only VJP caller).

    ``x`` must have the recorded shape (ShapeError otherwise) and is used as
    given, as recording used the watched tensor's array. Each step's kernel
    runs on ``x`` and the constants, in creation order; the walk calls the
    VJPs of those calls with each step's recorded ``needs``, so a tracked
    layer parameter raises LineageError.
    """
    steps, shape = program
    if x.shape != shape:
        raise ShapeError(f"program input shape {x.shape} != recorded shape {shape}")
    values = [x] + [None] * len(steps)
    vjps = []
    for _, kernel, slots, _, consts, out_slot in steps:
        out, vjp = kernel(*[c if s is None else values[s] for s, c in zip(slots, consts)])
        # dense, as Tensor._wrap makes it, so each kernel sees its recorded layout
        values[out_slot] = out if out.flags.c_contiguous else np.ascontiguousarray(out)
        vjps.append(vjp)

    def reverse_walk(g_loss, needs):
        # gradients accumulate in one list indexed by slot; every step descends from slot 0
        grads: list[np.ndarray | None] = [None] * len(values)
        grads[-1] = g_loss
        for step, vjp in zip(reversed(steps), reversed(vjps)):
            g_out = grads[step.out]
            if g_out is None:
                continue
            for slot, g in zip(step.slots, vjp(g_out, step.needs)):
                if slot is not None:
                    acc = grads[slot]
                    grads[slot] = g if acc is None else acc + g
        return (grads[0].reshape(shape),)

    return values[-1], reverse_walk


def run_program(program: Program, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``program``'s loss at ``x`` and the gradient of its element sum (a VJP seeded with ones).

    These are the bits that recording the loss at ``x`` and ``backward``
    would give, without a tape, op checks or recomputed constants.
    """
    loss, vjp = _program_kernel(program, x)
    return loss, vjp(np.ones(loss.shape), (True,))[0]


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
