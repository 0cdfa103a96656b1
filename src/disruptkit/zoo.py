"""Deterministic toy two-stage generative models y = G(E(X), c).

Four archetypes with heterogeneous latents:

- ``vec_conditional``: vector (or reshaped feature-map) latent; the generator
  is conditioned on a dense attribute vector.
- ``refiner``: vector latent; the generator applies a fixed number of
  shared-weight residual refinement steps conditioned on c before decoding.
- ``swapper``: vector latent from the source; the conditioning input is a
  second image (the target face), mixed with the latent before decoding.
- ``reenactor``: image-shaped latent (a "neutral image"); the generator warps
  it according to an action-unit-style attribute vector.

The conditioning enters through its own columns of one weight (``gen1.w``,
or ``refine.w`` for the refiner), as if ``[z, c]`` were concatenated:
``W [z, c] + b = W_z z + (W_c c + b)``. The two column blocks are sliced
once, and ``generate`` computes ``W_c c + b`` once per call.

All parameters are frozen random draws from a named seed; no training
happens anywhere. Each stage is drawn from its own stream when it is first
read (the encoder from ``[seed, 0]``, the generator from ``[seed, 1]``), so
the bits do not depend on which stage is read first, and a model that only
encodes (the latent attack's) never draws its generator. Encoders never see
the attribute input, so the latent is a pure function of (params, X) by
construction.

An archetype is declared once, in ``layer_plan``: its encoder and
generator layer tables, its ``latent_shape`` and its ``condition_shape``
(``(A,)``, or the image shape ``(H, W, C)`` for the swapper). Every stage
takes leading batch axes: ``encode`` maps ``[..., H, W, C]`` images to
``[..., *latent_shape]`` latents, and ``generate`` takes latents and
``[..., *condition_shape]`` conditioning whose leading axes broadcast by
numpy rules. A single image is the case with no leading axes. Each layer
``act(W x + b)`` is one taped op.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .dataset import bump_image
from .errors import ConfigError, ShapeError

ARCHETYPES = ("vec_conditional", "refiner", "swapper", "reenactor")


@dataclass(frozen=True)
class ModelDims:
    """Size table for one toy model; defaults keep exhaustive gradient checks cheap."""

    image_shape: tuple[int, ...] = (8, 8, 1)
    latent_dim: int = 12
    latent_shape: tuple[int, ...] | None = None  # rank-3 => feature_map latent (vec_conditional only)
    encoder_hidden: int = 16
    generator_hidden: int = 96
    attribute_dim: int = 4
    refine_steps: int = 4

    def __post_init__(self):
        object.__setattr__(self, "image_shape", tuple(int(s) for s in self.image_shape))
        if self.latent_shape is not None:
            object.__setattr__(self, "latent_shape", tuple(int(s) for s in self.latent_shape))
        if len(self.image_shape) != 3 or any(s < 1 for s in self.image_shape):
            raise ConfigError(f"image_shape must be three positive dims, got {self.image_shape}")
        for name in ("latent_dim", "encoder_hidden", "generator_hidden", "attribute_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.refine_steps < 0:
            raise ConfigError(f"refine_steps must be >= 0, got {self.refine_steps}")
        if self.latent_shape is not None:
            if len(self.latent_shape) != 3 or any(s < 1 for s in self.latent_shape):
                raise ConfigError(f"latent_shape must be three positive dims, got {self.latent_shape}")
            if math.prod(self.latent_shape) != self.latent_dim:
                raise ConfigError(
                    f"latent_shape {self.latent_shape} does not hold latent_dim={self.latent_dim} values"
                )

    @property
    def pixels(self) -> int:
        return math.prod(self.image_shape)


def init_parameters(seed_entropy: Sequence[int], layers: Sequence[tuple[str, int, int]]) -> ParameterSet:
    """Affine stacks drawn from one named stream; weights U[-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    ``layers`` lists (name, out_dim, in_dim); tensors are emitted as name.w / name.b
    in order, so the same description and seed always give identical values.
    """
    rng = np.random.default_rng(list(seed_entropy))
    tensors: dict[str, Tensor] = {}
    for name, out_dim, in_dim in layers:
        bound = 1.0 / np.sqrt(in_dim)
        tensors[f"{name}.w"] = Tensor._wrap(rng.uniform(-bound, bound, size=(out_dim, in_dim)))
        tensors[f"{name}.b"] = Tensor._wrap(np.zeros(out_dim))
    return ParameterSet(tensors=tensors)


@dataclass
class _Counters:
    """Diagnostic call counters (test instrumentation, not model state)."""

    encode_calls: int = 0
    generate_calls: int = 0

    def reset(self):
        self.encode_calls = 0
        self.generate_calls = 0


@dataclass(frozen=True)
class TwoStageModel:
    """Frozen two-stage generative model; parameters immutable once drawn.

    ``encoder_params``, ``generator_params`` and ``split_weights`` are drawn
    on first read from the model's ``seed``. The only mutable state is the
    diagnostic call counter pair, which tests and the harness use to verify
    structural claims (e.g. that a latent-only attack never invokes the
    generator).
    """

    name: str
    archetype: str
    seed: int
    latent_shape: tuple[int, ...]
    condition_shape: tuple[int, ...]
    dims: ModelDims
    counters: _Counters = field(default_factory=_Counters, compare=False, repr=False)

    @functools.cached_property
    def encoder_params(self) -> ParameterSet:
        return init_parameters([self.seed, 0], layer_plan(self.archetype, self.dims)[0])

    @functools.cached_property
    def generator_params(self) -> ParameterSet:
        return init_parameters([self.seed, 1], layer_plan(self.archetype, self.dims)[1])

    @functools.cached_property
    def split_weights(self) -> tuple[Tensor, Tensor]:
        """(latent columns, conditioning columns) of the weight where the
        conditioning enters (``refine.w`` for the refiner, else ``gen1.w``)."""
        mixed = self.generator_params["refine.w" if self.archetype == "refiner" else "gen1.w"]
        n_latent = math.prod(self.latent_shape)
        # views, not copies: BLAS reads a column block in place, with the same bits
        return mixed[:, :n_latent], mixed[:, n_latent:]

    # -- encoding stage ----------------------------------------------------

    def encode(self, X: Tensor) -> Tensor:
        """E(X): ``[..., H, W, C]`` images to ``[..., *latent_shape]``; never reads any attribute."""
        lead = self._batch_axes(X, self.dims.image_shape, "encode input")
        self.counters.encode_calls += 1
        p = self.encoder_params
        x_flat = ad.reshape(X, lead + (self.dims.pixels,))
        h = ad.forward_affine(x_flat, p["enc1.w"], p["enc1.b"], "tanh")
        # the reenactor's latent is a neutral image, so it lives in [0,1] like one
        squash = "sigmoid" if self.archetype == "reenactor" else "tanh"
        z = ad.forward_affine(h, p["enc2.w"], p["enc2.b"], squash)
        return ad.reshape(z, lead + self.latent_shape) if len(self.latent_shape) > 1 else z

    # -- generation stage --------------------------------------------------

    def generate(self, latent: Tensor, c: Tensor) -> Tensor:
        """G(z, c): ``[..., H, W, C]`` images in [0,1] via terminal sigmoid.

        The leading axes of ``latent`` and ``c`` broadcast by numpy rules and
        give the output's. The conditioning term (``c``'s weight columns plus
        the bias) is computed once per call, on ``c``'s own leading axes, so
        ``z[N, 1, ...]`` with ``c[K, ...]`` gives ``[N, K, ...]`` without
        fanning the latent out to K first. That term is a layer's bias, so ``c``
        is a constant: a backward pass raises LineageError if ``c`` is tracked.
        """
        lead_z = self._batch_axes(latent, self.latent_shape, "latent")
        lead_c = self._batch_axes(c, self.condition_shape, "conditioning")
        try:
            lead = np.broadcast_shapes(lead_z, lead_c)
        except ValueError:
            raise ShapeError(
                f"{self.name}: conditioning shape {c.shape} and latent shape {latent.shape}"
                " have leading axes that do not broadcast") from None
        self.counters.generate_calls += 1
        p = self.generator_params
        w_z, w_c = self.split_weights
        if self.archetype == "refiner":
            cond = ad.forward_affine(c, w_c, p["refine.b"])
            h = latent
            for _ in range(self.dims.refine_steps):
                h = ad.add(h, ad.forward_affine(h, w_z, cond, "tanh"))
            gen1_b = p["gen1.b"]
            if not self.dims.refine_steps:  # c's leading axes still reach the output
                gen1_b = Tensor._wrap(np.broadcast_to(gen1_b.data, lead_c + gen1_b.shape))
            h = ad.forward_affine(h, p["gen1.w"], gen1_b, "tanh")
        else:
            if self.archetype == "swapper":  # c is the target face, mixed in as features
                c_flat = ad.reshape(c, lead_c + (self.dims.pixels,))
                c = ad.forward_affine(c_flat, p["target.w"], p["target.b"], "tanh")
            cond = ad.forward_affine(c, w_c, p["gen1.b"])
            if len(self.latent_shape) > 1:
                latent = ad.reshape(latent, lead_z + (math.prod(self.latent_shape),))
            h = ad.forward_affine(latent, w_z, cond, "tanh")
        y_flat = ad.forward_affine(h, p["gen2.w"], p["gen2.b"], "sigmoid")
        return ad.reshape(y_flat, lead + self.dims.image_shape)

    def _batch_axes(self, t: Tensor, trailing: tuple[int, ...], what: str) -> tuple[int, ...]:
        """The leading axes of ``t``, after checking that its shape ends in ``trailing``."""
        lead = len(t.shape) - len(trailing)
        if lead < 0 or t.shape[lead:] != trailing:
            raise ShapeError(f"{self.name}: {what} shape {t.shape} does not end in {trailing}")
        return t.shape[:lead]

    def full_forward(self, X: Tensor, c: Tensor) -> Tensor:
        """Literal composition generate(encode(X), c); the decomposition is exact."""
        return self.generate(self.encode(X), c)

    @property
    def parameter_ratio(self) -> float:
        """generator / encoder parameter count (runtime-asymmetry knob), from the layer shapes."""
        enc, gen = (sum(out_dim * (in_dim + 1) for _, out_dim, in_dim in layers)
                    for layers in layer_plan(self.archetype, self.dims)[:2])
        return gen / enc


def layer_plan(archetype: str, dims: ModelDims) -> tuple[list, list, tuple, tuple]:
    """An archetype's encoder and generator layers (name, out, in), latent and conditioning shapes.

    The layer lists are in draw order: reordering them changes every weight.
    """
    if dims.latent_shape is not None and archetype != "vec_conditional":
        raise ConfigError(f"latent_shape is only supported by vec_conditional, not {archetype}")
    P, L, He, Hg, A = (dims.pixels, dims.latent_dim, dims.encoder_hidden,
                       dims.generator_hidden, dims.attribute_dim)
    enc = [("enc1", He, P), ("enc2", L, He)]
    if archetype == "vec_conditional":
        return enc, [("gen1", Hg, L + A), ("gen2", P, Hg)], dims.latent_shape or (L,), (A,)
    if archetype == "refiner":
        return enc, [("refine", L, L + A), ("gen1", Hg, L), ("gen2", P, Hg)], (L,), (A,)
    if archetype == "swapper":
        gen = [("target", L, P), ("gen1", Hg, 2 * L), ("gen2", P, Hg)]
        return enc, gen, (L,), dims.image_shape
    if archetype == "reenactor":
        enc = [("enc1", He, P), ("enc2", P, He)]
        return enc, [("gen1", Hg, P + A), ("gen2", P, Hg)], dims.image_shape, (A,)
    raise ConfigError(f"unknown archetype {archetype!r}; expected one of {ARCHETYPES}")


def build_model(archetype: str, seed: int, dims: ModelDims | None = None,
                name: str | None = None) -> TwoStageModel:
    """Deterministic model: same (archetype, seed, dims) always gives identical weights.

    Nothing is drawn here: each stage is drawn when first read.
    """
    dims = dims or ModelDims()
    latent_shape, condition_shape = layer_plan(archetype, dims)[2:]
    return TwoStageModel(
        name=name or f"{archetype}_{seed}",
        archetype=archetype,
        seed=seed,
        latent_shape=latent_shape,
        condition_shape=condition_shape,
        dims=dims,
    )


# ---------------------------------------------------------------------------
# Conditioning attributes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeSet:
    """Known and unknown conditioning pools for one model, pairwise distinct."""

    known: tuple[Tensor, ...]
    unknown: tuple[Tensor, ...]

    def __post_init__(self):
        everything = (*self.known, *self.unknown)
        # one key per value: equal shapes and bytes, with -0.0 folded into 0.0 by + 0.0
        if len({(t.shape, (t.data + 0.0).tobytes()) for t in everything}) < len(everything):
            raise ConfigError("attribute pools must be pairwise distinct")


def sample_attribute(model: TwoStageModel, rng: np.random.Generator) -> Tensor:
    """One conditioning draw from a continuous pool (targets are unbounded).

    Dense attribute vectors are uniform in [-1,1]; the swapper's conditioning
    is a target-face image drawn from the same blob distribution as sources.
    """
    if model.archetype == "swapper":
        return Tensor._wrap(bump_image(rng, model.condition_shape))
    return Tensor._wrap(rng.uniform(-1.0, 1.0, size=model.condition_shape))


def sample_attribute_set(model: TwoStageModel, n_known: int, n_unknown: int,
                         seed_entropy: Sequence[int]) -> AttributeSet:
    """Disjoint known/unknown pools from one named stream."""
    rng = np.random.default_rng(list(seed_entropy))
    known = tuple(sample_attribute(model, rng) for _ in range(n_known))
    unknown = tuple(sample_attribute(model, rng) for _ in range(n_unknown))
    return AttributeSet(known=known, unknown=unknown)
