"""Deterministic toy two-stage generative models y = G(E(X), c).

Four archetypes with heterogeneous latents:

- ``vec_conditional``: vector (or reshaped feature-map) latent; the generator
  is conditioned by concatenating a dense attribute vector.
- ``refiner``: vector latent; the generator applies a fixed number of
  shared-weight residual refinement steps conditioned on c before decoding.
- ``swapper``: vector latent from the source; the conditioning input is a
  second image (the target face), mixed with the latent before decoding.
- ``reenactor``: image-shaped latent (a "neutral image"); the generator warps
  it according to an action-unit-style attribute vector.

All parameters are frozen random draws from a named seed; no training
happens anywhere. Encoders never see the attribute input, so the latent is
a pure function of (params, X) by construction.

Every stage takes leading batch axes: ``encode`` maps ``[..., H, W, C]``
images to ``[..., *latent_shape]`` latents, and ``generate`` takes latents
and conditioning (``[..., A]``, or ``[..., H, W, C]`` for the swapper) with
the same leading axes. A single image is the case with no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .dataset import bump_image
from .errors import ConfigError, ShapeError

__all__ = [
    "ARCHETYPES",
    "LatentSpec",
    "ModelDims",
    "TwoStageModel",
    "AttributeSet",
    "build_model",
    "init_parameters",
    "sample_attribute",
    "sample_attribute_set",
]

ARCHETYPES = ("vec_conditional", "refiner", "swapper", "reenactor")


@dataclass(frozen=True)
class LatentSpec:
    """Shape and flavor of a model's intermediate latent."""

    kind: str  # vector | feature_map | image_shaped
    shape: tuple[int, ...]

    def __post_init__(self):
        rank = len(self.shape)
        if self.kind == "vector" and rank != 1:
            raise ConfigError(f"vector latent must be rank 1, got shape {self.shape}")
        if self.kind == "feature_map" and rank != 3:
            raise ConfigError(f"feature_map latent must be rank 3, got shape {self.shape}")
        if self.kind not in ("vector", "feature_map", "image_shaped"):
            raise ConfigError(f"unknown latent kind {self.kind!r}")


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
            if int(np.prod(self.latent_shape)) != self.latent_dim:
                raise ConfigError(
                    f"latent_shape {self.latent_shape} does not hold latent_dim={self.latent_dim} values"
                )

    @property
    def pixels(self) -> int:
        return int(np.prod(self.image_shape))


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
    return ParameterSet(seed=int(seed_entropy[0]), tensors=tensors)


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
    """Frozen two-stage generative model; parameters immutable after build.

    The only mutable state is the diagnostic call counter pair, which tests
    and the harness use to verify structural claims (e.g. that a latent-only
    attack never invokes the generator).
    """

    name: str
    archetype: str
    encoder_params: ParameterSet
    generator_params: ParameterSet
    latent_spec: LatentSpec
    attribute_arity: int
    seed: int
    dims: ModelDims
    counters: _Counters = field(default_factory=_Counters, compare=False, repr=False)

    # -- encoding stage ----------------------------------------------------

    def encode(self, X: Tensor) -> Tensor:
        """E(X): ``[..., H, W, C]`` images to ``[..., *latent_spec.shape]``; never reads any attribute."""
        lead = self._batch_axes(X, self.dims.image_shape, "encode input")
        self.counters.encode_calls += 1
        p = self.encoder_params
        x_flat = ad.reshape(X, lead + (self.dims.pixels,))
        h = ad.tanh(ad.forward_affine(x_flat, p["enc1.w"], p["enc1.b"]))
        if self.archetype == "reenactor":
            n_flat = ad.sigmoid(ad.forward_affine(h, p["enc2.w"], p["enc2.b"]))
            return ad.reshape(n_flat, lead + self.latent_spec.shape)
        z = ad.tanh(ad.forward_affine(h, p["enc2.w"], p["enc2.b"]))
        if self.latent_spec.kind == "feature_map":
            return ad.reshape(z, lead + self.latent_spec.shape)
        return z

    # -- generation stage --------------------------------------------------

    def generate(self, latent: Tensor, c: Tensor) -> Tensor:
        """G(z, c): ``[..., H, W, C]`` images in [0,1] via terminal sigmoid.

        ``latent`` and ``c`` must have the same leading axes.
        """
        lead = self._batch_axes(latent, self.latent_spec.shape, "latent")
        c_shape = self.dims.image_shape if self.archetype == "swapper" else (self.attribute_arity,)
        if self._batch_axes(c, c_shape, "conditioning") != lead:
            raise ShapeError(
                f"{self.name}: conditioning shape {c.shape} and latent shape {latent.shape}"
                " have different leading axes")
        self.counters.generate_calls += 1
        p = self.generator_params
        if self.archetype == "vec_conditional":
            z = ad.reshape(latent, lead + (self.dims.latent_dim,)) \
                if self.latent_spec.kind == "feature_map" else latent
            u = ad.concatenate([z, c], axis=-1)
            return self._decode(ad.tanh(ad.forward_affine(u, p["gen1.w"], p["gen1.b"])), lead)
        if self.archetype == "refiner":
            state = latent
            for _ in range(self.dims.refine_steps):
                step_in = ad.concatenate([state, c], axis=-1)
                state = ad.add(state, ad.tanh(ad.forward_affine(step_in, p["refine.w"], p["refine.b"])))
            return self._decode(ad.tanh(ad.forward_affine(state, p["gen1.w"], p["gen1.b"])), lead)
        if self.archetype == "swapper":
            c_flat = ad.reshape(c, lead + (self.dims.pixels,))
            target_feat = ad.tanh(ad.forward_affine(c_flat, p["target.w"], p["target.b"]))
            mix = ad.concatenate([latent, target_feat], axis=-1)
            return self._decode(ad.tanh(ad.forward_affine(mix, p["gen1.w"], p["gen1.b"])), lead)
        # reenactor: warp the neutral image by the action-unit vector
        n_flat = ad.reshape(latent, lead + (self.dims.pixels,))
        u = ad.concatenate([n_flat, c], axis=-1)
        return self._decode(ad.tanh(ad.forward_affine(u, p["gen1.w"], p["gen1.b"])), lead)

    def _decode(self, h: Tensor, lead: tuple[int, ...]) -> Tensor:
        p = self.generator_params
        y_flat = ad.sigmoid(ad.forward_affine(h, p["gen2.w"], p["gen2.b"]))
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
        """generator / encoder parameter count (runtime-asymmetry knob)."""
        return self.generator_params.count / self.encoder_params.count


def _layer_plan(archetype: str, dims: ModelDims) -> tuple[list, list, LatentSpec, int]:
    P, L, He, Hg, A = (dims.pixels, dims.latent_dim, dims.encoder_hidden,
                       dims.generator_hidden, dims.attribute_dim)
    if archetype == "vec_conditional":
        if dims.latent_shape is not None:
            spec = LatentSpec("feature_map", dims.latent_shape)
        else:
            spec = LatentSpec("vector", (L,))
        enc = [("enc1", He, P), ("enc2", L, He)]
        gen = [("gen1", Hg, L + A), ("gen2", P, Hg)]
        return enc, gen, spec, A
    if archetype == "refiner":
        spec = LatentSpec("vector", (L,))
        enc = [("enc1", He, P), ("enc2", L, He)]
        gen = [("refine", L, L + A), ("gen1", Hg, L), ("gen2", P, Hg)]
        return enc, gen, spec, A
    if archetype == "swapper":
        spec = LatentSpec("vector", (L,))
        enc = [("enc1", He, P), ("enc2", L, He)]
        gen = [("target", L, P), ("gen1", Hg, 2 * L), ("gen2", P, Hg)]
        return enc, gen, spec, P
    if archetype == "reenactor":
        spec = LatentSpec("image_shaped", dims.image_shape)
        enc = [("enc1", He, P), ("enc2", P, He)]
        gen = [("gen1", Hg, P + A), ("gen2", P, Hg)]
        return enc, gen, spec, A
    raise ConfigError(f"unknown archetype {archetype!r}; expected one of {ARCHETYPES}")


def build_model(archetype: str, seed: int, dims: ModelDims | None = None,
                name: str | None = None) -> TwoStageModel:
    """Deterministic model: same (archetype, seed, dims) always gives identical weights."""
    dims = dims or ModelDims()
    if dims.latent_shape is not None and archetype != "vec_conditional":
        raise ConfigError(f"latent_shape is only supported by vec_conditional, not {archetype}")
    enc_plan, gen_plan, spec, arity = _layer_plan(archetype, dims)
    return TwoStageModel(
        name=name or f"{archetype}_{seed}",
        archetype=archetype,
        encoder_params=init_parameters([seed, 0], enc_plan),
        generator_params=init_parameters([seed, 1], gen_plan),
        latent_spec=spec,
        attribute_arity=arity,
        seed=seed,
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
        everything = list(self.known) + list(self.unknown)
        for i in range(len(everything)):
            for j in range(i + 1, len(everything)):
                if everything[i].shape == everything[j].shape and np.array_equal(
                    everything[i].data, everything[j].data
                ):
                    raise ConfigError("attribute pools must be pairwise distinct")


def sample_attribute(model: TwoStageModel, rng: np.random.Generator) -> Tensor:
    """One conditioning draw from a continuous pool (targets are unbounded).

    Dense attribute vectors are uniform in [-1,1]; the swapper's conditioning
    is a target-face image drawn from the same blob distribution as sources.
    """
    if model.archetype == "swapper":
        return Tensor._wrap(bump_image(rng, model.dims.image_shape))
    return Tensor._wrap(rng.uniform(-1.0, 1.0, size=model.attribute_arity))


def sample_attribute_set(model: TwoStageModel, n_known: int, n_unknown: int,
                         seed_entropy: Sequence[int]) -> AttributeSet:
    """Disjoint known/unknown pools from one named stream."""
    rng = np.random.default_rng(list(seed_entropy))
    known = tuple(sample_attribute(model, rng) for _ in range(n_known))
    unknown = tuple(sample_attribute(model, rng) for _ in range(n_unknown))
    return AttributeSet(known=known, unknown=unknown)
