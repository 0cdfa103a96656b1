"""Disruption scoring: distances, threshold-OR success, DSR aggregates, PCA.

Pretrained identity and perceptual networks are out of scope here; both
distances run on frozen, seeded random MLPs instead. That preserves the
protocol's structure (distances plus a threshold-OR success rule) but not
anyone's absolute numbers, so the thresholds are configurable and a
calibration routine reports null-sample distributions to set them against.
The distances map one image to a float and a stack ``[..., H, W, C]`` to
an array over its stack axes. All functions are pure numpy over immutable
inputs; nothing here records on a tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor
from .dataset import stack_axes
from .errors import ConfigError, DegenerateEmbeddingError, ShapeError
from .zoo import init_parameters


@dataclass(frozen=True)
class MetricThresholds:
    """Success cutoffs for the three distances (strict greater-than)."""

    l2: float = 0.05
    id: float = 0.6
    lpips: float = 0.4

    def __post_init__(self):
        for name in ("l2", "id", "lpips"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"threshold {name} must be finite and > 0, got {value}")


# hidden layer widths of every SurrogateEmbedder; the last is the embedding size
EMBEDDER_WIDTHS = (32, 24, 16)


class SurrogateEmbedder:
    """Frozen random MLP standing in for a pretrained feature network.

    ``embed`` returns the final embedding; ``features`` returns every hidden
    tap for the perceptual distance. Layer widths are EMBEDDER_WIDTHS; the
    weights are drawn as a model's are (``zoo.init_parameters``), so they
    are deterministic from (seed, input size). Never trained.
    """

    def __init__(self, seed_entropy: Sequence[int], input_size: int):
        if input_size < 1:
            raise ConfigError("embedder input size must be positive")
        self.input_size = int(input_size)
        fan_ins = (self.input_size,) + EMBEDDER_WIDTHS[:-1]
        plan = [(f"layer{i}", w, n) for i, (w, n) in enumerate(zip(EMBEDDER_WIDTHS, fan_ins))]
        params = init_parameters(seed_entropy, plan)
        self._layers = [params[f"{name}.w"].data for name, _, _ in plan]

    def features(self, image) -> list[np.ndarray]:
        """Per-layer activations ``[..., width]`` per image; tanh on all but the last."""
        x = _as_array(image)
        lead = stack_axes(x.shape)
        if math.prod(x.shape[len(lead):]) != self.input_size:
            raise ShapeError(f"embedder expects {self.input_size} values per image, got {x.shape}")
        x = x.reshape(-1, self.input_size)
        taps = []
        for i, weight in enumerate(self._layers):
            x = x @ weight.T
            if i < len(self._layers) - 1:
                x = np.tanh(x)
            taps.append(x.reshape(lead + (weight.shape[0],)))
        return taps

    def embed(self, image) -> np.ndarray:
        return self.features(image)[-1]


def _as_array(t) -> np.ndarray:
    if isinstance(t, Tensor):
        return t.data
    return np.asarray(t, dtype=np.float64)


def _pair(y_clean, y_pert) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_array(y_clean), _as_array(y_pert)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _per_image(values):
    return float(values) if np.ndim(values) == 0 else values


def l2_image(y_clean, y_pert) -> float | np.ndarray:
    """Mean squared pixel difference."""
    a, b = _pair(y_clean, y_pert)
    d = a - b
    image_axes = tuple(range(len(stack_axes(d.shape)), d.ndim))
    return _per_image(np.mean(d * d, axis=image_axes))


def id_distance(y_clean, y_pert, embedder) -> float | np.ndarray:
    """1 - cosine similarity of the two embeddings, in [0, 2]."""
    a, b = _pair(y_clean, y_pert)
    ea, eb = np.asarray(embedder.embed(a)), np.asarray(embedder.embed(b))
    na, nb = np.linalg.norm(ea, axis=-1), np.linalg.norm(eb, axis=-1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DegenerateEmbeddingError("zero-norm embedding; cosine distance undefined")
    cos = np.clip(np.sum(ea * eb, axis=-1) / (na * nb), -1.0, 1.0)
    # identical embeddings give exactly 0; self-cosine would round to 1 - ulp
    return _per_image(np.where(np.all(ea == eb, axis=-1), 0.0, 1.0 - cos))


def perceptual_distance(y_clean, y_pert, embedder) -> float | np.ndarray:
    """Mean over tapped layers of the unit-normalized feature difference L2.

    A zero-norm tap is treated as the zero direction rather than an error,
    so the distance stays defined on degenerate inputs.
    """
    a, b = _pair(y_clean, y_pert)
    dists = [np.linalg.norm(_unit_or_zero(ta) - _unit_or_zero(tb), axis=-1)
             for ta, tb in zip(embedder.features(a), embedder.features(b))]
    return _per_image(np.mean(dists, axis=0))


def _unit_or_zero(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` over its norm; a zero-norm row stays zero."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.divide(v, n, out=np.zeros(np.shape(v)), where=n != 0.0)


def classify_success(l2: float, id_loss: float, lpips: float,
                     th: MetricThresholds) -> bool:
    """True iff any distance strictly exceeds its threshold."""
    if l2 < 0 or id_loss < 0 or lpips < 0:
        raise ValueError("distances must be non-negative")
    return l2 > th.l2 or id_loss > th.id or lpips > th.lpips


@dataclass(frozen=True)
class DsrSummary:
    per_model: dict[str, float]
    avg_dsr: float
    e_dsr: float


def aggregate_dsr(flags_by_model: Mapping[str, Sequence[bool]]) -> DsrSummary:
    """Per-model success rate, their mean, and the all-models-at-once rate."""
    if not flags_by_model:
        raise ConfigError("need at least one model's flags")
    lengths = {name: len(flags) for name, flags in flags_by_model.items()}
    if len(set(lengths.values())) != 1:
        raise ConfigError(f"inconsistent image counts across models: {lengths}")
    stacked = np.array([[bool(f) for f in flags] for flags in flags_by_model.values()])
    if stacked.size == 0:
        raise ConfigError("need at least one image")
    per_model = dict(zip(flags_by_model, stacked.mean(axis=1).tolist()))
    return DsrSummary(per_model=per_model, avg_dsr=float(np.mean(list(per_model.values()))),
                      e_dsr=float(np.mean(stacked.all(axis=0))))


def pca_project_latents(latents: np.ndarray | Tensor) -> np.ndarray:
    """Mean-centered projection of latents ``[n, ...]`` onto the top two principal axes.

    Each latent is flattened. Component signs are fixed by making each
    axis's largest-magnitude coordinate positive, so the projection is
    deterministic. All-identical latents project to the origin. Returns an
    array of shape (n, 2).
    """
    dims = 2
    data = _as_array(latents)
    if len(data) < 2:
        raise ConfigError("need at least two latents to project")
    data = data.reshape(len(data), -1)
    centered = data - data.mean(axis=0)
    if not np.any(centered):
        return np.zeros((len(data), dims))
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = np.zeros((dims, data.shape[1]))
    take = min(dims, vt.shape[0])
    axes[:take] = vt[:take]
    for r in range(take):
        pivot = int(np.argmax(np.abs(axes[r])))
        if axes[r, pivot] < 0:
            axes[r] = -axes[r]
    return centered @ axes.T


def separation_statistic(group_a: np.ndarray, group_b: np.ndarray) -> float:
    """Inter-centroid distance over mean intra-group spread.

    Zero spread with coincident centroids gives 0; zero spread with distinct
    centroids gives inf (perfectly separated point clusters).
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"groups must be 2-D with equal width: {a.shape} vs {b.shape}")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    inter = float(np.linalg.norm(ca - cb))
    spread_a = float(np.mean(np.linalg.norm(a - ca, axis=1)))
    spread_b = float(np.mean(np.linalg.norm(b - cb, axis=1)))
    spread = 0.5 * (spread_a + spread_b)
    if spread == 0.0:
        return 0.0 if inter == 0.0 else float("inf")
    return inter / spread
