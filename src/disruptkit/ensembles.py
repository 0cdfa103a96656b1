"""Cross-model gradient aggregation rules.

Four ways to turn K per-model gradients into the single gradient the attack
loop consumes:

- loss_ensemble: weighted sum of gradients (gradient of the weighted loss
  sum, by linearity). Weights default to 1.
- hmm: hard-model mining — the gradient of the model with the minimum loss
  this iteration, ties broken by lowest model_id.
- gradient_ensemble: plain average (1/K) of gradients; mathematically the
  loss ensemble with weights 1/K.
- normalized_gradient_ensemble: sum of gradients each divided by its own L2
  norm, so no single vulnerable model dominates the direction. A gradient
  with norm below ZERO_NORM_THRESHOLD contributes zero instead of NaN.

A loss value may be an array of per-image losses instead of a float. Its
shape is then the gradient's leading axes, which index rows (one per image
of a stack), and each rule applies per row: the sums are elementwise anyway,
the normalized ensemble takes one L2 norm per row, and hmm picks one model
per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError

ENSEMBLE_KINDS = ("loss_ensemble", "hmm", "gradient_ensemble", "normalized_gradient_ensemble")

# a per-model gradient with L2 norm below this contributes the zero tensor
# to the normalized ensemble instead of dividing by a vanishing norm
ZERO_NORM_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PerModelGradient:
    """One model's contribution: its loss values and d(loss)/d(source images).

    ``loss_value`` is a float for one image, or an array of per-image losses
    whose shape is the gradient's leading (row) axes.
    """

    model_id: int
    loss_value: float | np.ndarray
    gradient: Tensor


def _check(per_model: Sequence[PerModelGradient]) -> int:
    """Validate shapes; returns the number of leading row axes."""
    if not per_model:
        raise ConfigError("gradient aggregation needs at least one model")
    shape = per_model[0].gradient.shape
    rows = np.shape(per_model[0].loss_value)
    for pm in per_model:
        if pm.gradient.shape != shape:
            raise ShapeError(
                f"model {pm.model_id} gradient shape {pm.gradient.shape} != {shape}"
            )
        if np.shape(pm.loss_value) != rows or shape[:len(rows)] != rows:
            raise ShapeError(
                f"model {pm.model_id} loss shape {np.shape(pm.loss_value)} does not lead"
                f" gradient shape {shape}"
            )
    return len(rows)


def _check_weights(omega: Sequence[float]) -> None:
    if not all(math.isfinite(w) and w > 0 for w in omega):
        raise ConfigError(f"ensemble weights must all be finite and > 0, got {list(omega)}")


def aggregate_loss_ensemble(per_model: Sequence[PerModelGradient],
                            omega: Sequence[float] | None = None) -> Tensor:
    """Sum of omega_k * gradient_k; omega defaults to all ones."""
    _check(per_model)
    if omega is None:
        omega = [1.0] * len(per_model)
    if len(omega) != len(per_model):
        raise ConfigError(
            f"got {len(omega)} weights for {len(per_model)} models"
        )
    _check_weights(omega)
    total = np.zeros(per_model[0].gradient.shape)
    for w, pm in zip(omega, per_model):
        total = total + float(w) * pm.gradient.data
    return Tensor._wrap(total)


def aggregate_hmm(per_model: Sequence[PerModelGradient]) -> Tensor:
    """Per row, the minimum-loss model's gradient row, copied bit-identically.

    Ties go to the lowest model_id. When one model wins every row, its
    gradient object itself is returned.
    """
    rows = _check(per_model)
    ordered = sorted(per_model, key=lambda pm: pm.model_id)
    # argmin takes the first minimum, i.e. the lowest model_id among ties
    winner = np.argmin(np.stack([np.asarray(pm.loss_value) for pm in ordered]), axis=0)
    if np.all(winner == winner.flat[0]):
        return ordered[int(winner.flat[0])].gradient
    grads = np.stack([pm.gradient.data for pm in ordered])
    pick = winner.reshape((1,) + winner.shape + (1,) * (grads.ndim - 1 - rows))
    return Tensor._wrap(np.take_along_axis(grads, pick, axis=0)[0])


def aggregate_gradient_ensemble(per_model: Sequence[PerModelGradient]) -> Tensor:
    """(1/K) * sum of gradients: the unit-weight loss ensemble over K (1.0 * g is exact)."""
    return Tensor._wrap(aggregate_loss_ensemble(per_model).data / len(per_model))


def aggregate_normalized(per_model: Sequence[PerModelGradient]) -> Tensor:
    """Sum of per-row unit-normalized gradients; vanishing rows contribute zero."""
    rows = _check(per_model)
    total = np.zeros(per_model[0].gradient.shape)
    for pm in per_model:
        g = pm.gradient.data
        norm = np.sqrt((g * g).sum(axis=tuple(range(rows, g.ndim)), keepdims=True))
        dead = norm < ZERO_NORM_THRESHOLD
        # a NaN norm is not dead, so a NaN gradient still poisons the sum
        total += np.divide(g, norm, out=np.zeros_like(g), where=~dead) if dead.any() else g / norm
    return Tensor._wrap(total)


@dataclass(frozen=True)
class EnsembleStrategy:
    """Config-level choice of aggregation rule plus optional loss weights."""

    kind: str = "normalized_gradient_ensemble"
    weights_omega: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}; expected one of {ENSEMBLE_KINDS}")
        if self.weights_omega is not None:
            if self.kind != "loss_ensemble":
                raise ConfigError("weights_omega is only meaningful for loss_ensemble")
            object.__setattr__(self, "weights_omega", tuple(float(w) for w in self.weights_omega))
            _check_weights(self.weights_omega)


def aggregate(strategy: EnsembleStrategy, per_model: Sequence[PerModelGradient]) -> Tensor:
    if strategy.kind == "loss_ensemble":
        return aggregate_loss_ensemble(per_model, strategy.weights_omega)
    if strategy.kind == "hmm":
        return aggregate_hmm(per_model)
    if strategy.kind == "gradient_ensemble":
        return aggregate_gradient_ensemble(per_model)
    return aggregate_normalized(per_model)
