"""The two disruption objectives, exposed per model for ensemble aggregation.

- Image attack: average output-image MSE over a list of known conditioning
  attributes. Strongest when the attributes at evaluation time match the
  ones attacked.
- Latent attack: MSE between clean and perturbed latents. Carries no
  attribute information whatsoever (enforced structurally: the objective
  type has no fields) and never invokes the generator.

Reference values (clean outputs and latents) are computed off-tape and
frozen before any attack iteration, so the optimization target is fixed.
``bind`` is the one way to evaluate an objective; the helpers below are
expressed through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .zoo import TwoStageModel

__all__ = [
    "ImageAttackObjective",
    "LatentAttackObjective",
    "per_model_image_loss",
    "objective_value",
]


@dataclass(frozen=True)
class LatentAttackObjective:
    """Latent-distance objective; deliberately has no attribute field."""

    def bind(self, model: TwoStageModel, X: Tensor) -> Callable[[Tensor], Tensor]:
        """Freeze E(X) now; return a taped loss of the perturbed image."""
        with ad.stop_recording():
            ref = model.encode(X)

        def loss(x_pert: Tensor) -> Tensor:
            return ad.mse_loss(model.encode(x_pert), ref)

        return loss


@dataclass(frozen=True)
class ImageAttackObjective:
    """Attribute-averaged output-distance objective.

    ``attributes_by_model`` maps model name to the (known) conditioning list
    used for that model's loss.
    """

    attributes_by_model: Mapping[str, Sequence[Tensor]]

    def __post_init__(self):
        for name, attrs in self.attributes_by_model.items():
            if not attrs:
                raise ConfigError(f"{name}: image attack needs a non-empty attribute list")

    def attrs_for(self, model: TwoStageModel) -> Sequence[Tensor]:
        attrs = self.attributes_by_model.get(model.name)
        if not attrs:
            raise ConfigError(f"no attack attributes configured for model {model.name!r}")
        return attrs

    def bind(self, model: TwoStageModel, X: Tensor) -> Callable[[Tensor], Tensor]:
        """Freeze G(E(X), c) for every known attribute; return a taped loss."""
        attrs = self.attrs_for(model)
        with ad.stop_recording():
            refs = [model.full_forward(X, c) for c in attrs]

        def loss(x_pert: Tensor) -> Tensor:
            # one encode shared across all attributes
            z = model.encode(x_pert)
            losses = [ad.mse_loss(model.generate(z, c), ref) for c, ref in zip(attrs, refs)]
            total = losses[0]
            for extra in losses[1:]:
                total = ad.add(total, extra)
            return ad.scale(total, 1.0 / len(losses))

        return loss


Objective = LatentAttackObjective | ImageAttackObjective


def per_model_image_loss(model: TwoStageModel, X: Tensor, X_pert: Tensor,
                         attrs: Sequence[Tensor]) -> Tensor:
    """Mean over ``attrs`` of mse(G(E(X),c), G(E(X_pert),c)), references off-tape."""
    return ImageAttackObjective({model.name: attrs}).bind(model, X)(X_pert)


def objective_value(objective: Objective, models: Sequence[TwoStageModel],
                    X: Tensor, X_pert: Tensor) -> float:
    """Sum of per-model losses, computed off-tape (diagnostic scalar)."""
    with ad.stop_recording():
        return sum((objective.bind(model, X)(X_pert).item() for model in models), 0.0)
