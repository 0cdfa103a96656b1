"""The two disruption objectives, exposed per model for ensemble aggregation.

- Image attack: average output-image MSE over a list of known conditioning
  attributes. Strongest when the attributes at evaluation time match the
  ones attacked.
- Latent attack: MSE between clean and perturbed latents. Carries no
  attribute information whatsoever (enforced structurally: the objective
  type has no fields) and never invokes the generator.

Both are one rule with a different reference function f (E, or
G(E(.), c) over the known attributes): ``_frozen_mse`` computes f(X)
off-tape, once, before any attack iteration, so the optimization target is
fixed, and each image's loss is its MSE to that frozen reference.
``bind`` is the one way to evaluate an objective; ``per_model_image_loss``
is expressed through it. A bound loss returns one value per image: for a stack
``X`` of shape ``[..., H, W, C]`` its shape is ``X``'s leading axes, and for
a single image it is a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import IMAGE_RANK, stack_axes
from .errors import ConfigError
from .zoo import TwoStageModel


@dataclass(frozen=True)
class LatentAttackObjective:
    """Latent-distance objective; deliberately has no attribute field."""

    def bind(self, model: TwoStageModel, X: Tensor) -> Callable[[Tensor], Tensor]:
        """Freeze E(X) now; return a taped per-image loss of the perturbed images."""
        return _frozen_mse(model.encode, X, len(model.latent_shape))


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
        """Freeze G(E(X), c) for every known attribute; return a taped per-image loss.

        The K attributes sit on an axis after X's leading axes, so one encode
        and one generate serve all of them, and each image's loss is the mean
        over (K, H, W, C).
        """
        outputs = attribute_outputs(model, self.attrs_for(model), stack_axes(X.shape))
        return _frozen_mse(lambda x: outputs(model.encode(x)), X, 1 + IMAGE_RANK)


Objective = LatentAttackObjective | ImageAttackObjective


def _frozen_mse(f: Callable[[Tensor], Tensor], X: Tensor,
                rank: int) -> Callable[[Tensor], Tensor]:
    """Freeze ``f(X)`` off-tape; return x -> mse(f(x), f(X)) over the trailing ``rank`` axes."""
    with ad.stop_recording():
        ref = f(X)
    return lambda x: ad.mse_loss(f(x), ref, rank)


def attribute_outputs(model: TwoStageModel, attrs: Sequence[Tensor],
                      lead: tuple[int, ...]) -> Callable[[Tensor], Tensor]:
    """A function from latents ``[*lead, *latent]`` to G(z, c) for every c in ``attrs``.

    Its outputs have shape ``[*lead, K, H, W, C]``: the K attributes sit on
    the axis after ``lead``, so one generate call serves all of them. The
    conditioning stack is built once, here.
    """
    stacked = np.stack([c.data for c in attrs])
    c = Tensor._wrap(np.broadcast_to(stacked, lead + stacked.shape))
    latent_shape = model.latent_shape
    fanned = lead + (len(attrs),) + latent_shape

    def outputs(z: Tensor) -> Tensor:
        return model.generate(ad.broadcast(ad.reshape(z, lead + (1,) + latent_shape), fanned), c)

    return outputs


def per_model_image_loss(model: TwoStageModel, X: Tensor, X_pert: Tensor,
                         attrs: Sequence[Tensor]) -> Tensor:
    """Mean over ``attrs`` of mse(G(E(X),c), G(E(X_pert),c)) per image, references off-tape."""
    return ImageAttackObjective({model.name: attrs}).bind(model, X)(X_pert)
