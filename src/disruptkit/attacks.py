"""Sign-gradient perturbation search under an L-infinity budget.

run_attack is the one attack loop; the one-step (FGSM) attack is run_attack
with iterations=1. The iterate keeps three invariants at every iteration
boundary, checked explicitly so they also hold under ``python -O``:

- X_t == X + eta, bitwise,
- every X_t value within [0, 1],
- max |eta| <= epsilon, bitwise.

To make those hold in floating point, the update and the budget clamp are
applied to eta directly (the x-space form (X_t + a*sign(g)) - X is the same
quantity in real arithmetic but loses ulps to cancellation), and the start
and every step go through one projection, _project: clip eta to
+/-epsilon, then, where X + eta leaves [0,1], replace eta by -X or (1 - X)
in one pass. That pass is exact (x + (-x) is 0 and x + fl(1 - x) never
rounds above 1) and only shrinks |eta|, so the clamp's exact +/-epsilon
values survive and coordinates already valid keep their bits.

The gradient provider passed to run_attack encapsulates the objective and
the ensemble strategy; the loop itself knows nothing about models.

Both work on one image ``[H, W, C]`` or a stack ``[..., H, W, C]``: every
step is elementwise, the provider backpropagates the sum of the per-image
losses (which gives each image exactly its own gradient) and the ensemble
rules apply per image, so a stack attacks each of its images independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .dataset import stack_axes
from .ensembles import EnsembleStrategy, PerModelGradient, aggregate
from .errors import ConfigError, InvariantError, ShapeError
from .objectives import Objective
from .zoo import TwoStageModel

GradientProvider = Callable[[Tensor], Tensor]

@dataclass(frozen=True)
class AttackConfig:
    """Budget, step size, and loop shape. Defaults follow the source protocol."""

    epsilon: float = 0.05
    step_a: float = 0.01
    iterations: int = 30
    random_init: bool = True
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not math.isfinite(self.step_a) or self.step_a <= 0:
            raise ConfigError(f"step_a must be finite and > 0, got {self.step_a}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if any(entry < 0 for entry in self.seed_entropy()):
            raise ConfigError(f"seed entries must be >= 0, got {self.seed}")

    def seed_entropy(self) -> list[int]:
        if isinstance(self.seed, int):
            return [self.seed]
        return list(self.seed)


@dataclass(frozen=True)
class AttackState:
    """Loop snapshot handed to the on_step callback after each iteration."""

    X: Tensor
    x_t: Tensor
    eta: Tensor
    t: int


def _project(x: np.ndarray, eta: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(X + eta, eta) with eta clipped to +/-eps and X + eta settled into [0,1]."""
    eta = np.clip(eta, -eps, eps)
    x_t = x + eta
    eta = np.where(x_t < 0.0, -x, np.where(x_t > 1.0, 1.0 - x, eta))
    return x + eta, eta


def _random_start(config: AttackConfig, shape: tuple[int, ...]) -> np.ndarray:
    """eta uniform in [-eps, +eps]; the image at stack index i draws from (seed, *i).

    A single image (no stack axes) draws from config.seed alone, so image i
    of a stack starts exactly where a one-image attack seeded (seed, i) does.
    """
    lead = stack_axes(shape)
    entropy = config.seed_entropy()
    starts = [np.random.default_rng(entropy + list(index)).uniform(
                  -config.epsilon, config.epsilon, size=shape[len(lead):])
              for index in np.ndindex(*lead)]
    return np.stack(starts).reshape(shape)


def run_attack(objective_grad: GradientProvider, X: Tensor, config: AttackConfig,
               *, init_eta: Tensor | None = None,
               on_step: Callable[[AttackState], None] | None = None) -> Tensor:
    """Iterative signed-gradient attack; returns the final perturbation eta.

    Each iteration: X' = X_t + a * sign(g); eta = clip_eps(X' - X);
    X_{t+1} = X + eta kept pixel-valid. With random_init the loop starts
    from eta uniform in [-eps, +eps] (drawn from config.seed, per image of a
    stack, see _random_start), otherwise from zero. ``init_eta`` resumes
    from a previous run's output (mutually exclusive with random_init). Every
    start goes through the same projection as each step, which leaves a
    valid eta's bits unchanged, so split runs reproduce one long run
    bit-for-bit.
    """
    if np.any(X.data < 0.0) or np.any(X.data > 1.0):
        raise ConfigError("source image must have values in [0,1]")
    eps = config.epsilon
    x_arr = X.data
    if init_eta is not None:
        if config.random_init:
            raise ConfigError("init_eta cannot be combined with random_init")
        if init_eta.shape != X.shape:
            raise ShapeError(f"init_eta shape {init_eta.shape} != source shape {X.shape}")
    start = (init_eta.data if init_eta is not None
             else _random_start(config, X.shape) if config.random_init
             else np.zeros(X.shape))
    x_t, eta = _project(x_arr, start, eps)

    for t in range(config.iterations):
        g = objective_grad(Tensor._wrap(x_t))
        if g.shape != X.shape:
            raise ShapeError(f"gradient provider returned shape {g.shape}, expected {X.shape}")
        x_t, eta = _project(x_arr, eta + config.step_a * np.sign(g.data), eps)
        # ndarray.min/max/all rather than np.* wrappers: same tests (NaN fails
        # each), a fraction of the per-iteration cost
        if not np.abs(eta).max() <= eps:
            raise InvariantError(
                f"iteration {t}: max |eta| = {np.abs(eta).max()} exceeds epsilon {eps}")
        if not (x_t.min() >= 0.0 and x_t.max() <= 1.0):
            raise InvariantError(f"iteration {t}: X + eta left the pixel range [0, 1]")
        if not (x_t == x_arr + eta).all():
            raise InvariantError(f"iteration {t}: x_t is not bitwise X + eta")
        if on_step is not None:
            on_step(AttackState(X=X, x_t=Tensor._wrap(x_t), eta=Tensor._wrap(eta), t=t))
    return Tensor._wrap(eta)


def build_gradient_provider(models: Sequence[TwoStageModel], objective: Objective,
                            strategy: EnsembleStrategy, X: Tensor) -> GradientProvider:
    """Bind objective references to X and wire per-model gradients into the ensemble.

    Clean references (latents or outputs) are frozen here, once, before any
    iteration. Each call then runs one fresh tape per model, backpropagates
    the sum of that model's per-image losses once, and aggregates. A
    non-finite loss or gradient raises InvariantError naming the model and
    the image row (in row-major order over X's stack axes; 0 for one image).
    """
    if not models:
        raise ConfigError("gradient provider needs at least one model")
    bound = [(i, model, objective.bind(model, X)) for i, model in enumerate(models)]

    def provider(x_t: Tensor) -> Tensor:
        per_model = []
        for model_id, model, loss_fn in bound:
            tape = Tape()
            tape.watch(x_t)
            with ad.recording(tape):
                losses = loss_fn(x_t)
            gradient = ad.backward(losses, x_t)
            _check_finite(model, losses.data, gradient.data)
            per_model.append(PerModelGradient(
                model_id=model_id, loss_value=losses.data, gradient=gradient))
        return aggregate(strategy, per_model)

    return provider


def _check_finite(model: TwoStageModel, losses: np.ndarray, gradient: np.ndarray) -> None:
    if np.isfinite(losses).all() and np.isfinite(gradient).all():
        return
    rows = losses.size
    finite = (np.isfinite(losses.reshape(rows))
              & np.isfinite(gradient.reshape(rows, -1)).all(axis=1))
    raise InvariantError(
        f"model {model.name!r}: non-finite loss or gradient at image row"
        f" {int(np.argmin(finite))}")
