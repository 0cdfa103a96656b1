"""Experiment configuration: one JSON document drives the whole pipeline.

Loading is strict: unknown keys, bad names, and inconsistent shapes are
rejected up front with `ConfigError` so a run never fails halfway in. The
parsed object is normalized back to a canonical dict for echoing, which keeps
rerun comparisons byte-stable.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from .attacks import AttackConfig
from .ensembles import EnsembleStrategy
from .errors import ConfigError
from .metrics import MetricThresholds
from .zoo import ARCHETYPES, ModelDims

SCHEMA_VERSION = 1
SCENARIOS = ("white_box", "gray_box", "black_box")
OBJECTIVE_KINDS = ("image_attack", "leat")

_DIM_KEYS = ("image_shape", "latent_dim", "latent_shape", "encoder_hidden",
             "generator_hidden", "attribute_dim", "refine_steps")


@dataclass(frozen=True)
class ModelSpec:
    """One zoo entry: what to build and under which name."""

    name: str
    archetype: str
    seed: int
    dims: ModelDims = field(default_factory=ModelDims)


@dataclass(frozen=True)
class DatasetSpec:
    """Source images: generated blobs by default, or a PGM/PPM directory."""

    kind: str = "synthetic"
    seed: int = 0
    count: int = 500
    image_shape: tuple[int, ...] = (8, 8, 1)
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[ModelSpec, ...]
    attack: AttackConfig
    objectives: tuple[str, ...]
    ensemble: EnsembleStrategy
    n_known: int
    n_unknown: int
    attribute_seed: int
    dataset: DatasetSpec
    scenarios: tuple[str, ...]
    holdout_model: str | None
    thresholds: MetricThresholds
    metrics_seed: int
    parallel_workers: int  # schema-1 key, validated and echoed; attacks always run serially
    output_dir: str

    def attack_model_names(self) -> tuple[str, ...]:
        """Models the perturbation is built against; the holdout never appears."""
        return tuple(m.name for m in self.models if m.name != self.holdout_model)

    def normalized(self) -> dict:
        """Canonical dict with every default filled in, for config_echo.json."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "models": [
                {
                    "name": m.name,
                    "archetype": m.archetype,
                    "seed": m.seed,
                    "dims": {
                        "image_shape": list(m.dims.image_shape),
                        "latent_dim": m.dims.latent_dim,
                        "latent_shape": (None if m.dims.latent_shape is None
                                         else list(m.dims.latent_shape)),
                        "encoder_hidden": m.dims.encoder_hidden,
                        "generator_hidden": m.dims.generator_hidden,
                        "attribute_dim": m.dims.attribute_dim,
                        "refine_steps": m.dims.refine_steps,
                    },
                }
                for m in self.models
            ],
            "attack": {
                "epsilon": self.attack.epsilon,
                "step_a": self.attack.step_a,
                "iterations": self.attack.iterations,
                "random_init": self.attack.random_init,
                "seed": self.attack.seed,
            },
            "objectives": list(self.objectives),
            "ensemble": {
                "kind": self.ensemble.kind,
                "weights_omega": (None if self.ensemble.weights_omega is None
                                  else list(self.ensemble.weights_omega)),
            },
            "attributes": {
                "known": self.n_known,
                "unknown": self.n_unknown,
                "seed": self.attribute_seed,
            },
            "dataset": (
                {"kind": "directory", "path": self.dataset.path}
                if self.dataset.kind == "directory"
                else {
                    "kind": "synthetic",
                    "seed": self.dataset.seed,
                    "count": self.dataset.count,
                    "image_shape": list(self.dataset.image_shape),
                }
            ),
            "scenarios": list(self.scenarios),
            "holdout_model": self.holdout_model,
            "thresholds": {
                "l2": self.thresholds.l2,
                "id": self.thresholds.id,
                "lpips": self.thresholds.lpips,
            },
            "metrics_seed": self.metrics_seed,
            "parallel_workers": self.parallel_workers,
            "output_dir": self.output_dir,
        }
        return out


def _reject_unknown(mapping: dict, allowed, context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")


def _require_int(value, context: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{context} must be >= {minimum}, got {value}")
    return value


def _parse_dims(raw: dict, context: str) -> ModelDims:
    _reject_unknown(raw, _DIM_KEYS, context)
    kwargs = dict(raw)
    if "image_shape" in kwargs:
        kwargs["image_shape"] = tuple(kwargs["image_shape"])
    if kwargs.get("latent_shape") is not None:
        kwargs["latent_shape"] = tuple(kwargs["latent_shape"])
    return ModelDims(**kwargs)


def _parse_model(raw: dict, index: int) -> ModelSpec:
    context = f"models[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {type(raw).__name__}")
    _reject_unknown(raw, ("name", "archetype", "seed", "dims"), context)
    archetype = raw.get("archetype")
    if archetype not in ARCHETYPES:
        raise ConfigError(f"{context}: archetype must be one of {ARCHETYPES}, got {archetype!r}")
    seed = _require_int(raw.get("seed", index), f"{context}.seed")
    name = raw.get("name", f"{archetype}_{seed}")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{context}: name must be a non-empty string")
    dims = _parse_dims(raw.get("dims", {}), f"{context}.dims")
    return ModelSpec(name=name, archetype=archetype, seed=seed, dims=dims)


def _parse_attack(raw: dict) -> AttackConfig:
    _reject_unknown(raw, ("epsilon", "step_a", "iterations", "random_init", "seed"), "attack")
    kwargs = dict(raw)
    if "seed" in kwargs:
        kwargs["seed"] = _require_int(kwargs["seed"], "attack.seed")
    if "iterations" in kwargs:
        kwargs["iterations"] = _require_int(kwargs["iterations"], "attack.iterations", minimum=1)
    return AttackConfig(**kwargs)


def _parse_dataset(raw: dict, image_shape: tuple[int, ...]) -> DatasetSpec:
    kind = raw.get("kind", "synthetic")
    if kind == "synthetic":
        _reject_unknown(raw, ("kind", "seed", "count", "image_shape"), "dataset")
        shape = tuple(raw.get("image_shape", image_shape))
        if shape != image_shape:
            raise ConfigError(
                f"dataset image_shape {shape} does not match model image_shape {image_shape}")
        return DatasetSpec(
            kind="synthetic",
            seed=_require_int(raw.get("seed", 0), "dataset.seed"),
            count=_require_int(raw.get("count", 500), "dataset.count", minimum=1),
            image_shape=shape,
        )
    if kind == "directory":
        _reject_unknown(raw, ("kind", "path"), "dataset")
        path = raw.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("dataset.path must be a non-empty string for kind 'directory'")
        return DatasetSpec(kind="directory", seed=0, count=0,
                           image_shape=image_shape, path=path)
    raise ConfigError(f"dataset.kind must be 'synthetic' or 'directory', got {kind!r}")


_TOP_KEYS = ("schema_version", "models", "attack", "objectives", "ensemble",
             "attributes", "dataset", "scenarios", "holdout_model",
             "thresholds", "metrics_seed", "parallel_workers", "output_dir")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a JSON-shaped mapping and fill in defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "config")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")

    raw_models = raw.get("models")
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("config.models must be a non-empty list")
    models = tuple(_parse_model(m, i) for i, m in enumerate(raw_models))
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"model names must be unique; duplicated: {dupes}")
    image_shape = models[0].dims.image_shape
    for m in models:
        if m.dims.image_shape != image_shape:
            raise ConfigError(
                f"all models must share one image_shape; {m.name} has {m.dims.image_shape},"
                f" expected {image_shape}")

    attack = _parse_attack(raw.get("attack", {}))

    objectives = raw.get("objectives", list(OBJECTIVE_KINDS))
    if not isinstance(objectives, list) or not objectives:
        raise ConfigError("config.objectives must be a non-empty list")
    for kind in objectives:
        if kind not in OBJECTIVE_KINDS:
            raise ConfigError(f"objectives entries must be in {OBJECTIVE_KINDS}, got {kind!r}")
    if len(set(objectives)) != len(objectives):
        raise ConfigError("config.objectives must not repeat entries")

    raw_ensemble = raw.get("ensemble", {})
    _reject_unknown(raw_ensemble, ("kind", "weights_omega"), "ensemble")
    ensemble = EnsembleStrategy(
        kind=raw_ensemble.get("kind", "normalized_gradient_ensemble"),
        weights_omega=(tuple(raw_ensemble["weights_omega"])
                       if raw_ensemble.get("weights_omega") is not None else None),
    )

    raw_attrs = raw.get("attributes", {})
    _reject_unknown(raw_attrs, ("known", "unknown", "seed"), "attributes")
    n_known = _require_int(raw_attrs.get("known", 5), "attributes.known", minimum=1)
    n_unknown = _require_int(raw_attrs.get("unknown", 5), "attributes.unknown")
    attribute_seed = _require_int(raw_attrs.get("seed", 0), "attributes.seed")

    dataset = _parse_dataset(raw.get("dataset", {}), image_shape)

    scenarios = raw.get("scenarios", ["white_box", "gray_box"])
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("config.scenarios must be a non-empty list")
    for s in scenarios:
        if s not in SCENARIOS:
            raise ConfigError(f"scenarios entries must be in {SCENARIOS}, got {s!r}")
    if len(set(scenarios)) != len(scenarios):
        raise ConfigError("config.scenarios must not repeat entries")
    if "gray_box" in scenarios and n_unknown < 1:
        raise ConfigError("gray_box evaluation needs attributes.unknown >= 1")

    holdout = raw.get("holdout_model")
    if "black_box" in scenarios:
        if holdout is None:
            raise ConfigError("black_box scenario requires holdout_model")
    if holdout is not None:
        if holdout not in names:
            raise ConfigError(f"holdout_model {holdout!r} is not a configured model")
        if len(models) < 2:
            raise ConfigError("holdout_model requires at least one other model to attack")

    if ensemble.weights_omega is not None:
        n_attack = len(names) - (1 if holdout is not None else 0)
        if len(ensemble.weights_omega) != n_attack:
            raise ConfigError(
                f"ensemble.weights_omega has {len(ensemble.weights_omega)} entries"
                f" for {n_attack} attack-time models")

    raw_th = raw.get("thresholds", {})
    _reject_unknown(raw_th, ("l2", "id", "lpips"), "thresholds")
    thresholds = MetricThresholds(**raw_th)

    return ExperimentConfig(
        models=models,
        attack=attack,
        objectives=tuple(objectives),
        ensemble=ensemble,
        n_known=n_known,
        n_unknown=n_unknown,
        attribute_seed=attribute_seed,
        dataset=dataset,
        scenarios=tuple(scenarios),
        holdout_model=holdout,
        thresholds=thresholds,
        metrics_seed=_require_int(raw.get("metrics_seed", 0), "metrics_seed"),
        parallel_workers=_require_int(raw.get("parallel_workers", 1),
                                      "parallel_workers", minimum=1),
        output_dir=str(raw.get("output_dir", "out")),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc

    def reject_constant(name: str):
        raise ConfigError(f"config {p} contains the non-finite constant {name}")

    try:
        raw = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def example_config() -> dict:
    """A complete, fast-running config covering every scenario."""
    return {
        "schema_version": SCHEMA_VERSION,
        "models": [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1},
            {"name": "held_out", "archetype": "vec_conditional", "seed": 2},
        ],
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 10, "seed": 0},
        "objectives": ["image_attack", "leat"],
        "ensemble": {"kind": "normalized_gradient_ensemble"},
        "attributes": {"known": 3, "unknown": 3, "seed": 0},
        "dataset": {"kind": "synthetic", "seed": 0, "count": 4, "image_shape": [8, 8, 1]},
        "scenarios": ["white_box", "gray_box", "black_box"],
        "holdout_model": "held_out",
        "thresholds": {"l2": 0.05, "id": 0.6, "lpips": 0.4},
        "metrics_seed": 0,
        "parallel_workers": 1,
        "output_dir": "out",
    }
