"""Experiment configuration: one JSON document drives the whole pipeline.

Loading is strict: every JSON object is read against one table of field
kinds, so unknown keys, wrongly typed values, bad names and inconsistent
shapes are rejected up front with a `ConfigError` naming the field, and a
run never fails halfway in. Defaults live in the dataclasses the fields
fill. The parsed object is normalized back to a canonical dict for echoing,
which keeps rerun comparisons byte-stable.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .attacks import AttackConfig
from .ensembles import EnsembleStrategy
from .errors import ConfigError
from .metrics import MetricThresholds
from .zoo import ARCHETYPES, ModelDims

SCHEMA_VERSION = 1
SCENARIOS = ("white_box", "gray_box", "black_box")
OBJECTIVE_KINDS = ("image_attack", "leat")
DATASET_KINDS = ("synthetic", "directory")


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


# JSON "attributes" key -> ExperimentConfig field
_ATTRIBUTE_FIELDS = {"known": "n_known", "unknown": "n_unknown", "seed": "attribute_seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[ModelSpec, ...]
    attack: AttackConfig = field(default_factory=AttackConfig)
    objectives: tuple[str, ...] = OBJECTIVE_KINDS
    ensemble: EnsembleStrategy = field(default_factory=EnsembleStrategy)
    n_known: int = 5
    n_unknown: int = 5
    attribute_seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    scenarios: tuple[str, ...] = ("white_box", "gray_box")
    holdout_model: str | None = None
    thresholds: MetricThresholds = field(default_factory=MetricThresholds)
    metrics_seed: int = 0
    parallel_workers: int = 1  # schema-1 key, validated and echoed; attacks always run serially
    output_dir: str = "out"

    def attack_model_names(self) -> tuple[str, ...]:
        """Models the perturbation is built against; the holdout never appears."""
        return tuple(m.name for m in self.models if m.name != self.holdout_model)

    def normalized(self) -> dict:
        """Canonical dict with every default filled in, for config_echo.json.

        It is the JSON shape `parse_config` reads, and reads back to an equal config.
        """
        out = _plain(asdict(self))
        out["schema_version"] = SCHEMA_VERSION
        out["attributes"] = {key: out.pop(name) for key, name in _ATTRIBUTE_FIELDS.items()}
        path = out["dataset"].pop("path")
        if self.dataset.kind == "directory":
            out["dataset"] = {"kind": "directory", "path": path}
        return out


def _plain(value):
    """Dataclass dump with tuples as lists, as JSON writes them."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# -- field kinds: each checks one JSON value and returns what the config holds

def _integer(minimum: int = 0):
    def read(value, where):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        return value
    return read


def _number(value, where) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _flag(value, where) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _text(value, where) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _one_of(options: tuple):
    def read(value, where):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ConfigError(f"{where} must be one of {options}, got {value!r}")
        return value
    return read


def _list(item, length: int | None = None, unique: bool = False):
    def read(value, where) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            shape = "a non-empty list" if length is None else f"a list of {length} entries"
            raise ConfigError(f"{where} must be {shape}, got {value!r}")
        items = tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
        if unique and len(set(items)) != len(items):
            raise ConfigError(f"{where} must not repeat entries, got {value!r}")
        return items
    return read


def _optional(kind):
    return lambda value, where: None if value is None else kind(value, where)


def _object(kinds: dict, build=dict):
    def read(value, where):
        fields = _read(value, where, kinds)
        try:
            return build(**fields)
        except ConfigError as exc:  # a rule of the dataclass; say which object broke it
            raise ConfigError(f"{where}: {exc}") from None
    return read


def _read(raw, where: str, kinds: dict) -> dict:
    """Check one JSON object against its table of kinds; return the fields it sets.

    ``where`` is the object's path in the config ("" for the root).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {unknown}")
    return {key: kinds[key](value, f"{where}.{key}" if where else key)
            for key, value in raw.items()}


def _required(fields: dict, key: str, where: str):
    if key not in fields:
        raise ConfigError(f"{where}.{key} is required")
    return fields[key]


_SHAPE = _list(_integer(1), length=3)
_DIMS = {
    "image_shape": _SHAPE,
    "latent_dim": _integer(1),
    "latent_shape": _optional(_SHAPE),
    "encoder_hidden": _integer(1),
    "generator_hidden": _integer(1),
    "attribute_dim": _integer(1),
    "refine_steps": _integer(0),
}
_MODEL = {
    "name": _text,
    "archetype": _one_of(ARCHETYPES),
    "seed": _integer(),
    "dims": _object(_DIMS, ModelDims),
}
_ATTACK = {
    "epsilon": _number,
    "step_a": _number,
    "iterations": _integer(1),
    "random_init": _flag,
    "seed": _integer(),
}
_ENSEMBLE = {"kind": _text, "weights_omega": _optional(_list(_number))}
_ATTRIBUTES = {"known": _integer(1), "unknown": _integer(), "seed": _integer()}
_SYNTHETIC = {"kind": _one_of(DATASET_KINDS), "seed": _integer(), "count": _integer(1),
              "image_shape": _SHAPE}
_DIRECTORY = {"kind": _one_of(DATASET_KINDS), "path": _text}
_THRESHOLDS = {"l2": _number, "id": _number, "lpips": _number}


def _dataset(value, where) -> dict:
    directory = isinstance(value, dict) and value.get("kind") == "directory"
    return _read(value, where, _DIRECTORY if directory else _SYNTHETIC)


_CONFIG = {
    "schema_version": _one_of((SCHEMA_VERSION,)),
    "models": _list(_object(_MODEL)),
    "attack": _object(_ATTACK, AttackConfig),
    "objectives": _list(_one_of(OBJECTIVE_KINDS), unique=True),
    "ensemble": _object(_ENSEMBLE, EnsembleStrategy),
    "attributes": _object(_ATTRIBUTES),
    "dataset": _dataset,
    "scenarios": _list(_one_of(SCENARIOS), unique=True),
    "holdout_model": _optional(_text),
    "thresholds": _object(_THRESHOLDS, MetricThresholds),
    "metrics_seed": _integer(),
    "parallel_workers": _integer(1),
    "output_dir": _text,
}


def _model(fields: dict, index: int) -> ModelSpec:
    archetype = _required(fields, "archetype", f"models[{index}]")
    seed = fields.get("seed", index)
    return ModelSpec(**{"name": f"{archetype}_{seed}", "seed": seed, **fields})


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a JSON-shaped mapping and fill in defaults."""
    fields = _read(raw, "", _CONFIG)
    fields.pop("schema_version", None)
    models = tuple(_model(m, i) for i, m in enumerate(_required(fields, "models", "config")))
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

    dataset = fields.get("dataset", {})
    if dataset.get("kind") == "directory":
        dataset = DatasetSpec(kind="directory", count=0, image_shape=image_shape,
                              path=_required(dataset, "path", "dataset"))
    else:
        if dataset.setdefault("image_shape", image_shape) != image_shape:
            raise ConfigError(
                f"dataset image_shape {dataset['image_shape']} does not match"
                f" model image_shape {image_shape}")
        dataset = DatasetSpec(**dataset)

    attributes = {_ATTRIBUTE_FIELDS[key]: v for key, v in fields.pop("attributes", {}).items()}
    config = ExperimentConfig(**{**fields, **attributes, "models": models, "dataset": dataset})

    if "gray_box" in config.scenarios and config.n_unknown < 1:
        raise ConfigError("gray_box evaluation needs attributes.unknown >= 1")
    holdout = config.holdout_model
    if "black_box" in config.scenarios and holdout is None:
        raise ConfigError("black_box scenario requires holdout_model")
    if holdout is not None:
        if holdout not in names:
            raise ConfigError(f"holdout_model {holdout!r} is not a configured model")
        if len(models) < 2:
            raise ConfigError("holdout_model requires at least one other model to attack")

    weights = config.ensemble.weights_omega
    if weights is not None and len(weights) != len(config.attack_model_names()):
        raise ConfigError(
            f"ensemble.weights_omega has {len(weights)} entries"
            f" for {len(config.attack_model_names())} attack-time models")
    return config


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
