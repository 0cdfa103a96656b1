"""Experiment configuration: one JSON document drives the whole pipeline.

Loading is strict: every JSON object is read against one table of field
kinds, which checks only JSON types. The dataclasses the fields fill hold the
defaults and every rule on a field's value, each rule in the type that owns
the field, so a bad config, parsed, constructed or derived with `replace`,
fails up front with a `ConfigError` naming the field. The parsed
object is normalized back to a canonical dict for echoing, which keeps rerun
comparisons byte-stable.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .attacks import AttackConfig
from .ensembles import EnsembleStrategy
from .errors import ConfigError
from .metrics import MetricThresholds
from .zoo import ARCHETYPES, ModelDims, layer_plan

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

    def __post_init__(self):
        if not self.name:
            raise ConfigError(f"name must be a non-empty string, got {self.name!r}")
        if self.archetype not in ARCHETYPES:
            raise ConfigError(f"archetype must be one of {ARCHETYPES}, got {self.archetype!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:  # the archetype's rules on dims, checked before any data is built
            layer_plan(self.archetype, self.dims)
        except ConfigError as exc:
            raise ConfigError(f"dims: {exc}") from None


@dataclass(frozen=True)
class DatasetSpec:
    """Source images: generated blobs by default, or a PGM/PPM directory."""

    kind: str = "synthetic"
    seed: int = 0
    count: int = 500
    image_shape: tuple[int, ...] = (8, 8, 1)
    path: str | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"dataset.seed must be >= 0, got {self.seed}")
        if len(self.image_shape) != 3 or any(s < 1 for s in self.image_shape):
            raise ConfigError(
                f"dataset.image_shape must be three positive dims, got {tuple(self.image_shape)}")
        if self.kind == "synthetic" and self.count < 1:
            raise ConfigError(f"dataset.count must be >= 1, got {self.count}")
        if self.kind == "directory" and not self.path:
            raise ConfigError("dataset.path is required for a directory dataset")


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
    output_dir: str = "out"

    def __post_init__(self):
        """The field rules, so no construction or `replace` yields a config that breaks them."""
        for where, value, minimum in (("attributes.known", self.n_known, 1),
                                      ("attributes.unknown", self.n_unknown, 0),
                                      ("attributes.seed", self.attribute_seed, 0),
                                      ("metrics_seed", self.metrics_seed, 0)):
            if value < minimum:
                raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        if not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        if not self.models:
            raise ConfigError("models must be a non-empty list")
        if not self.objectives:
            raise ConfigError("objectives must be a non-empty list")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"model names must be unique; duplicated: {dupes}")
        image_shape = self.models[0].dims.image_shape
        for m in self.models:
            if m.dims.image_shape != image_shape:
                raise ConfigError(
                    f"all models must share one image_shape; {m.name} has {m.dims.image_shape},"
                    f" expected {image_shape}")
        if tuple(self.dataset.image_shape) != image_shape:
            raise ConfigError(
                f"dataset image_shape {self.dataset.image_shape} does not match"
                f" model image_shape {image_shape}")
        for key, known in (("objectives", OBJECTIVE_KINDS), ("scenarios", SCENARIOS)):
            values = getattr(self, key)
            if not set(values) <= set(known) or len(set(values)) != len(values):
                raise ConfigError(f"{key} must be distinct entries of {known}, got {values!r}")
        if "gray_box" in self.scenarios and self.n_unknown < 1:
            raise ConfigError("gray_box evaluation needs attributes.unknown >= 1")
        holdout = self.holdout_model
        if "black_box" in self.scenarios and holdout is None:
            raise ConfigError("black_box scenario requires holdout_model")
        if holdout is not None and holdout not in names:
            raise ConfigError(f"holdout_model {holdout!r} is not a configured model")
        if holdout is not None and len(names) < 2:
            raise ConfigError("holdout_model requires at least one other model to attack")
        weights, attackers = self.ensemble.weights_omega, len(self.attack_model_names())
        if weights is not None and len(weights) != attackers:
            raise ConfigError(
                f"ensemble.weights_omega has {len(weights)} entries for {attackers} attack-time models")

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

def _integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _text(value, where) -> str:
    # encoding drops a lone surrogate ("\ud800" in JSON), which no UTF-8 report can hold
    if not isinstance(value, str) or not value or value.encode("utf-8", "ignore").decode() != value:
        raise ConfigError(f"{where} must be a non-empty string of valid Unicode, got {value!r}")
    return value


def _one_of(options: tuple):
    def read(value, where):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ConfigError(f"{where} must be one of {options}, got {value!r}")
        return value
    return read


def _list(item, length: int | None = None):
    def read(value, where) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            shape = "a non-empty list" if length is None else f"a list of {length} entries"
            raise ConfigError(f"{where} must be {shape}, got {value!r}")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
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


_SHAPE = _list(_integer, length=3)
_DIMS = {
    "image_shape": _SHAPE,
    "latent_dim": _integer,
    "latent_shape": _optional(_SHAPE),
    "encoder_hidden": _integer,
    "generator_hidden": _integer,
    "attribute_dim": _integer,
    "refine_steps": _integer,
}
_MODEL = {"name": _text, "archetype": _text, "seed": _integer, "dims": _object(_DIMS, ModelDims)}
_ATTACK = {
    "epsilon": _number,
    "step_a": _number,
    "iterations": _integer,
    # only true: from a zero start every loss is a squared distance to its
    # own reference, so every gradient is 0 and sign(0) never moves eta
    "random_init": _one_of((True,)),
    "seed": _integer,
}
_ENSEMBLE = {"kind": _text, "weights_omega": _optional(_list(_number))}
_ATTRIBUTES = {"known": _integer, "unknown": _integer, "seed": _integer}
_SYNTHETIC = {"kind": _text, "seed": _integer, "count": _integer, "image_shape": _SHAPE}
_DIRECTORY = {"kind": _text, "path": _text}
_THRESHOLDS = {"l2": _number, "id": _number, "lpips": _number}


def _dataset(value, where) -> dict:
    directory = isinstance(value, dict) and value.get("kind") == "directory"
    return _read(value, where, _DIRECTORY if directory else _SYNTHETIC)


_CONFIG = {
    "schema_version": _one_of((SCHEMA_VERSION,)),
    "models": _list(_object(_MODEL)),
    "attack": _object(_ATTACK, AttackConfig),
    "objectives": _list(_text),
    "ensemble": _object(_ENSEMBLE, EnsembleStrategy),
    "attributes": _object(_ATTRIBUTES),
    "dataset": _dataset,
    "scenarios": _list(_text),
    "holdout_model": _optional(_text),
    "thresholds": _object(_THRESHOLDS, MetricThresholds),
    "metrics_seed": _integer,
    "parallel_workers": _one_of((1,)),  # accepted from schema-1 files; attacks run serially
    "output_dir": _text,
}


def _model(fields: dict, index: int) -> ModelSpec:
    archetype = _required(fields, "archetype", f"models[{index}]")
    seed = fields.get("seed", index)
    try:
        return ModelSpec(**{"name": f"{archetype}_{seed}", "seed": seed, **fields})
    except ConfigError as exc:  # a rule of ModelSpec; say which model broke it
        raise ConfigError(f"models[{index}].{exc}") from None


def parse_config(raw: dict) -> ExperimentConfig:
    """Read a JSON-shaped mapping into the config types, filling in defaults."""
    fields = _read(raw, "", _CONFIG)
    fields.pop("schema_version", None)
    fields.pop("parallel_workers", None)
    models = tuple(_model(m, i) for i, m in enumerate(_required(fields, "models", "config")))
    dataset = {"image_shape": models[0].dims.image_shape, **fields.get("dataset", {})}
    if dataset.get("kind") == "directory":
        dataset["count"] = 0
    attributes = {_ATTRIBUTE_FIELDS[key]: v for key, v in fields.pop("attributes", {}).items()}
    return ExperimentConfig(**{**fields, **attributes, "models": models,
                               "dataset": DatasetSpec(**dataset)})


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc

    def reject_constant(name: str):
        raise ConfigError(f"config {p} contains the non-finite constant {name}")

    def unique_keys(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config {p} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, parse_constant=reject_constant, object_pairs_hook=unique_keys)
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
        "output_dir": "out",
    }
