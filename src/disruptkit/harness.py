"""End-to-end experiment driver.

Every command runs the protocol through two functions: `craft`, the attack
phase, and `scorer`, the three distances under the config's seeded
embedders. The holdout model is never part of the attack ensemble (`craft`
checks its call counters), so white/gray/black-box rows all describe the
same perturbation. `run_experiment` attacks the whole dataset as one stack,
in index order, so the batch layout (and with it every floating-point bit)
is a pure function of the config; image i still starts from the seed
(attack.seed, i), as `disruptkit attack` on image i alone does.
"""

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attacks import build_gradient_provider, run_attack
from .autodiff import Tensor
from .config import ExperimentConfig
from .dataset import (
    SyntheticDataset,
    generate_dataset,
    load_dataset_from_directory,
    synthetic_image,
)
from .errors import ConfigError, InvariantError
from .metrics import (
    SurrogateEmbedder,
    aggregate_dsr,
    classify_success,
    id_distance,
    l2_image,
    pca_project_latents,
    perceptual_distance,
    separation_statistic,
)
from .objectives import ImageAttackObjective, LatentAttackObjective, attribute_outputs
from .zoo import build_model, sample_attribute_set


@dataclass(frozen=True)
class EvaluationRow:
    """One (scenario, method, model, image) measurement."""

    scenario: str
    method: str
    model: str
    image_index: int
    l2: float
    id: float
    lpips: float
    success: bool


@dataclass(frozen=True)
class LatentRow:
    """One projected latent for the PCA export; group is 'clean' or a method."""

    model: str
    group: str
    image_index: int
    pc1: float
    pc2: float


@dataclass(frozen=True)
class EvaluationReport:
    config: ExperimentConfig
    rows: tuple[EvaluationRow, ...]
    latent_rows: tuple[LatentRow, ...]
    runtime_seconds: dict
    separation: dict
    attack_phase_counters: dict
    parameter_ratio: dict
    etas: dict  # method -> its [N, H, W, C] perturbation stack; row i is image i's eta


def _load_images(config: ExperimentConfig) -> SyntheticDataset:
    spec = config.dataset
    if spec.kind == "directory":
        data = load_dataset_from_directory(spec.path)
        if data.image_shape != spec.image_shape:
            raise ConfigError(
                f"directory images have shape {data.image_shape};"
                f" models expect {spec.image_shape}")
        return data
    return generate_dataset(seed=spec.seed, count=spec.count, shape=spec.image_shape)


def _scenario_plan(config: ExperimentConfig, scenario: str, models: dict, pools: dict):
    """Which models to evaluate, and each one's conditioning list."""
    if scenario == "black_box":
        holdout = models[config.holdout_model]
        return [(holdout, pools[holdout.name].known)]
    attack_names = config.attack_model_names()
    if scenario == "white_box":
        return [(models[n], pools[n].known) for n in attack_names]
    return [(models[n], pools[n].unknown) for n in attack_names]


def source_image(config: ExperimentConfig, index: int) -> Tensor:
    """Image ``index`` of the config's dataset; ConfigError if there is none.

    A synthetic dataset draws only that image, bit for bit its row of
    `generate_dataset`. A directory is read and validated in full.
    """
    spec = config.dataset
    if spec.kind == "directory":
        dataset = _load_images(config)
        count = len(dataset)
    else:
        count = spec.count
    if not 0 <= index < count:
        raise ConfigError(f"image_index {index} outside dataset of {count}")
    if spec.kind == "directory":
        return dataset[index]
    return Tensor._wrap(synthetic_image(spec.seed, index, spec.image_shape))


def build_models(config: ExperimentConfig) -> tuple[dict, dict]:
    """The config's models and attribute pools, by model name.

    Drawn here, so that no draw falls inside `craft`'s clock, is what
    ``config`` reads: every attacked model's encoder; with ``image_attack``,
    also their generators and pools; with any scenario, every stage and
    pool. Each pool comes from its own stream ``[attributes.seed, index]``,
    and a pool not drawn here is not a key. A model stage is drawn on first
    read, so a LEAT-only `disruptkit attack` draws no generator.
    """
    models, pools = {}, {}
    attacked = config.attack_model_names()
    generators = bool(config.scenarios) or "image_attack" in config.objectives
    for index, spec in enumerate(config.models):
        model = models[spec.name] = build_model(spec.archetype, spec.seed, spec.dims,
                                                name=spec.name)
        if config.scenarios or spec.name in attacked:
            model.encoder_params  # noqa: B018 - draws the encoder now
            if generators:
                model.split_weights  # noqa: B018 - draws generator_params too
                pools[spec.name] = sample_attribute_set(
                    model, config.n_known, config.n_unknown, [config.attribute_seed, index])
    return models, pools


def build_world(config: ExperimentConfig) -> tuple[dict, dict, SyntheticDataset]:
    """The config's models and attribute pools by model name, and its images.

    Images load first, so a bad dataset fails before any model is built.
    """
    dataset = _load_images(config)
    return (*build_models(config), dataset)


def craft(config: ExperimentConfig, models: dict, pools: dict, X: Tensor):
    """Attack ``X`` (one image or a stack) with each method of ``config.objectives``.

    Returns ``(etas, runtime_seconds, attack_phase_counters)``: per method its
    eta and the wall time of provider build plus attack, and per model its
    encode/generate calls. Raises InvariantError if the holdout was called.
    """
    attack_models = [models[n] for n in config.attack_model_names()]
    for model in models.values():
        model.counters.reset()
    etas, runtime = {}, {}
    for method in config.objectives:
        objective = (LatentAttackObjective() if method == "leat" else ImageAttackObjective(
            attributes_by_model={m.name: pools[m.name].known for m in attack_models}))
        start = time.perf_counter()
        provider = build_gradient_provider(attack_models, objective, config.ensemble, X)
        etas[method] = run_attack(provider, X, config.attack)
        runtime[method] = time.perf_counter() - start
    counters = {
        name: {"encode_calls": m.counters.encode_calls,
               "generate_calls": m.counters.generate_calls}
        for name, m in models.items()
    }
    if config.holdout_model is not None:
        held = counters[config.holdout_model]
        if held["encode_calls"] or held["generate_calls"]:
            raise InvariantError(
                f"holdout model {config.holdout_model!r} was called during the attack: {held}")
    return etas, runtime, counters


def scorer(config: ExperimentConfig):
    """A function giving [l2, id, lpips] of two output stacks [..., H, W, C] as one array.

    Its identity and perceptual embedders are built once, from ``config.metrics_seed``.
    """
    pixels = int(np.prod(config.dataset.image_shape))
    id_embedder = SurrogateEmbedder([config.metrics_seed, 0], pixels)
    lp_embedder = SurrogateEmbedder([config.metrics_seed, 1], pixels)

    def score(y_a, y_b) -> np.ndarray:
        return np.array([l2_image(y_a, y_b),
                         id_distance(y_a, y_b, id_embedder),
                         perceptual_distance(y_a, y_b, lp_embedder)])
    return score


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Craft every perturbation, then evaluate all configured scenarios.

    Each method runs one provider + attack over the whole dataset. With no
    scenarios configured, only the attacks and the latent projection run.
    """
    models, pools, dataset = build_world(config)
    n_images = len(dataset)
    X = dataset.images
    etas, runtime, attack_counters = craft(config, models, pools, X)
    # the input stacks every model encodes for evaluation
    groups = {"clean": X, **{m: Tensor._wrap(X.data + eta.data) for m, eta in etas.items()}}

    # -- evaluation phase: each model encodes each input group once ---------
    latents = {name: {group: model.encode(x) for group, x in groups.items()}
               for name, model in models.items()}
    score = scorer(config)

    rows = []
    for scenario in config.scenarios:
        for model, attrs in _scenario_plan(config, scenario, models, pools):
            # outputs are [N, K, H, W, C]; each distance is averaged over the K attributes
            outputs = attribute_outputs(model, attrs, (n_images,))
            y_clean = outputs(latents[model.name]["clean"])
            for method in config.objectives:
                y_pert = outputs(latents[model.name][method])
                dists = np.mean(score(y_clean, y_pert), axis=2)
                for index, values in enumerate(dists.T.tolist()):
                    rows.append(EvaluationRow(scenario, method, model.name, index, *values,
                                              classify_success(*values, config.thresholds)))
    rows.sort(key=lambda r: (r.scenario, r.method, r.model, r.image_index))

    # -- latent projection ----------------------------------------------------
    latent_rows = []
    separation: dict[str, dict[str, float]] = {}
    for name in sorted(models):
        points = pca_project_latents(np.concatenate([z.data for z in latents[name].values()]))
        points = points.reshape(len(groups), n_images, 2)
        for group, pts in zip(groups, points):
            latent_rows.extend(LatentRow(name, group, index, *p)
                               for index, p in enumerate(pts.tolist()))
        separation[name] = {method: separation_statistic(points[0], pts)
                            for method, pts in zip(config.objectives, points[1:])}

    return EvaluationReport(
        config=config,
        rows=tuple(rows),
        latent_rows=tuple(latent_rows),
        runtime_seconds=runtime,
        separation=separation,
        attack_phase_counters=attack_counters,
        parameter_ratio={name: models[name].parameter_ratio for name in sorted(models)},
        etas=etas,
    )


def _aggregates(report: EvaluationReport) -> dict:
    picked: dict[tuple[str, str], list[EvaluationRow]] = {}
    for row in report.rows:
        picked.setdefault((row.scenario, row.method), []).append(row)
    out: dict[str, dict] = {scenario: {} for scenario in report.config.scenarios}
    for (scenario, method), rows in picked.items():
        flags: dict[str, list[bool]] = {}
        for r in rows:
            flags.setdefault(r.model, []).append(r.success)
        summary = aggregate_dsr(flags)
        out[scenario][method] = {
            "per_model_dsr": summary.per_model,
            "avg_dsr": summary.avg_dsr,
            "e_dsr": summary.e_dsr,
            "mean_l2": float(np.mean([r.l2 for r in rows])),
            "mean_id": float(np.mean([r.id for r in rows])),
            "mean_lpips": float(np.mean([r.lpips for r in rows])),
        }
    return out


def json_text(payload) -> str:
    """``payload`` as strict JSON (no NaN or infinity): sorted keys, indent 2, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_results(report: EvaluationReport, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["scenario", "method", "model", "image_index",
                     "l2", "id", "lpips", "success"])
    for r in report.rows:
        writer.writerow([r.scenario, r.method, r.model, r.image_index,
                         repr(r.l2), repr(r.id), repr(r.lpips), int(r.success)])


def _write_summary(report: EvaluationReport, fh) -> None:
    # a non-finite separation (zero-spread clusters, e.g. one image) is written as null
    separation = {
        name: {method: (v if math.isfinite(v) else None) for method, v in per_method.items()}
        for name, per_method in report.separation.items()
    }
    payload = {
        "schema_version": 1,
        "aggregates": _aggregates(report),
        "runtime_seconds": report.runtime_seconds,
        "separation": separation,
        "attack_phase_counters": report.attack_phase_counters,
        "parameter_ratio": report.parameter_ratio,
        "protocol": {
            "attribute_aggregation": "mean over the scenario's conditioning list"
                                     " before thresholding",
            "success_rule": "any distance strictly above its threshold",
        },
    }
    fh.write(json_text(payload))


def _write_latents(report: EvaluationReport, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["model", "group", "image_index", "pc1", "pc2"])
    for r in report.latent_rows:
        writer.writerow([r.model, r.group, r.image_index, repr(r.pc1), repr(r.pc2)])


def _write_echo(report: EvaluationReport, fh) -> None:
    fh.write(json_text(report.config.normalized()))


REPORT_WRITERS = {
    "results.csv": _write_results,
    "summary.json": _write_summary,
    "latents_pca.csv": _write_latents,
    "config_echo.json": _write_echo,
}


def write_report(report: EvaluationReport, out_dir, name: str) -> Path:
    """Write the report file ``name`` (a key of REPORT_WRITERS) into ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    path = out / name
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            REPORT_WRITERS[name](report, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def emit_reports(report: EvaluationReport, out_dir) -> list[Path]:
    """Write results.csv, summary.json, latents_pca.csv, config_echo.json."""
    return [write_report(report, out_dir, name) for name in REPORT_WRITERS]
