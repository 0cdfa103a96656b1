"""Command-line surface: run, attack, calibrate, project.

Every subcommand is a pure function of the config file plus explicit flags;
exit codes are 0 on success, 1 for configuration problems, 2 for anything
else.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .attacks import build_gradient_provider, run_attack
from .config import OBJECTIVE_KINDS, SCENARIOS, load_config
from .errors import ConfigError
from .harness import (
    _build_objective,
    _load_images,
    build_world,
    emit_reports,
    run_experiment,
    write_report,
)
from .metrics import SurrogateEmbedder, id_distance, l2_image, perceptual_distance
from .zoo import build_model, sample_attribute_set


def _apply_overrides(config, seed_override, scenario):
    if seed_override is not None:
        config = replace(config, attack=replace(config.attack, seed=seed_override))
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
        if scenario == "black_box" and config.holdout_model is None:
            raise ConfigError("black_box scenario requires holdout_model")
        config = replace(config, scenarios=(scenario,))
    return config


def _guarded(fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001  - runtime failures map to exit 2
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Adversarial disruption experiments against a toy two-stage model zoo."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
@click.option("--scenario", default=None, type=str)
def run(config_path, out_dir, seed_override, scenario):
    """Full experiment: attacks, scenario evaluations, report files."""

    def body():
        config = _apply_overrides(load_config(config_path), seed_override, scenario)
        report = run_experiment(config)
        paths = emit_reports(report, out_dir or config.output_dir)
        for path in paths:
            click.echo(str(path))

    _guarded(body)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--image-index", default=0, type=int)
@click.option("--method", default="leat", type=click.Choice(list(OBJECTIVE_KINDS)))
@click.option("--seed-override", default=None, type=int)
def attack(config_path, out_path, image_index, method, seed_override):
    """Craft one perturbation and write it as JSON."""

    def body():
        config = _apply_overrides(load_config(config_path), seed_override, None)
        if method not in config.objectives:
            raise ConfigError(f"method {method!r} is not in config.objectives")
        models, pools, dataset = build_world(config)
        if not 0 <= image_index < len(dataset):
            raise ConfigError(f"image_index {image_index} outside dataset of {len(dataset)}")
        attack_models = [models[n] for n in config.attack_model_names()]
        known = {m.name: pools[m.name].known for m in attack_models}
        X = dataset[image_index]
        per_image = replace(config.attack, seed=(config.attack.seed, image_index))
        provider = build_gradient_provider(
            attack_models, _build_objective(method, known), config.ensemble, X)
        eta = run_attack(provider, X, per_image)
        payload = {
            "method": method,
            "image_index": image_index,
            "epsilon": config.attack.epsilon,
            "shape": list(eta.shape),
            "eta": [repr(float(v)) for v in eta.data.reshape(-1)],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if out_path is None:
            click.echo(text, nl=False)
        else:
            Path(out_path).write_text(text)
            click.echo(str(out_path))

    _guarded(body)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--pairs", default=50, type=int)
def calibrate(config_path, out_path, pairs):
    """Distance distributions on clean output pairs, for threshold sanity."""

    def body():
        config = load_config(config_path)
        if pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {pairs}")
        dataset = _load_images(config)
        if len(dataset) < 2:
            raise ConfigError("calibration needs at least 2 images")
        pixels = int(np.prod(config.dataset.image_shape))
        id_emb = SurrogateEmbedder([config.metrics_seed, 0], pixels)
        lp_emb = SurrogateEmbedder([config.metrics_seed, 1], pixels)
        rng = np.random.default_rng([config.metrics_seed, 2])
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
        out = {"pairs": pairs, "quantiles": quantiles, "models": {}}
        for index, spec in enumerate(config.models):
            model = build_model(spec.archetype, spec.seed, spec.dims, name=spec.name)
            pool = sample_attribute_set(model, 1, 0, [config.attribute_seed, index])
            c = pool.known[0]
            dists = {"l2": [], "id": [], "lpips": []}
            for _ in range(pairs):
                i, j = rng.choice(len(dataset), size=2, replace=False)
                ya = model.full_forward(dataset[int(i)], c)
                yb = model.full_forward(dataset[int(j)], c)
                dists["l2"].append(l2_image(ya, yb))
                dists["id"].append(id_distance(ya, yb, id_emb))
                dists["lpips"].append(perceptual_distance(ya, yb, lp_emb))
            out["models"][spec.name] = {
                metric: [float(q) for q in np.quantile(values, quantiles)]
                for metric, values in dists.items()
            }
        text = json.dumps(out, indent=2, sort_keys=True) + "\n"
        if out_path is None:
            click.echo(text, nl=False)
        else:
            Path(out_path).write_text(text)
            click.echo(str(out_path))

    _guarded(body)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
def project(config_path, out_dir, seed_override):
    """Attack, then export only the latent PCA table (no scenario evaluation)."""

    def body():
        config = _apply_overrides(load_config(config_path), seed_override, None)
        report = run_experiment(replace(config, scenarios=()))
        click.echo(str(write_report(report, out_dir or config.output_dir, "latents_pca.csv")))

    _guarded(body)
