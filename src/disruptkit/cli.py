"""Command-line surface: run, attack, calibrate, project.

Every subcommand is a pure function of the config file plus explicit flags;
exit codes are 0 on success, 1 for configuration problems, 2 for anything
else.
"""

import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .config import OBJECTIVE_KINDS, load_config
from .errors import ConfigError
from .harness import (
    build_models,
    build_world,
    craft,
    emit_reports,
    json_text,
    run_experiment,
    scorer,
    source_image,
    write_report,
)
from .objectives import attribute_outputs
# not called here; bench/tracing.py wraps these names in each module that binds them
from .attacks import build_gradient_provider, run_attack  # noqa: F401
from .zoo import build_model, sample_attribute_set  # noqa: F401


def _apply_overrides(config, seed_override, scenario):
    """The config with the flags applied; the config's own rules check them."""
    flag = "--seed-override"
    try:
        if seed_override is not None:
            config = replace(config, attack=replace(config.attack, seed=seed_override))
        flag = "--scenario"
        if scenario is not None:
            config = replace(config, scenarios=(scenario,))
    except ConfigError as exc:  # say which flag broke a rule
        raise ConfigError(f"{flag}: {exc}") from None
    return config


def _check_out_dir(out_dir) -> Path:
    """``out_dir``, or exit 1 now if it could never be made a directory; creates nothing."""
    out = Path(out_dir)
    ancestor = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not os.path.isdir(ancestor):
        raise ConfigError(f"cannot write {out}: {ancestor} is not a directory")
    return out


def _echo(text: str, stream: str = "stdout", nl: bool = True) -> None:
    """``click.echo`` to the current stdout or stderr, resolved on every call.

    Left to itself, click caches its wrapper of each stream it sees in a weak
    map whose value, for an in-memory stream, is the stream itself, so every
    redirected stream (and all the text written to it) would stay alive.
    ``errors=None`` keeps click's default wrapping: UTF-8 with replacement
    on an ASCII stream.
    """
    click.echo(text, nl=nl, file=click.get_text_stream(stream, errors=None))


def _write_json(payload, out_path) -> None:
    """``json_text(payload)`` to ``out_path`` (whose name is echoed), or to stdout."""
    text = json_text(payload)
    if out_path is None:
        _echo(text, nl=False)
    else:
        try:
            Path(out_path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
        _echo(str(out_path))


def _guarded(command):
    """The command with ConfigError mapped to exit 1 and any other failure to exit 2."""
    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except ConfigError as exc:
            _echo(f"config error: {exc}", "stderr")
            sys.exit(1)
        except Exception as exc:  # noqa: BLE001  - runtime failures map to exit 2
            _echo(f"error: {exc}", "stderr")
            sys.exit(2)
    return guarded


@click.group()
def main():
    """Adversarial disruption experiments against a toy two-stage model zoo."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
@click.option("--scenario", default=None, type=str)
@_guarded
def run(config_path, out_dir, seed_override, scenario):
    """Full experiment: attacks, scenario evaluations, report files."""
    config = _apply_overrides(load_config(config_path), seed_override, scenario)
    out = _check_out_dir(out_dir or config.output_dir)
    for path in emit_reports(run_experiment(config), out):
        _echo(str(path))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--image-index", default=0, type=int)
@click.option("--method", default="leat", type=click.Choice(list(OBJECTIVE_KINDS)))
@click.option("--seed-override", default=None, type=int)
@_guarded
def attack(config_path, out_path, image_index, method, seed_override):
    """Craft one image's perturbation, as `run` does for that image, and write it as JSON."""
    config = _apply_overrides(load_config(config_path), seed_override, None)
    if method not in config.objectives:
        raise ConfigError(f"method {method!r} is not in config.objectives")
    X = source_image(config, image_index)  # checked before any model is built
    models, pools = build_models(config)
    one = replace(config, objectives=(method,),
                  attack=replace(config.attack, seed=(config.attack.seed, image_index)))
    eta = craft(one, models, pools, X)[0][method]
    payload = {
        "method": method,
        "image_index": image_index,
        "epsilon": config.attack.epsilon,
        "shape": list(eta.shape),
        "eta": [repr(float(v)) for v in eta.data.reshape(-1)],
    }
    _write_json(payload, out_path)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--pairs", default=50, type=int)
@_guarded
def calibrate(config_path, out_path, pairs):
    """Distance distributions on clean output pairs, for threshold sanity."""
    config = load_config(config_path)
    if pairs < 1:
        raise ConfigError(f"pairs must be >= 1, got {pairs}")
    models, pools, dataset = build_world(config)
    if len(dataset) < 2:
        raise ConfigError("calibration needs at least 2 images")
    score = scorer(config)
    rng = np.random.default_rng([config.metrics_seed, 2])
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
    out = {"pairs": pairs, "quantiles": quantiles, "models": {}}
    for name, model in models.items():
        drawn = np.array([rng.choice(len(dataset), size=2, replace=False)
                          for _ in range(pairs)])
        outputs = attribute_outputs(model, pools[name].known[:1], (pairs,))
        ya, yb = (outputs(model.encode(dataset.images[side])) for side in drawn.T)
        out["models"][name] = {
            metric: [float(q) for q in np.quantile(values, quantiles)]
            for metric, values in zip(("l2", "id", "lpips"), score(ya, yb))
        }
    _write_json(out, out_path)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
@_guarded
def project(config_path, out_dir, seed_override):
    """Attack, then export only the latent PCA table (no scenario evaluation)."""
    config = _apply_overrides(load_config(config_path), seed_override, None)
    out = _check_out_dir(out_dir or config.output_dir)
    report = run_experiment(replace(config, scenarios=()))
    _echo(str(write_report(report, out, "latents_pca.csv")))
