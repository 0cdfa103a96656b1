"""CLI surface: subcommands, flag handling, exit codes, output determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from disruptkit.cli import main
from disruptkit.config import load_config
from disruptkit.harness import run_experiment


def _config_dict(**overrides):
    raw = {
        "schema_version": 1,
        "models": [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1},
        ],
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 6,
                   "random_init": True, "seed": 0},
        "objectives": ["image_attack", "leat"],
        "ensemble": {"kind": "normalized_gradient_ensemble"},
        "attributes": {"known": 2, "unknown": 2, "seed": 0},
        "dataset": {"kind": "synthetic", "seed": 0, "count": 3,
                    "image_shape": [8, 8, 1]},
        "scenarios": ["white_box", "gray_box"],
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_dict(**overrides)))
    return path


def test_run_writes_reports(runner, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    names = [line.rsplit("/", 1)[-1] for line in result.output.splitlines()]
    assert names == ["results.csv", "summary.json", "latents_pca.csv",
                     "config_echo.json"]
    assert (out / "results.csv").is_file()


def test_run_twice_byte_identical_results(runner, tmp_path):
    cfg = _write_config(tmp_path)
    for sub in ("a", "b"):
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b


def test_run_scenario_flag_narrows(runner, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out),
                                  "--scenario", "white_box"])
    assert result.exit_code == 0, result.output
    body = (out / "results.csv").read_text().splitlines()[1:]
    assert body
    assert all(line.startswith("white_box,") for line in body)


def test_run_seed_override_changes_results(runner, tmp_path):
    cfg = _write_config(tmp_path)
    base, other = tmp_path / "base", tmp_path / "other"
    assert runner.invoke(
        main, ["run", "--config", str(cfg), "--out", str(base)]).exit_code == 0
    assert runner.invoke(
        main, ["run", "--config", str(cfg), "--out", str(other),
               "--seed-override", "99"]).exit_code == 0
    assert (base / "results.csv").read_bytes() != (other / "results.csv").read_bytes()


def test_run_unknown_scenario_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--scenario", "mauve_box"])
    assert result.exit_code == 1


def test_run_black_box_without_holdout_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--scenario", "black_box"])
    assert result.exit_code == 1


def test_run_missing_config_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


def test_run_invalid_json_exits_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 1


@pytest.mark.parametrize("section, key, value, token", [
    ("attack", "step_a", float("nan"), "NaN"),
    ("attack", "epsilon", float("inf"), "Infinity"),
    ("thresholds", "l2", float("nan"), "NaN"),
])
def test_run_non_finite_config_value_exits_1(runner, tmp_path, section, key, value, token):
    raw = _config_dict()
    raw.setdefault(section, {})[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert token in result.output and str(cfg) in result.output


def _set(raw, path, value):
    *parents, last = path
    for key in parents:
        raw = raw[key] if isinstance(key, int) else raw.setdefault(key, {})
    raw[last] = value


@pytest.mark.parametrize("path, value, field", [
    # wrongly typed values that used to fail later with a raw Python error
    (("attack", "epsilon"), "0.05", "attack.epsilon"),
    (("thresholds", "l2"), "x", "thresholds.l2"),
    (("models", 0, "dims", "latent_dim"), "12", "models[0].dims.latent_dim"),
    (("models", 0, "dims", "latent_dim"), 12.5, "models[0].dims.latent_dim"),
    (("models", 0, "dims", "image_shape"), 8, "models[0].dims.image_shape"),
    (("dataset", "image_shape"), 8, "dataset.image_shape"),
    (("ensemble",), [], "ensemble"),
    (("attributes",), [], "attributes"),
    (("dataset",), [], "dataset"),
    (("thresholds",), [], "thresholds"),
    (("attributes",), None, "attributes"),
    (("attack",), None, "attack"),
    # wrongly typed values that used to be accepted
    (("attack", "random_init"), "no", "attack.random_init"),
    (("attack", "random_init"), 0, "attack.random_init"),
    (("attack", "step_a"), True, "attack.step_a"),
    (("thresholds", "id"), True, "thresholds.id"),
    (("models", 0, "dims", "refine_steps"), True, "models[0].dims.refine_steps"),
    (("models", 0, "dims"), [], "models[0].dims"),
    (("output_dir",), 5, "output_dir"),
    (("models", 0, "dims", "image_shape"), [8.5, 8, 1], "models[0].dims.image_shape[0]"),
    (("dataset", "image_shape"), [8.0, 8, 1], "dataset.image_shape[0]"),
    (("schema_version",), True, "schema_version"),
])
def test_run_malformed_config_exits_1(runner, tmp_path, path, value, field):
    raw = _config_dict()
    _set(raw, path, value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert f"config error: {field} must" in result.output


@pytest.mark.parametrize("command", ["run", "attack", "project"])
def test_negative_seed_override_exits_1(runner, tmp_path, command):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(tmp_path / "out"), "--seed-override", "-1"])
    assert result.exit_code == 1, result.output
    assert "attack.seed must be >= 0" in result.output
    assert not (tmp_path / "out").exists()


def test_run_runtime_failure_exits_2(runner, tmp_path):
    # dataset path that exists but is a file: surfaces as an OS-level error
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    cfg = _write_config(
        tmp_path, dataset={"kind": "directory", "path": str(blocker)})
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 2


def test_attack_emits_eta_json(runner, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "eta.json"
    result = runner.invoke(main, ["attack", "--config", str(cfg),
                                  "--image-index", "1", "--method", "leat",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["method"] == "leat"
    assert payload["image_index"] == 1
    assert payload["shape"] == [8, 8, 1]
    values = np.array([float(v) for v in payload["eta"]]).reshape(8, 8, 1)
    assert float(np.max(np.abs(values))) <= payload["epsilon"] + 1e-12


def test_attack_eta_matches_run(runner, tmp_path):
    cfg = _write_config(tmp_path)
    report = run_experiment(load_config(cfg))
    for method in ("leat", "image_attack"):
        out = tmp_path / f"{method}.json"
        result = runner.invoke(main, ["attack", "--config", str(cfg), "--image-index", "2",
                                      "--method", method, "--out", str(out)])
        assert result.exit_code == 0, result.output
        eta = [float(v) for v in json.loads(out.read_text())["eta"]]
        assert eta == report.etas[method][2].data.reshape(-1).tolist()


def test_attack_deterministic_bytes(runner, tmp_path):
    cfg = _write_config(tmp_path)
    blobs = []
    for sub in ("a.json", "b.json"):
        out = tmp_path / sub
        result = runner.invoke(main, ["attack", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_attack_methods_differ(runner, tmp_path):
    cfg = _write_config(tmp_path)
    etas = {}
    for method in ("leat", "image_attack"):
        out = tmp_path / f"{method}.json"
        result = runner.invoke(main, ["attack", "--config", str(cfg),
                                      "--method", method, "--out", str(out)])
        assert result.exit_code == 0, result.output
        etas[method] = json.loads(out.read_text())["eta"]
    assert etas["leat"] != etas["image_attack"]


def test_attack_index_out_of_range_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, ["attack", "--config", str(cfg),
                                  "--image-index", "99"])
    assert result.exit_code == 1


def test_attack_method_not_configured_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path, objectives=["leat"])
    result = runner.invoke(main, ["attack", "--config", str(cfg),
                                  "--method", "image_attack"])
    assert result.exit_code == 1


def test_calibrate_reports_quantiles(runner, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "calib.json"
    result = runner.invoke(main, ["calibrate", "--config", str(cfg),
                                  "--pairs", "10", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["pairs"] == 10
    assert set(payload["models"]) == {"vec_a", "refiner_a"}
    for per_model in payload["models"].values():
        assert set(per_model) == {"l2", "id", "lpips"}
        for values in per_model.values():
            assert len(values) == len(payload["quantiles"])
            assert values == sorted(values)
            assert all(v >= 0.0 for v in values)


def test_calibrate_bad_pairs_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, ["calibrate", "--config", str(cfg),
                                  "--pairs", "0"])
    assert result.exit_code == 1


def test_calibrate_needs_two_images_exits_1(runner, tmp_path):
    cfg = _write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["dataset"]["count"] = 1
    cfg.write_text(json.dumps(raw))
    result = runner.invoke(main, ["calibrate", "--config", str(cfg)])
    assert result.exit_code == 1


def test_project_emits_latents_only(runner, tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["project", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].endswith("latents_pca.csv")
    assert [p.name for p in out.iterdir()] == ["latents_pca.csv"]
    header = (out / "latents_pca.csv").read_text().splitlines()[0]
    assert header == "model,group,image_index,pc1,pc2"
    full = tmp_path / "full"
    assert runner.invoke(main, ["run", "--config", str(cfg), "--out", str(full)]).exit_code == 0
    assert (out / "latents_pca.csv").read_bytes() == (full / "latents_pca.csv").read_bytes()
