"""CLI surface: subcommands, flag handling, exit codes, output determinism."""

import contextlib
import ctypes
import gc
import io
import json
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import disruptkit
from disruptkit.cli import main
from disruptkit.config import ExperimentConfig, example_config, load_config
from disruptkit.ensembles import ENSEMBLE_KINDS
from disruptkit.harness import build_world, run_experiment
from disruptkit.metrics import SurrogateEmbedder, id_distance, l2_image, perceptual_distance

from support import STAGES, drawn_stages


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


def test_run_non_utf8_config_exits_1(runner, tmp_path):
    cfg = tmp_path / "config.json"
    text = json.dumps(_config_dict(output_dir="caf\u00e9"), ensure_ascii=False)
    cfg.write_bytes(text.encode("latin-1"))
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 1, result.output
    assert f"cannot read config {cfg}" in result.output


def test_run_is_utf8_under_an_ascii_locale(tmp_path):
    # the config is read and the reports written as UTF-8 whatever the locale says
    cfg = tmp_path / "config.json"
    raw = _config_dict()
    raw["models"][0]["name"] = "v\u00e9c_a"
    cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(disruptkit.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", "from disruptkit.cli import main; main()",
         "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert "v\u00e9c_a".encode("utf-8") in (tmp_path / "out" / "results.csv").read_bytes()


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_echo_under_an_ascii_locale(tmp_path, stream):
    # an error naming a non-ASCII value reaches stderr whole, as UTF-8, and a
    # non-ASCII --out name that the locale cannot decode is echoed with replacements
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_config_dict(**({"holdout_model": "h\u00e9ld"}
                                              if stream == "stderr" else {}))))
    out = os.fsencode(tmp_path) + "/\u00e9ta.json".encode("utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(disruptkit.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", "from disruptkit.cli import main; main()",
         "attack", "--config", str(cfg), "--out", out],
        env=env, capture_output=True)
    if stream == "stderr":
        assert result.returncode == 1, result.stderr
        assert "holdout_model 'h\u00e9ld'".encode("utf-8") in result.stderr
    else:
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith(b"ta.json\n")
        assert json.loads(Path(os.fsdecode(out)).read_text())["image_index"] == 0


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
    # the removed worker-count option: schema-1 files may only say 1
    (("parallel_workers",), 2, "parallel_workers"),
    # a zero start never moves eta, so random_init may only be true
    (("attack", "random_init"), False, "attack.random_init"),
    # a lone surrogate, which no UTF-8 report can hold
    (("models", 0, "name"), "vec\ud800", "models[0].name"),
    # out-of-range values, rejected by the dataclass that owns the field
    (("models", 0, "seed"), -1, "models[0].seed"),
    (("models", 0, "archetype"), "bogus", "models[0].archetype"),
    (("models", 0, "dims", "latent_dim"), 0, "models[0].dims: latent_dim"),
    (("models", 0, "dims", "encoder_hidden"), 0, "models[0].dims: encoder_hidden"),
    (("models", 0, "dims", "generator_hidden"), 0, "models[0].dims: generator_hidden"),
    (("models", 0, "dims", "attribute_dim"), 0, "models[0].dims: attribute_dim"),
    (("models", 0, "dims", "refine_steps"), -1, "models[0].dims: refine_steps"),
    (("models", 0, "dims", "image_shape"), [0, 8, 1], "models[0].dims: image_shape"),
    (("models", 0, "dims", "latent_shape"), [12, 0, 1], "models[0].dims: latent_shape"),
    (("attack", "iterations"), 0, "attack: iterations"),
    (("attack", "seed"), -1, "attack: seed entries"),
    (("attributes", "known"), 0, "attributes.known"),
    (("attributes", "unknown"), -1, "attributes.unknown"),
    (("attributes", "seed"), -1, "attributes.seed"),
    (("dataset", "kind"), "bogus", "dataset.kind"),
    (("dataset", "count"), 0, "dataset.count"),
    (("dataset", "seed"), -1, "dataset.seed"),
    (("metrics_seed",), -1, "metrics_seed"),
    # rules of ModelSpec's name and DatasetSpec's image_shape
    (("models", 0, "name"), "", "models[0].name"),
    (("dataset", "image_shape"), [0, 8, 1], "dataset.image_shape"),
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


@pytest.mark.parametrize("section, repeated, key", [
    # a repeated object used to win silently, running with epsilon 0.3
    (None, '"attack": {"epsilon": 0.3}', "attack"),
    ("attack", '"epsilon": 0.3', "epsilon"),
])
def test_run_duplicate_key_exits_1(runner, tmp_path, section, repeated, key):
    text = json.dumps(_config_dict())
    if section is None:
        text = text[:-1] + ", " + repeated + "}"
    else:
        anchor = f'"{section}": {{'
        text = text.replace(anchor, anchor + repeated + ", ", 1)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert f"repeats the key {key!r}" in result.output and str(cfg) in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "attack", "project"])
def test_negative_seed_override_exits_1(runner, tmp_path, command):
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(tmp_path / "out"), "--seed-override", "-1"])
    assert result.exit_code == 1, result.output
    assert "config error: --seed-override: seed entries must be >= 0, got -1" in result.output
    assert not (tmp_path / "out").exists()


def test_run_runtime_failure_exits_2(runner, tmp_path, monkeypatch):
    def fail(config):
        raise RuntimeError("attack diverged")

    monkeypatch.setattr("disruptkit.cli.run_experiment", fail)
    cfg = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "error: attack diverged" in result.output


@pytest.mark.parametrize("command", ["run", "attack"])
def test_holdout_called_exits_2(runner, tmp_path, monkeypatch, command):
    # an ensemble that wrongly includes the holdout must stop before any eta is written
    monkeypatch.setattr(ExperimentConfig, "attack_model_names",
                        lambda self: tuple(m.name for m in self.models))
    models = _config_dict()["models"] + [
        {"name": "held_out", "archetype": "vec_conditional", "seed": 2}]
    cfg = _write_config(tmp_path, models=models, holdout_model="held_out")
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "error: holdout model 'held_out' was called during the attack" in result.output
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_run_unreadable_dataset_path_exits_1(runner, tmp_path, kind):
    path = tmp_path / "imgs"
    if kind == "file":
        path.write_text("a file, not a directory")
    cfg = _write_config(tmp_path, dataset={"kind": "directory", "path": str(path)})
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert f"dataset.path {path}" in result.output
    assert not (tmp_path / "out").exists()


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


# twice the default widths, on 16x16x3 images
WIDE = {"image_shape": [16, 16, 3], "encoder_hidden": 32, "generator_hidden": 192,
        "latent_dim": 24}


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize("image_shape", [[8, 8, 1], [16, 16, 3]], ids=["8x8x1", "wide16x16x3"])
def test_attack_eta_matches_run(runner, tmp_path, image_shape, kind):
    # one image crafted alone gets the bits of its row in the batched run
    dims = WIDE if image_shape == WIDE["image_shape"] else {}
    models = [{"name": f"{arch}_{i}", "archetype": arch, "seed": i, "dims": dims}
              for i, arch in enumerate(("vec_conditional", "refiner", "swapper", "reenactor",
                                        "vec_conditional"))]
    cfg = _write_config(
        tmp_path, models=models, holdout_model=models[-1]["name"], ensemble={"kind": kind},
        attack={"epsilon": 0.05, "step_a": 0.01, "iterations": 3, "seed": 0},
        dataset={"kind": "synthetic", "seed": 0, "count": 4, "image_shape": image_shape},
        scenarios=["white_box"])
    report = run_experiment(load_config(cfg))
    for method in ("leat", "image_attack"):
        for index in range(4):
            out = tmp_path / f"{method}_{index}.json"
            result = runner.invoke(main, ["attack", "--config", str(cfg), "--method", method,
                                          "--image-index", str(index), "--out", str(out)])
            assert result.exit_code == 0, result.output
            eta = [float(v) for v in json.loads(out.read_text())["eta"]]
            assert eta == report.etas[method][index].data.reshape(-1).tolist(), (method, index)


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


@pytest.mark.parametrize("index", [3, -1])
def test_attack_index_is_checked_before_any_model(runner, tmp_path, monkeypatch, index):
    # index == count is the first index past the end; no model is built for it
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("disruptkit.harness.build_model", no_model)
    cfg = _write_config(tmp_path)  # count 3
    result = runner.invoke(main, ["attack", "--config", str(cfg),
                                  "--image-index", str(index)])
    assert result.exit_code == 1, result.output
    assert f"config error: image_index {index} outside dataset of 3" in result.output


def test_attack_draws_only_its_image(runner, tmp_path, monkeypatch):
    # image 3 of a 4,000-image dataset is the same bits as of a 4-image one, drawn alone
    drawn = []
    bump_image = disruptkit.dataset.bump_image

    def counted(rng, shape):
        drawn.append(shape)
        return bump_image(rng, shape)

    monkeypatch.setattr("disruptkit.dataset.bump_image", counted)
    blobs = []
    for count in (4, 4000):
        sub = tmp_path / str(count)
        sub.mkdir()
        cfg = _write_config(sub, dataset={"kind": "synthetic", "seed": 5, "count": count,
                                          "image_shape": [8, 8, 1]})
        drawn.clear()
        result = runner.invoke(main, ["attack", "--config", str(cfg), "--image-index", "3"])
        assert result.exit_code == 0, result.output
        assert drawn == [(8, 8, 1)], count
        blobs.append(result.stdout)
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["image_index"] == 3


def test_attack_reads_a_directory_in_full(runner, tmp_path):
    # a corrupt file at another index still fails the request
    data_dir = tmp_path / "imgs"
    data_dir.mkdir()
    images = disruptkit.generate_dataset(seed=3, count=3, shape=(8, 8, 1))
    for i, image in enumerate(images.images):
        disruptkit.write_pnm(data_dir / f"img_{i}.pgm", image.data)
    cfg = _write_config(tmp_path, dataset={"kind": "directory", "path": str(data_dir)})
    args = ["attack", "--config", str(cfg), "--image-index", "0"]
    assert runner.invoke(main, args).exit_code == 0
    (data_dir / "img_2.pgm").write_bytes(b"P5\n8 8\n255\n")  # truncated pixel data
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "img_2.pgm: truncated pixel data" in result.output


@pytest.mark.parametrize("index, code", [(0, 0), (99, 1)])
def test_in_process_call_keeps_no_stream(tmp_path, index, code):
    # a call with redirected streams must not keep them (and all they hold) alive
    cfg = _write_config(tmp_path)
    streams = [io.StringIO(), io.StringIO()]
    refs = [weakref.ref(s) for s in streams]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        with pytest.raises(SystemExit) as stop:
            main.main(args=["attack", "--config", str(cfg), "--image-index", str(index)],
                      prog_name="disruptkit", standalone_mode=True)
    assert stop.value.code == code
    assert any(s.getvalue() for s in streams)
    del streams
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _draws_of_attack(runner, tmp_path, monkeypatch, method):
    """Per model the stages an in-process `attack` request drew, and the pools it drew."""
    built, pooled = {}, []
    build_model = disruptkit.harness.build_model
    sample_attribute_set = disruptkit.harness.sample_attribute_set

    def recording_build(*args, **kwargs):
        model = build_model(*args, **kwargs)
        built[model.name] = model
        return model

    def recording_sample(model, *args):
        pooled.append(model.name)
        return sample_attribute_set(model, *args)

    monkeypatch.setattr("disruptkit.harness.build_model", recording_build)
    monkeypatch.setattr("disruptkit.harness.sample_attribute_set", recording_sample)
    models = _config_dict()["models"] + [
        {"name": "held_out", "archetype": "vec_conditional", "seed": 2}]
    cfg = _write_config(tmp_path, models=models, holdout_model="held_out",
                        scenarios=["white_box", "gray_box", "black_box"])
    result = runner.invoke(main, ["attack", "--config", str(cfg), "--method", method])
    assert result.exit_code == 0, result.output
    return {name: drawn_stages(m) for name, m in built.items()}, pooled


def test_leat_attack_draws_no_generator_and_no_pool(runner, tmp_path, monkeypatch):
    # the structural companion of criterion 06: LEAT never needs a generator or a pool,
    # and the holdout is never read at all
    drawn, pooled = _draws_of_attack(runner, tmp_path, monkeypatch, "leat")
    assert drawn == {"vec_a": {"encoder_params"}, "refiner_a": {"encoder_params"},
                     "held_out": set()}
    assert pooled == []


def test_image_attack_draws_only_the_attacked_generators(runner, tmp_path, monkeypatch):
    drawn, pooled = _draws_of_attack(runner, tmp_path, monkeypatch, "image_attack")
    assert drawn == {"vec_a": set(STAGES), "refiner_a": set(STAGES), "held_out": set()}
    assert sorted(pooled) == ["refiner_a", "vec_a"]


class _Mallopt:
    """Stands in for libc's mallopt and records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_only_the_cli_sets_the_heap_pad(runner, tmp_path, monkeypatch):
    # the CLI sets glibc's top pad once per process; a library caller never does
    opened, mallopt = [], _Mallopt()

    def cdll(name):
        opened.append(name)
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    disruptkit.cli._keep_heap_top.cache_clear()
    try:
        cfg = _write_config(tmp_path)
        run_experiment(load_config(cfg))
        assert opened == []
        for _ in range(2):
            assert runner.invoke(main, ["attack", "--config", str(cfg)]).exit_code == 0
        assert opened == [None]  # the loaded C library, never a find_library search
        assert mallopt.calls == [(-2, 32 << 20)]  # M_TOP_PAD, 32 MiB
    finally:
        disruptkit.cli._keep_heap_top.cache_clear()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("cdll", [
    lambda name: types.SimpleNamespace(),  # a C library without mallopt
    lambda name: _raise(OSError("no C library")),
    lambda name: _raise(TypeError("no default library on this platform")),
], ids=["no_mallopt", "oserror", "typeerror"])
def test_heap_pad_is_a_no_op_without_glibc(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    disruptkit.cli._keep_heap_top.__wrapped__()  # returns without raising


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


def test_calibrate_reads_the_holdout_pool_of_a_leat_config(runner, tmp_path):
    # a LEAT attack reads no pool, but a scenario makes build_models draw all of them,
    # and calibrate reads every model's, the holdout's included
    outs = {}
    for label, overrides in (("leat", {"objectives": ["leat"], "scenarios": ["white_box"]}),
                             ("full", {})):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps({**example_config(), **overrides}))
        outs[label] = tmp_path / f"{label}-calib.json"
        result = runner.invoke(main, ["calibrate", "--config", str(cfg),
                                      "--pairs", "5", "--out", str(outs[label])])
        assert result.exit_code == 0, result.output
    payload = json.loads(outs["leat"].read_text())
    assert set(payload["models"]) == {"vec_a", "refiner_a", "held_out"}
    assert outs["leat"].read_bytes() == outs["full"].read_bytes()


def test_calibrate_matches_per_pair_oracle(runner, tmp_path):
    # one-image distances on the same seeded pairs, drawn model after model
    cfg = _write_config(tmp_path)
    out = tmp_path / "calib.json"
    result = runner.invoke(main, ["calibrate", "--config", str(cfg),
                                  "--pairs", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    config = load_config(cfg)
    models, pools, dataset = build_world(config)
    id_emb = SurrogateEmbedder([config.metrics_seed, 0], 64)
    lp_emb = SurrogateEmbedder([config.metrics_seed, 1], 64)
    rng = np.random.default_rng([config.metrics_seed, 2])
    for name, model in models.items():
        c = pools[name].known[0]
        dists = []
        for _ in range(7):
            i, j = rng.choice(len(dataset), size=2, replace=False)
            ya = model.full_forward(dataset[int(i)], c)
            yb = model.full_forward(dataset[int(j)], c)
            dists.append((l2_image(ya, yb), id_distance(ya, yb, id_emb),
                          perceptual_distance(ya, yb, lp_emb)))
        for metric, values in zip(("l2", "id", "lpips"), np.transpose(dists)):
            want = np.quantile(values, payload["quantiles"])
            got = np.array(payload["models"][name][metric])
            assert np.max(np.abs(got - want)) <= 1e-12, (name, metric)


@pytest.mark.parametrize("command", ["attack", "calibrate", "run", "project"])
def test_unwritable_out_exits_1(runner, tmp_path, monkeypatch, command):
    def never(config):
        raise AssertionError("the experiment ran although --out cannot be written")

    # run and project find a --out directory that can never be made before the experiment
    monkeypatch.setattr("disruptkit.cli.run_experiment", never)
    cfg = _write_config(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    # attack and calibrate write one file; run and project create --out as a directory
    out = tmp_path / "missing" / "out.json" if command in ("attack", "calibrate") else blocker / "out"
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"cannot write {out}" in result.output
    assert not (tmp_path / "missing").exists()


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
