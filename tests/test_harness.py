"""End-to-end driver behavior: row schema, rerun determinism, phase isolation."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from disruptkit.autodiff import Tensor
from disruptkit.config import example_config, parse_config
from disruptkit.dataset import generate_dataset, write_pnm
from disruptkit.errors import ConfigError
from disruptkit.harness import (
    build_models,
    build_world,
    emit_reports,
    run_experiment,
    source_image,
)
from disruptkit.metrics import SurrogateEmbedder, id_distance, l2_image, perceptual_distance

from support import STAGES, drawn_stages


def _raw(**overrides):
    raw = {
        "schema_version": 1,
        "models": [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1},
            {"name": "held_out", "archetype": "vec_conditional", "seed": 2},
        ],
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 10,
                   "random_init": True, "seed": 0},
        "objectives": ["image_attack", "leat"],
        "ensemble": {"kind": "normalized_gradient_ensemble"},
        "attributes": {"known": 3, "unknown": 3, "seed": 0},
        "dataset": {"kind": "synthetic", "seed": 0, "count": 4,
                    "image_shape": [8, 8, 1]},
        "scenarios": ["white_box", "gray_box", "black_box"],
        "holdout_model": "held_out",
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def report():
    return run_experiment(parse_config(_raw()))


def test_row_count_all_scenarios(report):
    # white: 2 attack models, gray: 2, black: holdout only -> 5 model-evals
    assert len(report.rows) == 4 * 2 * (2 + 2 + 1)


def test_row_count_no_holdout_formula():
    raw = _raw(objectives=["leat"], scenarios=["white_box", "gray_box"])
    raw["models"] = raw["models"][:2]
    del raw["holdout_model"]
    raw["dataset"]["count"] = 3
    rep = run_experiment(parse_config(raw))
    assert len(rep.rows) == 3 * 2 * 2  # images x models x scenarios


def test_rows_sorted_and_typed(report):
    keys = [(r.scenario, r.method, r.model, r.image_index) for r in report.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for r in report.rows:
        assert np.isfinite([r.l2, r.id, r.lpips]).all()
        assert isinstance(r.success, bool)


def test_black_box_rows_are_holdout_only(report):
    models = {r.model for r in report.rows if r.scenario == "black_box"}
    assert models == {"held_out"}


def test_holdout_untouched_during_attack(report):
    held = report.attack_phase_counters["held_out"]
    assert held == {"encode_calls": 0, "generate_calls": 0}
    for name in ("vec_a", "refiner_a"):
        assert report.attack_phase_counters[name]["encode_calls"] > 0


def test_attack_phase_counters_count_every_evaluation():
    # per attacked model: one encode per bound reference and per iteration of
    # each method, one generate per image-attack reference and iteration; the
    # provider's replayed iterations count what their recording called
    raw = example_config()
    raw["attack"] = {**raw["attack"], "iterations": 3}
    counters = run_experiment(parse_config(raw)).attack_phase_counters
    assert counters == {
        "vec_a": {"encode_calls": 8, "generate_calls": 4},
        "refiner_a": {"encode_calls": 8, "generate_calls": 4},
        "held_out": {"encode_calls": 0, "generate_calls": 0},
    }


def test_leat_skips_generators(report):
    # both attack models were also driven by image_attack, so generate_calls
    # are nonzero overall; the leat-only check needs a single-objective run
    raw = _raw(objectives=["leat"], scenarios=["white_box"])
    rep = run_experiment(parse_config(raw))
    for name in ("vec_a", "refiner_a"):
        assert rep.attack_phase_counters[name]["generate_calls"] == 0
        assert rep.attack_phase_counters[name]["encode_calls"] > 0


def test_leat_eta_identical_white_vs_gray():
    cfg = parse_config(_raw())
    white = run_experiment(replace(cfg, scenarios=("white_box",)))
    gray = run_experiment(replace(cfg, scenarios=("gray_box",)))
    for a, b in zip(white.etas["leat"], gray.etas["leat"]):
        assert np.array_equal(a.data, b.data)


def test_leat_runtime_below_image_attack(report):
    # noise only adds time, so each method's fastest of three runs is compared
    runs = [report] + [run_experiment(parse_config(_raw())) for _ in range(2)]
    fastest = {method: min(r.runtime_seconds[method] for r in runs)
               for method in ("leat", "image_attack")}
    assert fastest["leat"] < fastest["image_attack"]


def test_emit_writes_expected_files(report, tmp_path):
    paths = emit_reports(report, tmp_path / "out")
    assert [p.name for p in paths] == [
        "results.csv", "summary.json", "latents_pca.csv", "config_echo.json"]
    for p in paths:
        assert p.is_file() and p.stat().st_size > 0


def test_rerun_byte_identical(report, tmp_path):
    rep2 = run_experiment(parse_config(_raw()))
    a = emit_reports(report, tmp_path / "a")
    b = emit_reports(rep2, tmp_path / "b")
    for pa, pb in zip(a, b):
        if pa.name == "summary.json":
            continue  # wall-times differ between runs by construction
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_summary_aggregates_match_csv(report, tmp_path):
    out = emit_reports(report, tmp_path / "out")
    with open(out[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(out[1].read_text())

    for scenario in ("white_box", "gray_box", "black_box"):
        for method in ("image_attack", "leat"):
            picked = [r for r in rows
                      if r["scenario"] == scenario and r["method"] == method]
            assert picked
            flags = {}
            for r in picked:
                flags.setdefault(r["model"], []).append(r["success"] == "1")
            per_model = {m: float(np.mean(f)) for m, f in flags.items()}
            n = len(next(iter(flags.values())))
            e_dsr = float(np.mean([all(f[i] for f in flags.values())
                                   for i in range(n)]))
            agg = summary["aggregates"][scenario][method]
            assert agg["per_model_dsr"] == per_model
            assert agg["avg_dsr"] == float(np.mean(list(per_model.values())))
            assert agg["e_dsr"] == e_dsr
            assert agg["mean_l2"] == float(np.mean([float(r["l2"]) for r in picked]))
            assert agg["mean_id"] == float(np.mean([float(r["id"]) for r in picked]))
            assert agg["mean_lpips"] == float(
                np.mean([float(r["lpips"]) for r in picked]))


EVERYTHING = {*STAGES, "pool"}


@pytest.mark.parametrize("objectives, scenarios, attacked, held_out", [
    (("image_attack", "leat"), (), EVERYTHING, set()),
    (("image_attack",), (), EVERYTHING, set()),
    (("leat",), (), {"encoder_params"}, set()),
    (("leat",), ("white_box", "black_box"), EVERYTHING, EVERYTHING),
], ids=["both", "image_attack", "leat", "leat_with_scenarios"])
def test_build_world_draws_what_the_config_reads(objectives, scenarios, attacked, held_out):
    # what craft reads is drawn before its clock starts; the rest waits for a first read
    config = replace(parse_config(_raw()), objectives=objectives, scenarios=scenarios)
    models, pools, _ = build_world(config)
    drawn = {name: drawn_stages(m) for name, m in models.items()}
    for name in pools:  # only drawn pools are keys
        drawn[name].add("pool")
    assert drawn == {"vec_a": attacked, "refiner_a": attacked, "held_out": held_out}


def test_pools_keep_their_bits_in_a_narrowed_config():
    # each pool comes from its stream [attributes.seed, index], whichever pools a config draws
    config = parse_config(_raw())
    full = build_models(config)[1]
    # vec_a held out: held_out is the second pool drawn here and the third in full
    narrowed = build_models(replace(config, objectives=("image_attack",), scenarios=(),
                                    holdout_model="vec_a"))[1]
    assert list(narrowed) == ["refiner_a", "held_out"]
    for name in narrowed:
        for side in ("known", "unknown"):
            assert [c.data.tobytes() for c in getattr(narrowed[name], side)] == [
                c.data.tobytes() for c in getattr(full[name], side)]
    with pytest.raises(KeyError):
        narrowed["vec_a"]  # noqa: B018 - a pool not drawn is not a key


def test_rows_match_per_pair_oracle():
    # each row is the mean over its scenario's pool of the one-image distances
    # between the clean and the perturbed output
    config = parse_config(example_config())
    report = run_experiment(config)
    models, pools, dataset = build_world(config)
    id_emb = SurrogateEmbedder([config.metrics_seed, 0], 64)
    lp_emb = SurrogateEmbedder([config.metrics_seed, 1], 64)
    pool = {"white_box": "known", "gray_box": "unknown", "black_box": "known"}
    evaluated = {"white_box": {"vec_a", "refiner_a"}, "gray_box": {"vec_a", "refiner_a"},
                 "black_box": {"held_out"}}
    assert {(r.scenario, r.method, r.model, r.image_index) for r in report.rows} == {
        (s, m, name, i) for s, names in evaluated.items() for name in names
        for m in config.objectives for i in range(len(dataset))}
    for row in report.rows:
        model = models[row.model]
        X = dataset[row.image_index]
        x_t = Tensor(X.data + report.etas[row.method][row.image_index].data)
        dists = []
        for c in getattr(pools[row.model], pool[row.scenario]):
            y, y_t = model.full_forward(X, c), model.full_forward(x_t, c)
            dists.append((l2_image(y, y_t), id_distance(y, y_t, id_emb),
                          perceptual_distance(y, y_t, lp_emb)))
        want = np.mean(dists, axis=0)
        got = np.array([row.l2, row.id, row.lpips])
        assert np.max(np.abs(got - want)) <= 1e-12, row


def test_latent_rows_cover_groups(report):
    groups = {(r.model, r.group) for r in report.latent_rows}
    expected = {(m, g) for m in ("vec_a", "refiner_a", "held_out")
                for g in ("clean", "image_attack", "leat")}
    assert groups == expected
    assert len(report.latent_rows) == 3 * 3 * 4
    for r in report.latent_rows:
        assert np.isfinite([r.pc1, r.pc2]).all()


def test_separation_nonnegative(report):
    assert set(report.separation) == {"vec_a", "refiner_a", "held_out"}
    for per_method in report.separation.values():
        assert set(per_method) == {"image_attack", "leat"}
        for v in per_method.values():
            assert v >= 0.0


def test_config_echo_reparses(report, tmp_path):
    out = emit_reports(report, tmp_path / "out")
    echoed = json.loads(out[3].read_text())
    assert parse_config(echoed).normalized() == report.config.normalized()


def test_directory_dataset_runs(tmp_path):
    src = generate_dataset(seed=3, count=2, shape=(8, 8, 1))
    data_dir = tmp_path / "imgs"
    data_dir.mkdir()
    for i in range(2):
        write_pnm(data_dir / f"img_{i}.pgm", src[i].data)
    raw = _raw(objectives=["leat"], scenarios=["white_box"],
               dataset={"kind": "directory", "path": str(data_dir)})
    raw["models"] = raw["models"][:1]
    del raw["holdout_model"]
    rep = run_experiment(parse_config(raw))
    assert len(rep.rows) == 2
    assert {r.image_index for r in rep.rows} == {0, 1}


@pytest.mark.parametrize("kind", ["synthetic", "directory"])
def test_source_image_is_the_datasets_row(tmp_path, kind):
    data_dir = tmp_path / "imgs"
    data_dir.mkdir()
    for i, image in enumerate(generate_dataset(seed=3, count=3, shape=(8, 8, 1)).images):
        write_pnm(data_dir / f"img_{i}.pgm", image.data)
    dataset = ({"kind": "directory", "path": str(data_dir)} if kind == "directory"
               else {"kind": "synthetic", "seed": 3, "count": 3, "image_shape": [8, 8, 1]})
    config = parse_config(_raw(dataset=dataset))
    images = build_world(config)[2].images
    for i in range(3):
        x = source_image(config, i)
        assert x.shape == (8, 8, 1) and not x.data.flags.writeable
        assert np.array_equal(x.data, images[i].data)
    with pytest.raises(ConfigError, match="image_index 3 outside dataset of 3"):
        source_image(config, 3)


def test_emit_rejects_unwritable_dir(report, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    with pytest.raises(ConfigError):
        emit_reports(report, blocker)


def test_single_image_summary_is_strict_json(tmp_path):
    # one image gives zero-spread PCA clusters, so every separation is infinite
    raw = _raw(scenarios=["white_box"])
    raw["dataset"]["count"] = 1
    out = emit_reports(run_experiment(parse_config(raw)), tmp_path / "out")

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    json.loads(out[3].read_text(), parse_constant=reject)  # config_echo.json
    summary = json.loads(out[1].read_text(), parse_constant=reject)
    assert summary["separation"]["vec_a"] == {"image_attack": None, "leat": None}


def test_etas_respect_budget(report):
    eps = report.config.attack.epsilon
    for per_method in report.etas.values():
        assert len(per_method) == report.config.dataset.count
        for eta in per_method:
            assert float(np.max(np.abs(eta.data))) <= eps + 1e-12
