"""Config parsing: defaults, strictness, and cross-field rules."""

import json
from dataclasses import fields, replace

import pytest

from disruptkit.config import (DatasetSpec, ExperimentConfig, ModelSpec, example_config,
                               load_config, parse_config)
from disruptkit.ensembles import EnsembleStrategy
from disruptkit.errors import ConfigError
from disruptkit.zoo import ModelDims


def minimal():
    return {"models": [{"archetype": "vec_conditional", "seed": 0}]}


class TestDefaults:
    def test_minimal_config_fills_protocol_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.attack.epsilon == 0.05
        assert cfg.attack.step_a == 0.01
        assert cfg.attack.iterations == 30
        assert cfg.attack.random_init is True
        assert cfg.dataset.count == 500
        assert cfg.thresholds.l2 == 0.05
        assert cfg.thresholds.id == 0.6
        assert cfg.thresholds.lpips == 0.4
        assert cfg.n_known == 5
        assert cfg.n_unknown == 5
        assert cfg.objectives == ("image_attack", "leat")
        assert cfg.scenarios == ("white_box", "gray_box")
        assert cfg.ensemble.kind == "normalized_gradient_ensemble"
        assert "parallel_workers" not in cfg.normalized()

    def test_default_model_name_from_archetype_and_seed(self):
        cfg = parse_config(minimal())
        assert cfg.models[0].name == "vec_conditional_0"

    def test_example_config_parses(self):
        cfg = parse_config(example_config())
        assert cfg.holdout_model == "held_out"
        assert cfg.attack_model_names() == ("vec_a", "refiner_a")


class TestStrictness:
    def test_unknown_top_level_key(self):
        raw = minimal()
        raw["tpyo"] = 1
        with pytest.raises(ConfigError, match="tpyo"):
            parse_config(raw)

    def test_unknown_nested_key(self):
        raw = minimal()
        raw["attack"] = {"epsilon": 0.05, "steps": 3}
        with pytest.raises(ConfigError, match="steps"):
            parse_config(raw)

    def test_unknown_archetype(self):
        with pytest.raises(ConfigError, match="archetype"):
            parse_config({"models": [{"archetype": "diffusion", "seed": 0}]})

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigError, match="models"):
            parse_config({"models": []})

    def test_duplicate_model_names_rejected(self):
        raw = {"models": [
            {"name": "m", "archetype": "vec_conditional", "seed": 0},
            {"name": "m", "archetype": "refiner", "seed": 1},
        ]}
        with pytest.raises(ConfigError, match="unique"):
            parse_config(raw)

    def test_wrong_schema_version(self):
        raw = minimal()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(raw)

    def test_unknown_objective(self):
        raw = minimal()
        raw["objectives"] = ["leat", "teleport"]
        with pytest.raises(ConfigError, match="teleport"):
            parse_config(raw)

    def test_unknown_scenario(self):
        raw = minimal()
        raw["scenarios"] = ["white_box", "clear_box"]
        with pytest.raises(ConfigError, match="clear_box"):
            parse_config(raw)

    def test_negative_seed_rejected(self):
        raw = {"models": [{"archetype": "vec_conditional", "seed": -1}]}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    def test_bool_not_accepted_as_int(self):
        raw = minimal()
        raw["metrics_seed"] = True
        with pytest.raises(ConfigError, match="metrics_seed"):
            parse_config(raw)


class TestCrossFieldRules:
    def test_black_box_requires_holdout(self):
        raw = minimal()
        raw["scenarios"] = ["black_box"]
        with pytest.raises(ConfigError, match="holdout"):
            parse_config(raw)

    def test_holdout_must_be_configured_model(self):
        raw = minimal()
        raw["holdout_model"] = "ghost"
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(raw)

    def test_holdout_needs_a_remaining_attacker(self):
        raw = {"models": [{"name": "only", "archetype": "vec_conditional", "seed": 0}],
               "holdout_model": "only"}
        with pytest.raises(ConfigError, match="other model"):
            parse_config(raw)

    def test_holdout_excluded_from_attack_models(self):
        raw = {"models": [
            {"name": "a", "archetype": "vec_conditional", "seed": 0},
            {"name": "b", "archetype": "refiner", "seed": 1},
        ], "holdout_model": "b"}
        assert parse_config(raw).attack_model_names() == ("a",)

    def test_gray_box_requires_unknown_attributes(self):
        raw = minimal()
        raw["scenarios"] = ["gray_box"]
        raw["attributes"] = {"known": 2, "unknown": 0}
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)

    def test_weights_length_checked_against_attack_models(self):
        raw = {"models": [
            {"name": "a", "archetype": "vec_conditional", "seed": 0},
            {"name": "b", "archetype": "refiner", "seed": 1},
            {"name": "c", "archetype": "swapper", "seed": 2},
        ], "holdout_model": "c",
            "ensemble": {"kind": "loss_ensemble", "weights_omega": [1.0, 1.0, 1.0]}}
        with pytest.raises(ConfigError, match="weights_omega"):
            parse_config(raw)
        raw["ensemble"]["weights_omega"] = [1.0, 2.0]
        assert parse_config(raw).ensemble.weights_omega == (1.0, 2.0)

    def test_image_shape_must_match_across_models(self):
        raw = {"models": [
            {"archetype": "vec_conditional", "seed": 0},
            {"archetype": "refiner", "seed": 1, "dims": {"image_shape": [4, 4, 1]}},
        ]}
        with pytest.raises(ConfigError, match="image_shape"):
            parse_config(raw)

    def test_dataset_shape_must_match_models(self):
        raw = minimal()
        raw["dataset"] = {"kind": "synthetic", "image_shape": [4, 4, 3]}
        with pytest.raises(ConfigError, match="image_shape"):
            parse_config(raw)

    def test_dataclass_rule_error_names_the_object(self):
        raw = {"models": [
            {"archetype": "vec_conditional", "seed": 0},
            {"archetype": "vec_conditional", "seed": 1, "dims": {"latent_shape": [2, 2, 2]}},
        ]}
        with pytest.raises(ConfigError, match=r"models\[1\]\.dims: latent_shape"):
            parse_config(raw)

    def test_archetype_rule_on_dims_fails_at_parse_time(self):
        raw = {"models": [
            {"archetype": "vec_conditional", "seed": 0},
            {"archetype": "refiner", "seed": 1,
             "dims": {"latent_dim": 12, "latent_shape": [2, 2, 3]}},
        ]}
        with pytest.raises(ConfigError, match=r"models\[1\]\.dims: latent_shape .* refiner"):
            parse_config(raw)

    def test_directory_dataset_requires_path(self):
        raw = minimal()
        raw["dataset"] = {"kind": "directory"}
        with pytest.raises(ConfigError, match="path"):
            parse_config(raw)


# a valid config: two attacked models, one held out, every scenario
VALID = parse_config(example_config())
VEC, REFINER, HELD = VALID.models


@pytest.mark.parametrize("how", ["construct", "replace"])
@pytest.mark.parametrize("changes, match", [
    ({"models": ()}, "models must be a non-empty list"),
    ({"models": (VEC, replace(REFINER, name="vec_a"), HELD)}, r"unique; duplicated: \['vec_a'\]"),
    ({"models": (VEC, replace(REFINER, dims=ModelDims(image_shape=(4, 4, 1))), HELD)},
     "all models must share one image_shape; refiner_a"),
    ({"dataset": DatasetSpec(image_shape=(4, 4, 3))}, "dataset image_shape"),
    ({"n_unknown": 0}, "gray_box evaluation needs attributes.unknown >= 1"),
    ({"holdout_model": None}, "black_box scenario requires holdout_model"),
    ({"holdout_model": "ghost"}, "holdout_model 'ghost' is not a configured model"),
    ({"models": (HELD,)}, "holdout_model requires at least one other model"),
    ({"ensemble": EnsembleStrategy("loss_ensemble", (1.0, 1.0, 1.0))},
     "weights_omega has 3 entries for 2 attack-time models"),
    ({"objectives": ()}, "objectives must be a non-empty list"),
    ({"objectives": ("pgd",)}, "objectives must be distinct entries"),
    ({"objectives": ("leat", "leat")}, "objectives must be distinct entries"),
    ({"scenarios": ("mauve_box",)}, "scenarios must be distinct entries"),
    ({"scenarios": ("white_box", "white_box")}, "scenarios must be distinct entries"),
], ids=["no-models", "duplicate-names", "model-shapes-differ", "dataset-shape",
        "gray-box-no-unknown", "black-box-no-holdout", "holdout-not-a-model",
        "holdout-only-model", "weights-length", "no-objectives", "unknown-objective",
        "repeated-objective", "unknown-scenario", "repeated-scenario"])
def test_every_rule_holds_for_construct_and_replace(how, changes, match):
    """No config that breaks a cross-field rule exists, however it is made."""
    with pytest.raises(ConfigError, match=match):
        if how == "construct":
            given = {f.name: getattr(VALID, f.name) for f in fields(VALID)}
            ExperimentConfig(**{**given, **changes})
        else:
            replace(VALID, **changes)


@pytest.mark.parametrize("how", ["construct", "replace"])
@pytest.mark.parametrize("changes, match", [
    ({"n_known": 0}, "attributes.known must be >= 1, got 0"),
    ({"n_unknown": -1}, "attributes.unknown must be >= 0, got -1"),
    ({"attribute_seed": -1}, "attributes.seed must be >= 0, got -1"),
    ({"metrics_seed": -2}, "metrics_seed must be >= 0, got -2"),
    ({"output_dir": ""}, "output_dir must be a non-empty string"),
], ids=["no-known", "negative-unknown", "negative-attribute-seed", "negative-metrics-seed",
        "empty-output-dir"])
def test_every_field_range_holds_for_construct_and_replace(how, changes, match):
    """A field outside the range its JSON key allows is rejected however the config is made."""
    with pytest.raises(ConfigError, match=match):
        if how == "construct":
            given = {f.name: getattr(VALID, f.name) for f in fields(VALID)}
            ExperimentConfig(**{**given, **changes})
        else:
            replace(VALID, **changes)


@pytest.mark.parametrize("how", ["construct", "replace"])
@pytest.mark.parametrize("changes, match", [
    ({"kind": "bogus"}, r"dataset.kind must be one of \('synthetic', 'directory'\)"),
    ({"count": 0}, "dataset.count must be >= 1, got 0"),
    ({"seed": -1}, "dataset.seed must be >= 0, got -1"),
    ({"kind": "directory"}, "dataset.path is required"),
    ({"kind": "directory", "path": ""}, "dataset.path is required"),
    ({"image_shape": (0, 8, 1)}, r"dataset.image_shape must be three positive dims, got \(0, 8, 1\)"),
    ({"image_shape": (8, 8)}, r"dataset.image_shape must be three positive dims, got \(8, 8\)"),
], ids=["unknown-kind", "no-images", "negative-seed", "directory-no-path",
        "directory-empty-path", "zero-image-dim", "two-image-dims"])
def test_dataset_rules_hold_for_construct_and_replace(how, changes, match):
    with pytest.raises(ConfigError, match=match):
        if how == "construct":
            given = {f.name: getattr(VALID.dataset, f.name) for f in fields(VALID.dataset)}
            DatasetSpec(**{**given, **changes})
        else:
            replace(VALID, dataset=replace(VALID.dataset, **changes))


@pytest.mark.parametrize("how", ["construct", "replace"])
@pytest.mark.parametrize("changes, match", [
    ({"archetype": "bogus"}, r"archetype must be one of \('vec_conditional', .*got 'bogus'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"dims": ModelDims(latent_dim=12, latent_shape=(2, 2, 3))},
     "dims: latent_shape is only supported by vec_conditional, not refiner"),
    ({"name": ""}, "name must be a non-empty string, got ''"),
], ids=["unknown-archetype", "negative-seed", "refiner-latent-shape", "empty-name"])
def test_model_rules_hold_for_construct_and_replace(how, changes, match):
    with pytest.raises(ConfigError, match=match):
        if how == "construct":
            given = {f.name: getattr(REFINER, f.name) for f in fields(REFINER)}
            ModelSpec(**{**given, **changes})
        else:
            replace(VALID, models=(VEC, replace(REFINER, **changes), HELD))


class TestRoundTrip:
    def test_load_config_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(example_config()))
        cfg = load_config(p)
        assert cfg.dataset.count == 4

    def test_invalid_json_reported_with_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="cfg.json"):
            load_config(p)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_normalized_echo_is_reparseable_and_stable(self):
        cfg = parse_config(example_config())
        echo = cfg.normalized()
        again = parse_config(json.loads(json.dumps(echo)))
        assert again == cfg
        assert again.normalized() == echo

    @pytest.mark.parametrize("raw", [
        {"models": [{"archetype": "vec_conditional", "seed": 0}],
         "dataset": {"kind": "directory", "path": "imgs"}},
        {"models": [{"archetype": "vec_conditional", "seed": 0,
                     "dims": {"latent_dim": 12, "latent_shape": [2, 2, 3]}}],
         "ensemble": {"kind": "loss_ensemble", "weights_omega": [2]}},
    ])
    def test_normalized_echo_round_trips_every_shape(self, raw):
        cfg = parse_config(raw)
        echo = cfg.normalized()
        assert parse_config(json.loads(json.dumps(echo))) == cfg
        if cfg.dataset.kind == "directory":
            assert echo["dataset"] == {"kind": "directory", "path": "imgs"}
        else:
            assert echo["models"][0]["dims"]["latent_shape"] == [2, 2, 3]
            assert echo["ensemble"]["weights_omega"] == [2.0]
