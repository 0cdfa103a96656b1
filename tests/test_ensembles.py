"""Gradient aggregation rules and their exactness properties."""

import numpy as np
import pytest

from disruptkit import autodiff as ad
from disruptkit.autodiff import Tensor
from disruptkit.ensembles import (
    ZERO_NORM_THRESHOLD,
    EnsembleStrategy,
    PerModelGradient,
    aggregate,
    aggregate_gradient_ensemble,
    aggregate_hmm,
    aggregate_loss_ensemble,
    aggregate_normalized,
)
from disruptkit.errors import ConfigError, ShapeError


def pmg(model_id, loss, grad):
    return PerModelGradient(model_id=model_id, loss_value=loss, gradient=Tensor(grad))


def random_instance(rng, k, dim=6):
    return [
        pmg(i, float(rng.uniform(0.1, 2.0)), rng.normal(size=dim) * rng.uniform(0.5, 2.0))
        for i in range(k)
    ]


class TestLossEnsemble:
    def test_single_model_identity(self):
        g = pmg(0, 0.3, [1.0, -2.0])
        out = aggregate_loss_ensemble([g], omega=[1.0])
        assert np.array_equal(out.data, g.gradient.data)

    def test_arithmetic_example(self):
        out = aggregate_loss_ensemble([pmg(0, 0.1, [2.0, 0.0]), pmg(1, 0.2, [0.0, 4.0])],
                                      omega=[1.0, 1.0])
        assert out.data.tolist() == [2.0, 4.0]

    def test_default_weights_are_ones(self):
        per = [pmg(0, 0.1, [1.0, 1.0]), pmg(1, 0.2, [2.0, -1.0])]
        assert np.array_equal(aggregate_loss_ensemble(per).data,
                              aggregate_loss_ensemble(per, [1.0, 1.0]).data)

    def test_matches_single_tape_weighted_sum(self):
        # oracle: differentiate the explicitly summed weighted loss on one tape
        rng = np.random.default_rng(3)
        x0 = Tensor(rng.uniform(size=5))
        t1 = Tensor(rng.normal(size=5))
        t2 = Tensor(rng.normal(size=5))
        w1, w2 = 0.7, 1.9

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            l1 = ad.mse_loss(ad.activation(x, "tanh"), t1)
            l2 = ad.mse_loss(ad.activation(x, "sigmoid"), t2)
            combined = ad.add(ad.scale(l1, w1), ad.scale(l2, w2))
        want = ad.backward(combined, x)

        per = [
            pmg(0, l1.item(), ad.backward(l1, x).data),
            pmg(1, l2.item(), ad.backward(l2, x).data),
        ]
        got = aggregate_loss_ensemble(per, omega=[w1, w2])
        assert np.max(np.abs(got.data - want.data)) < 1e-10

    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigError):
            aggregate_loss_ensemble([pmg(0, 0.1, [1.0])], omega=[1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_loss_ensemble([pmg(0, 0.1, [1.0])], omega=[0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            aggregate_loss_ensemble([pmg(0, 0.1, [1.0]), pmg(1, 0.2, [2.0])], omega=[bad, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_loss_ensemble([])

    def test_gradient_shape_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate_loss_ensemble([pmg(0, 0.1, [1.0]), pmg(1, 0.2, [1.0, 2.0])])


class TestHmm:
    def test_min_loss_gradient_bit_identical(self):
        g_low = pmg(0, 0.2, [1.0, 2.0, 3.0])
        g_high = pmg(1, 0.5, [9.0, 9.0, 9.0])
        out = aggregate_hmm([g_high, g_low])
        assert out is g_low.gradient

    def test_single_model(self):
        g = pmg(0, 1.0, [5.0])
        assert aggregate_hmm([g]) is g.gradient

    def test_tie_breaks_to_lowest_model_id(self):
        a = pmg(2, 0.4, [1.0])
        b = pmg(1, 0.4, [2.0])
        assert aggregate_hmm([a, b]) is b.gradient

    def test_always_one_of_the_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            per = random_instance(rng, int(rng.integers(1, 5)))
            out = aggregate_hmm(per)
            assert any(out is pm.gradient for pm in per)


    def test_rows_choose_independently(self):
        rng = np.random.default_rng(29)
        per = [pmg(j, rng.uniform(size=6), rng.normal(size=(6, 3))) for j in range(3)]
        per[2].loss_value[0] = per[1].loss_value[0] = -1.0  # tie in row 0: lowest id wins
        out = aggregate_hmm(per)
        picks = set()
        for i in range(6):
            single = aggregate_hmm([pmg(pm.model_id, float(pm.loss_value[i]),
                                        pm.gradient.data[i]) for pm in per])
            assert np.array_equal(out.data[i], single.data)
            picks.add(next(pm.model_id for pm in per
                           if np.array_equal(pm.gradient.data[i], single.data)))
        assert np.array_equal(out.data[0], per[1].gradient.data[0])
        assert len(picks) > 1

    def test_one_model_winning_every_row_returns_its_gradient(self):
        per = [pmg(0, np.array([0.5, 0.7]), [[1.0], [2.0]]),
               pmg(1, np.array([0.2, 0.3]), [[3.0], [4.0]])]
        assert aggregate_hmm(per) is per[1].gradient

    def test_loss_rows_must_lead_gradient(self):
        with pytest.raises(ShapeError):
            aggregate_hmm([pmg(0, np.array([0.1, 0.2, 0.3]), [[1.0], [2.0]])])


class TestGradientEnsemble:
    def test_arithmetic_example(self):
        out = aggregate_gradient_ensemble([pmg(0, 0.1, [2.0, 0.0]), pmg(1, 0.2, [0.0, 4.0])])
        assert out.data.tolist() == [1.0, 2.0]

    def test_single_model_identity(self):
        g = pmg(0, 0.3, [1.0, -2.0])
        assert np.array_equal(aggregate_gradient_ensemble([g]).data, g.gradient.data)

    def test_equals_loss_ensemble_with_uniform_quarter_weights(self):
        rng = np.random.default_rng(5)
        per = random_instance(rng, 4)
        a = aggregate_gradient_ensemble(per)
        b = aggregate_loss_ensemble(per, omega=[0.25] * 4)
        assert np.max(np.abs(a.data - b.data)) < 1e-10


class TestNormalized:
    def test_arithmetic_example(self):
        out = aggregate_normalized([pmg(0, 0.1, [3.0, 4.0]), pmg(1, 0.2, [0.0, 2.0])])
        assert np.max(np.abs(out.data - np.array([0.6, 1.8]))) < 1e-15

    def test_single_model_unit_norm(self):
        out = aggregate_normalized([pmg(0, 0.1, [3.0, 4.0])])
        assert np.max(np.abs(out.data - np.array([0.6, 0.8]))) < 1e-15
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_loss_scaling_leaves_output_unchanged(self):
        rng = np.random.default_rng(7)
        per = random_instance(rng, 3)
        base = aggregate_normalized(per)
        for s in (1e-3, 1e3):
            for k in range(3):
                scaled = list(per)
                scaled[k] = pmg(k, per[k].loss_value * s, per[k].gradient.data * s)
                out = aggregate_normalized(scaled)
                assert np.max(np.abs(out.data - base.data)) < 1e-9

    def test_vanishing_gradient_contributes_zero(self):
        tiny = np.full(3, ZERO_NORM_THRESHOLD / 10.0)
        per = [pmg(0, 0.5, tiny), pmg(1, 0.2, [0.0, 3.0, 4.0])]
        out = aggregate_normalized(per)
        assert np.max(np.abs(out.data - np.array([0.0, 0.6, 0.8]))) < 1e-15

    def test_all_vanishing_gives_zero(self):
        per = [pmg(0, 0.5, np.zeros(4))]
        assert np.array_equal(aggregate_normalized(per).data, np.zeros(4))

    def test_output_norm_bounded_by_model_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            per = random_instance(rng, k)
            out = aggregate_normalized(per)
            assert np.linalg.norm(out.data) <= k + 1e-12

    def test_norm_equals_count_iff_parallel(self):
        g = np.array([1.0, 2.0, 2.0])
        per = [pmg(0, 0.1, g), pmg(1, 0.2, 5.0 * g)]
        out = aggregate_normalized(per)
        assert abs(np.linalg.norm(out.data) - 2.0) < 1e-12


    def test_rows_normalized_independently(self):
        g0 = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        g1 = np.array([[0.0, 2.0], [0.0, 5.0], [0.0, 1e-14]])
        out = aggregate_normalized([pmg(0, np.zeros(3), g0), pmg(1, np.zeros(3), g1)])
        want = np.array([[0.6, 1.8], [0.0, 1.0], [1.0, 0.0]])
        assert np.max(np.abs(out.data - want)) < 1e-15


class TestBiasDemonstration:
    def test_loss_ensemble_dominated_by_large_gradient(self):
        rng = np.random.default_rng(17)
        g_small = rng.normal(size=64)
        g_small /= np.linalg.norm(g_small)
        g_big = rng.normal(size=64)
        g_big *= 1e3 / np.linalg.norm(g_big)
        per = [pmg(0, 1.0, g_big), pmg(1, 1.0, g_small)]

        agg = aggregate_loss_ensemble(per)
        cos_big = float(agg.data @ g_big) / (np.linalg.norm(agg.data) * np.linalg.norm(g_big))
        assert cos_big > 0.99

        norm_agg = aggregate_normalized(per).data
        for g in (g_big, g_small):
            cos = float(norm_agg @ g) / (np.linalg.norm(norm_agg) * np.linalg.norm(g))
            assert 0.3 <= cos <= 0.95


class TestStrategyDispatch:
    def test_each_kind_routes_to_its_rule(self):
        rng = np.random.default_rng(19)
        per = random_instance(rng, 3)
        pairs = [
            ("loss_ensemble", aggregate_loss_ensemble(per)),
            ("hmm", aggregate_hmm(per)),
            ("gradient_ensemble", aggregate_gradient_ensemble(per)),
            ("normalized_gradient_ensemble", aggregate_normalized(per)),
        ]
        for kind, want in pairs:
            got = aggregate(EnsembleStrategy(kind=kind), per)
            assert np.array_equal(got.data, want.data)

    def test_loss_ensemble_weights_pass_through(self):
        rng = np.random.default_rng(23)
        per = random_instance(rng, 2)
        strategy = EnsembleStrategy(kind="loss_ensemble", weights_omega=(0.5, 2.0))
        want = aggregate_loss_ensemble(per, omega=[0.5, 2.0])
        assert np.array_equal(aggregate(strategy, per).data, want.data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleStrategy(kind="momentum_ensemble")

    def test_weights_only_for_loss_ensemble(self):
        with pytest.raises(ConfigError):
            EnsembleStrategy(kind="hmm", weights_omega=(1.0,))

    def test_nonpositive_strategy_weights_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleStrategy(kind="loss_ensemble", weights_omega=(1.0, -1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_strategy_weights_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            EnsembleStrategy(kind="loss_ensemble", weights_omega=(bad, 1.0))
