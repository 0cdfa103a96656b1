"""Budget projection, single-step and iterative sign-gradient attacks.

The single-step (FGSM) attack is run_attack with one iteration; its tests
drive that path through ``one_step``.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disruptkit import zoo
from disruptkit import autodiff as ad
from disruptkit.attacks import (
    AttackConfig,
    build_gradient_provider,
    run_attack,
)
from disruptkit.autodiff import Tensor
from disruptkit.dataset import generate_dataset
from disruptkit.ensembles import ENSEMBLE_KINDS, EnsembleStrategy
from disruptkit.errors import ConfigError, InvariantError, ShapeError
from disruptkit.objectives import ImageAttackObjective, LatentAttackObjective

from support import rel_err

NORMALIZED = EnsembleStrategy(kind="normalized_gradient_ensemble")


def source(seed=0):
    return generate_dataset(seed=seed, count=1, shape=(8, 8, 1))[0]


def interior_source(seed=0):
    # pixels squeezed into [0.2, 0.8] so no pixel clamp fires
    x = source(seed)
    return Tensor(0.2 + 0.6 * x.data)


def latent_provider(models, x):
    return build_gradient_provider(models, LatentAttackObjective(), NORMALIZED, x)


def loss_gradient_provider(loss_fn):
    """Gradient provider of a single taped scalar loss."""
    def provider(x_t):
        tape = ad.Tape()
        tape.watch(x_t)
        with ad.recording(tape):
            loss = loss_fn(x_t)
        return ad.backward(loss, x_t)
    return provider


def one_step(loss_fn, x):
    """FGSM: one step of size epsilon from eta = 0, i.e. eps * sign(grad) budget-projected."""
    cfg = AttackConfig(epsilon=0.05, step_a=0.05, iterations=1, random_init=False)
    return run_attack(loss_gradient_provider(loss_fn), x, cfg)


def constant_gradient(values):
    return lambda x_t: Tensor(values)


def offset_latent_loss(model, x_ref):
    # a latent loss whose reference latent is that of a different image, so
    # its gradient is nonzero at the attacked image itself (the self-distance
    # loss has an exactly zero gradient at eta=0)
    return LatentAttackObjective().bind(model, x_ref)


class TestAttackConfig:
    def test_defaults_follow_protocol(self):
        cfg = AttackConfig()
        assert cfg.epsilon == 0.05
        assert cfg.step_a == 0.01
        assert cfg.iterations == 30
        assert cfg.random_init is True

    @pytest.mark.parametrize("bad", [
        dict(epsilon=0.0), dict(epsilon=-0.1),
        dict(step_a=0.0), dict(iterations=0),
        dict(epsilon=float("nan")), dict(epsilon=float("inf")),
        dict(step_a=float("nan")), dict(step_a=float("inf")),
        dict(seed=-1), dict(seed=(3, -2)),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            AttackConfig(**bad)


class TestProjectBudget:
    """The eps-ball and pixel-range projection of run_attack's update."""

    @staticmethod
    def step(x, gradient, step_a=0.08):
        cfg = AttackConfig(epsilon=0.05, step_a=step_a, iterations=1, random_init=False)
        return run_attack(constant_gradient(gradient), Tensor(x), cfg)

    def test_ball_clamp(self):
        eta = self.step([0.50], [1.0])
        assert eta.data.tolist() == [0.05]
        assert (0.50 + eta.data).tolist() == [0.55]

    def test_pixel_clamp_dominates(self):
        eta = self.step([0.02], [-1.0])
        assert (0.02 + eta.data).tolist() == [0.00]

    def test_inside_both_ranges_unchanged(self):
        eta = self.step([0.50, 0.30], [1.0, -1.0], step_a=0.02)
        assert eta.data.tolist() == [0.02, -0.02]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            run_attack(constant_gradient([1.0]), Tensor([0.5]),
                       AttackConfig(random_init=False), init_eta=Tensor([0.0, 0.0]))

    @staticmethod
    def resume(x, init_eta):
        """(first x_t the provider sees, returned eta) for a zero-gradient step from init_eta."""
        seen = []

        def provider(x_t):
            seen.append(x_t.data)
            return Tensor(np.zeros(x_t.shape))

        cfg = AttackConfig(epsilon=0.05, step_a=0.01, iterations=1, random_init=False)
        eta = run_attack(provider, Tensor(x), cfg, init_eta=Tensor(init_eta))
        return seen[0], eta.data

    def test_invalid_init_eta_arrives_projected(self):
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.02, 0.99, 0.3])
        init = np.array([-0.3, 0.2, 0.7, -0.6, 0.4, -0.04, 0.04, -0.01])
        x_t, eta = self.resume(x, init)
        assert np.abs(eta).max() <= 0.05
        assert x_t.min() >= 0.0 and x_t.max() <= 1.0
        assert np.array_equal(x_t, x + eta)
        assert x_t[:4].tolist() == [0.0, 1.0, 0.05, 0.95]
        assert x_t[5] == 0.0 and x_t[6] == 1.0

    def test_valid_init_eta_arrives_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.05, 0.95, size=12)
        init = rng.uniform(-0.05, 0.05, size=12)
        init[:2] = [0.05, -0.05]
        x_t, eta = self.resume(x, init)
        assert np.array_equal(x_t, x + init)
        assert np.array_equal(eta, init)


class TestFgsm:
    def test_linear_objective_closed_form(self):
        # L(X + eta) = w . (X + eta): gradient is w, so eta = eps * sign(w)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 8, 1))
        x = interior_source(1)

        def objective(xp):
            flat = ad.reshape(xp, [64])
            row = ad.forward_affine(flat, Tensor(w.reshape(1, 64)), Tensor([0.0]))
            return ad.mean(row)

        eta = one_step(objective, x)
        want = 0.05 * np.sign(w / 64.0)
        assert np.array_equal(eta.data, want)

    def test_zero_gradient_gives_zero_perturbation(self):
        x = source(2)

        def objective(xp):
            return ad.mse_loss(xp, xp)  # identically zero

        eta = one_step(objective, x)
        assert np.array_equal(eta.data, np.zeros(x.shape))

    def test_budget_magnitude_exact_at_interior_pixels(self):
        x = interior_source(3)
        model = zoo.build_model("vec_conditional", seed=1)
        loss_fn = offset_latent_loss(model, source(30))
        eta = one_step(loss_fn, x)
        nonzero = eta.data != 0.0
        assert nonzero.any()
        assert np.all(np.abs(eta.data[nonzero]) == 0.05)

    def test_pixel_feasibility_at_borders(self):
        x = source(4)  # blob images attain 0.0 and 1.0
        model = zoo.build_model("vec_conditional", seed=1)
        eta = one_step(offset_latent_loss(model, source(31)), x)
        adv = x.data + eta.data
        assert np.all(adv >= 0.0) and np.all(adv <= 1.0)
        assert np.max(np.abs(eta.data)) > 0.0

    def test_rejects_out_of_range_source(self):
        bad = Tensor(np.full((8, 8, 1), 1.5))
        with pytest.raises(ConfigError):
            one_step(lambda xp: ad.mse_loss(xp, xp), bad)


class TestRunAttack:
    def test_single_iteration_equals_fgsm_with_step_a(self):
        x = source(5)
        x_ref = source(32)
        model = zoo.build_model("refiner", seed=2)
        loss_fn = offset_latent_loss(model, x_ref)
        provider = build_gradient_provider(
            [model], LatentAttackObjective(), NORMALIZED, x_ref)
        cfg = AttackConfig(epsilon=0.05, step_a=0.01, iterations=1, random_init=False)
        eta_loop = run_attack(provider, x, cfg)
        # same thing by hand: one signed step of size a, then budget and pixel projection
        g = loss_gradient_provider(loss_fn)(x)
        eta_step = np.clip(0.01 * np.sign(g.data), -0.05, 0.05)
        moved = x.data + eta_step
        eta_projected = np.where(moved < 0.0, -x.data,
                                 np.where(moved > 1.0, 1.0 - x.data, eta_step))
        assert np.max(np.abs(eta_loop.data)) > 0.0
        assert np.array_equal(eta_loop.data, eta_projected)

    def test_budget_invariant_every_iteration(self):
        x = source(6)
        models = [zoo.build_model("vec_conditional", seed=3),
                  zoo.build_model("reenactor", seed=4)]
        provider = latent_provider(models, x)
        seen = []

        def check(state):
            seen.append(state.t)
            assert np.array_equal(state.x_t.data, x.data + state.eta.data)
            assert np.max(np.abs(state.eta.data)) <= 0.05 + 1e-12
            assert np.all(state.x_t.data >= 0.0) and np.all(state.x_t.data <= 1.0)

        run_attack(provider, x, AttackConfig(seed=9), on_step=check)
        assert seen == list(range(30))

    def test_deterministic_across_runs(self):
        x = source(7)
        model = zoo.build_model("swapper", seed=5)
        cfg = AttackConfig(seed=123)
        e1 = run_attack(latent_provider([model], x), x, cfg)
        e2 = run_attack(latent_provider([model], x), x, cfg)
        assert np.array_equal(e1.data, e2.data)

    def test_seed_changes_random_init(self):
        x = source(7)
        model = zoo.build_model("swapper", seed=5)
        e1 = run_attack(latent_provider([model], x), x, AttackConfig(seed=1, iterations=1))
        e2 = run_attack(latent_provider([model], x), x, AttackConfig(seed=2, iterations=1))
        assert not np.array_equal(e1.data, e2.data)

    def test_loop_composability_bitwise(self):
        x = source(8)
        model = zoo.build_model("vec_conditional", seed=6)
        provider = build_gradient_provider(
            [model], LatentAttackObjective(), NORMALIZED, source(33))
        full = run_attack(provider, x, AttackConfig(iterations=12, random_init=False))
        head = run_attack(provider, x, AttackConfig(iterations=5, random_init=False))
        tail = run_attack(provider, x, AttackConfig(iterations=7, random_init=False),
                          init_eta=head)
        assert np.max(np.abs(full.data)) > 0.0
        assert np.array_equal(tail.data, full.data)

    def test_init_eta_conflicts_with_random_init(self):
        x = source(8)
        model = zoo.build_model("vec_conditional", seed=6)
        with pytest.raises(ConfigError):
            run_attack(latent_provider([model], x), x,
                       AttackConfig(random_init=True),
                       init_eta=Tensor(np.zeros(x.shape)))

    def test_nan_gradient_raises_invariant_error(self):
        x = source(9)

        def nan_provider(x_t):
            return Tensor._wrap(np.full(x_t.shape, np.nan))

        with pytest.raises(InvariantError, match="iteration 0"):
            run_attack(nan_provider, x, AttackConfig(iterations=3))
        assert not issubclass(InvariantError, AssertionError)

        class NanObjective:
            def bind(self, model, X):
                # the latent program, nested as one op under a NaN scale
                inner = LatentAttackObjective().bind(model, X)
                tape = ad.Tape()
                x = tape.watch(Tensor(X.data))
                with ad.recording(tape):
                    return ad.compile(ad.scale(inner(x), float("nan")), x)

        model = zoo.build_model("refiner", seed=2, name="refiner_nan")
        stack = Tensor(np.stack([x.data, source(10).data]))
        for X in (x, stack):
            provider = build_gradient_provider([model], NanObjective(), NORMALIZED, X)
            with pytest.raises(InvariantError, match="'refiner_nan'.*image row 0"):
                run_attack(provider, X, AttackConfig(iterations=3))

    def test_provider_shape_contract_enforced(self):
        x = source(9)
        with pytest.raises(ShapeError):
            run_attack(lambda xt: Tensor(np.zeros(3)), x, AttackConfig(iterations=1))

    @pytest.mark.parametrize("archetype", zoo.ARCHETYPES)
    def test_objective_value_strictly_improves_over_null(self, archetype):
        x = source(10)
        model = zoo.build_model(archetype, seed=7)
        attrs = [zoo.sample_attribute(model, np.random.default_rng(s)) for s in (1, 2)]
        for objective in (LatentAttackObjective(),
                          ImageAttackObjective(attributes_by_model={model.name: attrs})):
            provider = build_gradient_provider([model], objective, NORMALIZED, x)
            eta = run_attack(provider, x, AttackConfig(seed=3))
            loss = objective.bind(model, x)
            final = loss(Tensor(x.data + eta.data)).item()
            null = loss(x).item()
            assert null == 0.0
            assert final > null


class TestGradientProvider:
    def test_latent_provider_never_generates(self):
        x = source(11)
        models = [zoo.build_model("vec_conditional", seed=8),
                  zoo.build_model("refiner", seed=9)]
        for m in models:
            m.counters.reset()
        provider = latent_provider(models, x)
        run_attack(provider, x, AttackConfig(iterations=5, seed=0))
        for m in models:
            assert m.counters.generate_calls == 0
            assert m.counters.encode_calls > 0

    def test_leat_eta_invariant_to_attribute_pools(self):
        # three disjoint attribute pools; the latent objective cannot see them
        x = source(12)
        model = zoo.build_model("vec_conditional", seed=10)
        etas = []
        for pool_seed in (100, 200, 300):
            zoo.sample_attribute_set(model, 5, 5, [pool_seed])
            provider = latent_provider([model], x)
            etas.append(run_attack(provider, x, AttackConfig(seed=77)))
        assert np.array_equal(etas[0].data, etas[1].data)
        assert np.array_equal(etas[0].data, etas[2].data)

    def test_image_provider_uses_generator(self):
        x = source(13)
        model = zoo.build_model("vec_conditional", seed=11)
        attrs = [zoo.sample_attribute(model, np.random.default_rng(1))]
        model.counters.reset()
        provider = build_gradient_provider(
            [model], ImageAttackObjective(attributes_by_model={model.name: attrs}),
            NORMALIZED, x,
        )
        run_attack(provider, x, AttackConfig(iterations=3, seed=0))
        assert model.counters.generate_calls > 0

    def test_hmm_strategy_runs(self):
        x = source(14)
        models = [zoo.build_model("vec_conditional", seed=s) for s in (12, 13)]
        provider = build_gradient_provider(
            models, LatentAttackObjective(), EnsembleStrategy(kind="hmm"), x)
        eta = run_attack(provider, x, AttackConfig(iterations=4, seed=1))
        assert np.max(np.abs(eta.data)) > 0.0

    def test_empty_model_list_rejected(self):
        with pytest.raises(ConfigError):
            build_gradient_provider([], LatentAttackObjective(), NORMALIZED, source(0))

    # steps per model of bind's program, for (leat, image_attack): each layer
    # act(W x + b) and the loss are one op each, and the conditioning term,
    # computed from untracked attributes, is on no tape. Provider calls run
    # the program and record nothing (test_compiles_once_and_keeps_no_tape).
    OPS_PER_CALL = {"vec_conditional": (4, 8), "refiner": (4, 16),
                    "swapper": (4, 8), "reenactor": (5, 10)}

    @pytest.mark.parametrize("archetype", zoo.ARCHETYPES)
    def test_taped_op_count_per_provider_call(self, archetype):
        model = zoo.build_model(archetype, seed=15)
        X = stack_of([source(s) for s in range(3)])
        attrs = zoo.sample_attribute_set(model, 5, 0, [16]).known
        programs = [objective.bind(model, X) for objective in (
            LatentAttackObjective(), ImageAttackObjective({model.name: attrs}))]
        kinds = [sorted(step.op for step in program.steps) for program in programs]
        assert tuple(len(program.steps) for program in programs) == (
            self.OPS_PER_CALL[archetype]), kinds

    @pytest.mark.parametrize("method", ["leat", "image_attack"])
    @pytest.mark.parametrize("archetype", zoo.ARCHETYPES)
    def test_replayed_calls_match_a_fresh_provider(self, archetype, method):
        # every call replays the program bound at X: each returns the bits
        # that a provider built afresh returns on its first call
        models = [zoo.build_model(archetype, seed=s) for s in (16, 17)]
        X = stack_of([source(s) for s in range(3)])
        objective = (LatentAttackObjective() if method == "leat" else ImageAttackObjective(
            {m.name: zoo.sample_attribute_set(m, 3, 0, [18, j]).known
             for j, m in enumerate(models)}))
        provider = build_gradient_provider(models, objective, NORMALIZED, X)
        for scale in (1.0, 0.9, 0.7):
            x_t = Tensor(scale * X.data)
            fresh = build_gradient_provider(models, objective, NORMALIZED, X)(x_t)
            assert np.array_equal(provider(x_t).data, fresh.data)

    def test_compiles_once_and_keeps_no_tape(self, monkeypatch):
        # bind records and compiles each model's loss once, in
        # build_gradient_provider, and drops the tape; no provider call
        # makes a tape, differentiates one or compiles
        tapes, compiled, differentiated = [], [], []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        compile_, backward_ = ad.compile, ad.backward
        monkeypatch.setattr(ad, "Tape", WatchedTape)
        monkeypatch.setattr(ad, "compile", lambda *args: compiled.append(1) or compile_(*args))
        monkeypatch.setattr(ad, "backward",
                            lambda *args: differentiated.append(1) or backward_(*args))
        models = [zoo.build_model(arch, seed=19) for arch in ("swapper", "refiner")]
        X = stack_of([source(s) for s in range(2)])
        gc.disable()
        try:
            provider = build_gradient_provider(models, LatentAttackObjective(), NORMALIZED, X)
            assert len(tapes) == 2 and compiled == [1, 1]
            for scale in (1.0, 0.9, 0.8):
                provider(Tensor(scale * X.data))
                assert all(tape() is None for tape in tapes)
                assert len(tapes) == 2 and compiled == [1, 1] and differentiated == []
        finally:
            gc.enable()


def stack_of(images):
    return Tensor(np.stack([x.data for x in images]))


class TestBatchedAttack:
    """A stack [N, H, W, C] attacks each image as a one-image call would."""

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    @pytest.mark.parametrize("method", ["leat", "image_attack"])
    def test_provider_rows_match_single_image_provider(self, kind, method):
        images = generate_dataset(seed=40, count=4, shape=(8, 8, 1)).images
        models = [zoo.build_model(arch, seed=20 + j) for j, arch in enumerate(zoo.ARCHETYPES)]
        if method == "leat":
            objective = LatentAttackObjective()
        else:
            pools = {m.name: zoo.sample_attribute_set(m, 3, 0, [41, j]).known
                     for j, m in enumerate(models)}
            objective = ImageAttackObjective(attributes_by_model=pools)
        strategy = EnsembleStrategy(kind=kind)
        X = stack_of(images)
        rng = np.random.default_rng(42)
        x_t = Tensor(np.clip(X.data + rng.uniform(-0.05, 0.05, X.shape), 0.0, 1.0))
        batched = build_gradient_provider(models, objective, strategy, X)(x_t)
        assert batched.shape == X.shape
        for i, image in enumerate(images):
            single = build_gradient_provider(models, objective, strategy, image)(
                Tensor(x_t.data[i]))
            assert rel_err(batched.data[i], single.data) < 1e-12

    def test_hmm_picks_each_rows_single_image_model(self):
        images = generate_dataset(seed=43, count=6, shape=(8, 8, 1)).images
        models = [zoo.build_model("vec_conditional", seed=s) for s in (12, 13, 14)]
        X = stack_of(images)
        rng = np.random.default_rng(44)
        x_t = Tensor(np.clip(X.data + rng.uniform(-0.05, 0.05, X.shape), 0.0, 1.0))
        hmm = EnsembleStrategy(kind="hmm")
        batched = build_gradient_provider(models, LatentAttackObjective(), hmm, X)(x_t)
        picked = set()
        for i, image in enumerate(images):
            per_model = [
                build_gradient_provider([m], LatentAttackObjective(), hmm, image)(
                    Tensor(x_t.data[i])).data
                for m in models]
            single = build_gradient_provider(models, LatentAttackObjective(), hmm, image)(
                Tensor(x_t.data[i]))
            choice = next(j for j, g in enumerate(per_model) if np.array_equal(g, single.data))
            picked.add(choice)
            errs = [rel_err(batched.data[i], g) for g in per_model]
            assert int(np.argmin(errs)) == choice and errs[choice] < 1e-12
        assert len(picked) > 1

    def test_random_start_of_row_i_is_seed_i(self):
        # interior pixels and a zero gradient: the one step leaves the start as it was
        images = [interior_source(s) for s in range(3)]
        X = stack_of(images)
        cfg = AttackConfig(epsilon=0.05, step_a=0.01, iterations=1, seed=7)
        eta = run_attack(lambda x_t: Tensor(np.zeros(x_t.shape)), X, cfg)
        for i in range(3):
            want = np.random.default_rng([7, i]).uniform(-0.05, 0.05, (8, 8, 1))
            assert np.array_equal(eta.data[i], want)

    def test_stack_rows_equal_one_image_attacks(self):
        images = generate_dataset(seed=45, count=3, shape=(8, 8, 1)).images
        models = [zoo.build_model("vec_conditional", seed=15),
                  zoo.build_model("reenactor", seed=16)]
        cfg = AttackConfig(iterations=8, seed=5)
        X = stack_of(images)
        eta = run_attack(latent_provider(models, X), X, cfg)
        for i, image in enumerate(images):
            one = run_attack(latent_provider(models, image), image,
                             AttackConfig(iterations=8, seed=(5, i)))
            assert np.array_equal(eta.data[i], one.data)


# pixels of the property test: interior values plus the boundary values 0 and 1
PIXELS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    epsilon=st.floats(1e-4, 0.5),
    step_a=st.floats(1e-4, 0.5),
    iterations=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    pixels=st.lists(PIXELS, min_size=8, max_size=8),
)
def test_batched_attack_budget_invariants(n, epsilon, step_a, iterations, seed, pixels):
    """x_t == X + eta bitwise, |eta| <= epsilon and x_t in [0, 1], at every iteration."""
    rng = np.random.default_rng(seed)
    # each image tiles the drawn pixels (with their exact 0s and 1s) in its own order
    X = Tensor(np.stack([rng.permutation(np.resize(pixels, 16)).reshape(4, 4, 1)
                         for _ in range(n)]))
    signs = rng.choice([-1.0, 0.0, 1.0], size=(iterations,) + X.shape)
    calls = iter(signs)
    cfg = AttackConfig(epsilon=epsilon, step_a=step_a, iterations=iterations, seed=seed)
    states = []
    eta = run_attack(lambda x_t: Tensor(next(calls)), X, cfg, on_step=states.append)
    assert len(states) == iterations
    for state in states:
        assert np.array_equal(state.x_t.data, X.data + state.eta.data)
        assert np.max(np.abs(state.eta.data)) <= epsilon
        assert np.all(state.x_t.data >= 0.0) and np.all(state.x_t.data <= 1.0)
    assert np.array_equal(eta.data, states[-1].eta.data)
