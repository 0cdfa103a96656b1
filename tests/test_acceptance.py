"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Each test measures first, prints a single PASS/FAIL line with the observed
numbers, then asserts. The slow directional checks (criteria 7 and 9) run
full multi-seed studies and dominate the module's runtime.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from disruptkit import autodiff as ad
from disruptkit.attacks import AttackConfig, build_gradient_provider, run_attack
from disruptkit.autodiff import Tensor
from disruptkit.cli import main as cli_main
from disruptkit.config import parse_config
from disruptkit.dataset import generate_dataset
from disruptkit.ensembles import (
    EnsembleStrategy,
    PerModelGradient,
    aggregate_gradient_ensemble,
    aggregate_hmm,
    aggregate_loss_ensemble,
    aggregate_normalized,
)
from disruptkit.harness import run_experiment
from disruptkit.metrics import (
    MetricThresholds,
    classify_success,
    pca_project_latents,
    separation_statistic,
)
from disruptkit.objectives import (
    ImageAttackObjective,
    LatentAttackObjective,
    per_model_image_loss,
)
from disruptkit.zoo import ARCHETYPES, ModelDims, build_model, sample_attribute_set

from support import rel_err


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- 1. gradient oracle -------------------------------------------------------

def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    X = generate_dataset(seed=17, count=1, shape=(8, 8, 1))[0]
    worst = 0.0
    for a_idx, arch in enumerate(ARCHETYPES):
        for seed in range(5):
            model = build_model(arch, seed=seed)
            rng = np.random.default_rng([18, a_idx, seed])
            x0 = Tensor(np.clip(X.data + rng.uniform(-0.02, 0.02, X.shape), 0, 1))
            attrs = sample_attribute_set(model, 2, 0, [9, seed]).known
            objectives = (
                LatentAttackObjective(),
                ImageAttackObjective(attributes_by_model={model.name: attrs}),
            )
            for objective in objectives:
                loss_fn = objective.bind(model, X)
                tape = ad.Tape()
                with ad.recording(tape):
                    xt = tape.watch(x0)
                    loss = loss_fn(xt)
                g = ad.backward(loss, xt)
                g_fd = ad.finite_difference_gradient(
                    lambda v: loss_fn(v).item(), x0, h=1e-5)
                worst = max(worst, rel_err(g.data, g_fd.data))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 60.0
    _verdict(1, "gradient oracle", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f}s over "
             f"{len(ARCHETYPES)}x5 models x 2 objectives")
    assert worst < 1e-5
    assert elapsed < 60.0


# -- 2. budget invariant ------------------------------------------------------

def test_criterion_02_budget_invariant():
    data = generate_dataset(seed=1, count=10, shape=(8, 8, 1))
    models = {arch: build_model(arch, seed=3) for arch in ARCHETYPES}
    pools = {arch: sample_attribute_set(models[arch], 2, 0, [21, i]).known
             for i, arch in enumerate(ARCHETYPES)}
    strategy = EnsembleStrategy(kind="normalized_gradient_ensemble")

    worst_eta = 0.0
    lo, hi = 1.0, 0.0
    steps_seen = 0
    for r in range(100):
        arch = ARCHETYPES[r % len(ARCHETYPES)]
        model, X = models[arch], data[r % 10]
        objective = (LatentAttackObjective() if r % 2 == 0 else
                     ImageAttackObjective(
                         attributes_by_model={model.name: pools[arch]}))
        config = AttackConfig(epsilon=0.05, step_a=0.01, iterations=30,
                              random_init=True, seed=(1000, r))
        states = []

        def on_step(state, X=X, states=states):
            states.append(state.t)
            eta_inf = float(np.max(np.abs(state.eta.data)))
            assert eta_inf <= 0.05 + 1e-12, f"run {r} step {state.t}: {eta_inf}"
            walked = X.data + state.eta.data
            assert walked.min() >= 0.0 and walked.max() <= 1.0

        provider = build_gradient_provider([model], objective, strategy, X)
        run_attack(provider, X, config, on_step=on_step)
        assert len(states) == 30
        steps_seen += len(states)

        eta = run_attack(provider, X, config)
        worst_eta = max(worst_eta, float(np.max(np.abs(eta.data))))
        walked = X.data + eta.data
        lo, hi = min(lo, float(walked.min())), max(hi, float(walked.max()))

    ok = worst_eta <= 0.05 + 1e-12 and lo >= 0.0 and hi <= 1.0
    _verdict(2, "budget invariant", ok,
             f"{steps_seen} iterations checked, max|eta| {worst_eta:.17f}, "
             f"X+eta in [{lo:.3f}, {hi:.3f}]")
    assert ok


# -- 3. mean-of-gradients equals uniform loss weighting -----------------------

def test_criterion_03_ensemble_equivalence():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([303, i])
        K = 2 + i % 3
        pms = [PerModelGradient(model_id=j,
                                loss_value=float(rng.uniform(0.1, 5.0)),
                                gradient=Tensor(rng.normal(size=(8, 8, 1))))
               for j in range(K)]
        a = aggregate_gradient_ensemble(pms)
        b = aggregate_loss_ensemble(pms, [1.0 / K] * K)
        worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    ok = worst < 1e-10
    _verdict(3, "ensemble equivalence", ok,
             f"max abs diff {worst:.2e} over 100 instances, K in 2..4")
    assert ok


# -- 4. normalization is loss-scale invariant; plain weighting is not ---------

def test_criterion_04_scale_invariance():
    rng = np.random.default_rng([404])
    K = 3
    grads = [rng.normal(size=(8, 8, 1)) for _ in range(K)]
    losses = [float(rng.uniform(0.5, 2.0)) for _ in range(K)]

    def instance(scaled=None, s=1.0):
        return [PerModelGradient(
                    model_id=j,
                    loss_value=losses[j] * (s if j == scaled else 1.0),
                    gradient=Tensor(grads[j] * (s if j == scaled else 1.0)))
                for j in range(K)]

    base = aggregate_normalized(instance()).data
    worst_change = 0.0
    for j in range(K):
        for s in (1e-3, 1e3):
            out = aggregate_normalized(instance(j, s)).data
            worst_change = max(worst_change, float(np.max(np.abs(out - base))))

    def cosine(a, b):
        a, b = a.reshape(-1), b.reshape(-1)
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    min_cos = min(cosine(aggregate_loss_ensemble(instance(j, 1e3)).data, grads[j])
                  for j in range(K))
    ok = worst_change < 1e-9 and min_cos > 0.99
    _verdict(4, "scale invariance", ok,
             f"normalized max change {worst_change:.2e}, "
             f"unnormalized cosine to dominant model {min_cos:.6f}")
    assert worst_change < 1e-9
    assert min_cos > 0.99


# -- 5. min-loss selection returns that model's gradient verbatim -------------

def test_criterion_05_hmm_exactness():
    ties = 0
    for i in range(100):
        rng = np.random.default_rng([505, i])
        K = 2 + i % 4
        losses = rng.uniform(0.0, 3.0, size=K)
        if i % 5 == 0:
            j = int(np.argmin(losses))
            losses[(j + 1) % K] = losses[j]
            ties += 1
        pms = [PerModelGradient(model_id=j, loss_value=float(losses[j]),
                                gradient=Tensor(rng.normal(size=(4, 4, 1))))
               for j in range(K)]
        out = aggregate_hmm(pms)
        min_loss = min(pm.loss_value for pm in pms)
        want = next(pm for pm in sorted(pms, key=lambda pm: pm.model_id)
                    if pm.loss_value == min_loss)
        assert out is want.gradient
        assert np.array_equal(out.data, want.gradient.data)
    _verdict(5, "min-loss selection exactness", True,
             f"100 instances bit-identical, {ties} with forced ties")


# -- 6. latent attack ignores the attribute configuration ---------------------

def _attr_config(known, unknown, attr_seed):
    return parse_config({
        "schema_version": 1,
        "models": [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1},
        ],
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 10,
                   "random_init": True, "seed": 0},
        "objectives": ["image_attack", "leat"],
        "ensemble": {"kind": "normalized_gradient_ensemble"},
        "attributes": {"known": known, "unknown": unknown, "seed": attr_seed},
        "dataset": {"kind": "synthetic", "seed": 5, "count": 3,
                    "image_shape": [8, 8, 1]},
        "scenarios": ["white_box"],
        "output_dir": "out",
    })


def test_criterion_06_latent_attack_attribute_agnostic():
    reports = [run_experiment(_attr_config(2, 1, 10)),
               run_experiment(_attr_config(4, 2, 11)),
               run_experiment(_attr_config(3, 3, 12))]

    # the three configurations draw genuinely different attribute pools
    models = [build_model("vec_conditional", 0, name="vec_a"),
              build_model("refiner", 1, name="refiner_a")]
    for j, model in enumerate(models):
        pools = [sample_attribute_set(model, k, u, [s, j])
                 for k, u, s in ((2, 1, 10), (4, 2, 11), (3, 3, 12))]
        vecs = [c.data for p in pools for c in p.known]
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                assert not np.array_equal(vecs[a], vecs[b])

    identical = all(
        np.array_equal(reports[0].etas["leat"][i].data, rep.etas["leat"][i].data)
        for rep in reports[1:] for i in range(3))
    contrast = any(
        not np.array_equal(reports[0].etas["image_attack"][i].data,
                           reports[1].etas["image_attack"][i].data)
        for i in range(3))
    _verdict(6, "latent attack attribute-agnostic", identical and contrast,
             f"eta bit-identical across 3 disjoint attribute configs: {identical}; "
             f"image-space attack responds to the change: {contrast}")
    assert identical
    assert contrast


# -- 7. gray-box transfer: latent attack degrades less ------------------------

def test_criterion_07_gray_box_directionality():
    start = time.perf_counter()

    def relative_drops(seed):
        dims = ModelDims(refine_steps=4, attribute_dim=8)
        models = [build_model("refiner", 101 * seed + j, dims, name=f"m{j}")
                  for j in range(2)]
        pools = {m.name: sample_attribute_set(m, 1, 12, [seed, j])
                 for j, m in enumerate(models)}
        X = generate_dataset(seed=seed, count=50, shape=(8, 8, 1)).images
        strategy = EnsembleStrategy(kind="normalized_gradient_ensemble")
        known_obj = ImageAttackObjective(
            attributes_by_model={n: pools[n].known for n in pools})
        drops = {}
        for name, objective in (("leat", LatentAttackObjective()),
                                ("image_attack", known_obj)):
            # one batched attack over the 50 images; image i starts at (seed, i)
            provider = build_gradient_provider(models, objective, strategy, X)
            eta = run_attack(provider, X, AttackConfig(iterations=30, seed=seed))
            x_t = Tensor(X.data + eta.data)
            per_model = []
            for m in models:
                w = float(np.mean(per_model_image_loss(m, X, x_t, pools[m.name].known).data))
                g = float(np.mean(per_model_image_loss(m, X, x_t, pools[m.name].unknown).data))
                per_model.append((w - g) / w)
            drops[name] = float(np.mean(per_model))
        return drops

    wins = 0
    for seed in range(20):
        drops = relative_drops(seed)
        wins += drops["leat"] <= drops["image_attack"]
    elapsed = time.perf_counter() - start
    ok = wins >= 16 and elapsed < 600.0
    _verdict(7, "gray-box directionality", ok,
             f"latent drop <= image drop in {wins}/20 seeds, {elapsed:.0f}s")
    assert wins >= 16, f"only {wins}/20 seeds"
    assert elapsed < 600.0


# -- 8. latent attack runtime advantage ----------------------------------------

def test_criterion_08_runtime_directionality():
    config = parse_config({
        "schema_version": 1,
        "models": [
            {"archetype": "vec_conditional", "seed": 11},
            {"archetype": "refiner", "seed": 12},
        ],
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 30,
                   "random_init": True, "seed": 5},
        "objectives": ["image_attack", "leat"],
        "ensemble": {"kind": "normalized_gradient_ensemble"},
        "attributes": {"known": 3, "unknown": 3, "seed": 0},
        "dataset": {"kind": "synthetic", "seed": 7, "count": 8,
                    "image_shape": [8, 8, 1]},
        "scenarios": ["white_box"],
        "output_dir": "out",
    })
    for spec in config.models:
        model = build_model(spec.archetype, spec.seed, spec.dims, name=spec.name)
        assert model.parameter_ratio >= 4.0, (spec.name, model.parameter_ratio)
    report = run_experiment(config)
    latent_wall = report.runtime_seconds["leat"]
    image_wall = report.runtime_seconds["image_attack"]
    ok = latent_wall < 0.5 * image_wall
    _verdict(8, "runtime directionality", ok,
             f"latent {latent_wall:.3f}s vs image {image_wall:.3f}s "
             f"(ratio {latent_wall / image_wall:.3f}), param ratios "
             f"{[round(v, 2) for v in report.parameter_ratio.values()]}")
    assert ok


# -- 9. latent clusters separate more under the latent attack -----------------

def test_criterion_09_latent_separation():
    start = time.perf_counter()

    def separations(seed, n_images=48):
        dims = ModelDims(generator_hidden=2, encoder_hidden=16, latent_dim=32)
        models = [build_model("vec_conditional", 101 * seed + j, dims, name=f"m{j}")
                  for j in range(2)]
        pools = {m.name: sample_attribute_set(m, 3, 3, [seed, j])
                 for j, m in enumerate(models)}
        X = generate_dataset(seed=seed, count=n_images, shape=(8, 8, 1)).images
        strategy = EnsembleStrategy(kind="normalized_gradient_ensemble")
        image_obj = ImageAttackObjective(
            attributes_by_model={m.name: pools[m.name].known for m in models})
        rng = np.random.default_rng([seed, 77])
        eta0 = rng.uniform(-0.05, 0.05, size=(8, 8, 1))
        init_eta = Tensor(np.broadcast_to(eta0, X.shape))  # every image starts at eta0
        sep = {}
        for name, objective in (("leat", LatentAttackObjective()),
                                ("image_attack", image_obj)):
            config = AttackConfig(iterations=30, random_init=False, seed=0)
            provider = build_gradient_provider(models, objective, strategy, X)
            eta = run_attack(provider, X, config, init_eta=init_eta)
            per_model = []
            for m in models:
                clean = m.encode(X).data
                dirty = m.encode(Tensor(X.data + eta.data)).data
                points = pca_project_latents(np.concatenate([clean, dirty]))
                per_model.append(separation_statistic(points[:n_images],
                                                      points[n_images:]))
            sep[name] = float(np.mean(per_model))
        return sep

    wins = 0
    for seed in range(20):
        sep = separations(seed)
        wins += sep["leat"] > sep["image_attack"]
    elapsed = time.perf_counter() - start
    ok = wins >= 16
    _verdict(9, "latent separation", ok,
             f"latent-attack separation larger in {wins}/20 seeds, {elapsed:.0f}s")
    assert ok, f"only {wins}/20 seeds"


# -- 10. threshold-OR success rule, strict boundaries --------------------------

def test_criterion_10_threshold_truth_table():
    th = MetricThresholds(l2=0.05, id=0.6, lpips=0.4)
    bump = 1e-9
    checked = 0
    for mask in range(8):
        above = [bool(mask & (1 << k)) for k in range(3)]
        l2 = th.l2 + bump if above[0] else th.l2
        idv = th.id + bump if above[1] else th.id
        lp = th.lpips + bump if above[2] else th.lpips
        assert classify_success(l2, idv, lp, th) is any(above), (l2, idv, lp)
        checked += 1
    _verdict(10, "threshold truth table", True,
             f"{checked} boundary cases around (0.05, 0.6, 0.4), "
             "values at the threshold count as below")


# -- 11. byte-identical reruns through the CLI ---------------------------------

def test_criterion_11_end_to_end_determinism(tmp_path):
    config = {
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
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    blobs = []
    for sub in ("a", "b"):
        result = runner.invoke(cli_main, ["run", "--config", str(config_path),
                                          "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
        blobs.append((tmp_path / sub / "results.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(11, "end-to-end determinism", ok,
             f"two run invocations, results.csv {len(blobs[0])} bytes each, "
             f"identical: {ok}")
    assert ok
