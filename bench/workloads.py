"""The three benchmark workloads: configs derived from the seed, one timed
operation each, and checks of every output from outside the program.

Every workload is a closed loop with a single caller: the next operation is
sent only after the previous one returned and its outputs were checked.

- protocol:   README config shape; the attack loop dominates.
- eval_heavy: four archetypes, one-step attack; evaluation dominates.
- cli_attack: in-process ``disruptkit attack`` requests on wide models;
              per-request setup (config, models, dataset) is on the path.
"""

import contextlib
import csv
import hashlib
import io
import json
import statistics
import time

import numpy as np

import disruptkit
from disruptkit import cli, harness

# images per run_experiment (harness workloads) or dataset count (cli_attack)
SIZES = {
    "protocol": {"full": 12, "smoke": 2},
    "eval_heavy": {"full": 16, "smoke": 2},
    "cli_attack": {"full": 64, "smoke": 64},
}
# cli_attack: fewest requests per run; the p90 then has 16 samples beyond it
MIN_REQUESTS = {"full": 160, "smoke": 5}
# cli_attack: the first requests, whose eta is scored for dsr / l2 and digested;
# 160 requests hold 32 image_attack ones, which dominate the mean l2
SCORED_REQUESTS = {"full": 160, "smoke": 5}
# cli_attack: every fifth request is image_attack, the rest leat
IMAGE_ATTACK_EVERY = 5

ETA_SLACK = 1e-12


def derived_seeds(seed: int, op: int = 0) -> dict:
    """Dataset, attack, attribute and metrics seeds of operation ``op``, from the workload seed."""
    state = np.random.SeedSequence([seed, op]).generate_state(4)
    return dict(zip(("dataset", "attack", "attributes", "metrics"),
                    (int(v) for v in state)))


def build_config(workload: str, seed: int, size: str, out_dir: str, op: int = 0) -> dict:
    """The raw JSON config that operation ``op`` of ``workload`` runs."""
    s = derived_seeds(seed, op)
    cfg = {
        "schema_version": 1,
        "attack": {"epsilon": 0.05, "step_a": 0.01, "iterations": 30,
                   "random_init": True, "seed": s["attack"]},
        "objectives": ["image_attack", "leat"],
        "attributes": {"seed": s["attributes"]},
        "dataset": {"kind": "synthetic", "seed": s["dataset"],
                    "count": SIZES[workload][size], "image_shape": [8, 8, 1]},
        "scenarios": ["white_box", "gray_box", "black_box"],
        "holdout_model": "held_out",
        "metrics_seed": s["metrics"],
        "parallel_workers": 1,
        "output_dir": out_dir,
    }
    if workload == "protocol":
        cfg["models"] = [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1,
             "dims": {"latent_dim": 16, "attribute_dim": 8}},
            {"name": "held_out", "archetype": "vec_conditional", "seed": 2},
        ]
        cfg["ensemble"] = {"kind": "normalized_gradient_ensemble"}
        cfg["attributes"].update(known=5, unknown=5)
        cfg["thresholds"] = {"l2": 4e-6, "id": 1e-5, "lpips": 3e-3}
    elif workload == "eval_heavy":
        cfg["models"] = [
            {"name": "vec_a", "archetype": "vec_conditional", "seed": 0},
            {"name": "refiner_a", "archetype": "refiner", "seed": 1},
            {"name": "swapper_a", "archetype": "swapper", "seed": 3},
            {"name": "reenactor_a", "archetype": "reenactor", "seed": 4},
            {"name": "held_out", "archetype": "vec_conditional", "seed": 2},
        ]
        # the one-step path; from a zero start both objectives have zero
        # gradient, so the step starts from the random init
        cfg["attack"].update(iterations=1)
        cfg["ensemble"] = {"kind": "hmm"}
        cfg["attributes"].update(known=8, unknown=8)
        cfg["thresholds"] = {"l2": 1.5e-7, "id": 4e-7, "lpips": 7e-4}
    elif workload == "cli_attack":
        wide = {"image_shape": [16, 16, 3], "encoder_hidden": 64,
                "generator_hidden": 256, "latent_dim": 32}
        cfg["models"] = [
            {"name": f"{arch}_w", "archetype": arch, "seed": 10 + i, "dims": dict(wide)}
            for i, arch in enumerate(("vec_conditional", "refiner", "swapper", "reenactor"))
        ]
        cfg["attack"].update(iterations=10)
        cfg["ensemble"] = {"kind": "loss_ensemble"}
        cfg["attributes"].update(known=3, unknown=0)
        cfg["thresholds"] = {"l2": 4e-7, "id": 3e-7, "lpips": 1e-3}
        cfg["dataset"]["image_shape"] = [16, 16, 3]
        cfg["scenarios"] = ["white_box"]
        del cfg["holdout_model"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json_strict(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def eta_ok(eta: np.ndarray, X: np.ndarray, epsilon: float) -> bool:
    """Budget, pixel range and finiteness of one crafted perturbation."""
    if eta.shape != X.shape or not np.all(np.isfinite(eta)):
        return False
    if float(np.max(np.abs(eta))) > epsilon + ETA_SLACK:
        return False
    x_t = X + eta
    return bool(np.all(x_t >= 0.0) and np.all(x_t <= 1.0))


def _source_images(config) -> list[np.ndarray]:
    spec = config.dataset
    return [x.data for x in
            disruptkit.generate_dataset(spec.seed, spec.count, spec.image_shape).images]


class AttackClock:
    """Per-image crafting latency inside run_experiment.

    Times provider build plus attack loop, summed over the image's methods,
    at the two call sites the harness binds by name.
    """

    def __init__(self, patches):
        self.per_image: dict[int, float] = {}
        self._start = 0.0
        build, attack = harness.build_gradient_provider, harness.run_attack

        def timed_build(*args, **kwargs):
            self._start = time.perf_counter()
            return build(*args, **kwargs)

        def timed_attack(provider, X, *args, **kwargs):
            eta = attack(provider, X, *args, **kwargs)
            key = id(X)
            self.per_image[key] = (self.per_image.get(key, 0.0)
                                   + time.perf_counter() - self._start)
            return eta

        patches.set(harness, "build_gradient_provider", timed_build)
        patches.set(harness, "run_attack", timed_attack)

    def take(self) -> list[float]:
        out, self.per_image = list(self.per_image.values()), {}
        return out


class HarnessWorkload:
    """protocol / eval_heavy: one operation is run_experiment + emit_reports.

    Operation k runs the config of (seed, k), so quality averages over fresh
    images; operation 0 runs twice (warm-up, then timed) to compare digests.
    """

    def __init__(self, workload: str, seed: int, size: str, out_dir, patches):
        self.workload, self.seed, self.size = workload, seed, size
        self.out_dir = out_dir
        self.config = self._config(0)
        self.units = self.config.dataset.count  # images per operation
        self.clock = AttackClock(patches)
        self.digests: dict[str, str] = {}  # "op<k>" -> digest of its two CSV reports
        self.conflicts: list[str] = []
        self.qualities: dict[int, dict] = {}
        self.quality = None
        self._last = None

    def _config(self, op: int):
        return disruptkit.parse_config(
            build_config(self.workload, self.seed, self.size, str(self.out_dir), op))

    def operation(self, request: int, tracer=None) -> float:
        config = self._config(request)
        start = time.perf_counter()
        report = harness.run_experiment(config)
        harness.emit_reports(report, self.out_dir)
        elapsed = time.perf_counter() - start
        self._last = (request, config, report)
        return elapsed

    def check(self) -> tuple[int, int, list[float]]:
        """Re-check the last operation: (etas attempted, etas failed, latencies)."""
        request, cfg, report = self._last
        held = report.attack_phase_counters[cfg.holdout_model]
        held_ok = held["encode_calls"] == 0 and held["generate_calls"] == 0
        attempted = failed = 0
        for method in cfg.objectives:
            etas = report.etas[method]
            for index, X in enumerate(_source_images(cfg)):
                attempted += 1
                failed += not (held_ok and index < len(etas)
                               and eta_ok(etas[index].data, X, cfg.attack.epsilon))
        results = (self.out_dir / "results.csv").read_bytes()
        latents = (self.out_dir / "latents_pca.csv").read_bytes()
        digest = f"{sha256_bytes(results)} {sha256_bytes(latents)}"
        if self.digests.setdefault(f"op{request}", digest) != digest:
            self.conflicts.append(f"op{request} {digest}")
        quality = _read_quality(cfg, results.decode(), self.out_dir / "summary.json")
        if quality is None:
            failed = attempted
        else:
            self.qualities[request] = quality
        return attempted, failed, self.clock.take()

    def failure(self) -> tuple[int, int, list[float]]:
        """Counts for an operation that raised: every eta it owed failed."""
        self.clock.take()
        n = len(self.config.objectives) * self.units
        return n, n, []

    def throughput(self, op_seconds: list[float]) -> float:
        """Images per second of the median operation."""
        return self.units / statistics.median(op_seconds)

    def finish(self, score: bool) -> None:
        """Average the quality read from every distinct operation's reports."""
        if self.qualities:
            self.quality = {key: float(np.mean([q[key] for q in self.qualities.values()]))
                            for key in ("dsr_mean", "disruption_l2_mean")}


def _read_quality(cfg, results_text: str, summary_path) -> dict | None:
    """dsr_mean and disruption_l2_mean of one run's reports; None if they are invalid."""
    try:
        rows = list(csv.DictReader(io.StringIO(results_text)))
        values = [[float(r[k]) for k in ("l2", "id", "lpips")] for r in rows]
        summary = _load_json_strict(summary_path.read_text())
        dsr = [summary["aggregates"][s][m]["avg_dsr"]
               for s in cfg.scenarios for m in cfg.objectives]
    except (OSError, KeyError, ValueError):
        return None
    models_per_scenario = {"black_box": 1}
    expected = len(cfg.objectives) * cfg.dataset.count * sum(
        models_per_scenario.get(s, len(cfg.attack_model_names())) for s in cfg.scenarios)
    if len(rows) != expected or not np.all(np.isfinite(values)):
        return None
    return {"dsr_mean": float(np.mean(dsr)),
            "disruption_l2_mean": float(np.mean([v[0] for v in values]))}


class CliWorkload:
    """cli_attack: one operation is one ``disruptkit attack`` request via cli.main.

    Request r attacks image order[r % count] with every fifth request an
    image_attack; request 0 runs twice (warm-up, then timed).
    """

    def __init__(self, workload: str, seed: int, size: str, out_dir, patches):
        self.config_path = out_dir / "config.json"
        self.config = disruptkit.parse_config(build_config(workload, seed, size, str(out_dir)))
        self.images = _source_images(self.config)
        self.units = 1  # one image per request
        self.order = np.random.default_rng([seed, 1]).permutation(len(self.images))
        self.scored = SCORED_REQUESTS[size]
        self.by_pair: dict[tuple[int, str], str] = {}  # (index, method) -> eta digest
        self.digests: dict[str, str] = {}  # "req<r>" -> eta digest, scored requests
        self.conflicts: list[str] = []
        self.etas: dict[int, tuple[int, np.ndarray]] = {}
        self.quality = None
        self._last = None

    def request_args(self, request: int) -> tuple[int, str]:
        index = int(self.order[request % len(self.order)])
        last = request % IMAGE_ATTACK_EVERY == IMAGE_ATTACK_EVERY - 1
        return index, "image_attack" if last else "leat"

    def operation(self, request: int, tracer=None) -> float:
        index, method = self.request_args(request)
        args = ["attack", "--config", str(self.config_path),
                "--image-index", str(index), "--method", method]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                if tracer is None:
                    cli.main.main(args=args, prog_name="disruptkit")
                else:
                    tracer.call("cli.request", cli.main.main, args=args, prog_name="disruptkit")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            elapsed = time.perf_counter() - start
        self._last = (request, index, method, code, out.getvalue(), elapsed)
        return elapsed

    def check(self) -> tuple[int, int, list[float]]:
        """Exit code, JSON shape and eta invariants of the last request."""
        request, index, method, code, text, elapsed = self._last
        eta = self._parse(index, method, text) if code == 0 else None
        if eta is None:
            return 1, 1, [elapsed]
        digest = sha256_bytes(text.encode())
        if self.by_pair.setdefault((index, method), digest) != digest:
            self.conflicts.append(f"({index}, {method}) {digest}")
        if request < self.scored:
            self.digests[f"req{request}"] = digest
            self.etas[request] = (index, eta)
        return 1, 0, [elapsed]

    def _parse(self, index: int, method: str, text: str) -> np.ndarray | None:
        try:
            payload = _load_json_strict(text)
            shape = tuple(payload["shape"])
            eta = np.array([float(v) for v in payload["eta"]])
            if (payload["method"] != method or payload["image_index"] != index
                    or shape != self.images[index].shape or eta.size != int(np.prod(shape))):
                return None
            eta = eta.reshape(shape)
        except (KeyError, TypeError, ValueError):
            return None
        return eta if eta_ok(eta, self.images[index], self.config.attack.epsilon) else None

    def failure(self) -> tuple[int, int, list[float]]:
        return 1, 1, []

    def throughput(self, op_seconds: list[float]) -> float:
        """Requests (one image each) per second of request time."""
        return len(op_seconds) / sum(op_seconds)

    def finish(self, score: bool) -> None:
        """Score the first requests' etas, as white-box evaluation would."""
        if score:
            self.quality = score_etas(self.config, self.images, list(self.etas.values()))


def score_etas(config, images, etas: list) -> dict | None:
    """Mean success and output l2 of crafted etas over the attacked models' known pools."""
    if not etas:
        return None
    pixels = int(np.prod(config.dataset.image_shape))
    id_emb = disruptkit.SurrogateEmbedder([config.metrics_seed, 0], pixels)
    lp_emb = disruptkit.SurrogateEmbedder([config.metrics_seed, 1], pixels)
    plan = []
    for i, spec in enumerate(config.models):
        model = disruptkit.build_model(spec.archetype, spec.seed, spec.dims, name=spec.name)
        pool = disruptkit.sample_attribute_set(model, config.n_known, config.n_unknown,
                                               [config.attribute_seed, i])
        if spec.name != config.holdout_model:
            plan.append((model, pool.known))
    successes, l2s = [], []
    for index, eta in etas:
        X = disruptkit.Tensor(images[index])
        x_t = disruptkit.Tensor(images[index] + eta)
        for model, attrs in plan:
            dists = []
            for c in attrs:
                y_clean, y_pert = model.full_forward(X, c), model.full_forward(x_t, c)
                dists.append((disruptkit.l2_image(y_clean, y_pert),
                              disruptkit.id_distance(y_clean, y_pert, id_emb),
                              disruptkit.perceptual_distance(y_clean, y_pert, lp_emb)))
            l2, idv, lp = (float(v) for v in np.mean(dists, axis=0))
            successes.append(disruptkit.classify_success(l2, idv, lp, config.thresholds))
            l2s.append(l2)
    return {"dsr_mean": float(np.mean(successes)), "disruption_l2_mean": float(np.mean(l2s))}


def make_workload(workload: str, seed: int, size: str, out_dir, patches):
    cls = CliWorkload if workload == "cli_attack" else HarnessWorkload
    return cls(workload, seed, size, out_dir, patches)
