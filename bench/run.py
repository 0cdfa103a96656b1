"""disruptkit benchmark.

Run from the root of a repository checkout:

    python3 bench/run.py --workload protocol|eval_heavy|cli_attack \\
        --seed N --seconds S --trace 0|1 [--size full|smoke]

The program is imported from ./src. Inputs come from --seed only. The run
prints a machine block and a detail block, then, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0 (timings at a reference machine speed, see ReferenceSpeed),
the per-layer metrics of a separate traced phase with --trace 1. Reports,
the config and (traced) spans.jsonl.gz are written under .bench_out/ in the
checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("protocol", "eval_heavy", "cli_attack")

# One caller on small matrices: BLAS is pinned to one thread (<= nproc).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
# fewest timed operations per run besides the time limit
MIN_OPS = {"full": 3, "smoke": 1}
# traced work, fixed so per-layer counts repeat exactly for a config
TRACED_OPS = {"protocol": 1, "eval_heavy": 1, "cli_attack": 50}
SELF_TIME_TOLERANCE = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "attack_latency_ms_p50": "ms",
    "attack_latency_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "dsr_mean": "frac",
    "disruption_l2_mean": "mse",
    "ok_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if "calls" in name:
        return "count"
    return "ratio"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "disruptkit").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_times(src: Path, config_path: Path) -> list[float]:
    """import disruptkit + load_config in fresh interpreters; the first warms caches."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), str(config_path)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return times[1:]


def affine_floor(disruptkit, np, config) -> tuple[float, list[int]]:
    """Microseconds of a bare x @ w.T + b at the workload's largest affine shape."""
    shapes = []
    for spec in config.models:
        model = disruptkit.build_model(spec.archetype, spec.seed, spec.dims)
        for params in (model.encoder_params, model.generator_params):
            shapes += [params[n].shape for n in params.names() if n.endswith(".w")]
    out_dim, in_dim = max(shapes, key=lambda s: s[0] * s[1])
    rng = np.random.default_rng(0)
    x, w, b = rng.random((1, in_dim)), rng.random((out_dim, in_dim)), rng.random(out_dim)
    number = 2000
    best = min(timeit.Timer(lambda: x @ w.T + b).repeat(repeat=7, number=number))
    return best / number * 1e6, [out_dim, in_dim]


class ReferenceSpeed:
    """Machine speed during a run, from a fixed numpy + Python kernel.

    On a shared machine the speed drifts by tens of percent over minutes,
    for the kernel much as for the program. Loop timings are therefore
    reported at the nominal kernel speed: times are divided, rates
    multiplied, by median(kernel seconds) / NOMINAL_S. The kernel is the
    benchmark's own code, so a faster program still reads faster.
    """

    NOMINAL_S = 0.005
    EVERY_S = 0.5  # one kernel sample per this much elapsed time, taken between operations

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._w1, self._b1 = rng.random((64, 192)), rng.random(64)
        self._w2, self._x, self._t = rng.random((192, 64)), rng.random(192), rng.random(192)
        self._np = np
        self.samples: list[float] = []
        self._last = 0.0

    def _kernel(self) -> float:
        """A small MLP forward and backward, 300 times, with per-step records."""
        np, w1, w2, x = self._np, self._w1, self._w2, self._x
        records = []
        start = time.perf_counter()
        for i in range(300):
            h = np.tanh(w1 @ x + self._b1)
            g = w2.T @ (w2 @ h - self._t)
            records.append({"h": h, "gx": w1.T @ (g * (1.0 - h * h)), "i": i})
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        due = 1 if force else int((time.perf_counter() - self._last) / self.EVERY_S)
        for _ in range(due):
            self.samples.append(self._kernel())
        if due:
            self._last = time.perf_counter()

    def scale(self) -> float:
        """How much slower than nominal the machine ran."""
        return statistics.median(self.samples) / self.NOMINAL_S


class Tally:
    """Operations attempted and failed, op times and latency samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []
        self.latencies: list[float] = []

    def run(self, work, request: int, tracer=None, timed: bool = True) -> None:
        try:
            elapsed = work.operation(request, tracer)
            attempted, failed, latencies = work.check()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            elapsed, (attempted, failed, latencies) = None, work.failure()
        self.attempted += attempted
        self.failed += failed
        if timed and elapsed is not None:
            self.op_seconds.append(elapsed)
            self.latencies.extend(latencies)


def closed_loop(work, tally: Tally, first: int, seconds: float, min_ops: int,
                speed: ReferenceSpeed | None = None) -> int:
    """Send operations back to back until the time is up; returns the next request id."""
    request = first
    deadline = time.perf_counter() + seconds
    while request - first < min_ops or time.perf_counter() < deadline:
        tally.run(work, request)
        request += 1
        if speed is not None:
            speed.sample()
    return request


def check_digests(work, store: Path, key: str) -> list[str]:
    """Same-commit determinism: repeated operations, in this run and in earlier
    runs of this checkout with the same source, workload, size and seed, must
    give identical output digests. Returns the disagreements."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    recorded = known.setdefault(key, {})
    conflicts = list(work.conflicts)
    for item, digest in sorted(work.digests.items()):
        if recorded.setdefault(item, digest) != digest:
            conflicts.append(f"{item} {digest} != {recorded[item]}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return conflicts


def untraced_run(work, tally: Tally, seconds: float, min_ops: int,
                 setup: list[float], speed: ReferenceSpeed, detail: dict) -> dict:
    """The closed loop with tracing off; returns the end-to-end metrics."""
    speed.sample(force=True)
    closed_loop(work, tally, 0, seconds, min_ops, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work.finish(score=True)
    quality = work.quality or {"dsr_mean": 0.0, "disruption_l2_mean": 0.0}
    lat_ms = [s * 1e3 for s in tally.latencies]
    measured = {
        "images_per_s": work.throughput(tally.op_seconds),
        "attack_latency_ms_p50": statistics.median(lat_ms),
        "attack_latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
    }
    scale = speed.scale()
    detail.update(setup_s=setup, timed_ops=len(tally.op_seconds),
                  latency_samples=len(lat_ms), op_seconds=tally.op_seconds,
                  speed_samples=len(speed.samples), speed_scale=scale, unscaled=measured)
    return {
        "setup_s": statistics.median(setup),
        **{name: value * scale if name == "images_per_s" else value / scale
           for name, value in measured.items()},
        "peak_rss_mb": peak_rss_mb,
        "dsr_mean": quality["dsr_mean"],
        "disruption_l2_mean": quality["disruption_l2_mean"],
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def traced_run(work, tally: Tally, seconds: float, min_ops: int, n_traced: int,
               affine_floor_us: float, patches, run_dir: Path,
               detail: dict) -> tuple[dict, bool]:
    """Half the time untraced, then ``n_traced`` operations with every layer wrapped.

    Returns the per-layer metrics and whether the spans' self times add up
    to the traced wall time.
    """
    import tracing

    request = closed_loop(work, tally, 0, seconds / 2, min_ops)
    untraced = work.throughput(tally.op_seconds)
    tracer = tracing.Tracer()
    tracer.install(patches)
    traced = Tally()
    for request in range(request, request + n_traced):
        tracer.request = request
        traced.run(work, request, tracer)
    patches.restore()
    work.finish(score=False)
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    wall = sum(traced.op_seconds)
    self_sum = tracer.self_seconds()
    tracer.write_jsonl(run_dir / "spans.jsonl.gz")
    detail.update(traced_wall_s=wall, self_time_sum_s=self_sum, spans=len(tracer.spans),
                  layer_self_s=tracer.layer_self_seconds())
    metrics = tracing.layer_metrics(tracer.totals(), affine_floor_us)
    metrics["trace_overhead_frac"] = (untraced / work.throughput(traced.op_seconds) - 1.0
                                      if wall else 0.0)
    return metrics, wall > 0 and abs(self_sum - wall) <= SELF_TIME_TOLERANCE * wall


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "disruptkit" / "__init__.py").is_file():
        print(f"error: {src / 'disruptkit'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy as np

    import disruptkit
    if Path(disruptkit.__file__).resolve().parent != (src / "disruptkit").resolve():
        print(f"error: imported disruptkit from {disruptkit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    machine = machine_info(np)
    print(json.dumps({"machine": machine}), flush=True)

    out_root = root / ".bench_out"
    run_dir = out_root / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    raw = workloads.build_config(args.workload, args.seed, args.size, str(run_dir), 0)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")

    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace}
    setup = [] if args.trace else setup_times(src, config_path)
    min_ops = (workloads.MIN_REQUESTS[args.size] if args.workload == "cli_attack"
               else MIN_OPS[args.size])
    patches = tracing.Patches()
    tally = Tally()
    try:
        work = workloads.make_workload(args.workload, args.seed, args.size, run_dir, patches)
        # warm-up (lazy imports, allocator, caches); its request is repeated
        # timed, which also checks that a rerun gives the same bytes
        tally.run(work, 0, timed=False)
        if args.trace:
            floor_us, detail["affine_floor_shape"] = affine_floor(disruptkit, np, work.config)
            n_traced = TRACED_OPS[args.workload] if args.size == "full" else 1
            metrics, checks_ok = traced_run(work, tally, args.seconds, min_ops, n_traced,
                                            floor_us, patches, run_dir, detail)
            units = {name: layer_unit(name) for name in metrics}
            units["trace_overhead_frac"] = "frac"
        else:
            metrics = untraced_run(work, tally, args.seconds, min_ops, setup,
                                   ReferenceSpeed(np), detail)
            checks_ok = work.quality is not None
            units = END_TO_END_UNITS
    finally:
        patches.restore()

    conflicts = check_digests(
        work, out_root / "digests.json",
        f"{args.workload}/{args.size}/seed{args.seed}/{source_digest(src)}")
    detail.update(digests=len(work.digests), digest_conflicts=conflicts,
                  failed_frac=tally.failed / tally.attempted)
    result = {
        "correct": tally.failed == 0 and not conflicts and checks_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"machine": machine, "detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
