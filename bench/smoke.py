"""Smoke self-test of the benchmark.

Run from the repository root:  python3 bench/smoke.py

Runs every workload at its smallest size, untraced and traced, and asserts
that each run exits 0, is correct with no failed operation, and reports
exactly the metrics BENCHMARK.json names (end_to_end untraced, per_layer
traced), each with its unit. Then checks that the benchmark refuses to run,
without printing a result, where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "bench/run.py"]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke"])
            label = f"{workload} trace={trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{label}: {result}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], f"{label}: metrics {sorted(got)}"
            print(f"ok  {label}")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "protocol", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  refuses to run without src/disruptkit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
