"""Spans around the public functions of each disruptkit module.

The program is not edited: each function is wrapped where it is bound, from
the benchmark's side, and restored afterwards. A span records (id, parent,
name, start, end, request); its self time is its duration minus the part its
child spans cover. Spans stay in memory and are written as gzipped JSONL at
the end.
"""

import gzip
import itertools
import json
import time
from collections import defaultdict

from disruptkit import attacks, autodiff, cli, harness, objectives, zoo

# span name -> autodiff function, patched on the autodiff module because
# every caller reaches it as ``ad.<op>`` (tanh/relu/sigmoid go through activation)
AUTODIFF_OPS = {
    "affine": "forward_affine",
    "activation": "activation",
    "reshape": "reshape",
    "concatenate": "concatenate",
    "mean": "mean",
    "squared_difference": "squared_difference",
    "add": "add",
    "scale": "scale",
}
DISTANCES = ("metrics.l2", "metrics.id", "metrics.perceptual")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request, self_s)
        self.request = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], parent, name, start, end, tracer.request,
                              duration - frame[1]))

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, patches: Patches) -> None:
        """Wrap every layer boundary where the program binds it."""
        w = self.wrap
        for span, fn in AUTODIFF_OPS.items():
            patches.set(autodiff, fn, w(f"autodiff.{span}", getattr(autodiff, fn)))
        patches.set(autodiff, "backward", w("autodiff.backward", autodiff.backward))
        for method in ("encode", "generate"):
            patches.set(zoo.TwoStageModel, method,
                        w(f"zoo.{method}", vars(zoo.TwoStageModel)[method]))
        for cls in (objectives.LatentAttackObjective, objectives.ImageAttackObjective):
            patches.set(cls, "bind", w("objectives.bind", vars(cls)["bind"]))
        patches.set(attacks, "aggregate", w("ensembles.aggregate", attacks.aggregate))
        for module in (zoo, harness, cli):
            patches.set(module, "build_model", w("zoo.build_model", module.build_model))
        for module in (harness, cli):
            patches.set(module, "sample_attribute_set",
                        w("zoo.sample_attributes", module.sample_attribute_set))
            patches.set(module, "run_attack", w("attacks.run_attack", module.run_attack))
            build = module.build_gradient_provider

            def traced_build(*args, _build=build, **kwargs):
                return w("attacks.provider", _build(*args, **kwargs))

            patches.set(module, "build_gradient_provider",
                        w("attacks.build_provider", traced_build))
        patches.set(harness, "generate_dataset",
                    w("dataset.generate", harness.generate_dataset))
        patches.set(cli, "load_config", w("config.load", cli.load_config))
        for span, fn in zip(DISTANCES, ("l2_image", "id_distance", "perceptual_distance")):
            patches.set(harness, fn, w(span, getattr(harness, fn)))
        patches.set(harness, "pca_project_latents",
                    w("metrics.pca", harness.pca_project_latents))
        patches.set(harness, "separation_statistic",
                    w("metrics.separation", harness.separation_statistic))
        for fn in ("run_experiment", "emit_reports"):
            patches.set(harness, fn, w(f"harness.{fn}", getattr(harness, fn)))

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, _, self_s in self.spans:
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        return out

    def self_seconds(self) -> float:
        return sum(span[6] for span in self.spans)

    def layer_self_seconds(self) -> dict:
        """Self time per module layer (the span name before the first dot)."""
        out = defaultdict(float)
        for span in self.spans:
            out[span[2].split(".", 1)[0]] += span[6]
        return dict(out)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, by span id, gzip-compressed."""
        keys = ("id", "parent", "name", "start", "end", "request")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span[:6]))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, affine_floor_us: float) -> dict:
    """Per-layer values, named as in BENCHMARK.json, from span totals."""
    t = defaultdict(lambda: [0, 0.0, 0.0], totals)
    ops = {kind: t[f"autodiff.{kind}"] for kind in AUTODIFF_OPS}
    op_calls = sum(v[0] for v in ops.values())
    op_self = sum(v[2] for v in ops.values())
    affine_us = _ratio(ops["affine"][2], ops["affine"][0]) * 1e6
    out = {
        "autodiff.op_calls": op_calls,
        **{f"autodiff.op_calls.{kind}": v[0] for kind, v in ops.items()},
        "autodiff.op_self_s": op_self,
        "autodiff.op_us": _ratio(op_self, op_calls) * 1e6,
        "autodiff.backward_calls": t["autodiff.backward"][0],
        "autodiff.backward_s": t["autodiff.backward"][1],
        "autodiff.affine_floor_us": affine_floor_us,
        "autodiff.overhead_ratio": _ratio(affine_us, affine_floor_us),
        "zoo.encode_calls": t["zoo.encode"][0],
        "zoo.generate_calls": t["zoo.generate"][0],
        "zoo.encode_self_s": t["zoo.encode"][2],
        "zoo.generate_self_s": t["zoo.generate"][2],
        "zoo.build_model_s": t["zoo.build_model"][1],
        "dataset.generate_s": t["dataset.generate"][1],
        "config.load_s": t["config.load"][1],
        "cli.request_self_s": t["cli.request"][2],
        "objectives.bind_calls": t["objectives.bind"][0],
        "objectives.bind_s": t["objectives.bind"][1],
        "ensembles.aggregate_calls": t["ensembles.aggregate"][0],
        "ensembles.aggregate_s": t["ensembles.aggregate"][1],
        "attacks.run_attack_calls": t["attacks.run_attack"][0],
        "attacks.run_attack_self_s": t["attacks.run_attack"][2],
        "attacks.provider_calls": t["attacks.provider"][0],
        "attacks.provider_self_s": t["attacks.provider"][2],
        "attacks.iters_per_s": _ratio(t["attacks.provider"][0], t["attacks.run_attack"][1]),
        "metrics.distance_calls": sum(t[name][0] for name in DISTANCES),
        "metrics.distance_s": sum(t[name][1] for name in DISTANCES),
        "metrics.pca_s": t["metrics.pca"][1],
        "harness.run_experiment_s": t["harness.run_experiment"][1],
        "harness.run_experiment_self_s": t["harness.run_experiment"][2],
        "harness.emit_reports_s": t["harness.emit_reports"][1],
    }
    return out
