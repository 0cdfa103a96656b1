"""Shared helpers for the test suite."""

import gc
import types

import numpy as np


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Relative L2 error of ``got`` against the reference ``want``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / denom


# a model's lazily drawn stages, each a cached attribute once read
STAGES = ("encoder_params", "generator_params", "split_weights")


def drawn_stages(model) -> set:
    """The stages of ``model`` drawn so far."""
    return {stage for stage in STAGES if stage in vars(model)}


def recorded(tape) -> list:
    """The records of ``tape``, in creation order."""
    return list(tape._records)


def recorded_outputs(tape) -> list:
    """The arrays of the op outputs that ``tape`` recorded."""
    outs = {rec.out for rec in tape._records}
    return [t.data for t, slot in tape._slots.items() if slot in outs]


def reachable_arrays(root) -> list:
    """The ndarrays that ``root`` keeps alive, found with ``gc.get_referents``.

    The walk enters no module or class, and of a function only its closure
    and defaults, not its globals.
    """
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack += [*(obj.__closure__ or ()), obj.__defaults__, obj.__kwdefaults__]
        else:
            stack += gc.get_referents(obj)
    return arrays
