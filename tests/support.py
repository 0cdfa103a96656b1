"""Shared helpers for the test suite."""

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
