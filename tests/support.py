"""Shared helpers for the test suite."""

import numpy as np


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Relative L2 error of ``got`` against the reference ``want``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / denom


def recorded(tape) -> list:
    """The records of ``tape``, in creation order."""
    return list(tape._records)
