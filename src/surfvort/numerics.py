"""Small numeric helpers: row normalization and read-only arrays."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


def normalize_rows(v: FloatArray) -> FloatArray:
    """Return `v` with unit-length rows; rows of length 0 raise."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable (shared-read safety for concurrent evaluators)."""
    a.setflags(write=False)
    return a
