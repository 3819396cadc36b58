"""Small numeric helpers: row normalization, read-only arrays and block-wise text rows."""

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


# Rows `write_rows` converts to Python numbers at a time. Larger blocks write
# no faster, and blocks of 1,024 rows left about 1 MB more peak memory in a
# process that builds an atlas after writing.
BLOCK_ROWS = 256


def write_rows(fh, fmt: str, *columns) -> None:
    """Write the line `fmt % row` for every row of the columns, side by side.

    Each column is an array whose first axis runs over the rows: 1-D for one
    value a row, 2-D for several. Rows become Python numbers `BLOCK_ROWS` at
    a time, so a whole output never exists as Python objects at once. `%r`
    prints a float as its shortest round-trip decimal, and `%d` prints an
    integer column (exact in float64 below 2**53).
    """
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
        fh.writelines(fmt % tuple(row) for row in block.tolist())
