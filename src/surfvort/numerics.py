"""Small numeric helpers: row normalization, read-only arrays and the column-wise block writer."""

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


# Rows `write_rows` formats at a time. Larger blocks write no faster, and
# blocks of 1,024 rows left about 1 MB more peak memory in a process that
# builds an atlas after writing.
BLOCK_ROWS = 256


def _strings(block) -> list[str]:
    """The rows of a column block as text: a list of strings as it is, else comma-joined `repr`s."""
    if isinstance(block, list):
        return block
    values = block.tolist()
    if block.ndim == 1:
        return list(map(repr, values))
    if block.shape[1] == 3:
        return [f"{x!r},{y!r},{z!r}" for x, y, z in values]
    return [f"{x!r},{y!r}" for x, y in values]


def write_rows(fh, fmt: str, *columns) -> None:
    """Write `fmt % row`, with one `%s` in `fmt` per column, for every row of the columns.

    A column is a list of strings or an array whose first axis runs over the
    rows, with 1, 2 or 3 values a row. Each becomes text once per block of
    `BLOCK_ROWS` rows (a column passed twice, once), so no whole output exists
    as Python objects at once. `repr` prints a float as its shortest
    round-trip decimal and an integer as itself.
    """
    unique = list({id(c): c for c in columns}.values())
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        text = {id(c): _strings(c[start:start + BLOCK_ROWS]) for c in unique}
        fh.writelines(map(fmt.__mod__, zip(*(text[id(c)] for c in columns))))
