"""Residue and structure-homology measures.

All measures are pure functions: the mean squared residue of a submatrix,
and the dominant-class structure similarity with its homology thresholds. The
city-block distances of clustering live with their kernels, in
kmeans._pairwise_l1 and psokmeans.Lattice.
"""

from __future__ import annotations

from typing import Iterable, Sequence as Seq

import numpy as np

from .errors import ContractError
from .featurize import WINDOW_SIZE, _count_windows
from .seqio import SS3_CLASSES, encode

HOMOLOGY_IDENTICAL = "Identical"
HOMOLOGY_WEAK = "Weak"
HOMOLOGY_NONE = "None"


def msr(matrix: np.ndarray, rows: Seq[int], cols: Seq[int]) -> float:
    """Mean squared residue of the submatrix selected by rows x cols.

    The residue of cell (i, j) is its value minus the row mean, minus the
    column mean, plus the overall mean, all taken over the selected index
    sets. Constant and additive (value = row effect + column effect)
    submatrices score exactly zero.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.size == 0 or cols.size == 0:
        raise ContractError("row and column index sets must be non-empty")
    if rows.min() < 0 or rows.max() >= matrix.shape[0]:
        raise ContractError("row index out of range")
    if cols.min() < 0 or cols.max() >= matrix.shape[1]:
        raise ContractError("column index out of range")
    sub = matrix[np.ix_(rows, cols)]
    row_means = sub.mean(axis=1, keepdims=True)
    col_means = sub.mean(axis=0, keepdims=True)
    overall = sub.mean()
    residue = sub - row_means - col_means + overall
    return float(np.mean(residue**2))


def build_profile(structures: Iterable[str]) -> np.ndarray:
    """The ws x 3 per-position H, E, C frequencies (rows sum to 1) over the
    complete 9-label segments of the members' H/E/C strings; each string's
    incomplete tail is dropped, so a string of length L gives floor(L / 9)
    segments."""
    joined = "".join(s[: len(s) - len(s) % WINDOW_SIZE] for s in structures)
    n_segments = len(joined) // WINDOW_SIZE
    if not n_segments:
        raise ContractError("cannot build a profile from zero segments")
    counts = _count_windows(encode(joined, SS3_CLASSES), [len(joined)], WINDOW_SIZE,
                            len(SS3_CLASSES))[0]
    return counts / n_segments


def structure_similarity(profile: np.ndarray) -> float:
    """Average, over positions, of a build_profile's dominant class frequency."""
    return float(profile.max(axis=1).mean())


def homology_class(sim: float) -> str:
    """Classify a similarity value: above 0.70 the group is structurally
    identical, above 0.60 weakly homologous, otherwise unrelated. Both
    boundaries are strict."""
    if not 0.0 <= sim <= 1.0:
        raise ContractError(f"similarity {sim} outside [0, 1]")
    if sim > 0.70:
        return HOMOLOGY_IDENTICAL
    if sim > 0.60:
        return HOMOLOGY_WEAK
    return HOMOLOGY_NONE
