"""Residue and structure-homology measures.

All measures are pure functions: the mean squared residue of a submatrix,
and the dominant-class structure similarity with its homology thresholds. The
city-block distances of clustering live with their kernels, in
kmeans._pairwise_l1 and psokmeans.Lattice.
"""

from __future__ import annotations

from typing import Sequence as Seq

import numpy as np

from .errors import ContractError
from .featurize import WINDOW_SIZE, _chunks, _count_segments
from .seqio import SS3_CLASSES, _codes

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


def segment_counts(structures: list[str]) -> np.ndarray:
    """(len(structures), ws, 3) per-position H, E, C counts over each H/E/C
    string's complete 9-label segments, counted in chunks of strings as
    featurize counts windows, in the narrowest unsigned type that holds the
    most segments of any string. A group's ws x 3 H, E, C profile (rows sum
    to 1) is the sum of its members' rows over their number of segments: see
    report.profile_for_members."""
    ws, n_classes = WINDOW_SIZE, len(SS3_CLASSES)
    n_segments = np.fromiter(map(len, structures), dtype=np.intp, count=len(structures)) // ws
    dtype = np.min_scalar_type(int(n_segments.max(initial=0)))
    counts = np.empty((len(structures), ws, n_classes), dtype=dtype)
    for lo, hi in _chunks(n_segments * ws):
        joined = "".join([s[: ws * m] for s, m in zip(structures[lo:hi],
                                                      n_segments[lo:hi].tolist())])
        codes = _codes(joined, SS3_CLASSES).reshape(-1, ws)
        counts[lo:hi] = _count_segments(codes, n_segments[lo:hi], n_classes)
    return counts


def structure_similarity(profile: np.ndarray) -> float:
    """Average, over positions, of a ws x 3 profile's dominant class frequency
    (report.profile_for_members)."""
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
