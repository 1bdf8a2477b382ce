"""Biclusters from PSO k-means: low-residue, high-volume submatrices.

The rows and the columns of the matrix are clustered apart by PSO k-means;
crossing the two partitions gives one bicluster per non-empty pair of a row
cluster and a column cluster. Biclusters are ranked by their mean squared
residue minus a volume reward, so the best are coherent AND large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from . import metrics
from .pso import PsoConfig
from .psokmeans import pso_kmeans

DEFAULT_LAMBDA_SCALE = 0.1


@dataclass(frozen=True)
class Bicluster:
    rows: tuple
    cols: tuple
    msr: float
    volume: int


def make_bicluster(matrix, rows, cols) -> Bicluster:
    rows = tuple(sorted(int(r) for r in rows))
    cols = tuple(sorted(int(c) for c in cols))
    return Bicluster(
        rows=rows,
        cols=cols,
        msr=metrics.msr(matrix, rows, cols),
        volume=len(rows) * len(cols),
    )


def default_lambda(matrix) -> float:
    """Volume-reward weight scaled to the whole matrix's residue."""
    m = np.asarray(matrix, dtype=float)
    full = metrics.msr(m, range(m.shape[0]), range(m.shape[1]))
    return DEFAULT_LAMBDA_SCALE * full


def seed_biclusters(matrix, k_rows: int, k_cols: int, cfg: PsoConfig):
    """Cluster the rows and the columns separately, then cross the two
    partitions into k_rows * k_cols seed biclusters (empty cells dropped)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise ContractError("matrix must have at least 2 rows and 2 columns")

    row_cs = pso_kmeans(m, k_rows, cfg)
    # Column run gets the next seed so the two searches are decorrelated.
    col_cs = pso_kmeans(m.T, k_cols, replace(cfg, seed=cfg.seed + 1))

    seeds = []
    for i in range(k_rows):
        rows = row_cs.members(i)
        if rows.size == 0:
            continue
        for j in range(k_cols):
            cols = col_cs.members(j)
            if cols.size == 0:
                continue
            seeds.append(make_bicluster(m, rows, cols))
    return seeds


def pso_bicluster(matrix, cfg: PsoConfig, seeds, lam: float | None = None):
    """The distinct seed biclusters, best first: sorted by msr -
    lam * volume / cells, then by rows, then by columns.

    Each carries its exact metrics.msr on this matrix. lam=None resolves to
    default_lambda(matrix); lam times the matrix's cell count must be
    finite. cfg drives nothing: the biclusters are the seed_biclusters
    crossings as they are, and cfg stays for callers that pass swarm
    settings here, as bench/workloads.py does.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractError("matrix must be 2-dimensional and non-empty")
    n_rows, n_cols = m.shape
    if not seeds:
        raise ContractError("at least one seed bicluster required")
    if lam is None:
        lam = default_lambda(m)
    total = n_rows * n_cols
    if not math.isfinite(lam * total):
        raise ContractError(
            f"lambda {lam} overflows the volume reward of a {n_rows}x{n_cols} matrix")
    distinct = {make_bicluster(m, s.rows, s.cols) for s in seeds}
    return sorted(distinct, key=lambda b: (b.msr - lam * b.volume / total, b.rows, b.cols))
