"""Binary-PSO search for low-residue, high-volume submatrices.

A particle is a 0/1 membership vector over the matrix rows followed by the
matrix columns. Velocities update exactly as in the real-valued engine; a bit
then becomes 1 when a fresh uniform draw falls below sigmoid(velocity).
Fitness is the mean squared residue minus a volume reward, so minimization
prefers coherent AND large submatrices. The swarm is seeded from clusterings
of the rows and of the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from . import metrics
from .pso import MAX_PARTICLES, PsoConfig, pso_optimize
from .psokmeans import pso_kmeans

VELOCITY_CLAMP = 4.0
#: Iterations without a strict gbest gain after which the search stops. On the
#: benchmark's inputs, the refining swarm never improves after iteration 1
#: (see README).
STALL_ITERATIONS = 20
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
    if not rows or not cols:
        raise ContractError("bicluster needs non-empty row and column sets")
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
    if not (1 <= k_rows <= m.shape[0] and 1 <= k_cols <= m.shape[1]):
        raise ContractError("k_rows/k_cols out of range for matrix")

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


def _repair(bits, velocities, n_rows):
    """Keep both halves of every membership vector (bool or 0/1 float) non-empty
    by switching on the highest-velocity bit of any empty half."""
    for half in (slice(0, n_rows), slice(n_rows, bits.shape[1])):
        dead = np.flatnonzero(~bits[:, half].any(axis=1))
        bits[dead, half.start + velocities[dead, half].argmax(axis=1)] = True


def bit_move(n_rows: int):
    """Binary-PSO move for pso_optimize: a bit is 1 when a fresh uniform
    draw falls below sigmoid(velocity); empty halves are then repaired.
    Overwrites positions with the new bits, computing the sigmoid there."""
    def move(positions, velocities, rng):
        draw = rng.random(velocities.shape)
        # positions holds sigmoid(v) = 1 / (1 + exp(-v)), then the bits.
        np.negative(velocities, out=positions)
        np.exp(positions, out=positions)
        positions += 1.0
        np.divide(1.0, positions, out=positions)
        np.less(draw, positions, out=positions)
        _repair(positions, velocities, n_rows)
        return positions
    return move


def msr_ranker(matrix):
    """The mean squared residue of every masked submatrix of one matrix, as a
    function (row_masks, col_masks) -> msr per particle of 0/1 masks shaped
    (n_particles, n_rows) and (n_particles, n_cols).

    Uses the sums-of-squares identity of Cheng & Church (2000): with row sums
    r_i, column sums c_j, total t, squared sum q and n = |I|*|J| cells,
    msr = (q - sum r_i^2/|J| - sum c_j^2/|I| + t^2/n) / n. The sums come from
    three matmuls. Accurate to rounding only, so it ranks particles while
    metrics.msr gives the reported value. The matrix is double-centred and
    squared once, here, rather than on every call.
    """
    m = np.asarray(matrix, dtype=float)
    # Adding a row effect plus a column effect leaves every residue as it
    # is; double-centring keeps the sums, and their cancellation error, small.
    m = m - m.mean(axis=1, keepdims=True) - m.mean(axis=0, keepdims=True) + m.mean()
    squared = m * m

    def ranks(row_masks, col_masks) -> np.ndarray:
        n_r = row_masks.sum(axis=1)
        n_c = col_masks.sum(axis=1)
        row_sums = col_masks @ m.T
        row_sums *= row_masks
        col_sums = (row_masks @ m) * col_masks
        squares = ((row_masks @ squared) * col_masks).sum(axis=1)
        total = col_sums.sum(axis=1)
        n = n_r * n_c
        out = (squares - np.square(row_sums, out=row_sums).sum(axis=1) / n_c
               - (col_sums**2).sum(axis=1) / n_r + total**2 / n) / n
        # One row or one column is its own row or column mean: residue 0 exactly.
        return np.where((n_r == 1) | (n_c == 1), 0.0, np.maximum(out, 0.0))

    return ranks


def pso_bicluster(matrix, cfg: PsoConfig, seeds, lam: float | None = None, rng=None):
    """Refine seed biclusters by binary PSO; minimizes msr - lam*volume_share.

    Returns the best bicluster found followed by every distinct personal
    best, ordered by fitness ascending. rng overrides the cfg.seed
    generator. lam times the matrix's cell count must be finite. The matrix
    is centred and squared once for the whole search (msr_ranker).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractError("matrix must be 2-dimensional and non-empty")
    n_rows, n_cols = m.shape
    if not seeds:
        raise ContractError("at least one seed bicluster required")
    if len(seeds) > MAX_PARTICLES:
        raise ContractError(
            f"{len(seeds)} seed biclusters exceed the {MAX_PARTICLES}-particle swarm"
        )
    for s in seeds:
        if not s.rows or not s.cols:
            raise ContractError("seed with empty row or column set")
        if (min(s.rows) < 0 or min(s.cols) < 0
                or max(s.rows) >= n_rows or max(s.cols) >= n_cols):
            raise ContractError("seed indices outside matrix")
    if lam is None:
        lam = default_lambda(m)
    total = n_rows * n_cols
    if not math.isfinite(lam * total):
        raise ContractError(
            f"lambda {lam} overflows the volume reward of a {n_rows}x{n_cols} matrix")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    # One particle per seed; extra capacity recycles the seed list.
    n = max(cfg.n_particles, len(seeds))
    bits = np.zeros((n, n_rows + n_cols), dtype=bool)
    for p in range(n):
        s = seeds[p % len(seeds)]
        bits[p, list(s.rows)] = True
        bits[p, [n_rows + c for c in s.cols]] = True
    # Random speeds, signed to lean toward keeping the seed's bits; a fully
    # signless start would scramble the seeds on the first move.
    velocities = rng.uniform(1.0, 3.0, size=bits.shape) * np.where(bits, 1.0, -1.0)
    msr_of = msr_ranker(m)

    def fitness(positions):
        rows, cols = positions[:, :n_rows], positions[:, n_rows:]
        volume = rows.sum(axis=1) * cols.sum(axis=1)
        return msr_of(rows, cols) - lam * volume / total

    swarm, _ = pso_optimize(fitness, bits, velocities, replace(cfg, n_particles=n), rng,
                            VELOCITY_CLAMP, STALL_ITERATIONS, move=bit_move(n_rows))

    def to_bicluster(position):
        return make_bicluster(m, np.flatnonzero(position[:n_rows]),
                              np.flatnonzero(position[n_rows:]))

    # Equal bits are equal biclusters: the exact msr runs once per distinct one.
    distinct = {p.tobytes(): p for p in swarm.pbest_positions}
    distinct.pop(swarm.gbest_position.tobytes(), None)
    rest = map(to_bicluster, distinct.values())
    # Sort by exact fitness (exact msr), not the identity's rounded values.
    return [to_bicluster(swarm.gbest_position)] + sorted(rest, key=lambda b: (
        b.msr - lam * b.volume / total, b.rows, b.cols))
