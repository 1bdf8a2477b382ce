"""Swarm-optimized k-means: a particle is a full set of k centroids.

The swarm minimizes the intra-cluster fitness of the nearest-centroid
assignment each position induces; the best particle's centroids define the
returned clustering. Empty clusters would shrink the fitness numerator for
free, so each one incurs a penalty equal to the dataset's L1 spread.

Where it is cheaper, a Lattice scores all the swarm's centroids with one
blocked matmul over a one-hot table of each column's distinct values, and
screened_fitness rescores exactly what may improve: through each item's
nearest centroid, which the table ranks, with one exact distance per item.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError
from .kmeans import (ClusterSet, _labelled_fitness, _labelled_l1, _pairwise_l1,
                     as_item_arrays, assignment_fitness)
from .pso import PsoConfig, pso_optimize

# The table product runs in blocks of values: ~BLOCK_CELLS float cells each,
# but never under BLOCK_VALUES values, below which the matmuls run slowly.
BLOCK_CELLS, BLOCK_VALUES = 2**13, 64


class Lattice:
    """City-block distances to the rows of flat, given sorted down each
    column as ordered, through a one-hot table of each column's distinct
    values. Table column t holds value s_t of data column j_t; with
    E[i,t] = [x_ij_t == s_t] and W[c,t] = |s_t - c_j_t|, for any c

        |x_i - c|_1 = sum_t E[i,t] |s_t - c_j_t| = (E W^T)[i,c]

    exactly in real arithmetic, and every term is >= 0. E is kept as bool
    blocks of table columns.
    """

    def __init__(self, flat, ordered):
        first = np.ones(ordered.shape, dtype=bool)  # a value's first sorted row
        first[1:] = ordered[1:] != ordered[:-1]
        col, at = np.nonzero(first.T)
        self.col, self.value = col, ordered[at, col]
        step = max(BLOCK_VALUES, BLOCK_CELLS // flat.shape[0])
        self.blocks = [slice(b, b + step) for b in range(0, col.size, step)]
        self.equal = [flat[:, col[t]] == self.value[t] for t in self.blocks]

    def distances(self, centroids) -> np.ndarray:
        """(n, m) city-block distances to an (m, d) centroid array."""
        dist = np.zeros((self.equal[0].shape[0], centroids.shape[0]))
        by_column = np.ascontiguousarray(centroids.T)
        for t, equal in zip(self.blocks, self.equal):
            w = by_column[self.col[t]] - self.value[t, None]  # W^T of block t
            dist += equal.astype(float) @ np.abs(w, out=w)
        return dist


def lattice_pays(n: int, d: int, values: int, n_centroids: int) -> bool:
    """Whether the lattice of an (n, d) matrix with values distinct (column,
    value) pairs scores n_centroids centroids faster than assignment_fitness,
    by nanoseconds per evaluation fitted with one BLAS thread on a 2-core
    x86-64 host (see tools/)."""
    lattice = n_centroids * values * (6.1 + 0.065 * n) + 1.6 * n * values
    return lattice < n_centroids * (2.3 * n * d + 15400)


def lattice_fitness(lattice, positions, k: int):
    """The (n, n_particles, k) lattice distances of an (n_particles, k * d)
    swarm, and each particle's penalty-free fitness from them, accurate to
    rounding."""
    dist = lattice.distances(positions.reshape(positions.shape[0] * k, -1))
    dist = dist.reshape(-1, positions.shape[0], k)
    # k - 1 elementwise minimums beat a reduction along the short last axis.
    nearest = functools.reduce(np.minimum, (dist[:, :, c] for c in range(k)))
    return dist, nearest.sum(axis=0) / k


def _lattice_labels(dist, tol: float):
    """The (n, P) nearest-centroid labels of (n, P, k) lattice distances,
    and where they may not be assignment_fitness's: where a runner-up lies
    within tol of the nearest distance, relative to it. Elsewhere the lattice
    errs by far less than that gap, so both kernels find the same centroid."""
    columns = [dist[:, :, c] for c in range(dist.shape[2])]
    bound = functools.reduce(np.minimum, columns) * (1.0 + tol)
    return dist.argmin(axis=2), sum(column <= bound for column in columns) > 1


def screened_fitness(flat, ordered, k: int, empty_penalty: float):
    """Swarm fitness for pso_optimize that ranks by lattice_fitness and
    rescores exactly every particle that may beat its personal best. Any
    other keeps its lattice value, above that best, so pbests, gbest and
    history match assignment_fitness exactly. A rescored item keeps its
    lattice label where that is clear and takes the exact argmin where it is
    not; then its one exact distance, to that label's centroid, enters the
    fitness."""
    lattice = Lattice(flat, ordered)
    # A lattice distance sums the d terms of the direct kernel in another
    # order, and a lattice value n nearest distances, so rounding moves
    # either by at most a few ulps x (n + d) of itself; tol leaves a margin
    # of over a thousandfold.
    tol = 1e-12 * (flat.shape[0] + flat.shape[1])
    best = np.inf

    def fitness(positions):
        nonlocal best
        dist, value = lattice_fitness(lattice, positions, k)
        redo = np.flatnonzero(value * (1.0 - tol) <= best)
        if redo.size < positions.shape[0]:
            dist = dist[:, redo]
        labels, unclear = _lattice_labels(dist, tol)
        centroids = positions[redo].reshape(redo.size, k, flat.shape[1])
        # Unclear items are few: the ties of centroids that sit on data items.
        for j in np.flatnonzero(unclear.any(axis=0)):
            items = np.flatnonzero(unclear[:, j])
            labels[items, j] = _pairwise_l1(flat[items], centroids[j]).argmin(axis=1)
        nearest = _labelled_l1(flat, centroids, labels)
        value[redo] = _labelled_fitness(nearest, labels, k, empty_penalty)
        best = np.minimum(best, value)
        return value

    return fitness


def pso_kmeans(data, k: int, cfg: PsoConfig) -> ClusterSet:
    """Cluster items into k groups by swarm search over centroid sets.

    A particle is its k centroids flattened into one position vector; each
    starts on k distinct data items with a random velocity. Velocities are
    clamped to 20% of each dimension's data range (1 for a constant one).
    """
    items = as_item_arrays(data)
    n = items.shape[0]
    item_shape = items.shape[1:]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} must be in [1, {n}]")

    flat = items.reshape(n, -1)
    ordered = np.sort(flat, axis=0)
    per_dim = ordered[-1] - ordered[0]
    spread = float(per_dim.sum())
    per_dim[per_dim == 0.0] = 1.0
    v_max = np.tile(0.2 * per_dim, k)

    rng = np.random.default_rng(cfg.seed)
    init_positions = np.stack([flat[rng.choice(n, size=k, replace=False)].reshape(-1)
                               for _ in range(cfg.n_particles)])
    init_velocities = rng.uniform(-1.0, 1.0, size=init_positions.shape) * v_max

    values = flat.shape[1] + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if lattice_pays(n, flat.shape[1], values, cfg.n_particles * k):
        fitness = screened_fitness(flat, ordered, k, spread)
    else:
        fitness = lambda positions: assignment_fitness(
            flat, positions.reshape(-1, flat.shape[1]), k, spread)[1]
    swarm, best_position = pso_optimize(fitness, init_positions, init_velocities,
                                        cfg, rng, v_max)

    centroids = best_position.reshape(k, -1)
    labels, final = assignment_fitness(flat, centroids, k)

    return ClusterSet(
        k=k,
        centroids=centroids.reshape((k,) + item_shape),
        assignment=labels[:, 0],
        iterations_run=swarm.iteration,
        final_fitness=float(final[0]),
        converged=swarm.converged,
        trace=swarm.history,
    )
