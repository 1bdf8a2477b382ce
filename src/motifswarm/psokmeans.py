"""Hybrid PSO k-medians: a particle is a full set of k centroids.

Each iteration labels every item with the nearest of each particle's
centroids under the city-block distance, then overwrites those centroids in
place with the coordinate-wise lower medians of their members, the L1
centre of the partition (k-medians; Bradley, Mangasarian & Street, NIPS
1996), as in the hybrid PSO of van der Merwe & Engelbrecht (CEC 2003). A
particle's fitness is its partition's intra-cluster L1 cost to those
medians. Empty clusters would shrink that cost for free, so each one keeps
its centroid and incurs a penalty equal to the dataset's L1 spread. The best
particle's centroids define the returned clustering.

Where it is cheaper, a Lattice finds every particle's labels with one
blocked matmul over a one-hot table of each column's distinct values; items
whose nearest centroid it cannot tell apart take the exact argmin. The same
table counts each cluster's members at every value, from which the lower
medians are read without sorting. A particle whose labels did not change
since the last iteration keeps its last medians and fitness.
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
# The median pass counts members in float32, exact for whole numbers below
# 2^24, so the table serves fewer items than that. Its running counts take
# ~MEDIAN_CELLS cells, or one particle's worth if that is more.
MAX_TABLE_ITEMS, MEDIAN_CELLS = 2**24, 2**22


class Lattice:
    """City-block distances to the rows of flat, given sorted down each
    column as ordered, through a one-hot table of each column's distinct
    values. Table column t holds value s_t of data column j_t; with
    E[i,t] = [x_ij_t == s_t] and W[c,t] = |s_t - c_j_t|, for any c

        |x_i - c|_1 = sum_t E[i,t] |s_t - c_j_t| = (E W^T)[i,c]

    exactly in real arithmetic, and every term is >= 0. E is kept as bool
    blocks of table columns. Value s_t is the rank[t]-th smallest of column
    j_t, and grid[rank[t], j_t] = s_t.
    """

    def __init__(self, flat, ordered):
        self.flat = flat
        first = np.ones(ordered.shape, dtype=bool)  # a value's first sorted row
        first[1:] = ordered[1:] != ordered[:-1]
        col, at = np.nonzero(first.T)
        self.col, self.value = col, ordered[at, col]
        self.rank = np.arange(col.size) - np.searchsorted(col, col)
        self.grid = np.zeros((self.rank.max() + 1, flat.shape[1]))
        self.grid[self.rank, col] = self.value
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

    def labels(self, centroids) -> np.ndarray:
        """The (n, P) nearest-centroid labels that assignment_fitness gives
        on flat for P sets of k centroids, a (P, k, d) array, found through
        one pass of the table. An item keeps its table label unless a
        runner-up lies within tol of its nearest distance, relative to it;
        then it takes the exact argmin. So the labels are
        assignment_fitness's, whatever the BLAS thread count."""
        # A table distance sums the d terms of the direct kernel in another
        # order, so rounding moves either by at most a few ulps x d of
        # itself; outside tol, both kernels find the same centroid with a
        # margin of over a thousandfold.
        n, d = self.flat.shape
        k = centroids.shape[1]
        tol = 1e-12 * d
        dist = self.distances(centroids.reshape(-1, d))
        columns = [dist[:, c::k] for c in range(k)]  # (n, P) each
        bound = functools.reduce(np.minimum, columns) * (1.0 + tol)
        labels = dist.reshape(n, -1, k).argmin(axis=2)
        unclear = sum(column <= bound for column in columns) > 1
        # Unclear items are few: ties between centroids that sit on data values.
        for j in np.flatnonzero(unclear.any(axis=0)):
            items = np.flatnonzero(unclear[:, j])
            labels[items, j] = _pairwise_l1(self.flat[items], centroids[j]).argmin(axis=1)
        return labels

    def medians(self, centroids, labels) -> None:
        """_median_step read off the table: one float32 matmul of each block
        of E against the one-hot of the (n, P) labels counts each cluster's
        members at every value; summed up each column's values, the counts
        first pass (m - 1) // 2 at the lower median. The counts are whole
        numbers of at most n < MAX_TABLE_ITEMS, so float32 holds them exactly."""
        group = max(1, MEDIAN_CELLS // (self.grid.size * centroids.shape[1]))
        for p in range(0, centroids.shape[0], group):
            self._medians(centroids[p:p + group], labels[:, p:p + group])

    def _medians(self, centroids, labels) -> None:
        n_sets, k, d = centroids.shape
        member = (labels[:, :, None] == np.arange(k)).reshape(labels.shape[0], -1)
        size = np.count_nonzero(member, axis=0)  # (P k,)
        onehot = member.astype(np.float32)
        count = np.zeros((self.grid.shape[0], d, size.size), dtype=np.float32)
        for t, equal in zip(self.blocks, self.equal):
            count[self.rank[t], self.col[t]] = equal.T.astype(np.float32) @ onehot
        for r in range(1, count.shape[0]):  # row adds: cumsum is several times slower
            count[r] += count[r - 1]
        # The lower median's rank: how many running counts stay at or below
        # (m - 1) // 2, summed in the narrowest integer that holds the ranks.
        below = count <= ((size - 1) // 2).astype(np.float32)
        rank = below.sum(axis=0, dtype=np.min_scalar_type(count.shape[0]))
        median = self.grid[rank.T, np.arange(d)].reshape(n_sets, k, d)
        filled = size.reshape(n_sets, k) > 0  # a centroid with no members keeps its place
        centroids[filled] = median[filled]


def lattice_pays(n: int, d: int, values: int, n_centroids: int) -> bool:
    """Whether the lattice of an (n, d) matrix with values distinct (column,
    value) pairs labels items by n_centroids centroids faster than the
    direct kernel, by nanoseconds per evaluation fitted with one BLAS thread
    on a 2-core x86-64 host (CHANGES.md and git history hold the fits and
    the README their check on real inputs). Never at MAX_TABLE_ITEMS items
    or more, where the median pass's float32 counts would round."""
    lattice = n_centroids * values * (6.1 + 0.065 * n) + 1.6 * n * values
    return n < MAX_TABLE_ITEMS and lattice < n_centroids * (2.3 * n * d + 15400)


def _median_step(flat, centroids, labels) -> None:
    """Overwrite P sets of k centroids, a (P, k, d) array, with the
    coordinate-wise lower medians of their members under (n, P) labels: in
    each column, the ((m - 1) // 2)-th smallest of a cluster's m values. A
    centroid with no members keeps its place."""
    for p, centroid_set in enumerate(centroids):
        for c in range(centroids.shape[1]):
            members = flat[labels[:, p] == c]
            if members.shape[0]:
                members.sort(axis=0)  # in place: members is a copy
                centroid_set[c] = members[(members.shape[0] - 1) // 2]


def pso_kmeans(data, k: int, cfg: PsoConfig) -> ClusterSet:
    """Cluster items into k groups by hybrid PSO k-medians.

    A particle is its k centroids flattened into one position vector; each
    starts on k distinct data items with a random velocity. Velocities are
    clamped to 20% of each dimension's data range (1 for a constant one).
    The trace holds the best partition-to-median cost after each iteration;
    the returned labels and final_fitness are the best centroids' nearest-
    centroid assignment and its penalty-free fitness, at most the last trace
    value.
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
        lattice = Lattice(flat, ordered)
        nearest, snap = lattice.labels, lattice.medians
    else:
        nearest = lambda centroids: _pairwise_l1(
            flat, centroids.reshape(-1, flat.shape[1])).reshape(n, -1, k).argmin(axis=2)
        snap = lambda centroids, labels: _median_step(flat, centroids, labels)
    del ordered  # as large as the items, and the swarm never reads it

    every = np.arange(cfg.n_particles)
    last_labels = np.full((n, cfg.n_particles), -1)
    last_centroids = np.empty((cfg.n_particles, k, flat.shape[1]))
    last_fitness = np.empty(cfg.n_particles)

    def fitness(positions):
        nonlocal last_labels
        centroids = positions.reshape(cfg.n_particles, k, -1)  # a view: snapped in place
        labels = nearest(centroids)
        moved = (labels != last_labels).any(axis=0)
        # A particle whose partition did not move has its last medians and
        # fitness; a centroid with no members keeps its moved place.
        used = np.zeros((cfg.n_particles, k), dtype=bool)
        used[every, labels] = True
        kept = used & ~moved[:, None]
        centroids[kept] = last_centroids[kept]
        if moved.any():
            snapped, moved_labels = centroids[moved], labels[:, moved]
            snap(snapped, moved_labels)
            centroids[moved] = snapped
            last_fitness[moved] = _labelled_fitness(
                _labelled_l1(flat, snapped, moved_labels), moved_labels, k, spread)
        last_labels = labels
        last_centroids[:] = centroids
        return last_fitness.copy()

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
