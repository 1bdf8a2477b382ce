"""Swarm-optimized k-means: a particle is a full set of k centroids.

The swarm minimizes the intra-cluster fitness of the nearest-centroid
assignment each position induces; the best particle's centroids define the
returned clustering. Empty clusters would shrink the fitness numerator for
free, so each one incurs a penalty equal to the dataset's L1 spread.

Where it is cheaper, a Lattice scores all the swarm's centroids with one
blocked matmul, and screened_fitness rescores exactly what may improve.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError
from .kmeans import ClusterSet, as_item_arrays, assignment_fitness
from .pso import PsoConfig, pso_optimize

# The lattice product runs in blocks of gaps: ~BLOCK_CELLS float cells each,
# but never under BLOCK_GAPS gaps, below which the matmuls run slowly.
BLOCK_CELLS, BLOCK_GAPS = 2**13, 64


class Lattice:
    """City-block distances to the rows of flat, given sorted down each
    column as ordered, through a weighted unary code. Column j's distinct
    values s_0 < ... < s_m leave gaps t of start s_t, width w_t = s_{t+1} - s_t.
    With U[i,t] = [x_ij > s_t] and V[c,t] = clip(c_j - s_t, 0, w_t), the gaps
    below x_ij add V up to clip(c_j - s_0, 0, x_ij - s_0), so for any c

        |x_i - c|_1 = sum_j (x_ij - s_0j) + sum_j |c_j - s_0j| - 2 (U V^T)[i,c]

    exactly in real arithmetic. A constant column adds no gap. U is kept as
    bool blocks of gaps.
    """

    def __init__(self, flat, ordered):
        col, at = np.nonzero((ordered[1:] != ordered[:-1]).T)
        self.col, self.start, self.low = col, ordered[at, col], ordered[0]
        self.width = ordered[at + 1, col] - self.start
        self.base = (flat - self.low).sum(axis=1)
        step = max(BLOCK_GAPS, BLOCK_CELLS // flat.shape[0])
        self.blocks = [slice(b, b + step) for b in range(0, col.size, step)]
        self.above = [flat[:, col[t]] > self.start[t] for t in self.blocks]

    def distances(self, centroids) -> np.ndarray:
        """(n, m) city-block distances to an (m, d) centroid array."""
        inner = np.zeros((self.base.size, centroids.shape[0]))
        by_column = np.ascontiguousarray(centroids.T)
        for t, above in zip(self.blocks, self.above):
            v = by_column[self.col[t]] - self.start[t, None]  # V^T of block t
            np.maximum(v, 0.0, out=v)
            np.minimum(v, self.width[t, None], out=v)
            inner += above.astype(float) @ v
        inner *= -2.0
        inner += self.base[:, None]
        inner += np.abs(centroids - self.low).sum(axis=1)
        return inner


def lattice_pays(n: int, d: int, width: int, n_centroids: int) -> bool:
    """Whether a width-gap lattice of an (n, d) matrix scores n_centroids
    centroids faster than assignment_fitness, by nanoseconds per evaluation
    fitted with one BLAS thread on a 2-core x86-64 host (see tools/)."""
    lattice = n_centroids * width * (6.1 + 0.065 * n) + 1.6 * n * width
    return lattice < n_centroids * (2.3 * n * d + 15400)


def lattice_fitness(lattice, positions, k: int):
    """The penalty-free fitness of each particle of an (n_particles, k * d)
    swarm from lattice distances, accurate to rounding."""
    dist = lattice.distances(positions.reshape(positions.shape[0] * k, -1))
    dist = dist.reshape(-1, positions.shape[0], k)
    # k - 1 elementwise minimums beat a reduction along the short last axis.
    nearest = functools.reduce(np.minimum, (dist[:, :, c] for c in range(k)))
    return nearest.sum(axis=0) / k


def screened_fitness(flat, ordered, k: int, empty_penalty: float):
    """Swarm fitness for pso_optimize that ranks by lattice_fitness and
    rescores with assignment_fitness every particle that may beat its
    personal best. Any other keeps its lattice value, above that best, so
    pbests, gbest and history match assignment_fitness exactly."""
    lattice = Lattice(flat, ordered)
    # Rounding moves a lattice value by a few ulps x (gaps + 2d) x (n * data
    # spread + value); tol leaves a margin of over a thousandfold.
    tol = 1e-12 * (lattice.col.size + flat.shape[1])
    scale = flat.shape[0] * float((ordered[-1] - ordered[0]).sum())
    best = np.inf

    def fitness(positions):
        nonlocal best
        value = lattice_fitness(lattice, positions, k)
        redo = value <= best + tol * (scale + value)
        value[redo] = assignment_fitness(flat, positions[redo].reshape(-1, flat.shape[1]),
                                         k, empty_penalty)[1]
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

    width = int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if lattice_pays(n, flat.shape[1], width, cfg.n_particles * k):
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
        converged=False,
        trace=swarm.history,
    )
