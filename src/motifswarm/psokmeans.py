"""Swarm-optimized k-means: a particle is a full set of k centroids.

The swarm minimizes the intra-cluster fitness of the nearest-centroid
assignment each position induces; the best particle's centroids define the
returned clustering. Empty clusters would shrink the fitness numerator for
free, so each one incurs a penalty equal to the dataset's L1 spread.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ContractError
from .kmeans import ClusterSet, as_item_arrays, _assign, _pairwise_l1
from .pso import PsoConfig, pso_optimize

DEFAULT_PARTICLES = 20
DEFAULT_ITERATIONS = 100


def assignment_fitness(flat, centroids, empty_penalty=0.0):
    """Nearest-centroid labels (ties to the lowest index) and the
    intra-cluster fitness, plus empty_penalty per member-less cluster."""
    labels, fitness = _assign(_pairwise_l1(flat, centroids))
    if empty_penalty:
        n_empty = centroids.shape[0] - np.unique(labels).size
        fitness += empty_penalty * n_empty
    return labels, fitness


def swarm_fitness(flat, positions, k: int, empty_penalty: float) -> np.ndarray:
    """assignment_fitness of each row of an (n_particles, k * d) swarm."""
    return np.array([assignment_fitness(flat, p.reshape(k, -1), empty_penalty)[1]
                     for p in positions])


def pso_kmeans(data, k: int, cfg: PsoConfig | None = None) -> ClusterSet:
    """Cluster items into k groups by swarm search over centroid sets.

    A particle is its k centroids flattened into one position vector; each
    starts on k distinct data items with a random velocity.
    """
    items = as_item_arrays(data)
    n = items.shape[0]
    item_shape = items.shape[1:]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} must be in [1, {n}]")
    if cfg is None:
        cfg = PsoConfig(n_particles=DEFAULT_PARTICLES, max_iter=DEFAULT_ITERATIONS)

    flat = items.reshape(n, -1)
    per_dim = flat.max(axis=0) - flat.min(axis=0)
    spread = float(per_dim.sum())

    # Velocity cap defaults to 20% of the per-dimension data range.
    if cfg.v_max is None:
        per_dim[per_dim == 0.0] = 1.0
        v_cap = np.tile(0.2 * per_dim, k)
        cfg = replace(cfg, v_max=v_cap)

    rng = np.random.default_rng(cfg.seed)
    init_positions = np.stack([flat[rng.choice(n, size=k, replace=False)].reshape(-1)
                               for _ in range(cfg.n_particles)])
    init_velocities = rng.uniform(-1.0, 1.0, size=init_positions.shape) * cfg.v_max

    swarm, best_position = pso_optimize(
        lambda positions: swarm_fitness(flat, positions, k, spread),
        init_positions, cfg, init_velocities=init_velocities, rng=rng,
    )

    centroids = best_position.reshape(k, -1)
    labels, final = assignment_fitness(flat, centroids)

    return ClusterSet(
        k=k,
        centroids=centroids.reshape((k,) + item_shape),
        assignment=labels,
        iterations_run=swarm.iteration,
        final_fitness=final,
        converged=False,
        trace=swarm.history,
    )
