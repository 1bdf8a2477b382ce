"""Swarm-optimized k-means: a particle is a full set of k centroids.

The swarm minimizes the intra-cluster fitness of the nearest-centroid
assignment each position induces; the best particle's centroids define the
returned clustering. Empty clusters would shrink the fitness numerator for
free, so each one incurs a penalty equal to the dataset's L1 spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from .kmeans import ClusterSet, as_item_arrays, _assign, _pairwise_l1
from .pso import PsoConfig, pso_optimize

DEFAULT_PARTICLES = 20
DEFAULT_ITERATIONS = 100


@dataclass(frozen=True)
class CentroidParticleCodec:
    """Maps k centroids of a fixed item shape to one flat position vector."""

    k: int
    item_shape: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ContractError("codec needs k >= 1")

    @property
    def dim(self) -> int:
        return self.k * math.prod(self.item_shape)

    def encode(self, centroids) -> np.ndarray:
        arr = np.asarray(centroids, dtype=float)
        if arr.shape != (self.k,) + tuple(self.item_shape):
            raise ContractError(
                f"expected centroids of shape {(self.k,) + tuple(self.item_shape)}, "
                f"got {arr.shape}"
            )
        return arr.reshape(self.dim).copy()

    def decode(self, position) -> np.ndarray:
        arr = np.asarray(position, dtype=float)
        if arr.shape != (self.dim,):
            raise ContractError(f"position length {arr.size} != {self.dim}")
        return arr.reshape((self.k,) + tuple(self.item_shape)).copy()


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


def pso_kmeans(data, k: int, cfg: PsoConfig | None = None, refine: bool = False) -> ClusterSet:
    """Cluster items into k groups by swarm search over centroid sets.

    Each particle starts on k distinct data items with a random velocity;
    refine=True runs one extra mean-update pass on the winner and keeps it
    only if it scores better.
    """
    items = as_item_arrays(data)
    n = items.shape[0]
    item_shape = items.shape[1:]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} must be in [1, {n}]")
    if cfg is None:
        cfg = PsoConfig(n_particles=DEFAULT_PARTICLES, max_iter=DEFAULT_ITERATIONS)

    flat = items.reshape(n, -1)
    codec = CentroidParticleCodec(k=k, item_shape=item_shape)
    per_dim = flat.max(axis=0) - flat.min(axis=0)
    spread = float(per_dim.sum())

    # Velocity cap defaults to 20% of the per-dimension data range.
    if cfg.v_max is None:
        per_dim[per_dim == 0.0] = 1.0
        v_cap = np.tile(0.2 * per_dim, k)
        cfg = replace(cfg, v_max=v_cap)

    rng = np.random.default_rng(cfg.seed)
    init_positions = np.stack([
        codec.encode(items[rng.choice(n, size=k, replace=False)])
        for _ in range(cfg.n_particles)
    ])
    init_velocities = rng.uniform(-1.0, 1.0, size=init_positions.shape) * cfg.v_max

    swarm, best_position = pso_optimize(
        lambda positions: swarm_fitness(flat, positions, k, spread),
        init_positions, cfg, init_velocities=init_velocities, rng=rng,
    )

    centroids = best_position.reshape(k, -1)
    labels, final = assignment_fitness(flat, centroids)
    if refine:
        updated = centroids.copy()
        for c in range(k):
            members = flat[labels == c]
            if members.shape[0]:
                updated[c] = members.mean(axis=0)
        new_labels, new_final = assignment_fitness(flat, updated)
        if new_final < final:
            centroids, labels, final = updated, new_labels, new_final

    return ClusterSet(
        k=k,
        centroids=centroids.reshape((k,) + item_shape),
        assignment=labels,
        iterations_run=swarm.iteration,
        final_fitness=final,
        converged=False,
        trace=swarm.history,
    )
