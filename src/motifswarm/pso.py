"""Particle swarm optimization (minimization): the engine of PSO k-means.

One iteration is: score the whole swarm, refresh personal/global bests, then
move every particle with the inertia-weight update

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)
    x <- x + v

where r1, r2 are fresh uniform[0,1] draws per dimension per step.

The search stops after max_iter iterations, or earlier when gbest stalls:
after iteration t > STALL_ITERATIONS it ends if gbest has not strictly
improved over the last STALL_ITERATIONS iterations. The caller passes the
velocity clamp. No iteration updates velocities or moves after its last
scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

MAX_PARTICLES = 100
#: Iterations without a strict gbest gain after which the search stops. PSO
#: k-medians reaches its fixed point within a few iterations (see README).
STALL_ITERATIONS = 3


@dataclass
class PsoConfig:
    n_particles: int
    max_iter: int
    w: float = 0.72
    c1: float = 1.49
    c2: float = 1.49
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ContractError(
                f"n_particles={self.n_particles} outside [1, {MAX_PARTICLES}]"
            )
        if self.max_iter < 1:
            raise ContractError("max_iter must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        for name in ("w", "c1", "c2"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite")


@dataclass
class Swarm:
    """What a search leaves: history[t] is the gbest fitness after iteration
    t + 1, iteration is the number of iterations run, and converged says
    whether gbest had stalled for STALL_ITERATIONS when it ended."""

    gbest_position: np.ndarray
    iteration: int
    history: list[float]
    converged: bool


def pso_optimize(fitness, positions, velocities, cfg: PsoConfig, rng, v_max):
    """Minimize fitness from the given start state; returns (Swarm, best).

    positions and velocities are (n_particles, dim) arrays; the engine works
    on float copies of them. fitness maps the position array to an
    (n_particles,) vector. Velocities are clipped to [-v_max, v_max] after
    each update; v_max is a positive scalar or a (dim,) array, np.inf for no
    clamp. rng gives the r1, r2 draws. The returned Swarm's history holds the
    gbest fitness of every iteration run: max_iter of them, or fewer once
    gbest has not strictly improved for STALL_ITERATIONS iterations.

    fitness may overwrite positions in place (PSO k-means snaps each particle
    to its partition's medians): the pbest and gbest positions record what it
    leaves there, and the velocity update starts from it. The returned gbest
    position is a copy, never a view of positions.
    """
    positions = np.array(positions, dtype=float)
    velocities = np.array(velocities, dtype=float)
    if positions.ndim != 2 or velocities.shape != positions.shape \
            or positions.shape[0] != cfg.n_particles:
        raise ContractError(
            f"start positions {positions.shape} and velocities {velocities.shape} "
            f"must both be (n_particles={cfg.n_particles}, dim)")
    if not np.all(np.asarray(v_max) > 0):
        raise ContractError(f"v_max must be positive, got {v_max}")
    n, dim = positions.shape

    pbest_pos = positions.copy()
    pbest_fit = np.full(n, np.inf)
    gbest_pos = positions[0].copy()
    gbest_fit = np.inf
    history: list[float] = []

    for iteration in range(1, cfg.max_iter + 1):
        current = np.asarray(fitness(positions), dtype=float)
        if current.shape != (n,):
            raise ContractError(f"fitness returned shape {current.shape}, expected {(n,)}")
        bad = np.flatnonzero(~np.isfinite(current))
        if bad.size:
            i = int(bad[0])
            raise ContractError(
                f"non-finite fitness {current[i]} from particle {i} at iteration {iteration}"
            )
        improved = current < pbest_fit
        pbest_fit[improved] = current[improved]
        pbest_pos[improved] = positions[improved]
        best = int(pbest_fit.argmin())
        if pbest_fit[best] < gbest_fit:
            gbest_fit = float(pbest_fit[best])
            gbest_pos[:] = pbest_pos[best]
        history.append(gbest_fit)
        converged = (iteration > STALL_ITERATIONS
                     and history[-1 - STALL_ITERATIONS] <= gbest_fit)
        if converged or iteration == cfg.max_iter:
            break

        try:
            with np.errstate(over="raise"):
                velocities = (cfg.w * velocities
                              + cfg.c1 * rng.random((n, dim)) * (pbest_pos - positions)
                              + cfg.c2 * rng.random((n, dim)) * (gbest_pos - positions))
        except FloatingPointError:
            raise ContractError(
                f"velocity update overflowed at iteration {iteration} "
                f"(w={cfg.w}, c1={cfg.c1}, c2={cfg.c2})") from None
        velocities = np.clip(velocities, -v_max, v_max)
        positions = positions + velocities

    swarm = Swarm(gbest_position=gbest_pos, iteration=iteration, history=history,
                  converged=converged)
    return swarm, gbest_pos
