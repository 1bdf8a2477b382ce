"""Particle swarm optimization (minimization), one engine for both searches.

One iteration is: score the whole swarm, refresh personal/global bests, then
move every particle with the inertia-weight update

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)
    x <- move(x, v)

where r1, r2 are fresh uniform[0,1] draws per dimension per step. The default
move is x + v; psobiclust passes a sigmoid bit move. The engine updates its
position and velocity arrays in place, so an iteration allocates no array of
the swarm's size beyond the random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

MAX_PARTICLES = 100


@dataclass
class PsoConfig:
    n_particles: int
    max_iter: int
    w: float = 0.72
    c1: float = 1.49
    c2: float = 1.49
    v_max: float | None = None
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
        if self.v_max is not None and not np.all(np.asarray(self.v_max) > 0):
            raise ContractError("v_max must be positive when set")


@dataclass
class Swarm:
    """Final state; row i of each (n_particles, ...) array is particle i."""

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_fitness: np.ndarray
    current_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
    iteration: int
    history: list[float] = field(default_factory=list)


def real_move(positions, velocities, rng):
    positions += velocities
    return positions


def pso_optimize(
    fitness,
    init_positions,
    cfg: PsoConfig,
    init_velocities=None,
    rng=None,
    callback=None,
    move=real_move,
):
    """Minimize fitness from the given start positions; returns (Swarm, best).

    fitness maps the (n_particles, dim) position array to an (n_particles,)
    vector. Velocities start at zero unless init_velocities is given, and
    are clipped to [-v_max, v_max] when cfg.v_max is set. move(positions,
    velocities, rng) returns the next positions. rng overrides the default
    generator seeded from cfg.seed. callback, when set, is called as
    callback(iteration, gbest_fitness) once per iteration.

    The swarm's arrays are reused from one iteration to the next: velocities
    are updated in place, and move may overwrite positions (both moves here
    do). So neither fitness nor callback may keep a reference to the
    positions array after it returns; copy what must outlive the call. The
    returned pbest and gbest positions are copies, never views of positions.
    """
    rows = [np.asarray(p, dtype=float).ravel() for p in init_positions]
    if not rows or any(r.shape != rows[0].shape for r in rows):
        raise ContractError("init_positions must be a non-empty list of equal-length vectors")
    positions = np.stack(rows)
    if positions.shape[0] != cfg.n_particles:
        raise ContractError(
            f"{positions.shape[0]} init positions for n_particles={cfg.n_particles}"
        )
    n, dim = positions.shape
    if init_velocities is None:
        velocities = np.zeros((n, dim))
    else:
        vrows = [np.asarray(v, dtype=float).ravel() for v in init_velocities]
        if len(vrows) != n or any(v.shape != (dim,) for v in vrows):
            raise ContractError("init_velocities shape must match init_positions")
        velocities = np.stack(vrows)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    pbest_pos = positions.copy()
    pbest_fit = np.full(n, np.inf)
    gbest_pos = positions[0].copy()
    gbest_fit = np.inf
    history: list[float] = []
    gap = np.empty_like(positions)  # best - x, the one scratch array of the update

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
        if callback is not None:
            callback(iteration, gbest_fit)

        # w*v + (c1*r1)*(pbest - x) + (c2*r2)*(gbest - x), in place and in
        # that order, so the values match the allocating expression bit for
        # bit; r1 is drawn before r2.
        velocities *= cfg.w
        for c, best_pos in ((cfg.c1, pbest_pos), (cfg.c2, gbest_pos)):
            draw = rng.random((n, dim))
            draw *= c
            draw *= np.subtract(best_pos, positions, out=gap)
            velocities += draw
        if cfg.v_max is not None:
            np.clip(velocities, -cfg.v_max, cfg.v_max, out=velocities)
        positions = move(positions, velocities, rng)

    swarm = Swarm(
        positions=positions,
        velocities=velocities,
        pbest_positions=pbest_pos,
        pbest_fitness=pbest_fit,
        current_fitness=current,
        gbest_position=gbest_pos,
        gbest_fitness=gbest_fit,
        iteration=cfg.max_iter,
        history=history,
    )
    return swarm, gbest_pos
