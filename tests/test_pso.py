import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from motifswarm import pso
from motifswarm.errors import ContractError
from motifswarm.pso import MAX_PARTICLES, PsoConfig, pso_optimize

from helpers import pso_oracle


def sphere(x):
    """Sum of squares along the last axis: (n, dim) -> (n,), (dim,) -> scalar."""
    return (np.asarray(x) ** 2).sum(axis=-1)


def init_box(seed, n=10, dim=4, half_width=5.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-half_width, half_width, size=(n, dim))


class Recorder:
    """A fitness that keeps a copy of every position array it scores and of
    the values it returns, and the last array itself, to check that nothing
    the engine returns is a view of it."""

    def __init__(self, fitness):
        self.fitness, self.scored, self.values, self.live = fitness, [], [], None

    def __call__(self, positions):
        self.live = positions
        self.scored.append(positions.copy())
        self.values.append(np.array(self.fitness(positions), dtype=float))
        return self.values[-1]

    def best(self):
        """Each particle's first lowest-scoring position, and its score."""
        values = np.array(self.values)
        first = values.argmin(axis=0), np.arange(values.shape[1])
        return np.array(self.scored)[first], values[first]


class CountingRng:
    """A generator seeded with seed that counts its random() calls: the
    engine draws r1 and r2 once per move, so moves == draws // 2."""

    def __init__(self, seed):
        self.base, self.draws = np.random.default_rng(seed), 0

    def random(self, size=None):
        self.draws += 1
        return self.base.random(size)


# PSO k-medians' stall window, and the one the engine tests below run at
# unless they say otherwise: on the sphere, gbest stalls for a few
# iterations at a time, so TestSphere fails at windows of 3 to 9.
KMEDIANS_WINDOW, SPHERE_WINDOW = pso.STALL_ITERATIONS, 20


def run(fitness, init, cfg, velocities=None, v_max=np.inf, window=SPHERE_WINDOW, rng=None):
    """pso_optimize from rest (unless velocities are given), drawing from a
    generator seeded with cfg.seed (unless rng is given), unclamped unless
    v_max is given, with the engine's stall window set to window."""
    if velocities is None:
        velocities = np.zeros(np.shape(init))
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    with mock.patch.object(pso, "STALL_ITERATIONS", window):
        return pso_optimize(fitness, init, velocities, cfg, rng, v_max)


class TestConfig:
    def test_defaults(self):
        cfg = PsoConfig(n_particles=10, max_iter=5)
        assert dataclasses.astuple(cfg) == (10, 5, 0.72, 1.49, 1.49, 0)
        assert [f.name for f in dataclasses.fields(PsoConfig)] == [
            "n_particles", "max_iter", "w", "c1", "c2", "seed"]

    @pytest.mark.parametrize("n", [0, -1, MAX_PARTICLES + 1])
    def test_particle_count_bounds(self, n):
        with pytest.raises(ContractError):
            PsoConfig(n_particles=n, max_iter=5)

    def test_invalid_fields(self):
        with pytest.raises(ContractError):
            PsoConfig(n_particles=5, max_iter=0)
        with pytest.raises(ContractError):
            PsoConfig(n_particles=5, max_iter=5, w=float("inf"))
        for v_max in (0.0, -1.0, np.nan, np.array([1.0, 0.0, 1.0, 1.0])):
            with pytest.raises(ContractError, match="v_max"):
                run(sphere, init_box(0, n=5), PsoConfig(n_particles=5, max_iter=5),
                    v_max=v_max)


class TestSphere:
    def test_reaches_tight_minimum(self):
        for seed in range(5):
            cfg = PsoConfig(n_particles=10, max_iter=200, seed=seed)
            swarm, best = run(sphere, init_box(seed), cfg)
            assert swarm.history[-1] < 1e-3
            assert sphere(best) == pytest.approx(swarm.history[-1])

    def test_seeded_at_optimum_never_worsens(self):
        init = init_box(3)
        init[4] = 0.0
        cfg = PsoConfig(n_particles=10, max_iter=30, seed=3)
        swarm, _ = run(sphere, init, cfg)
        assert swarm.history[0] == 0.0
        assert all(v == 0.0 for v in swarm.history)


class TestLoopMechanics:
    def test_single_iteration(self):
        calls = []
        cfg = PsoConfig(n_particles=3, max_iter=1, seed=0)
        swarm, _ = run(lambda x: calls.append(x.shape) or sphere(x), init_box(0, n=3), cfg)
        assert swarm.iteration == 1
        assert len(swarm.history) == 1
        assert calls == [(3, 4)]  # one call scores all three particles

    def test_gbest_monotone_nonincreasing(self):
        for seed in range(10):
            cfg = PsoConfig(n_particles=8, max_iter=60, seed=seed)
            swarm, _ = run(sphere, init_box(seed, n=8), cfg)
            hist = swarm.history
            assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_gbest_is_min_of_pbests(self):
        cfg = PsoConfig(n_particles=6, max_iter=20, seed=7)
        fitness = Recorder(sphere)
        swarm, best = run(fitness, init_box(7, n=6), cfg)
        best_positions, pbest_fitness = fitness.best()
        assert np.array_equal(best, best_positions[pbest_fitness.argmin()])
        assert pbest_fitness.shape == (6,)
        assert swarm.history[-1] == pbest_fitness.min()
        assert np.all(pbest_fitness <= fitness.values[-1])

    def test_zero_coefficients_freeze_positions(self):
        init = init_box(1, n=4)
        vels = np.full((4, 4), 2.5)
        cfg = PsoConfig(n_particles=4, max_iter=10, seed=1, w=0.0, c1=0.0, c2=0.0)
        fitness = Recorder(sphere)
        # Frozen positions score the same every time: a window of 20 lets
        # all 10 iterations run. w = 0 drops the start velocities, so every
        # move adds exactly 0.
        run(fitness, init, cfg, vels, window=20)
        assert len(fitness.scored) == 10
        assert all(np.array_equal(x, init) for x in fitness.scored)

    def test_velocity_clamp(self):
        # A move adds the clamped velocities to the positions, so each step
        # between two scorings is a velocity, up to the rounding of x + v - x.
        # There is one step after each iteration but the last; at window 20
        # the sphere runs all 25.
        cfg = PsoConfig(n_particles=6, max_iter=25, seed=2)
        fitness, rng = Recorder(sphere), CountingRng(cfg.seed)
        swarm, _ = run(fitness, init_box(2, n=6), cfg, v_max=0.5, window=20, rng=rng)
        steps = np.diff(fitness.scored, axis=0)
        assert swarm.iteration == 25
        assert steps.shape == (24, 6, 4)
        assert rng.draws == 2 * 24
        assert np.all(np.abs(steps) <= 0.5 + 1e-12)
        assert np.any(np.abs(steps) > 0.5 - 1e-12)  # the clamp fired

    def test_callback_sees_every_iteration(self):
        # history[t] is the lowest fitness scored in iterations 1..t + 1.
        cfg = PsoConfig(n_particles=5, max_iter=15, seed=4)
        fitness = Recorder(sphere)
        swarm, _ = run(fitness, init_box(4, n=5), cfg, window=20)
        assert swarm.iteration == len(swarm.history) == len(fitness.values) == 15
        assert swarm.history == list(np.minimum.accumulate(
            [v.min() for v in fitness.values]))
        fits = swarm.history
        assert all(b <= a for a, b in zip(fits, fits[1:]))


def scripted(values):
    """A fitness that scores every particle values[t] at iteration t + 1."""
    values = iter(values)
    return lambda positions: np.full(positions.shape[0], next(values))


def test_the_searches_windows():
    assert KMEDIANS_WINDOW == 3


@pytest.mark.parametrize("W", [KMEDIANS_WINDOW, SPHERE_WINDOW])
class TestStallRule:
    def search(self, values, max_iter, W):
        """(swarm, moves made) of a scripted search on a 3-particle swarm."""
        cfg = PsoConfig(n_particles=3, max_iter=max_iter, seed=0)
        rng = CountingRng(cfg.seed)
        swarm, _ = run(scripted(values), init_box(0, n=3), cfg, window=W, rng=rng)
        return swarm, rng.draws // 2

    def test_constant_fitness_stops_after_w_plus_one_iterations(self, W):
        swarm, moves = self.search([1.0] * 100, 100, W)
        assert (swarm.iteration, swarm.converged) == (W + 1, True)
        assert swarm.history == [1.0] * (W + 1)
        assert moves == W  # none after the last scoring

    @pytest.mark.parametrize("cap", [lambda W: 1, lambda W: W, lambda W: W + 1],
                             ids=["1", "W", "W+1"])
    def test_max_iter_stays_the_cap(self, W, cap):
        max_iter = cap(W)
        swarm, moves = self.search([1.0] * 100, max_iter, W)
        assert swarm.iteration == len(swarm.history) == max_iter
        assert swarm.converged == (max_iter > W)
        assert moves == max_iter - 1

    def test_fitness_improving_every_iteration_runs_max_iter(self, W):
        swarm, moves = self.search(-np.arange(60.0), 60, W)
        assert (swarm.iteration, swarm.converged, moves) == (60, False, 59)

    def test_a_gain_after_w_minus_one_stalled_iterations_keeps_searching(self, W):
        # Iterations 2..W repeat iteration 1's best; W + 1 improves on it,
        # and only W iterations later, at 2W + 1, has gbest stalled again.
        values = [5.0] * W + [4.0] * 100
        swarm, _ = self.search(values, 100, W)
        assert swarm.history[W] == 4.0
        assert (swarm.iteration, swarm.converged) == (2 * W + 1, True)


class TestDeterminism:
    def test_identical_runs(self):
        cfg = PsoConfig(n_particles=7, max_iter=40, seed=11)
        a, a_best = run(sphere, init_box(11, n=7), cfg)
        b, b_best = run(sphere, init_box(11, n=7), cfg)
        assert a.history == b.history
        assert np.array_equal(a_best, b_best)


class TestErrors:
    def test_positions_must_be_two_dimensional(self):
        cfg = PsoConfig(n_particles=2, max_iter=5)
        for init in (np.zeros(2), np.zeros((2, 3, 1))):
            with pytest.raises(ContractError):
                run(sphere, init, cfg)

    def test_count_mismatch(self):
        cfg = PsoConfig(n_particles=5, max_iter=5)
        with pytest.raises(ContractError):
            run(sphere, init_box(0, n=4), cfg)

    def test_velocity_shape_mismatch(self):
        cfg = PsoConfig(n_particles=4, max_iter=5)
        with pytest.raises(ContractError):
            run(sphere, init_box(0, n=4), cfg, np.zeros((4, 5)))

    def test_nonfinite_fitness_names_particle_and_iteration(self):
        def bad(x):
            return np.where(x[:, 0] > 0, np.nan, sphere(x))

        init = np.zeros((3, 2))
        init[2, 0] = 1.0
        cfg = PsoConfig(n_particles=3, max_iter=5, seed=0)
        with pytest.raises(ContractError, match=r"particle 2.*iteration 1"):
            run(bad, init, cfg)

    def test_fitness_must_return_one_value_per_particle(self):
        cfg = PsoConfig(n_particles=3, max_iter=2)
        with pytest.raises(ContractError, match="shape"):
            run(lambda x: sphere(x)[:2], init_box(0, n=3), cfg)


@st.composite
def engine_runs(draw):
    """A sphere problem for the engine: real positions, a finite or infinite
    v_max, and start velocities large enough for the clamp to fire."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 6))
    v_max = draw(st.sampled_from([0.5, 4.0, np.inf]))
    cfg = PsoConfig(n_particles=n, max_iter=draw(st.integers(1, 40)),
                    w=draw(st.sampled_from([0.72, 0.4, 1.1])),
                    c1=draw(st.sampled_from([1.49, 0.0, 2.0])),
                    c2=draw(st.sampled_from([1.49, 0.7])), seed=seed)
    init = rng.uniform(-5.0, 5.0, size=(n, draw(st.integers(1, 6))))
    velocities = rng.uniform(-3.0, 3.0, size=init.shape)
    window = draw(st.sampled_from([KMEDIANS_WINDOW, SPHERE_WINDOW]))
    return sphere, init, velocities, cfg, v_max, window


def stalling_run():
    """An engine_runs problem at PSO k-medians' window: the sphere's gbest
    idles for 3 iterations at 1.17, and the search stops at iteration 7 of
    60."""
    rng = np.random.default_rng(5)
    init = rng.uniform(-5.0, 5.0, size=(4, 3))
    velocities = rng.uniform(-3.0, 3.0, size=init.shape)
    cfg = PsoConfig(n_particles=4, max_iter=60, seed=5)
    return sphere, init, velocities, cfg, 4.0, KMEDIANS_WINDOW


def test_the_stalling_example_stops_early():
    fitness, init, velocities, cfg, v_max, window = stalling_run()
    swarm, _ = run(fitness, init, cfg, velocities, v_max, window)
    assert swarm.converged
    assert window + 1 < swarm.iteration < cfg.max_iter


@settings(max_examples=80, deadline=None)
@given(engine_runs())
@example(stalling_run())
def test_engine_matches_the_allocating_oracle_bit_for_bit(problem):
    """The engine scores the same arrays as the allocating loop, at every
    iteration, stops at the same one, and what it returns shares no memory
    with the positions it last scored."""
    fitness, init, velocities, cfg, v_max, window = problem
    init_before, velocities_before = init.copy(), velocities.copy()
    recorder = Recorder(fitness)
    with mock.patch.object(pso, "STALL_ITERATIONS", window):
        swarm, best = pso_optimize(recorder, init, velocities, cfg,
                                   np.random.default_rng(cfg.seed), v_max)
    want = pso_oracle(fitness, init, velocities, cfg, np.random.default_rng(cfg.seed),
                      v_max, window)
    assert len(recorder.scored) == len(want["scored"]) == swarm.iteration
    assert swarm.converged == want["converged"]
    assert swarm.converged or swarm.iteration == cfg.max_iter
    for t, (got, expected) in enumerate(zip(recorder.scored, want["scored"])):
        assert np.array_equal(got, expected), t
    assert np.array_equal(best, want["gbest_position"])
    assert swarm.history == want["history"]
    assert not np.shares_memory(best, recorder.live)
    assert np.array_equal(init, init_before)
    assert np.array_equal(velocities, velocities_before)
