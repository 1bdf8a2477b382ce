import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm.errors import ContractError
from motifswarm.metrics import cityblock, intra_cluster_fitness
from motifswarm.pso import PsoConfig
from motifswarm.psokmeans import (
    assignment_fitness,
    pso_kmeans,
    swarm_fitness,
)

from helpers import make_blobs, partitions_match


class TestAssignmentFitness:
    def test_ties_go_to_lowest_index(self):
        flat = np.array([[5.0]])
        cents = np.array([[4.0], [6.0]])
        labels, _ = assignment_fitness(flat, cents)
        assert labels[0] == 0

    def test_empty_cluster_penalty(self):
        flat = np.array([[0.0], [1.0]])
        cents = np.array([[0.0], [1.0], [50.0]])
        _, plain = assignment_fitness(flat, cents)
        _, penalized = assignment_fitness(flat, cents, empty_penalty=7.0)
        assert penalized == pytest.approx(plain + 7.0)


class TestPsoKmeans:
    def test_duplicates_split_any_seed(self):
        data = [np.array([0.0, 0.0])] * 3 + [np.array([10.0, 10.0])] * 3
        for seed in range(5):
            cs = pso_kmeans(data, k=2, cfg=PsoConfig(n_particles=10, max_iter=40, seed=seed))
            assert cs.final_fitness == pytest.approx(0.0, abs=1e-9)
            assert len({cs.assignment[0], cs.assignment[3]}) == 2

    def test_k1_beats_mean_centroid_on_skewed_data(self):
        rng = np.random.default_rng(123)
        data = rng.normal(size=(30, 5)) ** 3
        mean_fit = intra_cluster_fitness(
            data, np.zeros(30, int), data.mean(axis=0, keepdims=True)
        )
        cs = pso_kmeans(data, k=1, cfg=PsoConfig(n_particles=10, max_iter=100, seed=0))
        assert cs.final_fitness <= mean_fit

    def test_recovers_blobs(self):
        centers = [np.zeros(3), np.full(3, 12.0)]
        items, planted = make_blobs(np.random.default_rng(4), centers, 15, sigma=0.5)
        cs = pso_kmeans(items, k=2, cfg=PsoConfig(n_particles=15, max_iter=60, seed=1))
        assert partitions_match(planted, cs.assignment)

    def test_final_fitness_recomputes_exactly(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(25, 4))
        cs = pso_kmeans(data, k=3, cfg=PsoConfig(n_particles=12, max_iter=50, seed=5))
        again = intra_cluster_fitness(data, cs.assignment, cs.centroids)
        assert cs.final_fitness == pytest.approx(again, abs=1e-9)

    def test_trace_monotone_and_bounds_result(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 4))
        for seed in range(5):
            cs = pso_kmeans(data, k=3, cfg=PsoConfig(n_particles=10, max_iter=40, seed=seed))
            assert all(b <= a for a, b in zip(cs.trace, cs.trace[1:]))
            assert cs.final_fitness <= cs.trace[0] + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(20, 3))
        cfg = PsoConfig(n_particles=8, max_iter=30, seed=9)
        a = pso_kmeans(data, k=2, cfg=cfg)
        b = pso_kmeans(data, k=2, cfg=cfg)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.trace == b.trace

    def test_default_config(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(15, 2))
        cs = pso_kmeans(data, k=2)
        assert cs.iterations_run == 100
        assert len(cs.trace) == 100

    def test_window_items_supported(self):
        from motifswarm.featurize import reshape_and_count
        from motifswarm.seqio import Sequence

        windows = [reshape_and_count(Sequence("a", "A" * 9)),
                   reshape_and_count(Sequence("b", "V" * 9)),
                   reshape_and_count(Sequence("c", "VAV" * 3))]
        cs = pso_kmeans(windows, k=2, cfg=PsoConfig(n_particles=6, max_iter=25, seed=0))
        assert cs.centroids.shape == (2, 9, 20)

    def test_k_bounds(self):
        data = np.zeros((4, 2))
        with pytest.raises(ContractError):
            pso_kmeans(data, k=0)
        with pytest.raises(ContractError):
            pso_kmeans(data, k=5)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 40), k=st.integers(1, 5),
       n_particles=st.integers(1, 6), penalty=st.sampled_from([0.0, 7.5]),
       seed=st.integers(0, 2**16))
def test_swarm_fitness_matches_intra_cluster_fitness(n, d, k, n_particles, penalty, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values, so ties and empty clusters both occur.
    flat = rng.integers(0, 3, size=(n, d)).astype(float) / 9
    positions = rng.integers(0, 3, size=(n_particles, k * d)).astype(float) / 9
    got = swarm_fitness(flat, positions, k, penalty)
    assert got.shape == (n_particles,)
    for p in range(n_particles):
        cents = positions[p].reshape(k, d)
        labels = [int(np.argmin([cityblock(item, c) for c in cents])) for item in flat]
        expected = intra_cluster_fitness(flat, labels, cents)
        if penalty:
            expected += penalty * (k - len(set(labels)))
        assert got[p] == expected  # same sums in the same order: bit for bit
