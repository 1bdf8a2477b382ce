from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import psokmeans
from motifswarm.errors import ContractError
from motifswarm.featurize import WINDOW_SCHEMES, build_cluster_dataset, normalize_windows
from motifswarm.pso import PsoConfig
from motifswarm.psokmeans import Lattice, assignment_fitness, lattice_fitness, pso_kmeans
from motifswarm.report import Settings
from motifswarm.seqio import Sequence, load_sample_corpus

from helpers import cityblock_oracle, intra_cluster_fitness, make_blobs, partitions_match


class TestAssignmentFitness:
    def test_ties_go_to_lowest_index(self):
        flat = np.array([[5.0]])
        cents = np.array([[4.0], [6.0]])
        labels, _ = assignment_fitness(flat, cents, 2)
        assert labels[0, 0] == 0

    def test_empty_cluster_penalty(self):
        flat = np.array([[0.0], [1.0]])
        cents = np.array([[0.0], [1.0], [50.0]])
        _, plain = assignment_fitness(flat, cents, 3)
        _, penalized = assignment_fitness(flat, cents, 3, empty_penalty=7.0)
        assert penalized[0] == pytest.approx(plain[0] + 7.0)


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
        cs = pso_kmeans(data, k=2, cfg=Settings().swarm)
        assert cs.iterations_run == 100
        assert len(cs.trace) == 100

    def test_window_items_supported(self):
        windows = build_cluster_dataset(
            [Sequence("a", "A" * 9), Sequence("b", "V" * 9), Sequence("c", "VAV" * 3)])
        cs = pso_kmeans(windows, k=2, cfg=PsoConfig(n_particles=6, max_iter=25, seed=0))
        assert cs.centroids.shape == (2, 9, 20)

    def test_k_bounds(self):
        data = np.zeros((4, 2))
        cfg = PsoConfig(n_particles=4, max_iter=5)
        with pytest.raises(ContractError):
            pso_kmeans(data, k=0, cfg=cfg)
        with pytest.raises(ContractError):
            pso_kmeans(data, k=5, cfg=cfg)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 40), k=st.integers(1, 5),
       n_particles=st.integers(1, 6), penalty=st.sampled_from([0.0, 7.5]),
       seed=st.integers(0, 2**16))
def test_swarm_fitness_matches_intra_cluster_fitness(n, d, k, n_particles, penalty, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values, so ties and empty clusters both occur.
    flat = rng.integers(0, 3, size=(n, d)).astype(float) / 9
    positions = rng.integers(0, 3, size=(n_particles, k * d)).astype(float) / 9
    got_labels, got = assignment_fitness(flat, positions.reshape(-1, d), k, penalty)
    assert got_labels.shape == (n, n_particles)
    assert got.shape == (n_particles,)
    for p in range(n_particles):
        cents = positions[p].reshape(k, d)
        labels = [int(np.argmin([np.abs(item - c).sum() for c in cents])) for item in flat]
        assert got_labels[:, p].tolist() == labels
        expected = intra_cluster_fitness(flat, labels, cents)
        if penalty:
            expected += penalty * (k - len(set(labels)))
        assert got[p] == expected  # same sums in the same order: bit for bit


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 8), k=st.integers(1, 4),
       n_particles=st.integers(1, 4), divisor=st.sampled_from([1.0, 9.0]),
       n_constant=st.integers(0, 3), block_values=st.sampled_from([1, 3, 64]),
       seed=st.integers(0, 2**16))
def test_lattice_matches_cityblock_oracle(n, d, k, n_particles, divisor, n_constant,
                                          block_values, seed):
    rng = np.random.default_rng(seed)
    # Integer counts or count/9 values; the first columns may be constant.
    flat = rng.integers(0, 6, size=(n, d)) / divisor
    flat[:, :n_constant] = flat[0, :n_constant]
    # Centroids reach below each column's minimum and above its maximum.
    positions = rng.uniform(-3.0, 9.0, size=(n_particles, k * d)) / divisor
    centroids = positions.reshape(n_particles * k, d)
    with mock.patch.multiple(psokmeans, BLOCK_CELLS=1, BLOCK_VALUES=block_values):
        lattice = Lattice(flat, np.sort(flat, axis=0))
        dist = lattice.distances(centroids)
        bare = lattice_fitness(lattice, positions, k)

    oracle = np.array([[cityblock_oracle(x, c) for c in centroids] for x in flat])
    # Every term is >= 0, so rounding is relative to the distance itself.
    assert np.all(np.abs(dist - oracle) <= 1e-12 * oracle)
    for p in range(n_particles):
        expected = oracle[:, p * k:(p + 1) * k].min(axis=1).sum() / k
        assert abs(bare[p] - expected) <= 1e-12 * expected


@pytest.mark.parametrize("seed", range(4))
def test_screened_fitness_is_exact_where_a_pbest_moves(seed):
    """Over a swarm that drifts toward data items in large and in tiny steps
    and is kicked away now and then, every value that improves its
    particle's best is assignment_fitness's, and every other value leaves
    that best unchanged under assignment_fitness too."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 12, size=(40, 30)) / 9.0
    k, penalty = 3, 4.0
    fitness = psokmeans.screened_fitness(flat, np.sort(flat, axis=0), k, penalty)
    target = flat[rng.integers(0, 40, size=(12, k))].reshape(12, -1)
    positions = rng.uniform(-1.0, 2.0, size=target.shape)
    best = np.full(12, np.inf)
    for step in range(18):
        value = fitness(positions)
        exact = assignment_fitness(flat, positions.reshape(-1, flat.shape[1]), k, penalty)[1]
        improved = exact < best
        assert np.array_equal(value < best, improved)
        assert np.array_equal(value[improved], exact[improved])
        best = np.minimum(best, exact)
        pull = (0.3, 1e-6, 0.0)[step % 3]
        kick = rng.normal(scale=0.05, size=target.shape) if step % 3 == 2 else 0.0
        positions = positions + pull * (target - positions) + kick


def command_input(name):
    """The sample-corpus items and k that a command feeds pso_kmeans: the
    cluster windows ("chunked", "sliding"), the normalized bicluster matrix
    ("mean", "range", "mode") or its transpose ("mean T", ...)."""
    scheme = "sliding" if name == "sliding" else "chunked"
    windows = build_cluster_dataset(load_sample_corpus().sequences, scheme=scheme)
    if name in WINDOW_SCHEMES:
        return windows.reshape(windows.shape[0], -1), Settings.k
    method, *transposed = name.split()
    matrix = normalize_windows(windows, method)
    return (matrix.T, Settings.k_cols) if transposed else (matrix, Settings.k_rows)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["chunked", "sliding", "mean", "range", "mode",
                                  "mean T", "range T", "mode T"])
def test_lattice_ranking_matches_exact_ranking(monkeypatch, name, seed):
    """On every input the commands cluster, a swarm ranked by the lattice
    and one ranked by assignment_fitness end on the same gbest, trace and
    assignment."""
    flat, k = command_input(name)
    cfg = PsoConfig(n_particles=20, max_iter=30, seed=seed)
    monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: True)
    with mock.patch.object(psokmeans, "screened_fitness",
                           wraps=psokmeans.screened_fitness) as spy:
        by_lattice = pso_kmeans(flat, k, cfg)
    assert spy.called
    monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: False)
    exact = pso_kmeans(flat, k, cfg)
    assert np.array_equal(by_lattice.centroids, exact.centroids)
    assert np.array_equal(by_lattice.assignment, exact.assignment)
    assert by_lattice.trace == exact.trace
    assert by_lattice.final_fitness == exact.final_fitness


@pytest.mark.parametrize("name", ["chunked", "mean", "mean T"])
def test_sample_corpus_inputs_take_the_table(name):
    flat, k = command_input(name)
    with mock.patch.object(psokmeans, "screened_fitness",
                           wraps=psokmeans.screened_fitness) as spy:
        pso_kmeans(flat, k, PsoConfig(n_particles=Settings.n_particles, max_iter=2))
    assert spy.called


@pytest.mark.parametrize("transpose", [False, True])
def test_uniform_noise_keeps_the_direct_kernel(monkeypatch, transpose):
    """Every value of uniform noise is distinct, so its table has n values
    per column and the direct kernel is cheaper."""
    noise = np.random.default_rng(0).uniform(size=(400, 20))
    data = noise.T if transpose else noise

    def no_lattice(*args):
        raise AssertionError("uniform noise took the lattice path")

    monkeypatch.setattr(psokmeans, "screened_fitness", no_lattice)
    cs = pso_kmeans(data, 2, PsoConfig(n_particles=10, max_iter=3, seed=0))
    assert cs.assignment.shape == (data.shape[0],)
