import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import psokmeans
from motifswarm.errors import ContractError
from motifswarm.featurize import WINDOW_SCHEMES, build_cluster_dataset, normalize_windows
from motifswarm.kmeans import _labelled_fitness, _labelled_l1
from motifswarm.pso import STALL_ITERATIONS, PsoConfig
from motifswarm.psokmeans import Lattice, _median_step, assignment_fitness, pso_kmeans
from motifswarm.report import Settings
from motifswarm.seqio import Sequence, load_sample_corpus

from helpers import (adjusted_rand_index, cityblock_oracle, intra_cluster_fitness,
                     lower_median_oracle, make_blobs, partitions_match,
                     planted_family_corpus, pso_oracle)

SIZE, SCHEME = Settings.window_size, Settings.window_scheme


class TestAssignmentFitness:
    def test_ties_go_to_lowest_index(self):
        flat = np.array([[5.0]])
        cents = np.array([[4.0], [6.0]])
        labels, _ = assignment_fitness(flat, cents, 2)
        assert labels[0, 0] == 0

    def test_empty_cluster_penalty(self):
        # pso_kmeans scores a partition through _labelled_fitness, with the
        # data's spread as the penalty for each cluster no item uses.
        flat = np.array([[0.0], [1.0]])
        cents = np.array([[0.0], [1.0], [50.0]])
        labels, plain = assignment_fitness(flat, cents, 3)
        nearest = _labelled_l1(flat, cents[None], labels)
        assert np.array_equal(_labelled_fitness(nearest, labels, 3, 0.0), plain)
        assert _labelled_fitness(nearest, labels, 3, 7.0)[0] == pytest.approx(plain[0] + 7.0)


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
        # Reassigning each item to its nearest median can only lower its
        # distance, so the final fitness is at most the last trace value.
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 4))
        for seed in range(5):
            cs = pso_kmeans(data, k=3, cfg=PsoConfig(n_particles=10, max_iter=40, seed=seed))
            assert all(b <= a for a, b in zip(cs.trace, cs.trace[1:]))
            assert cs.final_fitness <= cs.trace[-1] + 1e-12

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
        # gbest is found at iteration 1 and never improves, so the search
        # ends after STALL_ITERATIONS more, long before max_iter 100.
        rng = np.random.default_rng(10)
        data = rng.normal(size=(15, 2))
        cfg = Settings().swarm
        cs = pso_kmeans(data, k=2, cfg=cfg)
        assert cfg.max_iter == 100
        assert cs.converged
        assert cs.iterations_run == len(cs.trace) == STALL_ITERATIONS + 1

    def test_window_items_supported(self):
        windows = build_cluster_dataset(
            [Sequence("a", "A" * 9), Sequence("b", "V" * 9), Sequence("c", "VAV" * 3)],
            SIZE, SCHEME)
        cs = pso_kmeans(windows, k=2, cfg=PsoConfig(n_particles=6, max_iter=25, seed=0))
        assert cs.centroids.shape == (2, 9, 20)

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_equal_length_planted_families(self, seed):
        # Equal lengths leave composition as the only signal. The nearest-
        # centroid swarm without the median step found the families only at
        # seed 3 (ARI 0.65-0.72 at the others).
        sequences, families = planted_family_corpus(1)
        windows = build_cluster_dataset(sequences, SIZE, SCHEME)
        cs = pso_kmeans(windows, Settings.k, Settings(seed=seed).swarm)
        assert adjusted_rand_index(families, cs.assignment.tolist()) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_stops_at_its_fixed_point(self, seed):
        # The median step reaches its fixed point by iteration 2 or 3, so the
        # stall window ends the search by iteration 2 * STALL_ITERATIONS + 1.
        sequences, _ = planted_family_corpus(1)
        windows = build_cluster_dataset(sequences, SIZE, SCHEME)
        cs = pso_kmeans(windows, Settings.k, Settings(seed=seed).swarm)
        assert cs.converged
        assert cs.iterations_run <= 2 * STALL_ITERATIONS + 1

    def test_k_bounds(self):
        data = np.zeros((4, 2))
        cfg = PsoConfig(n_particles=4, max_iter=5)
        with pytest.raises(ContractError):
            pso_kmeans(data, k=0, cfg=cfg)
        with pytest.raises(ContractError):
            pso_kmeans(data, k=5, cfg=cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_items_are_refused(self, bad):
        windows = np.zeros((5, 9, 20))
        windows[3, 4, 7] = bad
        with pytest.raises(ContractError, match="^item 3 holds a non-finite value$"):
            pso_kmeans(windows, k=2, cfg=PsoConfig(n_particles=4, max_iter=5))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 40), k=st.integers(1, 5),
       n_particles=st.integers(1, 6), penalty=st.sampled_from([0.0, 7.5]),
       seed=st.integers(0, 2**16))
def test_swarm_fitness_matches_intra_cluster_fitness(n, d, k, n_particles, penalty, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values, so ties and empty clusters both occur.
    flat = rng.integers(0, 3, size=(n, d)).astype(float) / 9
    positions = rng.integers(0, 3, size=(n_particles, k * d)).astype(float) / 9
    got_labels, got = assignment_fitness(flat, positions.reshape(-1, d), k)
    assert got_labels.shape == (n, n_particles)
    assert got.shape == (n_particles,)
    nearest = _labelled_l1(flat, positions.reshape(n_particles, k, d), got_labels)
    assert np.array_equal(_labelled_fitness(nearest, got_labels, k, 0.0), got)
    got = _labelled_fitness(nearest, got_labels, k, penalty)
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

    oracle = np.array([[cityblock_oracle(x, c) for c in centroids] for x in flat])
    # Every term is >= 0, so rounding is relative to the distance itself.
    assert np.all(np.abs(dist - oracle) <= 1e-12 * oracle)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 6), k=st.integers(1, 4),
       n_particles=st.integers(1, 3), divisor=st.sampled_from([1.0, 9.0, None]),
       singles=st.booleans(), seed=st.integers(0, 2**16))
def test_median_step_equals_the_lower_median_oracle(n, d, k, n_particles, divisor,
                                                    singles, seed):
    """Integer windows (divisor 1), count/9 matrices and distinct floats
    (None); few distinct values make ties, random labels leave clusters
    empty, and singles gives every item but the first its own cluster."""
    rng = np.random.default_rng(seed)
    if divisor is None:
        flat = rng.normal(size=(n, d))
    else:
        flat = rng.integers(0, 4, size=(n, d)) / divisor
    labels = rng.integers(0, k, size=(n, n_particles))
    if singles:
        labels[:, :] = np.minimum(np.arange(n), k - 1)[:, None]
    centroids = rng.normal(size=(n_particles, k, d))
    expected = lower_median_oracle(flat, centroids, labels)
    _median_step(flat, centroids, labels)
    assert np.array_equal(centroids, expected)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 6), k=st.integers(1, 4),
       n_particles=st.integers(1, 3), divisor=st.sampled_from([1.0, 9.0, None]),
       singles=st.booleans(), block_values=st.sampled_from([1, 3, 64]),
       median_cells=st.sampled_from([1, 2**22]), seed=st.integers(0, 2**16))
def test_table_medians_equal_the_lower_median_oracle(n, d, k, n_particles, divisor, singles,
                                                     block_values, median_cells, seed):
    """The inputs of the median step's oracle test, read off a table whose
    columns span several blocks of values, over all particles at once or one
    particle at a time."""
    rng = np.random.default_rng(seed)
    if divisor is None:
        flat = rng.normal(size=(n, d))
    else:
        flat = rng.integers(0, 4, size=(n, d)) / divisor
    labels = rng.integers(0, k, size=(n, n_particles))
    if singles:
        labels[:, :] = np.minimum(np.arange(n), k - 1)[:, None]
    centroids = rng.normal(size=(n_particles, k, d))
    expected = lower_median_oracle(flat, centroids, labels)
    with mock.patch.multiple(psokmeans, BLOCK_CELLS=1, BLOCK_VALUES=block_values,
                             MEDIAN_CELLS=median_cells):
        Lattice(flat, np.sort(flat, axis=0)).medians(centroids, labels)
    assert np.array_equal(centroids, expected)


def test_the_table_stops_where_float32_counts_would_round():
    shape = (180, 2000, 100)  # windows of a large corpus: the table pays
    assert psokmeans.lattice_pays(psokmeans.MAX_TABLE_ITEMS - 1, *shape)
    assert not psokmeans.lattice_pays(psokmeans.MAX_TABLE_ITEMS, *shape)


def spy_medians(monkeypatch, table):
    """Takes the table (True) or the direct kernel, and returns the list to
    which every call of its median kernel appends how many particles it got."""
    monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: table)
    received = []
    direct, by_table = psokmeans._median_step, Lattice.medians

    def step(flat, centroids, labels):
        received.append(labels.shape[1])
        direct(flat, centroids, labels)

    def medians(self, centroids, labels):
        received.append(labels.shape[1])
        by_table(self, centroids, labels)

    monkeypatch.setattr(psokmeans, "_median_step", step)
    monkeypatch.setattr(Lattice, "medians", medians)
    return received


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("n, k", [(8, 1), (5, 5)])
def test_unmoved_particles_skip_the_median_kernel(monkeypatch, table, n, k):
    """With no velocity, every particle stays on its medians. In one cluster,
    or with a centroid on each of k distinct items, the first partition is
    the medians' own, so no particle's labels move after iteration 1."""
    data = np.random.default_rng(0).integers(0, 4, size=(n, 3)) + 10.0 * np.arange(n)[:, None]
    received = spy_medians(monkeypatch, table)
    cfg = PsoConfig(n_particles=6, max_iter=10, w=0.0, c1=0.0, c2=0.0, seed=3)
    cs = pso_kmeans(data, k, cfg)
    assert cs.iterations_run == STALL_ITERATIONS + 1
    assert received[0] == cfg.n_particles
    assert sum(received[1:]) == 0


def reference_swarm(data, k, cfg):
    """pso_kmeans through the allocating engine, with every particle labelled
    by assignment_fitness, snapped by the plain-loop median oracle and scored
    by the plain-loop cost plus the empty penalty at every iteration."""
    flat = np.asarray(data, dtype=float)
    n, d = flat.shape
    per_dim = flat.max(axis=0) - flat.min(axis=0)
    spread = float(per_dim.sum())
    per_dim[per_dim == 0.0] = 1.0
    v_max = np.tile(0.2 * per_dim, k)
    rng = np.random.default_rng(cfg.seed)
    start = np.stack([flat[rng.choice(n, size=k, replace=False)].reshape(-1)
                      for _ in range(cfg.n_particles)])
    velocities = rng.uniform(-1.0, 1.0, size=start.shape) * v_max

    def fitness(positions):
        centroids = positions.reshape(cfg.n_particles, k, d)
        labels, _ = assignment_fitness(flat, centroids.reshape(-1, d), k)
        centroids[:] = lower_median_oracle(flat, centroids, labels)
        return np.array([intra_cluster_fitness(flat, labels[:, p], centroids[p])
                         + spread * (k - len(set(labels[:, p])))
                         for p in range(cfg.n_particles)])

    return pso_oracle(fitness, start, velocities, cfg, rng, v_max, STALL_ITERATIONS)


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", ["counts", "two points"])
def test_swarm_equals_a_reference_that_snaps_every_particle(monkeypatch, table, seed, case):
    """Reusing unmoved particles' medians and fitness changes nothing: on
    count/9 data, and on two points of copies where a third cluster stays
    empty, both kernels end where the reference does."""
    rng = np.random.default_rng(seed)
    if case == "counts":
        data, k = rng.integers(0, 5, size=(24, 6)) / 9.0, 3
    else:
        data, k = np.repeat([[0.0, 1.0, 2.0], [3.0, 1.0, 0.0]], 6, axis=0), 3
    cfg = PsoConfig(n_particles=6, max_iter=15, seed=seed)
    want = reference_swarm(data, k, cfg)
    received = spy_medians(monkeypatch, table)
    scored, engine = [], psokmeans.pso_optimize

    def recording(fitness, *args):
        def scoring(positions):
            value = fitness(positions)
            scored.append(positions.copy())
            return value
        return engine(scoring, *args)

    monkeypatch.setattr(psokmeans, "pso_optimize", recording)
    cs = pso_kmeans(data, k, cfg)
    # Every iteration leaves the reference's positions, empty centroids too.
    assert len(scored) == len(want["scored"])
    assert all(np.array_equal(a, b) for a, b in zip(scored, want["scored"]))
    assert np.array_equal(cs.centroids.reshape(-1), want["gbest_position"])
    assert np.array_equal(cs.assignment,
                          assignment_fitness(data, cs.centroids, k)[0][:, 0])
    assert cs.trace == want["history"]
    assert cs.iterations_run == len(want["history"])
    assert cs.converged == want["converged"]
    assert sum(received) < cfg.n_particles * cs.iterations_run  # some were reused


@pytest.mark.parametrize("seed", range(4))
def test_lattice_labels_follow_a_drifting_swarm(seed):
    """Over a swarm that drifts toward data items in large and in tiny steps
    and is kicked away now and then, the lattice labels every item as the
    exact argmin does."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 12, size=(40, 30)) / 9.0
    k = 3
    labels_of = Lattice(flat, np.sort(flat, axis=0)).labels
    target = flat[rng.integers(0, 40, size=(12, k))].reshape(12, -1)
    positions = rng.uniform(-1.0, 2.0, size=target.shape)
    for step in range(18):
        exact, _ = assignment_fitness(flat, positions.reshape(-1, flat.shape[1]), k)
        assert np.array_equal(labels_of(positions.reshape(12, k, -1)), exact)
        pull = (0.3, 1e-6, 0.0)[step % 3]
        kick = rng.normal(scale=0.05, size=target.shape) if step % 3 == 2 else 0.0
        positions = positions + pull * (target - positions) + kick


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 12), k=st.integers(1, 5),
       n_particles=st.integers(1, 5), divisor=st.sampled_from([1.0, 9.0]),
       duplicates=st.booleans(), coincide=st.booleans(), seed=st.integers(0, 2**16))
def test_lattice_labels_equal_assignment_fitness(n, d, k, n_particles, divisor,
                                                 duplicates, coincide, seed):
    """Few distinct values and half-step centroids make items equidistant
    from two centroids, and coinciding centroids tie every item, so clear
    items and the exact fallback both occur. Every item that ties in exact
    arithmetic must reach the fallback. Scored through one distance per
    item, the labels give assignment_fitness's fitness bit for bit."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(n, d))
    if duplicates:
        counts[n // 2:] = counts[:n - n // 2]
    halves = rng.integers(0, 7, size=(n_particles, k, d))
    if coincide:
        halves[:, -1] = halves[:, 0]
    flat, centroids = counts / divisor, halves / (2 * divisor)
    # Twice the distances, in integers: ties here are ties in real arithmetic.
    twice = np.abs(2 * counts[:, None, None, :] - halves[None]).sum(axis=3)
    ties = np.count_nonzero((twice == twice.min(axis=2, keepdims=True)).sum(axis=2) > 1)

    labels_of = Lattice(flat, np.sort(flat, axis=0)).labels
    with mock.patch.object(psokmeans, "_pairwise_l1", wraps=psokmeans._pairwise_l1) as spy:
        labels = labels_of(centroids)
    want_labels, want = assignment_fitness(flat, centroids.reshape(-1, d), k)
    assert np.array_equal(labels, want_labels)
    value = _labelled_fitness(_labelled_l1(flat, centroids, labels), labels, k, 0.0)
    assert np.array_equal(value, want)
    assert sum(call.args[0].shape[0] for call in spy.call_args_list) >= ties


@pytest.mark.parametrize("centroids, exact_rows", [([[1.0], [11.0]], 0),   # all clear
                                                    ([[0.0], [2.0]], 1),   # item 1 ties
                                                    ([[1.0], [1.0]], 5)])  # all tie
def test_lattice_labels_only_unclear_items_exactly(centroids, exact_rows):
    flat = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
    centroids = np.array(centroids).reshape(1, 2, 1)
    labels_of = Lattice(flat, flat).labels
    with mock.patch.object(psokmeans, "_pairwise_l1", wraps=psokmeans._pairwise_l1) as spy:
        labels = labels_of(centroids)
    assert sum(call.args[0].shape[0] for call in spy.call_args_list) == exact_rows
    assert np.array_equal(labels, assignment_fitness(flat, centroids[0], 2)[0])


def command_input(name):
    """The sample-corpus items and k that a command feeds pso_kmeans: the
    cluster windows ("chunked", "sliding"), the normalized bicluster matrix
    ("mean", "range", "mode") or its transpose ("mean T", ...)."""
    scheme = "sliding" if name == "sliding" else "chunked"
    windows = build_cluster_dataset(load_sample_corpus().sequences, SIZE, scheme)
    if name in WINDOW_SCHEMES:
        return windows.reshape(windows.shape[0], -1), Settings.k
    method, *transposed = name.split()
    matrix = normalize_windows(windows, method)
    return (matrix.T, Settings.k_cols) if transposed else (matrix, Settings.k_rows)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["chunked", "sliding", "mean", "range", "mode",
                                  "mean T", "range T", "mode T"])
def test_lattice_ranking_matches_exact_ranking(monkeypatch, name, seed):
    """On every input the commands cluster, a swarm labelled by the lattice
    and one labelled by the direct kernel end on the same gbest, trace and
    assignment."""
    flat, k = command_input(name)
    cfg = PsoConfig(n_particles=20, max_iter=30, seed=seed)
    monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: True)
    with mock.patch.object(Lattice, "labels", autospec=True,
                           side_effect=Lattice.labels) as spy:
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
    with mock.patch.object(Lattice, "labels", autospec=True,
                           side_effect=Lattice.labels) as spy:
        pso_kmeans(flat, k, PsoConfig(n_particles=Settings.n_particles, max_iter=2))
    assert spy.called


@pytest.mark.parametrize("table", [True, False])
def test_no_sorted_copy_of_the_items_outlives_the_set_up(monkeypatch, table):
    """The sorted items give the ranges, the value count and the table; the
    swarm reads none of them, so no copy that size is alive when it starts."""
    flat, k = command_input("chunked")
    monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: table)
    sort, engine = np.sort, psokmeans.pso_optimize
    copies, alive = [], []

    def spy_sort(a, *args, **kwargs):
        result = sort(a, *args, **kwargs)
        if result.shape == flat.shape:
            copies.append(weakref.ref(result))
        return result

    def spy_engine(*args, **kwargs):
        alive.extend(ref() is not None for ref in copies)
        return engine(*args, **kwargs)

    monkeypatch.setattr(np, "sort", spy_sort)
    monkeypatch.setattr(psokmeans, "pso_optimize", spy_engine)
    with mock.patch.object(Lattice, "labels", autospec=True,
                           side_effect=Lattice.labels) as by_table:
        pso_kmeans(flat, k, PsoConfig(n_particles=4, max_iter=2, seed=0))
    assert by_table.called == table
    assert alive and not any(alive)


@pytest.mark.parametrize("kernel", ["table", "direct"])
def test_swarm_scores_only_its_final_labels_with_assignment_fitness(monkeypatch, kernel):
    """Neither kernel labels the swarm through assignment_fitness, whose
    fitness it would throw away."""
    if kernel == "direct":
        monkeypatch.setattr(psokmeans, "lattice_pays", lambda *args: False)
    flat, k = command_input("chunked")
    with mock.patch.object(psokmeans, "assignment_fitness",
                           wraps=psokmeans.assignment_fitness) as spy:
        pso_kmeans(flat, k, Settings().swarm)
    spy.assert_called_once()
    assert spy.call_args.args[1].shape == (k, flat.shape[1])


@pytest.mark.parametrize("transpose", [False, True])
def test_uniform_noise_keeps_the_direct_kernel(monkeypatch, transpose):
    """Every value of uniform noise is distinct, so its table has n values
    per column and the direct kernel is cheaper."""
    noise = np.random.default_rng(0).uniform(size=(400, 20))
    data = noise.T if transpose else noise

    def no_lattice(*args):
        raise AssertionError("uniform noise took the lattice path")

    monkeypatch.setattr(Lattice, "labels", no_lattice)
    cs = pso_kmeans(data, 2, PsoConfig(n_particles=10, max_iter=3, seed=0))
    assert cs.assignment.shape == (data.shape[0],)
