import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import kmeans
from motifswarm.errors import ContractError
from motifswarm.featurize import build_cluster_dataset
from motifswarm.kmeans import (_labelled_l1, _pairwise_l1, _seed_weighted, as_item_arrays,
                               kmeans_run)
from motifswarm.pso import PsoConfig
from motifswarm.psokmeans import pso_kmeans
from motifswarm.report import Settings
from motifswarm.seqio import Sequence

from helpers import (cityblock_oracle, intra_cluster_fitness, kmeans_pp_oracle, make_blobs,
                     partitions_match)


def test_identical_pairs_split_any_seed():
    data = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([10.0, 10.0]), np.array([10.0, 10.0])]
    for seed in range(5):
        cs = kmeans_run(data, k=2, seed=seed, max_iter=Settings.max_iter)
        assert cs.final_fitness == 0.0
        assert cs.assignment[0] == cs.assignment[1]
        assert cs.assignment[2] == cs.assignment[3]
        assert cs.assignment[0] != cs.assignment[2]


def test_k_equals_n_zero_fitness():
    data = [np.array([float(i), 0.0]) for i in range(6)]
    cs = kmeans_run(data, k=6, seed=1, max_iter=Settings.max_iter)
    assert cs.final_fitness == 0.0
    assert sorted(cs.assignment) == list(range(6))


def test_blob_recovery_nine_of_ten_seeds():
    centers = [np.zeros(4), np.full(4, 10.0), np.array([10.0, -10.0, 0.0, 5.0])]
    rng = np.random.default_rng(77)
    items, planted = make_blobs(rng, centers, n_per_blob=20, sigma=0.5)
    hits = 0
    for seed in range(10):
        cs = kmeans_run(items, k=3, seed=seed, max_iter=Settings.max_iter)
        if partitions_match(planted, cs.assignment):
            hits += 1
    assert hits >= 9


def test_returned_fitness_at_most_first_iteration():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 6))
    for seed in range(8):
        cs = kmeans_run(data, k=4, seed=seed, max_iter=Settings.max_iter)
        assert cs.final_fitness <= cs.trace[0]
        assert cs.final_fitness == min(cs.trace)


def test_final_fitness_matches_recompute():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(30, 5))
    cs = kmeans_run(data, k=3, seed=2, max_iter=Settings.max_iter)
    again = intra_cluster_fitness(data, cs.assignment, cs.centroids)
    assert cs.final_fitness == pytest.approx(again, abs=1e-9)


def test_deterministic_per_seed():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(25, 3))
    a = kmeans_run(data, k=3, seed=42, max_iter=Settings.max_iter)
    b = kmeans_run(data, k=3, seed=42, max_iter=Settings.max_iter)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.trace == b.trace


def test_convergence_flag_and_iteration_bound():
    data = [np.array([0.0]), np.array([0.1]), np.array([9.9]), np.array([10.0])]
    cs = kmeans_run(data, k=2, seed=0, max_iter=50)
    assert cs.converged
    assert cs.iterations_run <= 50
    one = kmeans_run(data, k=2, seed=0, max_iter=1)
    assert one.iterations_run == 1
    assert not one.converged


def test_duplicate_items_tie_to_lowest_cluster():
    data = [np.array([5.0]), np.array([5.0]), np.array([5.0])]
    cs = kmeans_run(data, k=2, seed=3, max_iter=Settings.max_iter)
    assert list(cs.assignment) == [0, 0, 0]
    assert cs.final_fitness == 0.0


def test_empty_cluster_repair_keeps_labels_valid():
    data = [np.array([0.0])] * 4 + [np.array([10.0])] * 4
    for seed in range(6):
        cs = kmeans_run(data, k=3, seed=seed, max_iter=Settings.max_iter)
        assert cs.final_fitness == 0.0
        assert all(0 <= a < 3 for a in cs.assignment)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 20), k=st.integers(1, 5),
       seed=st.integers(0, 2**16), max_iter=st.integers(1, 6),
       windows=st.booleans())
def test_fitness_equals_intra_cluster_fitness_exactly(n, d, k, seed, max_iter, windows):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 4, size=(n, 3, d)) if windows else rng.normal(size=(n, d))
    cs = kmeans_run(data, k=k, seed=seed, max_iter=max_iter)
    assert cs.final_fitness == intra_cluster_fitness(
        data.reshape(n, -1), cs.assignment, cs.centroids.reshape(k, -1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 300), k=st.integers(1, 6),
       n_sets=st.integers(1, 3), transposed=st.booleans(),
       row_cells=st.sampled_from([1, 150, 2**16]), seed=st.integers(0, 2**16))
def test_labelled_l1_equals_pairwise_l1_bit_for_bit(n, d, k, n_sets, transposed, row_cells,
                                                   seed):
    """Above 8 and above 128 terms numpy sums a row pairwise; both kernels
    sum the same contiguous rows, so their distances agree exactly, in any
    buffer size and also for a column-major item array (a transposed
    matrix)."""
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(d, n)).T if transposed else rng.normal(size=(n, d))
    centroids = rng.normal(size=(n_sets, k, d))
    labels = rng.integers(0, k, size=(n, n_sets))
    with mock.patch.object(kmeans, "ROW_CELLS", row_cells):
        got = _labelled_l1(flat, centroids, labels)
    for p in range(n_sets):
        direct = _pairwise_l1(flat, centroids[p])
        assert np.array_equal(got[:, p], direct[np.arange(n), labels[:, p]])


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_seeding_picks_what_the_kmeans_pp_oracle_picks(k, duplicates):
    """Integer counts, so every distance and weight is exact. With duplicates
    the 12 items hold 3 distinct rows, so once all 3 are chosen every weight
    is 0 and the uniform pick among the rest runs."""
    for seed in range(21):
        rng = np.random.default_rng(1000 + seed)
        flat = rng.integers(0, 6, size=(12, 7)).astype(float)
        if duplicates:
            flat = flat[rng.integers(0, 3, size=12)]
        got = _seed_weighted(flat, k, np.random.default_rng(seed))
        expected = kmeans_pp_oracle(flat, k, np.random.default_rng(seed))
        assert np.array_equal(got, flat[expected])


def test_accepts_frequency_windows():
    windows = build_cluster_dataset([Sequence("a", "A" * 9), Sequence("b", "V" * 9)],
                                    Settings.window_size, Settings.window_scheme)
    cs = kmeans_run(windows, k=2, seed=0, max_iter=Settings.max_iter)
    assert cs.centroids.shape == (2, 9, 20)
    assert cs.final_fitness == 0.0


def test_contract_violations():
    data = np.zeros((4, 2))
    with pytest.raises(ContractError):
        kmeans_run(data, k=0, max_iter=Settings.max_iter, seed=Settings.seed)
    with pytest.raises(ContractError):
        kmeans_run(data, k=5, max_iter=Settings.max_iter, seed=Settings.seed)
    with pytest.raises(ContractError):
        kmeans_run(data, k=2, max_iter=0, seed=Settings.seed)
    with pytest.raises(ContractError):
        kmeans_run([], k=1, max_iter=Settings.max_iter, seed=Settings.seed)
    with pytest.raises(ContractError):
        as_item_arrays([np.zeros(2), np.zeros(3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_items_are_refused(bad):
    data = np.zeros((5, 2))
    data[3, 1] = bad
    with pytest.raises(ContractError, match="^item 3 holds a non-finite value$"):
        kmeans_run(data, k=2, max_iter=Settings.max_iter, seed=Settings.seed)


def test_seeding_weights_do_not_overflow():
    """The one far item is 1e307 from the rest: its squared distance would
    overflow, so the weights are scaled before squaring and it is picked."""
    data = np.zeros((6, 3))
    data[0, 0] = 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cs = kmeans_run(data, k=2, max_iter=Settings.max_iter, seed=Settings.seed)
    assert cs.final_fitness == 0.0
    assert cs.assignment[0] != cs.assignment[1]
    assert len(set(cs.assignment[1:])) == 1


def _opposite_extremes():
    data = np.zeros((6, 3))
    data[0, 0], data[1, 0] = -1e308, 1e308
    return data


def _three_far_rows():
    """Each column's range, 5e307, is finite, but six items' costs are not."""
    data = np.zeros((6, 3))
    data[:3] = 5e307
    return data


@pytest.mark.parametrize("data", [_opposite_extremes(), _three_far_rows()],
                         ids=["opposite-extremes", "three-far-rows"])
@pytest.mark.parametrize("cluster", [
    lambda data: kmeans_run(data, k=2, max_iter=Settings.max_iter, seed=Settings.seed),
    lambda data: pso_kmeans(data, k=2, cfg=PsoConfig(n_particles=4, max_iter=5)),
], ids=["kmeans", "pso-kmeans"])
def test_items_whose_l1_costs_overflow_are_refused(cluster, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContractError, match="^items span too wide a range"):
            cluster(data)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_items_whose_means_overflow_are_refused_by_kmeans_only(sign):
    """Every range is 0, so the items pass as_item_arrays, but a mean of six
    ±1e308s sums past the float range. pso_kmeans sums no members: its
    medians cluster the same items."""
    data = np.full((6, 3), sign * 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContractError, match="^items are too large"):
            kmeans_run(data, k=2, max_iter=Settings.max_iter, seed=Settings.seed)
        cs = pso_kmeans(data, k=2, cfg=PsoConfig(n_particles=4, max_iter=5))
    assert cs.final_fitness == 0.0
    assert cs.centroids.shape == (2, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 200), k=st.integers(1, 6),
       seed=st.integers(0, 2**16), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_pairwise_l1_matches_broadcast_and_oracle(n, d, k, seed, scale):
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(n, d)) * scale
    cents = rng.normal(size=(k, d)) * scale
    got = _pairwise_l1(flat, cents)
    # The (n, k, d) broadcast it replaces: same cells, same summation order.
    assert np.array_equal(got, np.abs(flat[:, None, :] - cents[None, :, :]).sum(axis=2))
    for i in range(n):
        for c in range(k):
            assert got[i, c] == pytest.approx(cityblock_oracle(flat[i], cents[c]),
                                              rel=1e-12)
