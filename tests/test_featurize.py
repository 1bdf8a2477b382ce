from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import featurize
from motifswarm.errors import ContractError, ValidationError
from motifswarm.featurize import (
    NORMALIZATION_METHODS,
    WINDOW_SCHEMES,
    build_cluster_dataset,
    normalize_windows,
)
from motifswarm.report import Settings
from motifswarm.seqio import AMINO_ACIDS, Sequence

from helpers import (
    normalize_oracle,
    random_sequence,
    window_counts_oracle,
)

SIZE, SCHEME = Settings.window_size, Settings.window_scheme


def col(window, aa):
    return window[:, AMINO_ACIDS.index(aa)]


def test_single_block_single_residue():
    w = build_cluster_dataset([Sequence("s", "A" * 9)], SIZE, SCHEME)[0]
    assert (col(w, "A") == 1).all()
    other = np.delete(w, AMINO_ACIDS.index("A"), axis=1)
    assert (other == 0).all()


def test_two_identical_blocks():
    w = build_cluster_dataset([Sequence("s", "G" * 18)], SIZE, SCHEME)[0]
    assert (col(w, "G") == 2).all()


def test_partial_final_block_row_sums():
    # 17 residues: second block fills positions 1..8 only.
    w = build_cluster_dataset([Sequence("s", "ACDEFGHIKLMNPQRST")], SIZE, SCHEME)[0]
    sums = w.sum(axis=1)
    assert (sums[:8] == 2).all()
    assert sums[8] == 1


def test_too_short_sequence_rejected():
    with pytest.raises(ValidationError):
        build_cluster_dataset([Sequence("s", "ACDEF")], SIZE, SCHEME)


def test_total_count_conservation():
    rng = np.random.default_rng(7)
    for length in [9, 10, 17, 18, 26, 27, 40, 100]:
        seq = random_sequence(rng, length)
        w = build_cluster_dataset([seq], SIZE, SCHEME)[0]
        assert w.sum() == length


def test_reverse_changes_matrix():
    rng = np.random.default_rng(8)
    seq = random_sequence(rng, 27)
    rev = Sequence(seq.id, seq.residues[::-1])
    assert seq.residues != rev.residues
    forward, backward = build_cluster_dataset([seq, rev], SIZE, SCHEME)
    assert (forward != backward).any()


def test_sliding_scheme_row_sums():
    seq = Sequence("s", "ACDEFGHIKLMNPQRST")  # length 17 -> 9 windows
    w = build_cluster_dataset([seq], SIZE, "sliding")[0]
    assert (w.sum(axis=1) == 9).all()


@settings(max_examples=150, deadline=None)
@given(window_size=st.integers(1, 12), data=st.data(),
       scheme=st.sampled_from(WINDOW_SCHEMES))
def test_window_counts_match_oracle(window_size, data, scheme):
    residues = data.draw(st.text(alphabet=AMINO_ACIDS, min_size=window_size,
                                 max_size=5 * window_size + 11))
    w = build_cluster_dataset([Sequence("s", residues)], window_size, scheme)[0]
    np.testing.assert_array_equal(
        w, window_counts_oracle(residues, window_size, scheme))


@pytest.mark.parametrize("window_size", [0, -1, -9])
def test_window_size_below_one_is_contract_error(window_size):
    with pytest.raises(ContractError, match="window size"):
        build_cluster_dataset([Sequence("s", "A" * 18)], window_size, SCHEME)
    with pytest.raises(ContractError, match="window size"):
        build_cluster_dataset([], window_size, SCHEME)


@settings(max_examples=300, deadline=None)
@given(window_size=st.integers(1, 12), n=st.integers(1, 6),
       top=st.one_of(st.integers(1, 6),
                     st.sampled_from([100, featurize.MODE_CELLS // 20 - 1,
                                      featurize.MODE_CELLS // 20, 5000, 2**40])),
       n_distinct=st.integers(1, 7), seed=st.integers(0, 2**16),
       method=st.sampled_from(NORMALIZATION_METHODS))
def test_normalized_rows_match_oracle(window_size, n, top, n_distinct, seed, method):
    # Counts drawn from a few values make tied modes common, whether they
    # are small or far above the window size, up to the modes' value-table
    # limit and past it.
    rng = np.random.default_rng(seed)
    values = rng.integers(0, top + 1, size=n_distinct)
    windows = rng.choice(values, size=(n, window_size, 20))
    matrix = normalize_windows(windows, method)
    assert matrix.shape == (n, len(AMINO_ACIDS))
    for t, w in enumerate(windows):
        np.testing.assert_array_equal(matrix[t], normalize_oracle(w, method))
        np.testing.assert_array_equal(normalize_windows(w[None], method)[0], matrix[t])


@pytest.mark.parametrize("window_size", [1, 9, 2000])
def test_mode_tables_stay_bounded(window_size):
    """Every count table of the modes holds at most MODE_CELLS cells or one
    window's, whatever the counts: at window size 1, the 53 001-residue
    poly-A sequence has counts above 30 000."""
    rng = np.random.default_rng(3)
    seqs = [random_sequence(rng, 23_001, seq_id="long"),
            Sequence("polyA", "A" * 30_000 + random_sequence(rng, 23_001).residues),
            *(random_sequence(rng, 2000 + 50 * i, seq_id=f"s{i}") for i in range(40))]
    windows = build_cluster_dataset(seqs, window_size, SCHEME)
    sizes = []
    bincount = np.bincount

    def spy(*args, **kwargs):
        table = bincount(*args, **kwargs)
        sizes.append(table.size)
        return table

    with mock.patch.object(featurize.np, "bincount", spy):
        matrix = normalize_windows(windows, "mode")
    assert sizes and max(sizes) <= max(featurize.MODE_CELLS, windows[0].size)
    for t in (0, 1, 2, len(seqs) - 1):
        np.testing.assert_array_equal(matrix[t], normalize_oracle(windows[t], "mode"))


@settings(max_examples=60, deadline=None)
@given(window_size=st.integers(1, 12), scheme=st.sampled_from(WINDOW_SCHEMES),
       method=st.sampled_from(NORMALIZATION_METHODS),
       lengths=st.lists(st.integers(12, 60), min_size=1, max_size=5),
       seed=st.integers(0, 2**16))
def test_bicluster_matrix_matches_oracle(window_size, scheme, method, lengths, seed):
    rng = np.random.default_rng(seed)
    seqs = [random_sequence(rng, n, seq_id=f"s{i}") for i, n in enumerate(lengths)]
    windows = build_cluster_dataset(seqs, window_size, scheme)
    matrix = normalize_windows(windows, method)
    for window, row, seq in zip(windows, matrix, seqs):
        counts = window_counts_oracle(seq.residues, window_size, scheme)
        np.testing.assert_array_equal(window, counts)
        np.testing.assert_array_equal(row, normalize_oracle(counts, method))


@settings(max_examples=80, deadline=None)
@given(window_size=st.integers(1, 12), scheme=st.sampled_from(WINDOW_SCHEMES),
       chunk=st.integers(1, 80), extra=st.lists(st.integers(0, 40), max_size=8),
       seed=st.integers(0, 2**16))
def test_windows_across_chunk_boundaries_match_oracle(window_size, scheme, chunk,
                                                      extra, seed):
    # Chunks of a few residues put most sequences in chunks of their own
    # or split a corpus at every few sequences.
    rng = np.random.default_rng(seed)
    seqs = [random_sequence(rng, window_size + n, seq_id=f"s{i}")
            for i, n in enumerate(extra)]
    with mock.patch.object(featurize, "CHUNK_RESIDUES", chunk):
        windows = build_cluster_dataset(seqs, window_size, scheme)
    assert windows.shape == (len(seqs), window_size, len(AMINO_ACIDS))
    for window, seq in zip(windows, seqs):
        np.testing.assert_array_equal(
            window, window_counts_oracle(seq.residues, window_size, scheme))


@pytest.mark.parametrize("chunk", [1, 16, 2**14])
@pytest.mark.parametrize("scheme", WINDOW_SCHEMES)
def test_first_short_sequence_is_named(chunk, scheme):
    seqs = [Sequence("a", "A" * 20), Sequence("b", "C" * 12), Sequence("c", "D" * 7),
            Sequence("d", "E" * 30), Sequence("e", "F" * 3)]
    with mock.patch.object(featurize, "CHUNK_RESIDUES", chunk), \
            pytest.raises(ValidationError) as err:
        build_cluster_dataset(seqs, 9, scheme)
    assert str(err.value) == "sequence 'c' has length 7 < window size 9"


@pytest.mark.parametrize("window_size", [2**62, 10**30])
def test_oversized_window_is_refused_before_allocation(window_size):
    seqs = [Sequence("a", "A" * 20), Sequence("b", "C" * 12)]
    with mock.patch.object(featurize.np, "empty") as empty, \
            pytest.raises(ValidationError) as err:
        build_cluster_dataset(seqs, window_size, SCHEME)
    assert str(err.value) == f"sequence 'a' has length 20 < window size {window_size}"
    empty.assert_not_called()


@pytest.mark.parametrize("window_size", [2**62, 10**30])
def test_oversized_window_of_no_sequence_is_contract_error(window_size):
    with mock.patch.object(featurize.np, "empty") as empty, \
            pytest.raises(ContractError) as err:
        build_cluster_dataset([], window_size, SCHEME)
    assert str(err.value) == f"window size {window_size} is too large to allocate"
    empty.assert_not_called()


def test_largest_addressable_window_of_no_sequence_is_empty():
    window_size = np.iinfo(np.intp).max // (8 * len(AMINO_ACIDS))
    assert build_cluster_dataset([], window_size, SCHEME).shape == (0, window_size, 20)
    with pytest.raises(ContractError, match="too large"):
        build_cluster_dataset([], window_size + 1, SCHEME)


def test_normalize_windows_of_nothing_is_empty_matrix():
    matrix = normalize_windows(build_cluster_dataset([], SIZE, SCHEME), "mode")
    assert matrix.shape == (0, len(AMINO_ACIDS))


def make_window(column_values, aa="A"):
    """A one-window (1, 9, 20) stack with column aa set to column_values."""
    counts = np.zeros((1, 9, 20), dtype=int)
    counts[0, :, AMINO_ACIDS.index(aa)] = column_values
    return counts


def test_normalize_mean_constant_column():
    row = normalize_windows(make_window([1] * 9), "mean")[0]
    assert row[AMINO_ACIDS.index("A")] == pytest.approx(1.0)


def test_normalize_range():
    row = normalize_windows(make_window([0, 0, 0, 0, 0, 0, 0, 0, 3]), "range")[0]
    assert row[AMINO_ACIDS.index("A")] == 3


def test_normalize_mode_majority_and_tie():
    row = normalize_windows(make_window([2, 2, 2, 0, 0, 0, 0, 0, 0]), "mode")[0]
    assert row[AMINO_ACIDS.index("A")] == 0  # 0 occurs 6 times, 2 occurs 3 times
    # Exact tie between count values 0 and 2: smallest wins.
    tie = normalize_windows(make_window([2, 2, 2, 2, 0, 0, 0, 0, 1]), "mode")[0]
    assert tie[AMINO_ACIDS.index("A")] == 0


def test_normalize_mean_mass_preserving():
    rng = np.random.default_rng(9)
    for length in [9, 18, 45]:
        seq = random_sequence(rng, length)
        row = normalize_windows(build_cluster_dataset([seq], SIZE, SCHEME), "mean")[0]
        assert row.sum() == pytest.approx(length / 9)


def test_cluster_dataset_counts():
    rng = np.random.default_rng(10)
    seqs = [random_sequence(rng, 18, seq_id=f"s{i}") for i in range(3)]
    assert build_cluster_dataset(seqs, SIZE, SCHEME).shape == (3, 9, 20)
    assert build_cluster_dataset([], SIZE, SCHEME).shape == (0, 9, 20)


def test_corpus_scale_shapes():
    rng = np.random.default_rng(11)
    seqs = [random_sequence(rng, 30, seq_id=f"s{i}") for i in range(300)]
    windows = build_cluster_dataset(seqs, SIZE, SCHEME)
    assert windows.shape == (300, 9, 20)
    assert windows.dtype == np.int64
    for k in (0, 150, 299):
        np.testing.assert_array_equal(windows[k],
                                      build_cluster_dataset([seqs[k]], SIZE, SCHEME)[0])
    matrix = normalize_windows(windows, Settings.normalization)
    assert matrix.shape == (300, 20)


def test_bicluster_row_of_pure_sequence():
    windows = build_cluster_dataset([Sequence("s", "L" * 9)], SIZE, SCHEME)
    matrix = normalize_windows(windows, "mean")
    expected = np.zeros(20)
    expected[AMINO_ACIDS.index("L")] = 1.0
    np.testing.assert_allclose(matrix[0], expected)


def test_bicluster_matrix_is_row_stack_of_normalized_windows():
    rng = np.random.default_rng(12)
    seqs = [random_sequence(rng, 20 + 3 * i, seq_id=f"s{i}") for i in range(5)]
    matrix = normalize_windows(build_cluster_dataset(seqs, SIZE, SCHEME), "range")
    for k, seq in enumerate(seqs):
        row = normalize_windows(build_cluster_dataset([seq], SIZE, SCHEME), "range")[0]
        np.testing.assert_array_equal(matrix[k], row)

