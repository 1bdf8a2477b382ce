"""Turn sequences into position x amino-acid frequency windows.

Each sequence is folded into consecutive 9-residue blocks; counting how often
each amino acid occupies each of the 9 block positions gives one 9x20
frequency window per sequence (the clustering unit). Residues are encoded
once as column indices and counted with np.bincount. A corpus's windows are
one (n, 9, 20) int64 array whose row i belongs to sequence i. For
biclustering, every window is collapsed into a single 20-element row by a
per-column normalization, giving an n_sequences x 20 matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError
from .seqio import AMINO_ACIDS, Sequence, encode

WINDOW_SIZE = 9

#: Per-column window-to-row reductions available for the bicluster matrix.
NORMALIZATION_METHODS = ("mean", "range", "mode")

#: Window chunking schemes. "chunked" folds the sequence into consecutive
#: non-overlapping blocks (default); "sliding" uses every stride-1 window.
WINDOW_SCHEMES = ("chunked", "sliding")


def _check_window_size(window_size: int) -> None:
    if window_size < 1:
        raise ContractError(f"window size must be >= 1, got {window_size}")


def _block_counts(codes: np.ndarray, window_size: int, n_symbols: int) -> np.ndarray:
    """(window_size, n_symbols) counts of each code at each position of the
    consecutive window_size blocks of codes."""
    cells = np.arange(codes.size) % window_size * n_symbols + codes
    counts = np.bincount(cells, minlength=window_size * n_symbols)
    return counts.reshape(window_size, n_symbols)


def reshape_and_count(
    seq: Sequence, window_size: int = WINDOW_SIZE, scheme: str = "chunked"
) -> np.ndarray:
    """The window_size x 20 frequency window of one sequence: row i counts,
    over all blocks, how often block position i holds each amino acid.

    Under the default "chunked" scheme the sequence is split into consecutive
    non-overlapping blocks; block t contributes its i-th residue to row i.
    Padding positions of the incomplete final block contribute zero counts.
    The "sliding" scheme instead counts every stride-1 window of length
    window_size.
    """
    if scheme not in WINDOW_SCHEMES:
        raise ContractError(f"unknown window scheme {scheme!r}")
    _check_window_size(window_size)
    n = len(seq)
    if n < window_size:
        raise ValidationError(
            f"sequence '{seq.id}' has length {n} < window size {window_size}"
        )
    codes = encode(seq.residues)
    n_letters = len(AMINO_ACIDS)
    if scheme == "chunked":
        return _block_counts(codes, window_size, n_letters)
    # Window start s puts residue s + i in row i, so row i counts the
    # n - window_size + 1 residues from i on: a difference of per-letter
    # prefix sums.
    onehot = np.zeros((n + 1, n_letters), dtype=np.int64)
    onehot[np.arange(1, n + 1), codes] = 1
    prefix = onehot.cumsum(axis=0)
    span = n - window_size + 1
    return prefix[span : span + window_size] - prefix[:window_size]


def _column_modes(counts: np.ndarray) -> np.ndarray:
    """Most frequent value of each column of each (ws, 20) window in an
    (n, ws, 20) stack, ties resolved to the smallest value."""
    # freq[t, r, j]: how many rows of column j of window t equal row r's
    # value. One broadcast comparison per row keeps the temporaries at the
    # size of the stack, whatever the window size.
    freq = np.zeros(counts.shape, dtype=np.intp)
    for r in range(counts.shape[1]):
        freq += counts == counts[:, r : r + 1, :]
    top = freq == freq.max(axis=1, keepdims=True)
    return np.where(top, counts, np.inf).min(axis=1)


def normalize_windows(windows: np.ndarray, method: str = "mean") -> np.ndarray:
    """Collapse each window of an (n, ws, 20) stack into one 20-element row,
    column by column, giving an n x 20 matrix.

    mean: arithmetic mean of the column. range: max minus min. mode: the most
    frequent count value in the column, ties resolved to the smallest value.
    """
    if method not in NORMALIZATION_METHODS:
        raise ContractError(f"unknown normalization method {method!r}")
    if method == "mean":
        return windows.mean(axis=1)
    if method == "range":
        return (windows.max(axis=1) - windows.min(axis=1)).astype(float)
    return _column_modes(windows)


def build_cluster_dataset(
    seqs: list[Sequence], window_size: int = WINDOW_SIZE, scheme: str = "chunked"
) -> np.ndarray:
    """The (len(seqs), window_size, 20) windows of seqs, in input order."""
    _check_window_size(window_size)
    windows = np.zeros((len(seqs), window_size, len(AMINO_ACIDS)), dtype=np.int64)
    for row, seq in zip(windows, seqs):
        row[...] = reshape_and_count(seq, window_size, scheme)
    return windows
