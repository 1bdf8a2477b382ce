"""Turn sequences into position x amino-acid frequency windows.

Each sequence is folded into consecutive 9-residue blocks; counting how often
each amino acid occupies each of the 9 block positions gives one 9x20
frequency window per sequence (the clustering unit). A corpus is encoded as
column indices and counted by one np.bincount call per chunk of whole
sequences; its windows are one (n, 9, 20) int64 array whose row i belongs to
sequence i. For biclustering, every window is collapsed into a single
20-element row by a per-column normalization, giving an n_sequences x 20
matrix.
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

#: build_cluster_dataset counts whole sequences in chunks of about this many
#: residues, so its temporaries stay bounded (and in cache) whatever the
#: corpus size.
CHUNK_RESIDUES = 2**14


def _count_windows(codes: np.ndarray, lengths: np.ndarray, window_size: int,
                   n_symbols: int, scheme: str = "chunked") -> np.ndarray:
    """(len(lengths), window_size, n_symbols) counts of the sequences whose
    codes lie back to back in codes, lengths[s] codes for sequence s, by one
    np.bincount call. The sliding scheme needs every length >= window_size.

    Chunked: the code at position p of sequence s counts in row p mod
    window_size. Sliding: it counts in every row i with 0 <= p - i <= L -
    window_size, a run of rows added as +1 at its first row and -1 one past
    its last (a spill row), then summed along the window axis.
    """
    lengths = np.asarray(lengths)
    n, ws = len(lengths), window_size
    pos = np.arange(codes.size)
    pos -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    if scheme == "chunked":
        pos %= ws
        pos += np.repeat(np.arange(0, n * ws, ws), lengths)
        pos *= n_symbols
        pos += codes
        counts = np.bincount(pos, minlength=n * ws * n_symbols)
        return counts.reshape(n, ws, n_symbols)
    # cells[0] marks each residue's first row, cells[1] one past its last
    # row, in a second half of the count table.
    cells = np.empty((2, codes.size), dtype=np.intp)
    np.subtract(pos, np.repeat(lengths - ws, lengths), out=cells[0])
    np.maximum(cells[0], 0, out=cells[0])
    np.minimum(pos, ws - 1, out=cells[1])
    cells[1] += 1 + n * (ws + 1)
    cells += np.repeat(np.arange(0, n * (ws + 1), ws + 1), lengths)
    cells *= n_symbols
    cells += codes
    half = n * (ws + 1) * n_symbols
    counts = np.bincount(cells.ravel(), minlength=2 * half)
    steps = (counts[:half] - counts[half:]).reshape(n, ws + 1, n_symbols)
    return steps.cumsum(axis=1)[:, :ws]


def _chunks(lengths: np.ndarray):
    """(lo, hi) bounds of the chunks of whole texts laid back to back with
    these lengths: chunk c holds the texts that start in characters
    [c, c + 1) x CHUNK_RESIDUES."""
    starts = np.cumsum(lengths) - lengths
    bounds = np.flatnonzero(np.diff(starts // CHUNK_RESIDUES, prepend=-1, append=-1))
    return zip(bounds[:-1], bounds[1:])


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


def normalize_windows(windows: np.ndarray, method: str) -> np.ndarray:
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


def build_cluster_dataset(seqs: list[Sequence], window_size: int, scheme: str) -> np.ndarray:
    """The (len(seqs), window_size, 20) windows of seqs, in input order.

    A sequence shorter than window_size is a ValidationError naming the first
    one, raised before the window array is allocated. A window size whose
    (window_size, 20) int64 counts exceed what numpy can address is a
    ContractError; only an empty seqs reaches it, as any sequence is shorter.
    """
    if window_size < 1:
        raise ContractError(f"window size must be >= 1, got {window_size}")
    if scheme not in WINDOW_SCHEMES:
        raise ContractError(f"unknown window scheme {scheme!r}")
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    short = np.flatnonzero(lengths < window_size)
    if short.size:
        seq = seqs[short[0]]
        raise ValidationError(
            f"sequence '{seq.id}' has length {len(seq)} < window size {window_size}"
        )
    # numpy refuses a shape of more bytes than it can address, even an empty one.
    if window_size * len(AMINO_ACIDS) * 8 > np.iinfo(np.intp).max:
        raise ContractError(f"window size {window_size} is too large to allocate")
    windows = np.empty((len(seqs), window_size, len(AMINO_ACIDS)), dtype=np.int64)
    for lo, hi in _chunks(lengths):
        codes = encode("".join([s.residues for s in seqs[lo:hi]]))
        windows[lo:hi] = _count_windows(codes, lengths[lo:hi], window_size,
                                        len(AMINO_ACIDS), scheme)
    return windows
