"""Turn sequences into position x amino-acid frequency windows.

Each sequence is folded into consecutive 9-residue blocks; counting how often
each amino acid occupies each of the 9 block positions gives one 9x20
frequency window per sequence (the clustering unit). A corpus is encoded as
column indices, each sequence padded to whole blocks, and counted by one
np.bincount call per chunk of whole sequences over (sequence, position,
letter) bins; its windows are one (n, 9, 20) int64 array whose row i belongs
to sequence i. For biclustering, every window is collapsed into a single
20-element row by a per-column normalization, giving an n_sequences x 20
matrix; the mode is the argmax of a (window, letter, value) count table.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError
from .seqio import AMINO_ACIDS, Sequence, _codes, encode

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

#: _column_modes counts values in tables of about this many cells.
MODE_CELLS = 2**14


def _count_segments(codes: np.ndarray, n_segments, n_symbols: int) -> np.ndarray:
    """(len(n_segments), ws, n_symbols) counts of codes, the (segments, ws)
    codes of texts cut into ws-code segments and laid back to back,
    n_segments[s] of them for text s, by one np.bincount call. Code
    n_symbols pads a text's last segment and is not counted."""
    n, ws = len(n_segments), codes.shape[1]
    bins = n_symbols + 1
    # Code c at column i of a segment of text s counts in bin (s ws + i) bins + c.
    cells = np.arange(0, ws * bins, bins) + codes
    cells += np.repeat(np.arange(0, n * ws * bins, ws * bins), n_segments)[:, None]
    counts = np.bincount(cells.ravel(), minlength=n * ws * bins)
    return counts.reshape(n, ws, bins)[:, :, :n_symbols]


def _count_sliding(codes: np.ndarray, lengths: np.ndarray, window_size: int,
                   n_symbols: int) -> np.ndarray:
    """(len(lengths), window_size, n_symbols) counts of every stride-1
    window of the sequences whose codes lie back to back in codes,
    lengths[s] >= window_size codes for sequence s, by one np.bincount call.

    The code at position p of a sequence of length L counts in every row i
    with 0 <= p - i <= L - window_size, a run of rows added as +1 at its
    first row and -1 one past its last (a spill row), then summed along the
    window axis.
    """
    n, ws = len(lengths), window_size
    pos = np.arange(codes.size)
    pos -= np.repeat(np.cumsum(lengths) - lengths, lengths)
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


def _table_modes(codes: np.ndarray, n_values: int) -> np.ndarray:
    """(n, d) most frequent code of each column of each window of an (n, ws,
    d) stack of codes in [0, n_values), ties to the smallest: the argmax of
    a (window, column, code) count table, counted by one np.bincount per
    chunk of windows. A chunk's table holds about MODE_CELLS cells, or one
    window's d x n_values if that is more."""
    n, _, d = codes.shape
    step = max(1, MODE_CELLS // (d * n_values))
    offsets = np.arange(0, step * d * n_values, n_values).reshape(step, 1, d)
    modes = np.empty((n, d), dtype=np.intp)
    for lo in range(0, n, step):
        cells = codes[lo:lo + step] + offsets[:n - lo]
        table = np.bincount(cells.ravel(), minlength=cells.shape[0] * d * n_values)
        modes[lo:lo + step] = table.reshape(-1, d, n_values).argmax(axis=2)
    return modes


def _column_modes(counts: np.ndarray) -> np.ndarray:
    """Most frequent value of each column of each (ws, 20) window in an
    (n, ws, 20) stack, ties resolved to the smallest value."""
    if counts.dtype.kind in "iu" and counts.min(initial=0) >= 0:
        n_values = int(counts.max(initial=0)) + 1
        if counts.shape[2] * n_values <= MODE_CELLS:
            return _table_modes(counts, n_values).astype(float)
    # Larger or other values: each column counts the ranks of its values in
    # its window, fewer than ws, so a window's table is no larger than it.
    ordered = np.sort(counts, axis=1)
    new = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    ranks = new.cumsum(axis=1) - 1
    top_rank = _table_modes(ranks, counts.shape[1])[:, None]
    first = np.argmax(ranks == top_rank, axis=1)[:, None]
    return np.take_along_axis(ordered, first, axis=1)[:, 0].astype(float)


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
    if scheme == "sliding":
        for lo, hi in _chunks(lengths):
            codes = encode("".join([s.residues for s in seqs[lo:hi]]))
            windows[lo:hi] = _count_sliding(codes, lengths[lo:hi], window_size,
                                            len(AMINO_ACIDS))
        return windows
    n_segments = -(-lengths // window_size)
    for lo, hi in _chunks(n_segments * window_size):
        # Each sequence padded to whole segments by a character outside the
        # alphabet, whose code _count_segments drops.
        padded = "".join([s.residues.ljust(m, "-") for s, m in
                          zip(seqs[lo:hi], (n_segments[lo:hi] * window_size).tolist())])
        codes = _codes(padded, AMINO_ACIDS).reshape(-1, window_size)
        windows[lo:hi] = _count_segments(codes, n_segments[lo:hi], len(AMINO_ACIDS))
    return windows
