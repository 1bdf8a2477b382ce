"""Motif readouts for a group of sequences: per-position significant amino
acids (strictly above 7% frequency), the amino-acid set a bicluster retains,
Full/Partial/Disjoint superset classification, and sequence-logo columns in
bits with an optional small-sample correction.

A group's positional frequencies are read off its members' rows of the
corpus's (n, ws, 20) window array. A report is the plain dict that the
`motifs` artifact writes under "report"; its logo is drawn from that dict.
"""

from __future__ import annotations

import math
from html import escape

import numpy as np

from .errors import ContractError
from .kmeans import as_item_arrays
from .seqio import AMINO_ACIDS

SAA_THRESHOLD = 0.07
MAX_BITS = math.log2(len(AMINO_ACIDS))

#: Logo geometry in SVG user units: the width of one position's column and
#: the height of the 0..log2(20) bits axis.
LOGO_COL_WIDTH = 60
LOGO_PLOT_HEIGHT = 260

RELATION_FULL = "Full"
RELATION_PARTIAL = "Partial"
RELATION_DISJOINT = "Disjoint"


def position_frequencies(members) -> np.ndarray:
    """Sum an (m, ws, 20) stack of member windows and normalize each window
    row to 1.

    A row with no observations anywhere (padded tail of a tiny corpus) stays
    all-zero; callers can spot those by their zero sum.
    """
    total = as_item_arrays(members).sum(axis=0)
    sums = total.sum(axis=1, keepdims=True)
    scale = np.where(sums > 0, sums, 1.0)
    return total / scale


def significant_amino_acids(freqs, threshold: float):
    """Letters strictly above the frequency threshold, one frozenset per
    position of a ws x 20 frequency matrix."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 2 or freqs.shape[1] != len(AMINO_ACIDS):
        raise ContractError(f"expected ws x {len(AMINO_ACIDS)} frequencies, "
                            f"got shape {freqs.shape}")
    return [frozenset(letter for letter, f in zip(AMINO_ACIDS, row) if f > threshold)
            for row in freqs]


def classify_superset(saa, motif) -> str:
    """Relation of a position's significant letter set to a motif letter set.

    Full iff saa is non-empty and a subset of motif; Partial iff saa overlaps
    motif without being contained in it; Disjoint otherwise, including an
    empty saa. The label depends only on saa - motif and on whether the
    overlap is empty, so growing the motif never demotes a Full.
    """
    if saa and saa <= motif:
        return RELATION_FULL
    if saa & motif:
        return RELATION_PARTIAL
    return RELATION_DISJOINT


def logo_columns(freqs, n_segments: int, correction: bool):
    """Information content per position: log2(20) minus the row's entropy,
    minus the small-sample term 19/(2*ln2*n) when correction is on, clamped
    at 0. Letter heights split the column total by frequency. One
    {"total_bits": bits, "letters": [[letter, height], ...]} per position,
    tallest letter first; a column of 0 bits has no letters."""
    freqs = np.asarray(freqs, dtype=float)
    if n_segments < 1:
        raise ContractError("n_segments must be >= 1")
    e_n = (len(AMINO_ACIDS) - 1) / (2 * math.log(2) * n_segments) if correction else 0.0
    columns = []
    for row in freqs:
        nz = row[row > 0]
        entropy = float(-(nz * np.log2(nz)).sum())
        bits = max(0.0, MAX_BITS - entropy - e_n) if row.sum() > 0 else 0.0
        letters = [[letter, float(f * bits)] for letter, f in zip(AMINO_ACIDS, row) if f > 0]
        letters.sort(key=lambda t: (-t[1], t[0]))
        columns.append({"total_bits": bits, "letters": letters if bits else []})
    return columns


def build_motif_report(group, freqs, motif, n_segments, threshold: float,
                       correction: bool) -> dict:
    """One group's report, in the form its JSON artifact holds. freqs is
    ws x 20; every position's SAA is classified against motif, the group's
    retained letter set. The report is degenerate when every SAA is empty."""
    motif = frozenset(motif)
    motif_letters = "".join(sorted(motif))
    saas = significant_amino_acids(freqs, threshold=threshold)
    logo = logo_columns(freqs, n_segments, correction=correction)
    positions = [
        {"position": position, "saa": "".join(sorted(saa)), "motif": motif_letters,
         "relation": classify_superset(saa, motif), "logo": column}
        for position, (saa, column) in enumerate(zip(saas, logo), start=1)
    ]
    return {
        "group_id": str(group),
        "degenerate": not any(saas),
        "positions": positions,
    }


def render_logo_svg(report: dict) -> str:
    """Standalone SVG of a build_motif_report dict: positions 1..ws across,
    bits 0..log2(20) up, letters stacked tallest-on-top and scaled to their
    share of the column."""
    left, bottom, top = 46, 34, 14
    n = len(report["positions"])
    width = left + n * LOGO_COL_WIDTH + 10
    height = top + LOGO_PLOT_HEIGHT + bottom
    y_per_bit = LOGO_PLOT_HEIGHT / MAX_BITS
    baseline = top + LOGO_PLOT_HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{escape(report["group_id"], quote=False)}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{baseline}" stroke="black"/>',
        f'<line x1="{left}" y1="{baseline}" x2="{left + n * LOGO_COL_WIDTH}" '
        f'y2="{baseline}" stroke="black"/>',
    ]
    for b in range(int(MAX_BITS) + 1):
        y = baseline - b * y_per_bit
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end" font-family="monospace">{b}</text>')
    mid = top + LOGO_PLOT_HEIGHT / 2
    parts.append(f'<text x="{left - 34}" y="{mid:.1f}" font-size="12" '
                 f'font-family="monospace" transform="rotate(-90 {left - 34} '
                 f'{mid:.1f})" text-anchor="middle">bits</text>')

    for i, pos in enumerate(report["positions"]):
        x0 = left + i * LOGO_COL_WIDTH
        cx = x0 + LOGO_COL_WIDTH / 2
        parts.append(f'<text x="{cx:.1f}" y="{baseline + 16}" font-size="12" '
                     f'text-anchor="middle" font-family="monospace">{pos["position"]}</text>')
        y = baseline
        # stack ascending so the tallest letter ends up on top
        for letter, bits in sorted(pos["logo"]["letters"], key=lambda t: (t[1], t[0])):
            h = bits * y_per_bit
            if h <= 0:
                continue
            y -= h
            scale = h / 18.0
            parts.append(
                f'<text x="0" y="0" font-size="18" font-family="monospace" '
                f'text-anchor="middle" '
                f'transform="translate({cx:.2f} {y + h:.2f}) scale(2.2 {scale:.4f})"'
                f'>{letter}</text>'
            )
    parts.append('</svg>')
    return "\n".join(parts)
