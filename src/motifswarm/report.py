"""The settings of a run, the pipeline stages shared by the commands,
homology tallies, and the clustering-vs-biclustering comparison.

A group (cluster or bicluster) is scored by the structure similarity of its
member sequences' profile; tallies count groups at or above each cutoff.
Note the deliberate asymmetry with metrics.homology_class: the tally uses >=
(the comparison table convention), the classifier uses strict >.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ContractError, InputError, ValidationError
from . import metrics
from .featurize import (NORMALIZATION_METHODS, WINDOW_SCHEMES, WINDOW_SIZE,
                        build_cluster_dataset, normalize_windows)
from .kmeans import ClusterSet, kmeans_run
from .motif import SAA_THRESHOLD
from .pso import PsoConfig
from .psokmeans import pso_kmeans
from .psobiclust import default_lambda, pso_bicluster, seed_biclusters
from .seqio import AMINO_ACIDS, Corpus

DEFAULT_THRESHOLDS = (0.70, 0.65, 0.60)
ENGINES = ("kmeans", "pso-kmeans")


def _fits(value, kind: str) -> bool:
    """Whether value has the type a field annotation names: an int passes as
    a float, a bool never passes as a number, a tuple is a list of numbers."""
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and all(_fits(v, "float") for v in value)
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"str": str, "bool": bool, "int": int,
                              "float": (int, float)}[kind])


@dataclass(frozen=True)
class Settings:
    """Every setting of one run, checked once on construction.

    A value of the wrong type, or a path the file system cannot encode, raises
    InputError; a value out of range or not among its choices, or an input
    path next to sample_corpus, raises ContractError. Ranges that need the
    data (k against the number of sequences, the window size against their
    lengths) are checked by the stages. swarm is the PsoConfig that the swarm
    stages run on.
    """

    sequences: str | None = None
    structures: str | None = None
    sample_corpus: bool = False
    out: str = "out"
    window_size: int = WINDOW_SIZE
    window_scheme: str = "chunked"
    normalization: str = "mean"
    engine: str = "pso-kmeans"
    k: int = 5
    k_rows: int = 5
    k_cols: int = 3
    n_particles: int = 20
    max_iter: int = 100
    w: float = PsoConfig.w
    c1: float = PsoConfig.c1
    c2: float = PsoConfig.c2
    lam: float | None = None
    saa_threshold: float = SAA_THRESHOLD
    thresholds: tuple = DEFAULT_THRESHOLDS
    logo_correction: bool = True
    seed: int = 0
    trace: str | None = None
    biclusters: str | None = None
    swarm: PsoConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            if not f.init:
                continue
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if not _fits(value, kind):
                wanted = "a list of numbers" if kind == "tuple" else f.type
                raise InputError(f"setting {f.name!r} must be {wanted}, got {value!r}")
            try:
                if kind == "float":
                    object.__setattr__(self, f.name, float(value))
                elif kind == "tuple":
                    object.__setattr__(self, f.name, tuple(map(float, value)))
            except OverflowError:  # a JSON integer beyond the float range
                raise ContractError(f"{f.name} must be finite, got {value!r}") from None
        for name, allowed in (("engine", ENGINES), ("normalization", NORMALIZATION_METHODS),
                              ("window_scheme", WINDOW_SCHEMES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ContractError(f"unknown {name.replace('_', ' ')} {value!r}")
        for name in ("sequences", "structures"):
            if self.sample_corpus and getattr(self, name) is not None:
                raise ContractError(f"sample_corpus and {name} both name an input; "
                                    "give one or the other")
        for name in ("sequences", "structures", "out", "trace", "biclusters"):
            path = getattr(self, name)
            if path == "" or "\0" in (path or ""):
                raise InputError(f"setting {name!r} is empty or holds a NUL: {path!r}")
            try:
                os.fsencode(path or "")
            except UnicodeEncodeError:
                raise InputError(f"setting {name!r} is not a file-system path: "
                                 f"{path!r}") from None
        if not 0.0 <= self.saa_threshold <= 1.0:
            raise ContractError(f"saa threshold {self.saa_threshold} is outside [0, 1]")
        if not all(map(math.isfinite, self.thresholds)):
            raise ContractError(f"thresholds must be finite, got {list(self.thresholds)}")
        _check_descending(self.thresholds)
        if self.lam is not None and not math.isfinite(self.lam):
            raise ContractError(f"lambda must be finite, got {self.lam}")
        object.__setattr__(self, "swarm", PsoConfig(
            n_particles=self.n_particles, max_iter=self.max_iter,
            w=self.w, c1=self.c1, c2=self.c2, seed=self.seed))

    def echo(self) -> dict:
        """The settings as every artifact records them. out is left out, so
        an artifact's bytes do not depend on where it is written."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.init and f.name != "out"}
        data["thresholds"] = list(self.thresholds)
        return data


def _json_float(value: float) -> str:
    """A float as json.dumps writes it; inf, -inf and nan are a ValueError."""
    if not math.isfinite(value):
        raise ValueError(value)
    return float.__repr__(value)


#: The JSON text of a scalar, by its exact type, as json.dumps writes it.
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
                 bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json_write(value, indent: str) -> str:
    """The JSON text of a list, or of a dict with str keys, at indent. A
    member of an exact type in _JSON_SCALARS is written inline, any other
    member by a recursive call. Any other value or key, a list or dict
    subclass included, is a TypeError, and a non-finite float a ValueError.
    A container that holds itself is not detected."""
    inner = indent + "  "
    if type(value) is list:
        opener, closer = "[", "]"
        texts = [s(v) if (s := _JSON_SCALARS.get(type(v))) else _json_write(v, inner)
                 for v in value]
    elif type(value) is dict:
        opener, closer = "{", "}"
        texts = [encode_basestring_ascii(k) + ": "
                 + (s(v) if (s := _JSON_SCALARS.get(type(v))) else _json_write(v, inner))
                 for k, v in sorted(value.items())]
    else:
        raise TypeError(type(value).__name__)
    if not texts:
        return opener + closer
    return opener + "\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + closer


def json_text(payload) -> str:
    """The artifact form of a JSON payload: exactly the text of
    json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) plus a
    newline. _json_write writes the plain values that artifacts hold; any
    other payload goes to json.dumps, which writes it or raises its own
    ValueError or TypeError. A payload that contains itself, which json
    refuses, recurses until RecursionError; artifact payloads are trees."""
    try:
        return _json_write(payload, "") + "\n"
    except (TypeError, ValueError):
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, with inner quotes doubled, when it
    holds a comma, a quote, CR or LF (RFC 4180); otherwise as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: list, rows) -> str:
    """The artifact form of an iterable of tuples of str, int and float
    cells. Each row goes through one "%s" template, and "%s" % x == str(x)
    for these types; str(float) is its shortest round-trip repr, so numbers
    read back exactly."""
    template = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % row for row in rows)
    return "\n".join(lines) + "\n"


#: windows_csv_text lays out about this many cells at a time, so its
#: temporaries stay bounded whatever the corpus size.
CSV_CHUNK_CELLS = 2**14


def _count_table(windows: np.ndarray):
    """(table, codes): an object array of ",<count>" texts and an array of
    windows' shape indexing it, so table[codes] spells every count. The
    table holds each count up to the largest, or, when that would outgrow
    the window array, only the counts that occur."""
    top = int(windows.max(initial=0))
    if top < windows.size:
        values, codes = range(top + 1), windows
    else:
        values, codes = np.unique(windows, return_inverse=True)
        values, codes = values.tolist(), codes.reshape(windows.shape)
    return np.array([f",{v}" for v in values], dtype=object), codes


def windows_csv_text(ids: list, windows: np.ndarray) -> str:
    """The windows.csv text of an (n, ws, 20) stack of non-negative counts
    and the n CSV id fields of its sequences: a header, then one row per
    sequence and 1-based window position, "id,position,count,...", with
    each count written as str(count). The rows of a chunk of sequences are
    laid out as one object array of texts and joined at once."""
    n, ws, n_letters = windows.shape
    table, codes = _count_table(windows)
    positions = np.array([f",{p}" for p in range(1, ws + 1)], dtype=object)
    step = max(1, CSV_CHUNK_CELLS // (ws * (n_letters + 2)))
    parts = [",".join(["sequence_id", "position", *AMINO_ACIDS])]
    for lo in range(0, n, step):
        chunk = codes[lo:lo + step].reshape(-1, n_letters)
        cells = np.empty((len(chunk), n_letters + 2), dtype=object)
        cells[:, 0] = np.repeat(np.array(["\n" + sid for sid in ids[lo:lo + step]],
                                         dtype=object), ws)
        cells[:, 1] = np.tile(positions, len(chunk) // ws)
        cells[:, 2:] = table[chunk]
        parts.append("".join(cells.ravel().tolist()))
    parts.append("\n")
    return "".join(parts)


def _check_descending(thresholds) -> None:
    """Refuse homology cutoffs that are not sorted descending; Settings runs
    this before any work, and tally_homology again for direct callers."""
    if list(thresholds) != sorted(thresholds, reverse=True):
        raise ContractError(f"thresholds must be sorted descending, got {list(thresholds)}")


def tally_homology(similarities, thresholds):
    """Count the group similarities that reach each cutoff; thresholds must
    be sorted descending so counts grow down the list."""
    thresholds = tuple(thresholds)
    _check_descending(thresholds)
    return [sum(1 for s in similarities if s >= t) for t in thresholds]


def corpus_segment_counts(corpus: Corpus):
    """metrics.segment_counts of the corpus's structures, row i for
    corpus.sequences[i]; None when the corpus carries no structures."""
    if corpus.structures is None:
        return None
    return metrics.segment_counts([corpus.structures[s.id] for s in corpus.sequences])


def profile_for_members(counts, rows) -> np.ndarray:
    """The ws x 3 per-position H, E, C frequencies (rows sum to 1) over the
    complete 9-label segments of the structures of the sequences at rows,
    from their corpus_segment_counts: the summed counts over the members'
    number of segments, which every segment adds once to position 0. Each
    string's incomplete tail is dropped, so a string of length L gives
    floor(L / 9) segments."""
    if counts is None:
        raise ValidationError("corpus carries no structure annotations")
    total = counts[rows].sum(axis=0)
    n_segments = int(total[0].sum())
    if not n_segments:
        raise ContractError("cannot build a profile from zero segments")
    return total / n_segments


def _group_entry(ids: list, counts, gid: str, rows) -> dict:
    """id, member ids and size of the group of the sequences at rows, plus
    its structure similarity and homology class when counts is not None
    (the corpus carries structures) and the group has members."""
    member_ids = [ids[i] for i in rows]
    entry = {"id": gid, "members": member_ids, "size": len(member_ids)}
    if counts is not None and member_ids:
        similarity = metrics.structure_similarity(profile_for_members(counts, rows))
        entry["similarity"] = similarity
        entry["homology"] = metrics.homology_class(similarity)
    return entry


def cluster_entries(corpus: Corpus, cs, counts) -> list:
    """One group entry per cluster of cs, empty clusters included; counts is
    the corpus's corpus_segment_counts."""
    ids = [s.id for s in corpus.sequences]
    return [_group_entry(ids, counts, f"cluster-{c:02d}", cs.members(c))
            for c in range(cs.k)]


def corpus_windows(corpus: Corpus, settings: Settings):
    """The corpus's (n, window_size, 20) frequency windows under settings;
    row i belongs to corpus.sequences[i]."""
    return build_cluster_dataset(corpus.sequences, settings.window_size,
                                 settings.window_scheme)


def cluster_corpus(windows, settings: Settings) -> ClusterSet:
    """Cluster a corpus's frequency windows into settings.k groups with
    settings.engine."""
    if settings.engine == "kmeans":
        return kmeans_run(windows, settings.k, max_iter=settings.max_iter,
                          seed=settings.seed)
    return pso_kmeans(windows, settings.k, settings.swarm)


def bicluster_entries(corpus: Corpus, windows, settings: Settings):
    """The biclusters.json entries (letters in AMINO_ACIDS order) and the lambda
    of a corpus's normalized windows: the seed_biclusters crossings of
    settings.swarm ranked by pso_bicluster; lam=None is default_lambda."""
    matrix = normalize_windows(windows, settings.normalization)
    lam = default_lambda(matrix) if settings.lam is None else settings.lam
    seeds = seed_biclusters(matrix, settings.k_rows, settings.k_cols, settings.swarm)
    bics = pso_bicluster(matrix, settings.swarm, seeds, lam=lam)
    ids = [s.id for s in corpus.sequences]
    entries = [
        {
            "id": f"bicluster-{b:02d}",
            "rows": [ids[i] for i in bic.rows],
            "cols": "".join(AMINO_ACIDS[c] for c in bic.cols),
            "size": len(bic.rows),
            "msr": bic.msr,
            "volume": bic.volume,
        }
        for b, bic in enumerate(bics)
    ]
    return entries, lam


def compare_pipelines(corpus: Corpus, settings: Settings) -> dict:
    """Run the clustering and the biclustering pipeline on one corpus and
    tally their structure homology side by side. Deterministic per seed.

    Groups are scored on 9-label structure segments whatever the window
    size; empty clusters are left out."""
    if corpus.structures is None:
        raise ValidationError("corpus has no structure annotations")
    thresholds = settings.thresholds
    windows = corpus_windows(corpus, settings)
    counts = corpus_segment_counts(corpus)
    clusters = [e for e in cluster_entries(corpus, cluster_corpus(windows, settings), counts)
                if e["size"]]
    entries, lam = bicluster_entries(corpus, windows, settings)
    ids = [s.id for s in corpus.sequences]
    row_of = {sid: i for i, sid in enumerate(ids)}
    biclusters = [{**_group_entry(ids, counts, e["id"], [row_of[r] for r in e["rows"]]),
                   "amino_acids": "".join(sorted(e["cols"])),
                   "msr": e["msr"], "volume": e["volume"]}
                  for e in entries]
    return {
        "lambda": lam,
        "clusters": clusters,
        "biclusters": biclusters,
        "tally": {
            "thresholds": list(thresholds),
            "clusters": tally_homology([e["similarity"] for e in clusters], thresholds),
            "biclusters": tally_homology([e["similarity"] for e in biclusters], thresholds),
        },
    }


def tally_to_csv(tally: dict) -> str:
    """Threshold/clusters/biclusters rows, mirroring the comparison table.
    A threshold is written with two decimals when they read back as its
    value, else in full, so distinct thresholds never share a label."""
    rows = ((f"{t:.2f}" if float(f"{t:.2f}") == t else t, c, b)
            for t, c, b in zip(tally["thresholds"], tally["clusters"], tally["biclusters"]))
    return csv_text(["threshold", "clusters", "biclusters"], rows)
