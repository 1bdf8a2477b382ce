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
from dataclasses import dataclass, field, fields, replace

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
            try:
                os.fsencode(getattr(self, name) or "")
            except UnicodeEncodeError:
                raise InputError(f"setting {name!r} is not a file-system path: "
                                 f"{getattr(self, name)!r}") from None
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


def json_text(payload) -> str:
    """The artifact form of a JSON payload: sorted keys, two-space indent,
    newline-terminated."""
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


def _check_descending(thresholds) -> None:
    """Refuse homology cutoffs that are not sorted descending; Settings runs
    this before any work, and tally_homology again for direct callers."""
    if list(thresholds) != sorted(thresholds, reverse=True):
        raise ContractError(f"thresholds must be sorted descending, got {list(thresholds)}")


def tally_homology(similarities, thresholds=DEFAULT_THRESHOLDS):
    """Count the group similarities that reach each cutoff; thresholds must
    be sorted descending so counts grow down the list."""
    thresholds = tuple(thresholds)
    _check_descending(thresholds)
    return [sum(1 for s in similarities if s >= t) for t in thresholds]


def profile_for_members(corpus: Corpus, member_ids):
    if corpus.structures is None:
        raise ValidationError("corpus carries no structure annotations")
    return metrics.build_profile(corpus.structures[mid] for mid in member_ids)


def _group_entry(corpus: Corpus, gid: str, member_ids: list) -> dict:
    """id, member ids and size of a group, plus its structure similarity and
    homology class when the corpus carries structures and the group has
    members."""
    entry = {"id": gid, "members": member_ids, "size": len(member_ids)}
    if corpus.structures is not None and member_ids:
        similarity = metrics.structure_similarity(profile_for_members(corpus, member_ids))
        entry["similarity"] = similarity
        entry["homology"] = metrics.homology_class(similarity)
    return entry


def cluster_entries(corpus: Corpus, cs) -> list:
    """One group entry per cluster of cs, empty clusters included."""
    ids = [s.id for s in corpus.sequences]
    return [_group_entry(corpus, f"cluster-{c:02d}", [ids[i] for i in cs.members(c)])
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


def bicluster_corpus(windows, settings: Settings):
    """Seed-then-refine biclustering of a corpus's normalized windows.

    The seeding swarms run on settings.swarm and the refining swarm on its
    seed plus two. settings.lam=None resolves to default_lambda of the
    matrix. Returns (biclusters, lambda).
    """
    matrix = normalize_windows(windows, settings.normalization)
    lam = default_lambda(matrix) if settings.lam is None else settings.lam
    swarm = settings.swarm
    seeds = seed_biclusters(matrix, settings.k_rows, settings.k_cols, swarm)
    bics = pso_bicluster(matrix, replace(swarm, seed=swarm.seed + 2), seeds, lam=lam)
    return bics, lam


def bicluster_entries(corpus: Corpus, windows, settings: Settings):
    """Bicluster a corpus's windows (bicluster_corpus); returns the
    biclusters.json entries, letters in AMINO_ACIDS order, and the lambda."""
    bics, lam = bicluster_corpus(windows, settings)
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
    clusters = [e for e in cluster_entries(corpus, cluster_corpus(windows, settings))
                if e["size"]]
    entries, lam = bicluster_entries(corpus, windows, settings)
    biclusters = [{**_group_entry(corpus, e["id"], e["rows"]),
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
