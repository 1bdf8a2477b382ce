"""The pipeline stages shared by the commands, homology tallies, and the
clustering-vs-biclustering comparison.

A group (cluster or bicluster) is scored by the structure similarity of its
member sequences' profile; tallies count groups at or above each cutoff.
Note the deliberate asymmetry with metrics.homology_class: the tally uses >=
(the comparison table convention), the classifier uses strict >.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .errors import ContractError, ValidationError
from . import metrics
from .featurize import (WINDOW_SIZE, build_bicluster_matrix, build_cluster_dataset,
                        structure_segments)
from .pso import PsoConfig
from .psokmeans import pso_kmeans
from .psobiclust import default_lambda, pso_bicluster, seed_biclusters
from .seqio import AMINO_ACIDS, Corpus

DEFAULT_THRESHOLDS = (0.70, 0.65, 0.60)


def json_text(payload) -> str:
    """The artifact form of a JSON payload: sorted keys, two-space indent,
    newline-terminated."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def tally_homology(similarities, thresholds=DEFAULT_THRESHOLDS):
    """Count the group similarities that reach each cutoff; thresholds must
    be sorted descending so counts grow down the list."""
    thresholds = tuple(thresholds)
    if list(thresholds) != sorted(thresholds, reverse=True):
        raise ContractError("thresholds must be sorted descending")
    return [sum(1 for s in similarities if s >= t) for t in thresholds]


def profile_for_members(corpus: Corpus, member_ids):
    segsets = [structure_segments(corpus.structure_for(mid)) for mid in member_ids]
    return metrics.build_profile(segsets)


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


def bicluster_corpus(corpus: Corpus, k_rows: int, k_cols: int, swarm_cfg: PsoConfig,
                     lam, normalization: str, window_size: int, window_scheme: str):
    """Seed-then-refine biclustering of the corpus's normalized matrix.

    The seeding swarms run on swarm_cfg and the refining swarm on its seed
    plus two. lam=None resolves to default_lambda of the matrix. Returns
    (biclusters, lambda).
    """
    matrix = build_bicluster_matrix(corpus.sequences, normalization, window_size,
                                    window_scheme)
    if lam is None:
        lam = default_lambda(matrix)
    seeds = seed_biclusters(matrix, k_rows, k_cols, swarm_cfg)
    bics = pso_bicluster(matrix, replace(swarm_cfg, seed=swarm_cfg.seed + 2), seeds,
                         lam=lam)
    return bics, lam


def compare_pipelines(
    corpus: Corpus,
    k: int = 5,
    k_rows: int = 5,
    k_cols: int = 3,
    n_particles: int = 20,
    max_iter: int = 100,
    seed: int = 0,
    lam: float | None = None,
    thresholds=DEFAULT_THRESHOLDS,
    normalization: str = "mean",
    w: float = PsoConfig.w,
    c1: float = PsoConfig.c1,
    c2: float = PsoConfig.c2,
    window_size: int = WINDOW_SIZE,
    window_scheme: str = "chunked",
):
    """Run the clustering and the biclustering pipeline on one corpus and
    tally their structure homology side by side. Deterministic per seed.

    Groups are scored on 9-label structure segments whatever the window
    size; empty clusters are left out."""
    if corpus.structures is None:
        raise ValidationError("corpus has no structure annotations")
    thresholds = tuple(thresholds)
    swarm_cfg = PsoConfig(n_particles=n_particles, max_iter=max_iter,
                          w=w, c1=c1, c2=c2, seed=seed)

    windows = build_cluster_dataset(corpus.sequences, window_size, window_scheme)
    clusters = [e for e in cluster_entries(corpus, pso_kmeans(windows, k, swarm_cfg))
                if e["size"]]

    bics, lam = bicluster_corpus(corpus, k_rows, k_cols, swarm_cfg, lam, normalization,
                                 window_size, window_scheme)
    ids = [s.id for s in corpus.sequences]
    biclusters = []
    for b, bic in enumerate(bics):
        entry = _group_entry(corpus, f"bicluster-{b:02d}", [ids[i] for i in bic.rows])
        entry["amino_acids"] = "".join(sorted(AMINO_ACIDS[c] for c in bic.cols))
        entry["msr"] = bic.msr
        entry["volume"] = bic.volume
        biclusters.append(entry)

    return {
        "config": {
            "k": k,
            "k_rows": k_rows,
            "k_cols": k_cols,
            "n_particles": n_particles,
            "max_iter": max_iter,
            "seed": seed,
            "lambda": lam,
            "normalization": normalization,
            "thresholds": list(thresholds),
        },
        "clusters": clusters,
        "biclusters": biclusters,
        "tally": {
            "thresholds": list(thresholds),
            "clusters": tally_homology([e["similarity"] for e in clusters], thresholds),
            "biclusters": tally_homology([e["similarity"] for e in biclusters], thresholds),
        },
    }


def tally_to_csv(tally: dict) -> str:
    """Threshold/clusters/biclusters rows, mirroring the comparison table."""
    rows = zip(tally["thresholds"], tally["clusters"], tally["biclusters"])
    lines = ["threshold,clusters,biclusters"]
    lines.extend(f"{t:.2f},{c},{b}" for t, c, b in rows)
    return "\n".join(lines) + "\n"
