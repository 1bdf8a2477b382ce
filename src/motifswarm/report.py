"""Homology tallies and the clustering-vs-biclustering comparison.

A group (cluster or bicluster) is scored by the structure similarity of its
member sequences' profile; tallies count groups at or above each cutoff.
Note the deliberate asymmetry with metrics.homology_class: the tally uses >=
(the comparison table convention), the classifier uses strict >.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ContractError, ValidationError
from . import metrics
from .featurize import build_cluster_dataset, build_bicluster_matrix, structure_segments
from .pso import PsoConfig
from .psokmeans import pso_kmeans
from .psobiclust import default_lambda, pso_bicluster, seed_biclusters
from .seqio import AMINO_ACIDS, Corpus

DEFAULT_THRESHOLDS = (0.70, 0.65, 0.60)


@dataclass(frozen=True)
class HomologyTally:
    thresholds: tuple
    counts_clusters: tuple
    counts_biclusters: tuple


def tally_homology(groups, thresholds=DEFAULT_THRESHOLDS):
    """Count groups whose profile similarity reaches each cutoff.

    groups: iterable of (group_id, StructureProfile); thresholds must be
    sorted descending so counts grow down the list.
    """
    thresholds = tuple(thresholds)
    if list(thresholds) != sorted(thresholds, reverse=True):
        raise ContractError("thresholds must be sorted descending")
    sims = [metrics.structure_similarity(profile) for _, profile in groups]
    return [sum(1 for s in sims if s >= t) for t in thresholds]


def profile_for_members(corpus: Corpus, member_ids):
    segsets = [structure_segments(corpus.structure_for(mid)) for mid in member_ids]
    return metrics.build_profile(segsets)


def _group_entry(corpus, gid, member_ids):
    profile = profile_for_members(corpus, member_ids)
    similarity = metrics.structure_similarity(profile)
    return profile, {
        "id": gid,
        "members": list(member_ids),
        "size": len(member_ids),
        "similarity": similarity,
        "homology": metrics.homology_class(similarity),
    }


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
):
    """Run the clustering and the biclustering pipeline on one corpus and
    tally their structure homology side by side. Deterministic per seed."""
    if corpus.structures is None:
        raise ValidationError("corpus has no structure annotations")
    thresholds = tuple(thresholds)

    windows = build_cluster_dataset(corpus.sequences)
    ids = [s.id for s in corpus.sequences]

    swarm_cfg = PsoConfig(n_particles=n_particles, max_iter=max_iter,
                          w=w, c1=c1, c2=c2, seed=seed)
    cs = pso_kmeans(windows, k, swarm_cfg)
    cluster_profiles = []
    cluster_entries = []
    for c in range(cs.k):
        members = [ids[i] for i in cs.members(c)]
        if not members:
            continue
        profile, entry = _group_entry(corpus, f"cluster-{c:02d}", members)
        cluster_profiles.append((entry["id"], profile))
        cluster_entries.append(entry)

    matrix = build_bicluster_matrix(corpus.sequences, method=normalization)
    if lam is None:
        lam = default_lambda(matrix)
    seeds = seed_biclusters(matrix, k_rows, k_cols, swarm_cfg)
    bics = pso_bicluster(
        matrix,
        replace(swarm_cfg, n_particles=max(len(seeds), n_particles), seed=seed + 2),
        seeds,
        lam=lam,
    )
    bic_profiles = []
    bic_entries = []
    for b, bic in enumerate(bics):
        members = [ids[i] for i in bic.rows]
        profile, entry = _group_entry(corpus, f"bicluster-{b:02d}", members)
        entry["amino_acids"] = "".join(sorted(AMINO_ACIDS[c] for c in bic.cols))
        entry["msr"] = bic.msr
        entry["volume"] = bic.volume
        bic_profiles.append((entry["id"], profile))
        bic_entries.append(entry)

    tally = HomologyTally(
        thresholds=thresholds,
        counts_clusters=tuple(tally_homology(cluster_profiles, thresholds)),
        counts_biclusters=tuple(tally_homology(bic_profiles, thresholds)),
    )
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
        "clusters": cluster_entries,
        "biclusters": bic_entries,
        "tally": {
            "thresholds": list(tally.thresholds),
            "clusters": list(tally.counts_clusters),
            "biclusters": list(tally.counts_biclusters),
        },
    }


def tally_to_csv(tally) -> str:
    """Threshold/clusters/biclusters rows, mirroring the comparison table."""
    if isinstance(tally, HomologyTally):
        rows = zip(tally.thresholds, tally.counts_clusters, tally.counts_biclusters)
    else:
        rows = zip(tally["thresholds"], tally["clusters"], tally["biclusters"])
    lines = ["threshold,clusters,biclusters"]
    lines.extend(f"{t:.2f},{c},{b}" for t, c, b in rows)
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
