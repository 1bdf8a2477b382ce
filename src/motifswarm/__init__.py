"""Protein sequence motif extraction via swarm-optimized clustering.

Sequences become 9 x 20 positional amino-acid frequency windows; those are
clustered with PSO-driven k-means, a normalized sequence x amino-acid matrix
is biclustered by crossing PSO k-means clusterings of its rows and of its
columns, and groups are scored by secondary-structure homology and
summarized as SAA/motif reports with sequence logos.
"""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    InputError,
    LinkError,
    MotifswarmError,
    ParseError,
    ValidationError,
)
from .seqio import AMINO_ACIDS, Corpus, load_corpus, load_sample_corpus
from .featurize import build_cluster_dataset
from .metrics import homology_class, msr, structure_similarity
from .kmeans import ClusterSet, kmeans_run
from .pso import PsoConfig, pso_optimize
from .psokmeans import pso_kmeans
from .psobiclust import Bicluster, default_lambda, pso_bicluster, seed_biclusters
from .motif import build_motif_report, render_logo_svg, significant_amino_acids
from .report import Settings, compare_pipelines, tally_homology

__all__ = [
    "__version__",
    "MotifswarmError",
    "ContractError",
    "InputError",
    "ParseError",
    "ValidationError",
    "LinkError",
    "AMINO_ACIDS",
    "Corpus",
    "load_corpus",
    "load_sample_corpus",
    "build_cluster_dataset",
    "msr",
    "structure_similarity",
    "homology_class",
    "ClusterSet",
    "kmeans_run",
    "PsoConfig",
    "pso_optimize",
    "pso_kmeans",
    "Bicluster",
    "default_lambda",
    "seed_biclusters",
    "pso_bicluster",
    "significant_amino_acids",
    "build_motif_report",
    "render_logo_svg",
    "Settings",
    "compare_pipelines",
    "tally_homology",
]
