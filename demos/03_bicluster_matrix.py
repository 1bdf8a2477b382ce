"""Bicluster the sequence x amino-acid matrix with PSO k-means.

A bicluster keeps a subset of sequences AND a subset of amino-acid columns;
its quality is the mean squared residue (0 for a perfectly additive block).
PSO k-means clusters the rows and the columns separately, and crossing the
two partitions gives the biclusters. They are ranked by MSR minus a volume
reward, so of two equally coherent blocks the larger comes first.
"""

from motifswarm import (
    AMINO_ACIDS,
    Settings,
    default_lambda,
    load_sample_corpus,
    pso_bicluster,
    seed_biclusters,
)
from motifswarm.featurize import normalize_windows
from motifswarm.report import corpus_windows

# One swarm setting, as the CLI's flags give it: the row swarm runs on it and
# the column swarm on the same with the seed plus one.
SETTINGS = Settings(k_rows=3, k_cols=2, n_particles=15, max_iter=80, seed=7)

corpus = load_sample_corpus()
matrix = normalize_windows(corpus_windows(corpus, SETTINGS), SETTINGS.normalization)
ids = [s.id for s in corpus.sequences]

lam = default_lambda(matrix)
print(f"matrix {matrix.shape}, volume reward weight {lam:.4f} "
      "(0.1 x full-matrix MSR)")

seeds = seed_biclusters(matrix, SETTINGS.k_rows, SETTINGS.k_cols, SETTINGS.swarm)
results = pso_bicluster(matrix, SETTINGS.swarm, seeds, lam=lam)
print(f"\n{len(results)} biclusters from crossing {SETTINGS.k_rows} row clusters with "
      f"{SETTINGS.k_cols} column clusters, ranked (best first):")
for bic in results:
    letters = "".join(AMINO_ACIDS[c] for c in bic.cols)
    rows = ", ".join(ids[r] for r in bic.rows[:4])
    more = "..." if len(bic.rows) > 4 else ""
    print(f"  {len(bic.rows):2d} seqs x {letters:<12s} MSR {bic.msr:.4f} "
          f"volume {bic.volume:3d}  [{rows}{more}]")

print("\nthe CLI equivalent: motifswarm bicluster --sample-corpus "
      f"--k-rows {SETTINGS.k_rows} --k-cols {SETTINGS.k_cols} "
      f"--n-particles {SETTINGS.n_particles} --max-iter {SETTINGS.max_iter} "
      f"--seed {SETTINGS.seed} --out out/")
