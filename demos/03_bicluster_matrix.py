"""Bicluster the sequence x amino-acid matrix with binary PSO.

A bicluster keeps a subset of sequences AND a subset of amino-acid columns;
its quality is the mean squared residue (0 for a perfectly additive block).
The swarm starts from seeds built by clustering rows and columns separately,
then flips membership bits through a sigmoid of real-valued velocities. The
fitness rewards volume, so the search resists collapsing into the trivially
coherent one-column submatrices.
"""

from motifswarm import (
    AMINO_ACIDS,
    PsoConfig,
    default_lambda,
    load_sample_corpus,
    pso_bicluster,
    seed_biclusters,
)
from motifswarm.featurize import build_cluster_dataset, normalize_windows

SEED = 7

corpus = load_sample_corpus()
matrix = normalize_windows(build_cluster_dataset(corpus.sequences))
ids = [s.id for s in corpus.sequences]

lam = default_lambda(matrix)
print(f"matrix {matrix.shape}, volume reward weight {lam:.4f} "
      "(0.1 x full-matrix MSR)")

seeds = seed_biclusters(matrix, 3, 2, PsoConfig(n_particles=12, max_iter=40,
                                                seed=SEED))
print(f"\n{len(seeds)} seeds from crossing 3 row clusters with 2 column clusters:")
for s in seeds:
    print(f"  {len(s.rows):2d} x {len(s.cols):2d}  MSR {s.msr:.4f}")

results = pso_bicluster(matrix, PsoConfig(n_particles=15, max_iter=80, seed=SEED + 2),
                        seeds, lam=lam)
print(f"\n{len(results)} distinct biclusters after refinement (best first):")
for bic in results[:5]:
    letters = "".join(AMINO_ACIDS[c] for c in bic.cols)
    rows = ", ".join(ids[r] for r in bic.rows[:4])
    more = "..." if len(bic.rows) > 4 else ""
    print(f"  {len(bic.rows):2d} seqs x {letters:<12s} MSR {bic.msr:.4f} "
          f"volume {bic.volume:3d}  [{rows}{more}]")

print("\nthe CLI equivalent: motifswarm bicluster --sample-corpus "
      f"--k-rows 3 --k-cols 2 --seed {SEED} --out out/")
