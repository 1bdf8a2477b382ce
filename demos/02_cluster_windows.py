"""Cluster the frequency windows: plain k-means vs the swarm-driven variant.

Both minimize the same objective (total city-block distance to the assigned
centroid, divided by the cluster count). k-means descends from one seeding;
the swarm searches over whole centroid sets and its best-seen fitness can
only improve, so its trace is worth watching.
"""

from motifswarm import PsoConfig, kmeans_run, load_sample_corpus, pso_kmeans
from motifswarm.featurize import build_cluster_dataset
from motifswarm.metrics import homology_class, structure_similarity
from motifswarm.report import profile_for_members

K = 3
SEED = 7
# 180-dimensional centroids need a real budget before the swarm moves
SWARM = PsoConfig(n_particles=30, max_iter=200, seed=SEED)

corpus = load_sample_corpus()
windows = build_cluster_dataset(corpus.sequences)  # (n, 9, 20), row i for ids[i]
ids = [s.id for s in corpus.sequences]

km = kmeans_run(windows, K, seed=SEED)
print(f"k-means:     fitness {km.final_fitness:8.2f}  "
      f"({km.iterations_run} iterations, converged: {km.converged})")

swarm = pso_kmeans(windows, K, SWARM)
print(f"pso-k-means: fitness {swarm.final_fitness:8.2f}  "
      f"(best fitness per iteration, every 25th):")
print("  " + "  ".join(f"{f:.2f}" for f in swarm.trace[::25]))

print("\nswarm clusters, scored by secondary-structure homology:")
for c in range(swarm.k):
    members = [ids[i] for i in swarm.members(c)]
    if not members:
        print(f"  cluster {c}: empty")
        continue
    sim = structure_similarity(profile_for_members(corpus, members))
    print(f"  cluster {c}: {len(members):2d} members, similarity {sim:.3f} "
          f"({homology_class(sim)})  e.g. {', '.join(members[:4])}")

print("\nthe CLI equivalent: motifswarm cluster --sample-corpus --engine pso-kmeans "
      f"--k {K} --n-particles {SWARM.n_particles} --max-iter {SWARM.max_iter} "
      f"--seed {SEED} --out out/")
