"""Cluster the frequency windows: plain k-means vs the swarm-driven variant.

Both minimize the same objective (total city-block distance to the assigned
centroid, divided by the cluster count). k-means descends from one seeding
and moves centroids to their members' means. The swarm searches over whole
centroid sets and snaps each particle to the medians of the partition it
induces (PSO k-medians), so it reaches a fixed point within a few
iterations and stops once its best fitness stalls.
"""

from motifswarm import Settings, kmeans_run, load_sample_corpus, pso_kmeans
from motifswarm.metrics import homology_class, structure_similarity
from motifswarm.report import corpus_windows, profile_for_members

# max_iter is a cap: the swarm stops 3 iterations after its last gain
SETTINGS = Settings(k=3, n_particles=30, max_iter=200, seed=7)

corpus = load_sample_corpus()
windows = corpus_windows(corpus, SETTINGS)  # (n, 9, 20), row i for ids[i]
ids = [s.id for s in corpus.sequences]

km = kmeans_run(windows, SETTINGS.k, SETTINGS.max_iter, SETTINGS.seed)
print(f"k-means:     fitness {km.final_fitness:8.2f}  "
      f"({km.iterations_run} iterations, converged: {km.converged})")

swarm = pso_kmeans(windows, SETTINGS.k, SETTINGS.swarm)
print(f"pso-k-means: fitness {swarm.final_fitness:8.2f}  "
      f"({swarm.iterations_run} iterations, converged: {swarm.converged}; "
      f"best partition cost per iteration):")
print("  " + "  ".join(f"{f:.2f}" for f in swarm.trace))

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
      f"--k {SETTINGS.k} --n-particles {SETTINGS.n_particles} "
      f"--max-iter {SETTINGS.max_iter} --seed {SETTINGS.seed} --out out/")
