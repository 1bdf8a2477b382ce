"""Clusters vs biclusters, scored by secondary-structure homology.

Each group's member structures are folded into a per-position class profile;
its similarity is the mean per-position dominant-class frequency. The tally
counts groups at or above each cutoff. The point of biclustering here is that
dropping uninformative amino-acid columns tends to leave groups whose members
agree more on structure.
"""

from motifswarm import Settings, compare_pipelines, load_sample_corpus
from motifswarm.report import tally_to_csv

corpus = load_sample_corpus()
report = compare_pipelines(corpus, Settings(k=4, k_rows=3, k_cols=2,
                                            n_particles=15, max_iter=60, seed=7))

print(f"{len(report['clusters'])} clusters:")
for entry in report["clusters"]:
    print(f"  {entry['id']}: {entry['size']:2d} members, "
          f"similarity {entry['similarity']:.3f} ({entry['homology']})")

print(f"\n{len(report['biclusters'])} biclusters:")
for entry in report["biclusters"][:6]:
    print(f"  {entry['id']}: {entry['size']:2d} members x {entry['amino_acids']:<12s} "
          f"similarity {entry['similarity']:.3f} ({entry['homology']})")

print("\nhomology tally (groups at or above each cutoff):")
print(tally_to_csv(report["tally"]))
print("the CLI equivalent: motifswarm compare --sample-corpus --seed 7 --out out/")
