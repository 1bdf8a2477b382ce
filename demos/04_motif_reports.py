"""Turn biclusters into motif information and a sequence logo.

Per window position, the significant amino acids (SAA) are the letters whose
frequency inside the group exceeds 7%. The motif is the amino-acid column set
the bicluster retained; each position's SAA is a Full, Partial or Disjoint
superset match against it. The logo stacks letters scaled by information
content (up to log2(20) bits per column).

Mind the Disjoint rows: a group can cohere by consistently AVOIDING letters,
in which case the retained columns are exactly the ones its SAA never touches.
"""

from pathlib import Path

from motifswarm import (
    AMINO_ACIDS,
    PsoConfig,
    load_sample_corpus,
    pso_bicluster,
    seed_biclusters,
)
from motifswarm.featurize import build_cluster_dataset, normalize_windows
from motifswarm.motif import build_motif_report, position_frequencies, render_logo_svg

SEED = 7

corpus = load_sample_corpus()
windows = build_cluster_dataset(corpus.sequences)
matrix = normalize_windows(windows)
seeds = seed_biclusters(matrix, 3, 2, PsoConfig(n_particles=12, max_iter=40,
                                                seed=SEED))
results = pso_bicluster(matrix, PsoConfig(n_particles=15, max_iter=80,
                                          seed=SEED + 2), seeds)


def motif_set(bic):
    """The letters of the amino-acid columns a bicluster retained."""
    return frozenset(AMINO_ACIDS[c] for c in bic.cols)


def report_for(bic, gid):
    members = windows[list(bic.rows)]  # the group's rows of the (n, 9, 20) windows
    freqs = position_frequencies(members)
    # every block fills position 0, so its count is the group's block count
    n_segments = int(members[:, 0].sum())
    return build_motif_report(gid, freqs, motif_set(bic), n_segments), n_segments


print("relations per group (best-first):")
reports = []
for idx, bic in enumerate(results[:6]):
    report, n_segments = report_for(bic, f"group-{idx}")
    reports.append((report, bic, n_segments))
    relations = [r.relation for r in report.per_position]
    motif = "".join(sorted(motif_set(bic)))
    print(f"  group-{idx}: {len(bic.rows):2d} seqs, motif {motif:<17s} "
          + " ".join(r[0] for r in relations))

# feature the group whose SAA actually overlaps its motif
report, bic, n_segments = max(
    reports, key=lambda t: sum(r.relation != "Disjoint" for r in t[0].per_position))
print(f"\n{report.group_id}: {len(bic.rows)} sequences, {n_segments} segments, "
      f"motif {''.join(sorted(motif_set(bic)))}")
print(f"\n{'pos':>3s}  {'SAA':<10s} relation")
for rec in report.per_position:
    print(f"{rec.position:3d}  {''.join(sorted(rec.saa)):<10s} {rec.relation}")

print("\nlogo column heights (bits):")
for col in report.logo:
    bar = "#" * round(col.total_bits * 8)
    print(f"{col.position:3d}  {col.total_bits:5.2f}  {bar}")

out = Path("demo-output")
out.mkdir(exist_ok=True)
svg = out / f"{report.group_id}.svg"
svg.write_text(render_logo_svg(report), encoding="utf-8")
print(f"\nwrote {svg}")
print("the CLI equivalent: motifswarm motifs --sample-corpus "
      f"--k-rows 3 --k-cols 2 --seed {SEED} --out out/")
