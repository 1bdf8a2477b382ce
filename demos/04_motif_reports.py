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
    Settings,
    load_sample_corpus,
    pso_bicluster,
    seed_biclusters,
)
from motifswarm.featurize import normalize_windows
from motifswarm.motif import build_motif_report, position_frequencies, render_logo_svg
from motifswarm.report import corpus_windows

# One swarm setting for the row and (with the seed plus one) column
# clusterings, as the CLI runs them.
SETTINGS = Settings(k_rows=3, k_cols=2, n_particles=15, max_iter=80, seed=7)

corpus = load_sample_corpus()
windows = corpus_windows(corpus, SETTINGS)
matrix = normalize_windows(windows, SETTINGS.normalization)
seeds = seed_biclusters(matrix, SETTINGS.k_rows, SETTINGS.k_cols, SETTINGS.swarm)
results = pso_bicluster(matrix, SETTINGS.swarm, seeds)


def motif_set(bic):
    """The letters of the amino-acid columns a bicluster retained."""
    return frozenset(AMINO_ACIDS[c] for c in bic.cols)


def report_for(bic, gid):
    members = windows[list(bic.rows)]  # the group's rows of the (n, 9, 20) windows
    freqs = position_frequencies(members)
    # every block fills position 0, so its count is the group's block count
    n_segments = int(members[:, 0].sum())
    report = build_motif_report(gid, freqs, motif_set(bic), n_segments,
                                SETTINGS.saa_threshold, SETTINGS.logo_correction)
    return report, n_segments


print("relations per group (best-first):")
reports = []
for idx, bic in enumerate(results[:6]):
    report, n_segments = report_for(bic, f"group-{idx}")
    reports.append((report, bic, n_segments))
    relations = [pos["relation"] for pos in report["positions"]]
    motif = "".join(sorted(motif_set(bic)))
    print(f"  group-{idx}: {len(bic.rows):2d} seqs, motif {motif:<17s} "
          + " ".join(r[0] for r in relations))

# feature the group whose SAA actually overlaps its motif
report, bic, n_segments = max(
    reports,
    key=lambda t: sum(pos["relation"] != "Disjoint" for pos in t[0]["positions"]))
print(f"\n{report['group_id']}: {len(bic.rows)} sequences, {n_segments} segments, "
      f"motif {''.join(sorted(motif_set(bic)))}")
print(f"\n{'pos':>3s}  {'SAA':<10s} relation")
for pos in report["positions"]:
    print(f"{pos['position']:3d}  {pos['saa']:<10s} {pos['relation']}")

print("\nlogo column heights (bits):")
for pos in report["positions"]:
    bits = pos["logo"]["total_bits"]
    print(f"{pos['position']:3d}  {bits:5.2f}  {'#' * round(bits * 8)}")

out = Path("demo-output")
out.mkdir(exist_ok=True)
svg = out / f"{report['group_id']}.svg"
svg.write_text(render_logo_svg(report), encoding="utf-8")
print(f"\nwrote {svg}")
print("the CLI equivalent: motifswarm motifs --sample-corpus "
      f"--k-rows {SETTINGS.k_rows} --k-cols {SETTINGS.k_cols} "
      f"--n-particles {SETTINGS.n_particles} --max-iter {SETTINGS.max_iter} "
      f"--seed {SETTINGS.seed} --out out/")
