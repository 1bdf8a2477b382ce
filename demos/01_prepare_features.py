"""From raw sequences to the two working representations.

Every sequence becomes a 9 x 20 window: the sequence is folded into
consecutive 9-residue blocks and row i counts which amino acid sits at block
position i. A corpus's windows are one (n, 9, 20) count array, row i for
sequence i. Collapsing each window column-by-column then gives one 20-element
row of the matrix that the biclustering stage consumes.
"""

import numpy as np

from motifswarm import AMINO_ACIDS, Settings, load_sample_corpus
from motifswarm.featurize import normalize_windows
from motifswarm.report import corpus_windows

SETTINGS = Settings()  # the defaults of every command

corpus = load_sample_corpus()
print(f"sample corpus: {len(corpus.sequences)} sequences, "
      f"structures: {corpus.structures is not None}")

seq = corpus.sequences[0]
print(f"\nfirst sequence {seq.id!r} ({len(seq)} residues):")
print(f"  {seq.residues}")

windows = corpus_windows(corpus, SETTINGS)  # row i belongs to sequence i
window = windows[0]
print(f"\nits frequency window has shape {window.shape}; "
      f"each row sums to the block count:")
for i in range(3):
    top = np.argsort(window[i])[::-1][:3]
    letters = ", ".join(f"{AMINO_ACIDS[j]}x{window[i, j]}" for j in top)
    print(f"  position {i + 1}: {letters}, row sum {window[i].sum()}")

row = normalize_windows(windows[:1], SETTINGS.normalization)[0]
print("\nmean-normalized row (first 8 columns):")
print("  " + "  ".join(f"{AMINO_ACIDS[j]}={row[j]:.2f}" for j in range(8)))

matrix = normalize_windows(windows, SETTINGS.normalization)
print(f"\nover the corpus: windows {windows.shape}, bicluster matrix "
      f"{matrix.shape}, values in [{matrix.min():.2f}, {matrix.max():.2f}]")
print("the CLI equivalent: motifswarm prepare --sample-corpus --out out/")
