"""Seeded inputs for the benchmark: planted-family corpora, planted-block
matrices and a fixed bicluster report. Needs only numpy; the same seed always
gives the same bytes. Run from the repo root, for example:

    python3 bench/gen.py corpus --seed 7 --n 600 --min-len 60 --max-len 240 \
        --families 5 --out .bench_work/corpus
    python3 bench/gen.py matrix --seed 7 --out .bench_work/planted.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

# 8-class structure pools in the style of tools/make_sample_corpus.py: helix,
# sheet and coil families. Blank is a legal 8-class code (read as coil) and
# never ends a line, where editors would strip it.
STRUCTURE_POOLS = ("HHHHHHGIT", "EEEEEEBTS", "TTSS HHEE")
FAVORED_MASS = 0.85
FAVORED_SIZE = 4


def family_alphabets(rng, n_families: int) -> list[str]:
    """Favored residues per family: consecutive slices of one shuffled
    alphabet, so up to five families share no favored letter."""
    perm = "".join(rng.permutation(list(AMINO_ACIDS)))
    return [
        "".join(perm[(FAVORED_SIZE * f + i) % len(perm)] for i in range(FAVORED_SIZE))
        for f in range(n_families)
    ]


def family_lengths(n_families: int, min_len: int, max_len: int):
    """Each family owns one band of the length range: members of a protein
    family have similar lengths, and the count windows scale with length."""
    edges = np.linspace(min_len, max_len, n_families + 1)
    return [(int(round(edges[f])), int(round(edges[f + 1]))) for f in range(n_families)]


def planted_corpus(seed: int, n: int, min_len: int, max_len: int, n_families: int):
    """Return (fasta_text, structure_text, families) for n sequences.

    Sequence i belongs to family i % n_families; families maps each id to its
    family index, which is the planted grouping.
    """
    rng = np.random.default_rng([seed, n, n_families])
    alphabets = family_alphabets(rng, n_families)
    bands = family_lengths(n_families, min_len, max_len)
    letters = np.array(list(AMINO_ACIDS))
    fasta, structs, families = [], [], {}
    for i in range(n):
        f = i % n_families
        lo, hi = bands[f]
        length = int(rng.integers(lo, hi + 1))
        favored = np.array(list(alphabets[f]))
        use_favored = rng.random(length) < FAVORED_MASS
        residues = np.where(use_favored,
                            favored[rng.integers(favored.size, size=length)],
                            letters[rng.integers(letters.size, size=length)])
        pool = np.array(list(STRUCTURE_POOLS[f % len(STRUCTURE_POOLS)]))
        ss8 = pool[rng.integers(pool.size, size=length)]
        if ss8[-1] == " ":
            ss8[-1] = "C"
        seq_id = f"f{f}_{i:05d}"
        families[seq_id] = f
        fasta.append(f">{seq_id} family {f}, synthetic\n{''.join(residues)}\n")
        structs.append(f">{seq_id}\n{''.join(ss8)}\n")
    return "".join(fasta), "".join(structs), families


def planted_matrix(seed: int, problem: int, n_rows: int = 400, n_cols: int = 20,
                   block_rows: int = 80, block_cols: int = 6):
    """Uniform [0, 1) noise holding one additive block r_i + c_j with r, c
    drawn from [1, 4), as in acceptance criterion 8, scaled up. Returns
    (matrix, planted_rows, planted_cols)."""
    rng = np.random.default_rng([seed, problem])
    m = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
    rows = np.sort(rng.choice(n_rows, size=block_rows, replace=False))
    cols = np.sort(rng.choice(n_cols, size=block_cols, replace=False))
    r = rng.uniform(1.0, 4.0, size=block_rows)
    c = rng.uniform(1.0, 4.0, size=block_cols)
    m[np.ix_(rows, cols)] = r[:, None] + c[None, :]
    return m, rows.tolist(), cols.tolist()


def bicluster_report(seed: int, families: dict, n_groups: int = 12,
                     min_size: int = 40, max_size: int = 160) -> dict:
    """A fixed report in the layout of `motifswarm bicluster` output: group g
    draws its rows from family g % n_families and keeps that family's most
    common letters plus two random ones as columns."""
    rng = np.random.default_rng([seed, n_groups])
    n_families = max(families.values()) + 1
    by_family = [[sid for sid, f in families.items() if f == fam]
                 for fam in range(n_families)]
    entries = []
    for g in range(n_groups):
        pool = by_family[g % n_families]
        size = int(rng.integers(min(min_size, len(pool)), min(max_size, len(pool)) + 1))
        rows = sorted(rng.choice(pool, size=size, replace=False).tolist())
        cols = "".join(sorted(set(rng.choice(list(AMINO_ACIDS), size=6, replace=False))))
        entries.append({"id": f"bicluster-{g:02d}", "rows": rows, "cols": cols,
                        "size": size})
    return {"seed": seed, "biclusters": entries}


def write_corpus(out: Path, seed: int, n: int, min_len: int, max_len: int,
                 n_families: int, report_groups: int = 0) -> dict:
    """Write sequences.fasta, structures.txt, families.json and, when
    report_groups > 0, biclusters.json under out; returns the family map."""
    out.mkdir(parents=True, exist_ok=True)
    fasta, structs, families = planted_corpus(seed, n, min_len, max_len, n_families)
    (out / "sequences.fasta").write_text(fasta, encoding="utf-8")
    (out / "structures.txt").write_text(structs, encoding="utf-8")
    (out / "families.json").write_text(json.dumps(families, sort_keys=True) + "\n",
                                       encoding="utf-8")
    if report_groups:
        report = bicluster_report(seed, families, report_groups)
        (out / "biclusters.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("corpus", help="planted-family FASTA plus 8-class structures")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--min-len", type=int, default=60)
    p.add_argument("--max-len", type=int, default=240)
    p.add_argument("--families", type=int, default=5)
    p.add_argument("--report-groups", type=int, default=0,
                   help="also write a fixed bicluster report with this many groups")
    p.add_argument("--out", required=True)
    p = sub.add_parser("matrix", help="planted additive block in uniform noise")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--problem", type=int, default=0)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.kind == "corpus":
        write_corpus(Path(args.out), args.seed, args.n, args.min_len, args.max_len,
                     args.families, args.report_groups)
    else:
        m, rows, cols = planted_matrix(args.seed, args.problem)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"matrix": m.tolist(), "rows": rows, "cols": cols}) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
