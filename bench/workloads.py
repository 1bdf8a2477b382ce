"""The three benchmark workloads: their inputs, one operation, and the checks
on what the operation wrote.

Each workload is sized so that one layer of motifswarm does most of the work:

- compare-corpus: CLI `compare` on a planted-family corpus, the paper's
  headline experiment; swarm clustering (psokmeans) dominates.
- bicluster-planted: seed_biclusters + pso_bicluster on planted-block
  matrices; the MSR fitness inside psobiclust dominates.
- corpus-reports: CLI prepare, cluster --engine kmeans and motifs on a large
  corpus; no swarm at all, so parsing, featurization, CSV writing, k-means
  and logo rendering carry the run.

The operations reach the program only through `motifswarm.cli.main` and the
top-level `motifswarm` exports. The checks use plain Python and never import
the program, so a defect in it cannot hide a defect in the output.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

import gen

WINDOW_SIZE = 9
RECOVERY_JACCARD = 0.8

SIZES = {
    "compare-corpus": {
        "full": {"n": 150, "min_len": 60, "max_len": 240, "families": 5, "max_iter": 25},
        "tiny": {"n": 30, "min_len": 27, "max_len": 60, "families": 3, "max_iter": 2},
    },
    "bicluster-planted": {
        "full": {"problems": 1, "shape": [400, 20], "block": [80, 6],
                 "seeding": [10, 20], "refine": [40, 300]},
        "tiny": {"problems": 2, "shape": [40, 20], "block": [8, 6],
                 "seeding": [4, 3], "refine": [6, 5]},
    },
    "corpus-reports": {
        "full": {"n": 400, "min_len": 150, "max_len": 450, "families": 8,
                 "k": 8, "max_iter": 30, "groups": 12},
        "tiny": {"n": 48, "min_len": 27, "max_len": 90, "families": 8,
                 "k": 8, "max_iter": 3, "groups": 4},
    },
}


# ---------------------------------------------------------------- inputs

def prepare(name: str, work: Path, seed: int, size: str) -> dict:
    """Generate the workload's inputs under work; returns the JSON spec the
    worker and the checks read. Paths in the spec are relative to work, which
    is the worker's directory, so artifacts that echo them are the same bytes
    in every checkout."""
    params = SIZES[name][size]
    spec = {"workload": name, "seed": seed, "params": params}
    if name == "bicluster-planted":
        n_rows, n_cols = params["shape"]
        spec["matrices"], spec["planted"] = [], []
        for j in range(params["problems"]):
            m, rows, cols = gen.planted_matrix(seed, j, n_rows, n_cols, *params["block"])
            np.save(work / f"matrix{j}.npy", m)
            spec["matrices"].append(f"matrix{j}.npy")
            spec["planted"].append({"rows": rows, "cols": cols})
        spec["n_items"] = params["problems"] * n_rows
        return spec
    groups = params.get("groups", 0)
    spec["families"] = gen.write_corpus(work / "corpus", seed, params["n"], params["min_len"],
                                        params["max_len"], params["families"], groups)
    spec["fasta"] = "corpus/sequences.fasta"
    spec["structures"] = "corpus/structures.txt"
    if groups:
        spec["biclusters"] = "corpus/biclusters.json"
    spec["n_items"] = params["n"]
    return spec


def rebase(spec: dict, work: Path) -> dict:
    """The spec with its input paths made absolute under work."""
    out = dict(spec)
    for key in ("fasta", "structures", "biclusters"):
        if key in out:
            out[key] = str(work / out[key])
    if "matrices" in out:
        out["matrices"] = [str(work / m) for m in out["matrices"]]
    return out


# ------------------------------------------------------------ operations

def run_op(spec: dict, out: Path) -> int:
    """One operation of the workload, writing its artifacts under out.
    Returns the exit code; imports the program, so only the worker calls it."""
    name, params = spec["workload"], spec["params"]
    if name == "bicluster-planted":
        return _op_bicluster(spec, params, out)
    from motifswarm import cli

    io_flags = ["--sequences", spec["fasta"], "--structures", spec["structures"],
                "--out", str(out)]
    if name == "compare-corpus":
        return cli.main(["compare", *io_flags, "--max-iter", str(params["max_iter"])])
    for argv in (["prepare", *io_flags, "--normalization", "mode"],
                 ["cluster", *io_flags, "--engine", "kmeans", "--k", str(params["k"]),
                  "--max-iter", str(params["max_iter"])],
                 ["motifs", *io_flags, "--biclusters", spec["biclusters"]]):
        code = cli.main(argv)
        if code:
            return code
    return 0


def _op_bicluster(spec: dict, params: dict, out: Path) -> int:
    import motifswarm as ms

    problems = []
    for j, path in enumerate(spec["matrices"]):
        m = np.load(path)
        seeds = ms.seed_biclusters(m, 2, 2, ms.PsoConfig(*params["seeding"], seed=j))
        bics = ms.pso_bicluster(m, ms.PsoConfig(*params["refine"], seed=j), seeds)
        problems.append({
            "problem": j,
            "seeds": len(seeds),
            "biclusters": [{"rows": list(b.rows), "cols": list(b.cols),
                            "msr": b.msr, "volume": b.volume} for b in bics],
        })
    out.mkdir(parents=True, exist_ok=True)
    (out / "biclusters.json").write_text(
        json.dumps(problems, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------- checks

def msr_oracle(matrix, rows, cols) -> float:
    """Mean squared residue by plain loops (Cheng & Church 2000)."""
    row_mean = {i: sum(matrix[i][j] for j in cols) / len(cols) for i in rows}
    col_mean = {j: sum(matrix[i][j] for i in rows) / len(rows) for j in cols}
    overall = sum(row_mean.values()) / len(rows)
    total = 0.0
    for i in rows:
        for j in cols:
            r = matrix[i][j] - row_mean[i] - col_mean[j] + overall
            total += r * r
    return total / (len(rows) * len(cols))


def _check_bicluster(errors: list, where: str, matrix, rows, cols, msr, volume):
    if not rows or not cols:
        errors.append(f"{where}: empty row or column set")
        return
    if volume != len(rows) * len(cols):
        errors.append(f"{where}: volume {volume} != {len(rows)} x {len(cols)}")
    expected = msr_oracle(matrix, rows, cols)
    if not math.isclose(msr, expected, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"{where}: msr {msr!r} != plain-loop residue {expected!r}")


def _check_partition(errors: list, where: str, groups, ids):
    seen = Counter(m for members in groups for m in members)
    missing = set(ids) - set(seen)
    repeated = [m for m, c in seen.items() if c != 1]
    unknown = set(seen) - set(ids)
    if missing or repeated or unknown:
        errors.append(f"{where}: clusters do not partition the ids once "
                      f"(missing {len(missing)}, repeated {len(repeated)}, "
                      f"unknown {len(unknown)})")


def read_fasta(path: str) -> dict:
    seqs, current = {}, None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith(">"):
            current = line[1:].split()[0]
            seqs[current] = []
        elif line.strip():
            seqs[current].append(line.strip())
    return {k: "".join(v) for k, v in seqs.items()}


def mean_matrix(seqs: dict) -> tuple[list, list]:
    """The 'mean'-normalized sequence x amino-acid matrix: with chunked
    windows every residue lands in exactly one block position, so each
    column mean is the letter's count divided by the window size."""
    ids = list(seqs)
    rows = []
    for sid in ids:
        counts = Counter(seqs[sid])
        rows.append([counts[aa] / WINDOW_SIZE for aa in gen.AMINO_ACIDS])
    return ids, rows


def check(spec: dict, out: Path) -> list[str]:
    """Every correctness check of one operation's artifacts; returns the
    failures, empty when the output is correct."""
    errors: list[str] = []
    try:
        CHECKS[spec["workload"]](spec, out, errors)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        errors.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return errors


def _check_compare(spec, out, errors):
    report = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    seqs = read_fasta(spec["fasta"])
    ids, matrix = mean_matrix(seqs)
    _check_partition(errors, "compare clusters",
                     [c["members"] for c in report["clusters"]], ids)
    index = {sid: i for i, sid in enumerate(ids)}
    for b in report["biclusters"]:
        rows = sorted(index[m] for m in b["members"])
        cols = sorted(gen.AMINO_ACIDS.index(a) for a in b["amino_acids"])
        _check_bicluster(errors, b["id"], matrix, rows, cols, b["msr"], b["volume"])
    tally = report["tally"]
    if tally["thresholds"] != sorted(tally["thresholds"], reverse=True):
        errors.append("tally thresholds are not descending")
    for side in ("clusters", "biclusters"):
        if any(a > b for a, b in zip(tally[side], tally[side][1:])):
            errors.append(f"tally {side} counts decrease down the thresholds")
    csv_rows = (out / "tally.csv").read_text(encoding="utf-8").splitlines()
    if len(csv_rows) != len(tally["thresholds"]) + 1:
        errors.append("tally.csv row count does not match the thresholds")


def _check_bicluster_planted(spec, out, errors):
    problems = json.loads((out / "biclusters.json").read_text(encoding="utf-8"))
    if len(problems) != len(spec["matrices"]):
        errors.append("one result per planted matrix expected")
    for p in problems:
        matrix = np.load(spec["matrices"][p["problem"]]).tolist()
        if not p["biclusters"]:
            errors.append(f"problem {p['problem']}: no bicluster returned")
        for k, b in enumerate(p["biclusters"]):
            _check_bicluster(errors, f"problem {p['problem']} bicluster {k}", matrix,
                             b["rows"], b["cols"], b["msr"], b["volume"])


def _check_reports(spec, out, errors):
    ids = list(read_fasta(spec["fasta"]))
    windows = (out / "windows.csv").read_text(encoding="utf-8").splitlines()[1:]
    per_seq = Counter(line.split(",", 1)[0] for line in windows)
    if set(per_seq) != set(ids) or any(c != WINDOW_SIZE for c in per_seq.values()):
        errors.append(f"windows.csv must hold {WINDOW_SIZE} rows per sequence")
    matrix = (out / "matrix.csv").read_text(encoding="utf-8").splitlines()[1:]
    if [line.split(",", 1)[0] for line in matrix] != ids:
        errors.append("matrix.csv must hold one row per sequence, in input order")
    clusters = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
    _check_partition(errors, "kmeans clusters",
                     [c["members"] for c in clusters["clusters"]], ids)
    groups = [g["id"] for g in json.loads(
        Path(spec["biclusters"]).read_text(encoding="utf-8"))["biclusters"]]
    listed = json.loads((out / "motifs" / "motifs.json").read_text(encoding="utf-8"))
    if listed["groups"] != groups:
        errors.append("motifs.json does not list every input group")
    for gid in groups:
        report = json.loads((out / "motifs" / f"{gid}.json").read_text(encoding="utf-8"))
        if len(report["report"]["positions"]) != WINDOW_SIZE:
            errors.append(f"{gid}: report needs {WINDOW_SIZE} positions")
        root = ET.fromstring((out / "motifs" / f"{gid}.svg").read_text(encoding="utf-8"))
        if not root.tag.endswith("svg"):
            errors.append(f"{gid}.svg root element is {root.tag}")


CHECKS = {
    "compare-corpus": _check_compare,
    "bicluster-planted": _check_bicluster_planted,
    "corpus-reports": _check_reports,
}


# -------------------------------------------------------------- recovery

def _jaccard(a, b) -> float:
    a, b = set(a), set(b)
    return len(a & b) / len(a | b)


def recovery_rate(spec: dict, out: Path) -> float:
    """Share of planted groups recovered at Jaccard >= 0.8 (acceptance
    criterion 8): the planted block by the best bicluster, on rows and on
    columns; or the planted families by the output clusters."""
    if spec["workload"] == "bicluster-planted":
        problems = json.loads((out / "biclusters.json").read_text(encoding="utf-8"))
        hits = 0
        for p, planted in zip(problems, spec["planted"]):
            best = p["biclusters"][0]
            hits += (_jaccard(best["rows"], planted["rows"]) >= RECOVERY_JACCARD
                     and _jaccard(best["cols"], planted["cols"]) >= RECOVERY_JACCARD)
        return hits / len(spec["planted"])
    name = "compare.json" if spec["workload"] == "compare-corpus" else "clusters.json"
    clusters = json.loads((out / name).read_text(encoding="utf-8"))["clusters"]
    families: dict = {}
    for sid, f in spec["families"].items():
        families.setdefault(f, []).append(sid)
    hits = sum(any(_jaccard(c["members"], members) >= RECOVERY_JACCARD
                   for c in clusters if c["members"])
               for members in families.values())
    return hits / len(families)
