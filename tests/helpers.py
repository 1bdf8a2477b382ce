"""Shared test utilities: brute-force oracles and synthetic data builders.

The oracles are deliberately written with plain Python loops so they share no
code path with the library implementations they check.
"""

from __future__ import annotations

import numpy as np

from motifswarm.seqio import AMINO_ACIDS, SS3_CLASSES, Sequence


def cityblock_oracle(a, b) -> float:
    """Double-loop sum of absolute differences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = 0.0
    for i in range(a.shape[0]):
        if a.ndim == 1:
            total += abs(a[i] - b[i])
        else:
            for j in range(a.shape[1]):
                total += abs(a[i, j] - b[i, j])
    return total


def intra_cluster_fitness(data, labels, centroids) -> float:
    """Item-to-centroid city-block distances summed one item at a time, over
    the number of clusters: an empty cluster adds nothing but still counts.
    Each distance is numpy's sum of |item - centroid|, as the library's
    kernels sum a row, so the result matches them bit for bit."""
    total = 0.0
    for item, label in zip(data, labels):
        diff = np.asarray(item, dtype=float) - np.asarray(centroids[label], dtype=float)
        total += float(np.abs(diff).sum())
    return total / len(centroids)


def kmeans_pp_oracle(flat, k, rng) -> list[int]:
    """The indices of k k-means++ picks, as a plain loop: each round weights
    every unchosen item by its squared city-block distance to the nearest
    chosen one, recomputed every round, and picks uniformly among the
    unchosen items once every weight is 0. Draws from rng as
    kmeans._seed_weighted does; on integer data its sums are exact."""
    n = len(flat)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        weights = np.zeros(n)
        for i in range(n):
            if i not in chosen:
                weights[i] = min(cityblock_oracle(flat[i], flat[c]) for c in chosen) ** 2
        total = sum(weights)
        if total == 0.0:
            chosen.append(int(rng.choice([i for i in range(n) if i not in chosen])))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return chosen


def lower_median_oracle(flat, centroids, labels):
    """The (P, k, d) centroids after the median step, one value at a time:
    each centroid's column j becomes the ((m - 1) // 2)-th smallest of the
    column-j values of its m members, found by a plain selection sort; a
    centroid with no members is copied as it is."""
    out = np.array(centroids, dtype=float)
    for p in range(out.shape[0]):
        for c in range(out.shape[1]):
            members = [i for i in range(len(flat)) if labels[i][p] == c]
            if not members:
                continue
            for j in range(out.shape[2]):
                values = [float(flat[i][j]) for i in members]
                for a in range(len(values)):
                    low = min(range(a, len(values)), key=lambda b: values[b])
                    values[a], values[low] = values[low], values[a]
                out[p, c, j] = values[(len(members) - 1) // 2]
    return out


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Hubert & Arabie's adjusted Rand index of two labelings of the same
    items, from plain pair counts; 1.0 when both are one cluster."""
    n = len(labels_a)
    table, rows, cols = {}, {}, {}
    for a, b in zip(labels_a, labels_b):
        table[a, b] = table.get((a, b), 0) + 1
        rows[a] = rows.get(a, 0) + 1
        cols[b] = cols.get(b, 0) + 1

    def pairs(counts):
        return sum(m * (m - 1) / 2 for m in counts.values())

    both, in_a, in_b = pairs(table), pairs(rows), pairs(cols)
    expected = in_a * in_b / (n * (n - 1) / 2) if n > 1 else 0.0
    top = (in_a + in_b) / 2
    return 1.0 if top == expected else (both - expected) / (top - expected)


def planted_family_corpus(seed, n=150, length=150, n_families=5):
    """n sequences of one length in n_families planted families, as
    bench/gen.py plants them: sequence i is in family i % n_families, whose
    4 favoured letters are a slice of one shuffled alphabet, and each residue
    is a favoured letter with probability 0.85, else any of the 20. With one
    length, composition is the only signal. Returns (sequences, families)."""
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(list(AMINO_ACIDS))
    sequences, families = [], []
    for i in range(n):
        f = i % n_families
        favoured = shuffled[4 * f:4 * f + 4]
        residues = np.where(rng.random(length) < 0.85,
                            favoured[rng.integers(0, 4, size=length)],
                            rng.choice(list(AMINO_ACIDS), size=length))
        sequences.append(Sequence(f"f{f}_{i}", "".join(residues)))
        families.append(f)
    return sequences, families


def msr_oracle(matrix, rows, cols) -> float:
    """Quadruple-average mean squared residue, loops only."""
    rows = list(rows)
    cols = list(cols)
    row_mean = {}
    for i in rows:
        row_mean[i] = sum(matrix[i][j] for j in cols) / len(cols)
    col_mean = {}
    for j in cols:
        col_mean[j] = sum(matrix[i][j] for i in rows) / len(rows)
    overall = sum(matrix[i][j] for i in rows for j in cols) / (len(rows) * len(cols))
    total = 0.0
    for i in rows:
        for j in cols:
            residue = matrix[i][j] - row_mean[i] - col_mean[j] + overall
            total += residue * residue
    return total / (len(rows) * len(cols))


def pso_oracle(fitness, init_positions, init_velocities, cfg, rng, v_max, window):
    """The swarm engine as an allocating loop: every step builds fresh arrays,
    with the velocity update written as one expression, np.clip and x + v.
    The loop ends after max_iter iterations, or after the first iteration
    past window none of whose last window iterations lowered gbest. Returns
    the position array scored at each iteration, the gbest position, the
    history and whether gbest stalled."""
    positions = np.array(init_positions, dtype=float)
    velocities = np.array(init_velocities, dtype=float)
    n, dim = positions.shape
    pbest_pos = positions.copy()
    pbest_fit = [np.inf] * n
    gbest_pos = positions[0].copy()
    gbest_fit = np.inf
    history = []
    scored = []
    converged = False
    for t in range(1, cfg.max_iter + 1):
        scored.append(positions)
        current = fitness(positions)
        for i in range(n):
            if current[i] < pbest_fit[i]:
                pbest_fit[i] = float(current[i])
                pbest_pos[i] = positions[i]
        best = min(range(n), key=lambda i: pbest_fit[i])
        if pbest_fit[best] < gbest_fit:
            gbest_fit = pbest_fit[best]
            gbest_pos = pbest_pos[best].copy()
        history.append(gbest_fit)
        if t > window:
            converged = True
            for u in range(t - window, t):
                if history[u] < history[u - 1]:
                    converged = False
        if converged or t == cfg.max_iter:
            break
        velocities = (cfg.w * velocities
                      + cfg.c1 * rng.random((n, dim)) * (pbest_pos - positions)
                      + cfg.c2 * rng.random((n, dim)) * (gbest_pos - positions))
        velocities = np.clip(velocities, -v_max, v_max)
        positions = positions + velocities
    return {"scored": scored, "gbest_position": gbest_pos, "history": history,
            "converged": converged}


def planted_matrix(seed=0):
    """A 40 x 20 uniform [0, 1) matrix with an additive 8 x 6 block planted
    in rows 5-12 and columns 3-8; returns it with the block's row and column
    sets."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0, 1, size=(40, 20))
    rows = np.arange(5, 13)
    cols = np.arange(3, 9)
    r = rng.uniform(1, 4, size=rows.size)
    c = rng.uniform(1, 4, size=cols.size)
    m[np.ix_(rows, cols)] = r[:, None] + c[None, :]
    return m, set(rows.tolist()), set(cols.tolist())


def window_counts_oracle(residues, window_size, scheme="chunked"):
    """window_size x 20 counts, one residue at a time: every block (chunked)
    or every stride-1 window (sliding) adds its i-th residue to row i."""
    counts = [[0] * len(AMINO_ACIDS) for _ in range(window_size)]
    if scheme == "chunked":
        starts = range(0, len(residues), window_size)
    else:
        starts = range(0, len(residues) - window_size + 1)
    for start in starts:
        for i, aa in enumerate(residues[start : start + window_size]):
            counts[i][AMINO_ACIDS.index(aa)] += 1
    return np.array(counts)


def column_mode_oracle(values):
    """Most frequent value of a list, ties resolved to the smallest."""
    freq = {}
    for v in values:
        freq[v] = freq.get(v, 0) + 1
    best = None
    for v in sorted(freq):
        if best is None or freq[v] > freq[best]:
            best = v
    return best


def normalize_oracle(counts, method):
    """20-element row of one window, one column at a time."""
    counts = np.asarray(counts)
    row = []
    for j in range(counts.shape[1]):
        column = [int(v) for v in counts[:, j]]
        if method == "mean":
            row.append(sum(column) / len(column))
        elif method == "range":
            row.append(float(max(column) - min(column)))
        else:
            row.append(float(column_mode_oracle(column)))
    return np.array(row)


def ss3_oracle(ss8):
    """H/E/C collapse, one character at a time: an uppercased H, G or I is a
    helix, B or E a sheet, anything else a coil."""
    out = []
    for c in ss8:
        upper = c.upper()
        out.append("H" if upper in ("H", "G", "I") else "E" if upper in ("B", "E") else "C")
    return "".join(out)


def first_bad_residue_oracle(body):
    """(character, 1-based position) of the first character of a record body
    that is not one of the 20 letters in either case, or None. A non-ASCII
    character is named as written; an ASCII one as uppercased."""
    for pos, c in enumerate(body, start=1):
        if not c.isascii():
            return c, pos
        upper = c.upper()
        if upper not in AMINO_ACIDS:
            return upper, pos
    return None


def profile_oracle(segments):
    """ws x 3 per-position H/E/C frequencies over equal-length segments."""
    ws = len(segments[0])
    counts = [[0] * len(SS3_CLASSES) for _ in range(ws)]
    for seg in segments:
        for i, label in enumerate(seg):
            counts[i][SS3_CLASSES.index(label)] += 1
    return np.array(counts) / len(segments)


def segment_counts_oracle(structure, window_size=9):
    """window_size x 3 per-position H/E/C counts over a structure string's
    complete segments, one label at a time."""
    counts = [[0] * len(SS3_CLASSES) for _ in range(window_size)]
    for start in range(0, len(structure) - window_size + 1, window_size):
        for i, label in enumerate(structure[start : start + window_size]):
            counts[i][SS3_CLASSES.index(label)] += 1
    return np.array(counts)


def csv_oracle(header, rows):
    """CSV text with every cell written by str, one row at a time."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(map(str, row)) + "\n"
    return text


def random_sequence(rng, length, alphabet=AMINO_ACIDS, seq_id="s"):
    residues = "".join(rng.choice(list(alphabet), size=length))
    return Sequence(id=seq_id, residues=residues)


def make_blobs(rng, centers, n_per_blob, sigma):
    """Gaussian blobs around the given centers; returns (items, labels)."""
    centers = np.asarray(centers, dtype=float)
    items = []
    labels = []
    for b, center in enumerate(centers):
        pts = rng.normal(loc=center, scale=sigma, size=(n_per_blob, centers.shape[1]))
        items.extend(pts)
        labels.extend([b] * n_per_blob)
    return np.array(items), np.array(labels)


def partitions_match(labels_a, labels_b) -> bool:
    """True when two labelings induce the same partition (up to renaming)."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    forward = {}
    backward = {}
    for a, b in zip(labels_a, labels_b):
        if forward.setdefault(a, b) != b:
            return False
        if backward.setdefault(b, a) != a:
            return False
    return True


def structure_string(rng, length, probs):
    """Random 8-class structure string; probs maps 3-class labels to weights."""
    pools = {"H": "HGI", "E": "BE", "C": "TSC"}
    labels = rng.choice(list(probs.keys()), size=length, p=list(probs.values()))
    return "".join(rng.choice(list(pools[lab])) for lab in labels)


def planted_structure_corpus(rng, n_per_class, length=27):
    """Sequences in classes with biased residue usage and structure purity.

    Returns (sequences, structures), structures mapping each id to its H/E/C
    string. Each class draws most residues from its own small alphabet and
    most structure labels from its own class; the last class is structurally
    mixed, which dilutes any cluster it lands in.
    """
    classes = [
        {"alphabet": "AELK", "probs": {"H": 0.85, "E": 0.05, "C": 0.10}},
        {"alphabet": "VITY", "probs": {"H": 0.05, "E": 0.85, "C": 0.10}},
        {"alphabet": "GPSN", "probs": {"H": 0.34, "E": 0.33, "C": 0.33}},
    ]
    sequences = []
    structures = {}
    for c, spec_c in enumerate(classes):
        for r in range(n_per_class):
            seq_id = f"c{c}_{r}"
            body = []
            for _ in range(length):
                if rng.random() < 0.85:
                    body.append(rng.choice(list(spec_c["alphabet"])))
                else:
                    body.append(rng.choice(list(AMINO_ACIDS)))
            ss8 = structure_string(rng, length, spec_c["probs"])
            sequences.append(Sequence(id=seq_id, residues="".join(body)))
            ss3 = "".join(
                "H" if ch in "HGI" else "E" if ch in "BE" else "C" for ch in ss8
            )
            structures[seq_id] = ss3
    return sequences, structures
