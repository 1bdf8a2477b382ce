"""Release gate: twelve checks over the package's documented guarantees.

One test per criterion, each printing a `criterion NN PASS|FAIL` line (run
pytest with -s to see the lines for passing tests too). Stochastic fixtures
are seeded and frozen, so the whole gate is reproducible run to run.
"""

import functools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from motifswarm import cli, metrics
from motifswarm.kmeans import _pairwise_l1, kmeans_run
from motifswarm.motif import RELATION_PARTIAL, classify_superset, logo_columns
from motifswarm.pso import PsoConfig
from motifswarm.psobiclust import pso_bicluster, seed_biclusters
from motifswarm.psokmeans import pso_kmeans
from motifswarm.report import Settings, compare_pipelines, corpus_windows
from motifswarm.seqio import Corpus, load_sample_corpus

from helpers import (
    cityblock_oracle,
    make_blobs,
    msr_oracle,
    partitions_match,
    planted_structure_corpus,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL {label}")
                raise
            print(f"criterion {num:02d} PASS {label}")
            return result
        return wrapper
    return deco


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


BLOB_CENTERS = [np.zeros(4), np.full(4, 10.0), np.array([10.0, -10.0, 0.0, 5.0])]


@criterion(1, "MSR matches the brute-force oracle")
def test_c01_msr_oracle_equivalence():
    rng = np.random.default_rng(101)
    with budget(5.0):
        for _ in range(200):
            nr = int(rng.integers(2, 31))
            nc = int(rng.integers(2, 21))
            m = rng.normal(size=(nr, nc)) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
            ri = rng.choice(nr, size=int(rng.integers(1, nr + 1)), replace=False)
            ci = rng.choice(nc, size=int(rng.integers(1, nc + 1)), replace=False)
            expect = msr_oracle(m, ri, ci)
            got = metrics.msr(m, ri, ci)
            assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


@criterion(2, "MSR shift invariances and additive-model zero")
def test_c02_msr_algebraic_invariants():
    rng = np.random.default_rng(202)
    for _ in range(50):
        nr = int(rng.integers(2, 16))
        nc = int(rng.integers(2, 12))
        m = rng.normal(size=(nr, nc)) * 2.0
        ri = rng.choice(nr, size=int(rng.integers(1, nr + 1)), replace=False)
        ci = rng.choice(nc, size=int(rng.integers(1, nc + 1)), replace=False)
        base = metrics.msr(m, ri, ci)

        shift = float(rng.uniform(-5, 5))
        assert abs(metrics.msr(m + shift, ri, ci) - base) <= 1e-9
        row_shift = rng.normal(size=(nr, 1)) * 3.0
        assert abs(metrics.msr(m + row_shift, ri, ci) - base) <= 1e-9
        col_shift = rng.normal(size=(1, nc)) * 3.0
        assert abs(metrics.msr(m + col_shift, ri, ci) - base) <= 1e-9

        additive = rng.normal(size=(nr, 1)) + rng.normal(size=(1, nc))
        assert metrics.msr(additive, ri, ci) <= 1e-9


@criterion(3, "city-block distance obeys the metric laws")
def test_c03_cityblock_metric_laws():
    rng = np.random.default_rng(303)
    for t in range(500):
        if t % 2 == 0:
            shape = (int(rng.integers(1, 30)),)
        else:
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        a, b, c = (rng.normal(size=shape) * 4.0 for _ in range(3))
        # the direct kernel of both k-means engines, on the triple as an (n, d) matrix
        abc = np.stack([a, b, c]).reshape(3, -1)
        d = _pairwise_l1(abc, abc)
        dab = d[0, 1]
        assert dab >= 0.0
        assert d[0, 0] == 0.0
        assert dab == d[1, 0]
        assert dab == pytest.approx(cityblock_oracle(a, b), rel=1e-12)
        assert d[0, 2] <= dab + d[1, 2] + 1e-12


@criterion(4, "structure similarity values and homology boundaries")
def test_c04_similarity_and_homology_thresholds():
    all_helix = np.tile([1.0, 0.0, 0.0], (9, 1))
    assert metrics.structure_similarity(all_helix) == 1.0

    uniform = np.full((9, 3), 1.0 / 3.0)
    assert metrics.structure_similarity(uniform) == pytest.approx(1 / 3, abs=1e-12)

    assert metrics.homology_class(np.nextafter(0.70, 1.0)) == "Identical"
    assert metrics.homology_class(0.70) == "Weak"
    assert metrics.homology_class(np.nextafter(0.60, 1.0)) == "Weak"
    assert metrics.homology_class(0.60) == "None"


@criterion(5, "k-means recovers three planted blobs")
def test_c05_kmeans_blob_recovery():
    items, labels = make_blobs(np.random.default_rng(77), BLOB_CENTERS, 20, 0.5)
    with budget(2.0):
        wins = sum(
            partitions_match(kmeans_run(items, 3, Settings.max_iter, s).assignment, labels)
            for s in range(10)
        )
    assert wins >= 9, f"recovered {wins}/10"


@criterion(6, "swarm best fitness never worsens across iterations")
def test_c06_pso_monotonicity():
    corpus = load_sample_corpus()
    windows = corpus_windows(corpus, Settings())
    for s in range(20):
        cs = pso_kmeans(windows, 4, PsoConfig(n_particles=10, max_iter=30, seed=s))
        assert all(b <= a for a, b in zip(cs.trace, cs.trace[1:])), f"seed {s}"


@criterion(7, "swarm clustering at least matches plain k-means on noisy blobs")
def test_c07_pso_kmeans_vs_kmeans_direction():
    items, _ = make_blobs(np.random.default_rng(77), BLOB_CENTERS, 20, 1.0)
    with budget(30.0):
        pso_fits = [
            pso_kmeans(items, 3, PsoConfig(n_particles=20, max_iter=100, seed=s)
                       ).final_fitness
            for s in range(20)
        ]
        km_fits = [kmeans_run(items, 3, Settings.max_iter, s).final_fitness for s in range(20)]
    assert np.median(pso_fits) <= np.median(km_fits), (
        f"median {np.median(pso_fits):.3f} vs {np.median(km_fits):.3f}")


def jaccard(a, b):
    a, b = set(a), set(b)
    return len(a & b) / len(a | b)


@criterion(8, "PSO k-means crossings recover a planted additive block")
def test_c08_planted_bicluster_recovery():
    rng = np.random.default_rng(0)
    m = rng.uniform(0.0, 1.0, size=(40, 20))
    rows = np.arange(5, 13)
    cols = np.arange(3, 9)
    r = rng.uniform(1.0, 4.0, size=rows.size)
    c = rng.uniform(1.0, 4.0, size=cols.size)
    m[np.ix_(rows, cols)] = r[:, None] + c[None, :]

    with budget(60.0):
        hits = 0
        for s in range(10):
            seeds = seed_biclusters(m, 2, 2,
                                    PsoConfig(n_particles=20, max_iter=100, seed=s))
            best = pso_bicluster(m, PsoConfig(n_particles=30, max_iter=300, seed=s),
                                 seeds)[0]
            if jaccard(best.rows, rows) >= 0.8 and jaccard(best.cols, cols) >= 0.8:
                hits += 1
    assert hits >= 7, f"recovered {hits}/10"


@criterion(9, "biclusters reach the 0.70 homology tally at least as often")
def test_c09_bicluster_homology_direction():
    seqs, structs = planted_structure_corpus(np.random.default_rng(2024),
                                             n_per_class=10, length=27)
    corpus = Corpus(sequences=seqs, structures=structs)
    with budget(120.0):
        wins = 0
        for s in range(10):
            rep = compare_pipelines(corpus, Settings(k=5, k_rows=5, k_cols=3,
                                                     n_particles=20, max_iter=100,
                                                     seed=s))
            if rep["tally"]["biclusters"][0] >= rep["tally"]["clusters"][0]:
                wins += 1
    assert wins >= 6, f"direction held in {wins}/10 seeds"


TABLE2_SAA = ["AGV", "AEFPTV", "EGLTV", "AEKQS", "EQSV", "ADLRV", "LRT", "ATV",
              "EGIKL"]
TABLE2_MOTIFS = ["ADEGILKTV"] * 4 + ["RNQFPSY"] + ["ADEGILKTV"] * 4
TABLE2_EXPECTED = ["Full", "Partial", "Full", "Partial", "Partial", "Partial",
                   "Full", "Full", "Full"]
TABLE3_SAA = ["AGL", "DL", "LV", "EILV", "AV", "AL", "GLV", "GL", "ALV"]


@criterion(10, "reference SAA/motif rows reproduce the published relations")
def test_c10_reference_table_relations():
    rows = [("table3", i + 1, saa, "ADEGILKTV", "Full")
            for i, saa in enumerate(TABLE3_SAA)]
    rows += [("table2", i + 1, saa, motif, label)
             for i, (saa, motif, label)
             in enumerate(zip(TABLE2_SAA, TABLE2_MOTIFS, TABLE2_EXPECTED))]
    assert len(rows) == 18

    # Under the subset rule the label depends only on the letters outside the
    # motif and on whether any letter is inside it. Two rows that agree on
    # both but carry different published labels cannot both be reproduced.
    def key(row):
        saa, motif = frozenset(row[2]), frozenset(row[3])
        return (motif, saa - motif) if saa & motif else None

    conflicts = [
        (a[:2], b[:2])
        for i, a in enumerate(rows) for b in rows[i + 1:]
        if a[4] != b[4] and key(a) is not None and key(a) == key(b)
    ]
    # Table 2 position 7 ("LRT") is labelled Full although R is not in the
    # motif, while position 6 ("ADLRV", also missing only R) is Partial.
    pair = (("table2", 6), ("table2", 7))
    assert conflicts == [pair]

    got = {(t, pos): classify_superset(frozenset(saa), frozenset(motif))
           for t, pos, saa, motif, _ in rows}
    for t, pos, saa, motif, label in rows:
        if (t, pos) not in pair:
            assert got[t, pos] == label, (t, pos, saa, motif)

    # The contradictory pair is held to the documented rule: Full iff every
    # significant letter is in the motif, so both rows are Partial, which is
    # position 6's published label.
    assert got[pair[0]] == got[pair[1]] == RELATION_PARTIAL
    assert TABLE2_EXPECTED[5] == RELATION_PARTIAL


@criterion(11, "logo column heights hit the textbook information values")
def test_c11_logo_information_content():
    single = np.zeros(20)
    single[0] = 1.0
    uniform = np.full(20, 0.05)
    half = np.zeros(20)
    half[0] = half[1] = 0.5
    max_bits = np.log2(20)

    for row, expected in ((single, max_bits), (uniform, 0.0),
                          (half, max_bits - 1.0)):
        cols = logo_columns(np.tile(row, (9, 1)), n_segments=100,
                            correction=False)
        for col in cols:
            assert col["total_bits"] == pytest.approx(expected, abs=1e-9)


@criterion(12, "two identically configured compare runs emit identical bytes")
def test_c12_end_to_end_determinism(tmp_path):
    argv = ["compare", "--sample-corpus", "--k", "3", "--k-rows", "3",
            "--k-cols", "2", "--n-particles", "10", "--max-iter", "30",
            "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("compare.json", "tally.csv")}
    assert cli.main(argv) == 0
    for name, data in first.items():
        assert (tmp_path / name).read_bytes() == data
    echoed = json.loads(first["compare.json"])
    assert echoed["config"]["seed"] == 7
