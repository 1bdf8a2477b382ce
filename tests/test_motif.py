import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from motifswarm.errors import ContractError
from motifswarm.featurize import build_cluster_dataset
from motifswarm.motif import (
    MAX_BITS,
    RELATION_DISJOINT,
    RELATION_FULL,
    RELATION_PARTIAL,
    SAA_THRESHOLD,
    build_motif_report,
    classify_superset,
    logo_columns,
    position_frequencies,
    render_logo_svg,
    significant_amino_acids,
)
from motifswarm.report import Settings
from motifswarm.seqio import AMINO_ACIDS, Sequence

SIZE, SCHEME = Settings.window_size, Settings.window_scheme


def row(**letter_freqs):
    out = np.zeros(20)
    for letter, p in letter_freqs.items():
        out[AMINO_ACIDS.index(letter)] = p
    return out


def freqs_for_saa(letter_sets):
    m = np.zeros((9, 20))
    for i, letters in enumerate(letter_sets):
        for letter in letters:
            m[i, AMINO_ACIDS.index(letter)] = 1.0 / len(letters)
    return m


class TestPositionFrequencies:
    def test_single_pure_window(self):
        w = build_cluster_dataset([Sequence("s", "A" * 9)], SIZE, SCHEME)[0]
        freqs = position_frequencies([w])
        assert np.all(freqs[:, AMINO_ACIDS.index("A")] == 1.0)
        assert freqs.sum() == pytest.approx(9.0)

    def test_two_disjoint_letters_split_evenly(self):
        wa, wv = build_cluster_dataset([Sequence("a", "A" * 9), Sequence("v", "V" * 9)],
                                       SIZE, SCHEME)
        freqs = position_frequencies([wa, wv])
        assert np.all(freqs[:, AMINO_ACIDS.index("A")] == 0.5)
        assert np.all(freqs[:, AMINO_ACIDS.index("V")] == 0.5)

    def test_matches_hand_normalized_sums(self):
        seqs = ["ARNDCQEGH", "ILKMFPSTW", "AAAAAAAAA", "VVVVVVVVV", "ARNARNARN"]
        windows = build_cluster_dataset([Sequence(str(i), s) for i, s in enumerate(seqs)],
                                        SIZE, SCHEME)
        freqs = position_frequencies(windows)
        for i in range(9):
            row_total = sum(float(w[i, j]) for w in windows for j in range(20))
            for j in range(20):
                summed = sum(float(w[i, j]) for w in windows)
                assert freqs[i, j] == pytest.approx(summed / row_total)

    def test_zero_row_left_zero(self):
        counts = np.zeros((9, 20))
        counts[:8, 0] = 1.0
        freqs = position_frequencies([counts])
        assert np.all(freqs[8] == 0.0)
        assert np.all(np.isfinite(freqs))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            position_frequencies([])

    def test_mixed_window_sizes_rejected(self):
        with pytest.raises(ContractError):
            position_frequencies([np.ones((9, 20)), np.ones((7, 20))])


class TestSignificantAminoAcids:
    def test_just_above_threshold(self):
        spread = (1.0 - 0.08) / 19  # about 0.048, below the cutoff
        m = np.full((9, 20), spread)
        m[:, AMINO_ACIDS.index("A")] = 0.08
        saas = significant_amino_acids(m, SAA_THRESHOLD)
        assert saas == [frozenset("A")] * 9

    def test_exactly_at_threshold_excluded(self):
        m = np.tile(row(A=0.07, V=0.93), (9, 1))
        saas = significant_amino_acids(m, SAA_THRESHOLD)
        assert saas == [frozenset("V")] * 9

    def test_uniform_row_empty(self):
        m = np.full((9, 20), 0.05)
        assert significant_amino_acids(m, SAA_THRESHOLD) == [frozenset()] * 9

    def test_shrinks_as_threshold_grows(self):
        rng = np.random.default_rng(0)
        m = rng.dirichlet(np.ones(20), size=9)
        wide = significant_amino_acids(m, threshold=0.05)
        mid = significant_amino_acids(m, threshold=0.07)
        narrow = significant_amino_acids(m, threshold=0.10)
        for w, mi, na in zip(wide, mid, narrow):
            assert na <= mi <= w


class TestClassifySuperset:
    @pytest.mark.parametrize("saa,motif,expected", [
        ("AGV", "ADEGILKTV", RELATION_FULL),
        ("AEFPTV", "ADEGILKTV", RELATION_PARTIAL),
        ("EQSV", "RNQFPSY", RELATION_PARTIAL),
        ("ADLRV", "ADEGILKTV", RELATION_PARTIAL),
        ("LRT", "ADEGILKTV", RELATION_PARTIAL),
        ("W", "A", RELATION_DISJOINT),
        ("", "ADEG", RELATION_DISJOINT),
    ])
    def test_examples(self, saa, motif, expected):
        assert classify_superset(set(saa), set(motif)) == expected

    def test_self_is_full(self):
        for s in ("A", "AV", "ADEGILKTV"):
            assert classify_superset(set(s), set(s)) == RELATION_FULL

    def test_growing_motif_never_demotes(self):
        rng = np.random.default_rng(1)
        letters = list(AMINO_ACIDS)
        for _ in range(50):
            saa = set(rng.choice(letters, size=rng.integers(1, 6), replace=False))
            motif = set(rng.choice(letters, size=rng.integers(1, 12), replace=False))
            grown = motif | set(rng.choice(letters, size=3, replace=False))
            if classify_superset(saa, motif) == RELATION_FULL:
                assert classify_superset(saa, grown) == RELATION_FULL

    def test_label_depends_on_missing_letters_only(self):
        rng = np.random.default_rng(3)
        letters = list(AMINO_ACIDS)
        for _ in range(50):
            motif = set(rng.choice(letters, size=rng.integers(1, 12), replace=False))
            inside = sorted(motif)
            outside = sorted(set(letters) - motif)
            missing = set(rng.choice(outside, size=rng.integers(0, 4), replace=False))
            a = missing | set(rng.choice(inside, size=rng.integers(1, len(inside) + 1),
                                         replace=False))
            b = missing | set(rng.choice(inside, size=rng.integers(1, len(inside) + 1),
                                         replace=False))
            assert a - motif == b - motif and a & motif and b & motif
            assert classify_superset(a, motif) == classify_superset(b, motif)


class TestLogoColumns:
    def test_single_letter_no_correction(self):
        m = np.tile(row(A=1.0), (9, 1))
        cols = logo_columns(m, n_segments=100, correction=False)
        for c in cols:
            assert c["total_bits"] == pytest.approx(MAX_BITS, abs=1e-9)
            assert c["letters"] == [["A", pytest.approx(MAX_BITS, abs=1e-9)]]

    def test_uniform_no_correction_zero_bits(self):
        m = np.full((9, 20), 0.05)
        cols = logo_columns(m, n_segments=100, correction=False)
        assert all(c["total_bits"] == pytest.approx(0.0, abs=1e-9) for c in cols)

    def test_half_half_closed_form(self):
        m = np.tile(row(A=0.5, V=0.5), (9, 1))
        cols = logo_columns(m, n_segments=100, correction=False)
        expected = MAX_BITS - 1.0
        for c in cols:
            assert c["total_bits"] == pytest.approx(expected, abs=1e-9)
            assert dict(c["letters"])["A"] == pytest.approx(expected / 2, abs=1e-9)
            assert dict(c["letters"])["V"] == pytest.approx(expected / 2, abs=1e-9)

    def test_correction_value_and_clamp(self):
        m = np.tile(row(A=1.0), (9, 1))
        cols = logo_columns(m, n_segments=19, correction=True)
        e_n = 19 / (2 * math.log(2) * 19)
        assert cols[0]["total_bits"] == pytest.approx(MAX_BITS - e_n, abs=1e-9)
        uniform = np.full((9, 20), 0.05)
        cols = logo_columns(uniform, n_segments=1, correction=True)
        assert all(c["total_bits"] == 0.0 for c in cols)

    def test_heights_partition_total_descending(self):
        rng = np.random.default_rng(2)
        m = rng.dirichlet(np.ones(20), size=9)
        for c in logo_columns(m, n_segments=30, correction=True):
            heights = [h for _, h in c["letters"]]
            assert sum(heights) == pytest.approx(c["total_bits"], abs=1e-9)
            assert heights == sorted(heights, reverse=True)
            assert 0.0 <= c["total_bits"] <= MAX_BITS

    def test_zero_row_and_bad_segments(self):
        m = np.zeros((9, 20))
        m[:3, 0] = 1.0
        cols = logo_columns(m, n_segments=50, correction=True)
        assert cols[8] == {"total_bits": 0.0, "letters": []}
        with pytest.raises(ContractError):
            logo_columns(m, n_segments=0, correction=True)


TABLE2_SAA = ["AGV", "AEFPTV", "EGLTV", "AEKQS", "EQSV", "ADLRV", "LRT", "ATV", "EGIKL"]
TABLE2_MOTIFS = ["ADEGILKTV"] * 4 + ["RNQFPSY"] + ["ADEGILKTV"] * 4
TABLE3_SAA = ["AGL", "DL", "LV", "EILV", "AV", "AL", "GLV", "GL", "ALV"]


class TestBuildMotifReport:
    def test_subset_rule_on_reference_rows(self):
        # Table 2 pairs each position with one of two motifs; a report holds
        # one, so each position is read off the report built on its motif.
        freqs = freqs_for_saa(TABLE2_SAA)
        reports = {m: build_motif_report("t2", freqs, frozenset(m), 300,
                                         SAA_THRESHOLD, True)
                   for m in set(TABLE2_MOTIFS)}
        records = [reports[m]["positions"][i] for i, m in enumerate(TABLE2_MOTIFS)]
        assert [r["saa"] for r in records] == ["".join(sorted(s)) for s in TABLE2_SAA]
        assert [r["relation"] for r in records] == [
            RELATION_FULL, RELATION_PARTIAL, RELATION_FULL, RELATION_PARTIAL,
            RELATION_PARTIAL, RELATION_PARTIAL, RELATION_PARTIAL,
            RELATION_FULL, RELATION_FULL,
        ]
        assert not any(r["degenerate"] for r in reports.values())

    def test_all_full_reference_rows(self):
        report = build_motif_report(
            "t3", freqs_for_saa(TABLE3_SAA), frozenset("ADEGILKTV"), 300,
            SAA_THRESHOLD, True)
        assert all(r["relation"] == RELATION_FULL for r in report["positions"])
        assert all(r["motif"] == "ADEGIKLTV" for r in report["positions"])
        assert json.loads(json.dumps(report)) == report

    def test_degenerate_flag(self):
        report = build_motif_report("d", np.zeros((9, 20)), frozenset("AV"), 10,
                                    SAA_THRESHOLD, True)
        assert report["degenerate"]
        assert all(r["relation"] == RELATION_DISJOINT for r in report["positions"])

    @pytest.mark.parametrize("window_size", [1, 5, 7, 12])
    def test_window_size_from_frequencies(self, window_size):
        windows = build_cluster_dataset(
            [Sequence("s", "AVL" * 8), Sequence("t", "GAV" * 8)], window_size, SCHEME)
        freqs = position_frequencies(windows)
        assert freqs.shape == (window_size, 20)
        report = build_motif_report("w", freqs, frozenset("AV"), 4, SAA_THRESHOLD, True)
        assert [r["position"] for r in report["positions"]] == \
            list(range(1, window_size + 1))
        assert all(r["saa"] and r["relation"] is not None for r in report["positions"])
        with pytest.raises(ContractError):
            significant_amino_acids(freqs[:, :19], SAA_THRESHOLD)


class TestRenderLogoSvg:
    def test_well_formed_and_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.dirichlet(np.ones(20), size=9)
        report = build_motif_report("svg", m, frozenset("AV"), 25, SAA_THRESHOLD, True)
        svg = render_logo_svg(report)
        assert svg == render_logo_svg(report)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        n_letters = sum(len(r["logo"]["letters"]) for r in report["positions"])
        assert len(texts) >= n_letters
        assert root.find("{http://www.w3.org/2000/svg}title").text == "svg"
