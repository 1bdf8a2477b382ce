import numpy as np
import pytest

from motifswarm.errors import ContractError, ValidationError
from motifswarm.metrics import structure_similarity
from motifswarm.report import (
    DEFAULT_THRESHOLDS,
    Settings,
    compare_pipelines,
    json_text,
    profile_for_members,
    tally_homology,
    tally_to_csv,
)
from motifswarm.seqio import Corpus, Sequence, load_sample_corpus

from helpers import planted_structure_corpus


def similarity_of_profile(s):
    """The structure similarity of a 9-position profile whose dominant class
    has frequency s at every position."""
    freqs = np.tile([s, (1 - s) / 2, (1 - s) / 2], (9, 1))
    return structure_similarity(freqs)


class TestTallyHomology:
    def test_hand_counts(self):
        sims = [similarity_of_profile(s) for s in [0.72, 0.66, 0.61, 0.40]]
        assert tally_homology(sims, (0.70, 0.65, 0.60)) == [1, 2, 3]

    def test_perfect_groups_count_everywhere(self):
        sims = [similarity_of_profile(1.0) for _ in range(4)]
        assert tally_homology(sims) == [4, 4, 4]

    def test_boundary_is_inclusive(self):
        # 0.75 is exact in binary, so the mean lands exactly on the cutoff
        assert tally_homology([similarity_of_profile(0.75)], (0.75,)) == [1]

    def test_thresholds_must_descend(self):
        with pytest.raises(ContractError):
            tally_homology([], (0.60, 0.65, 0.70))

    def test_settings_refuse_thresholds_that_do_not_descend(self):
        with pytest.raises(ContractError, match="sorted descending"):
            Settings(thresholds=(0.5, 0.7))
        assert Settings(thresholds=(0.7, 0.7, 0.5)).thresholds == (0.7, 0.7, 0.5)

    def test_counts_grow_down_the_list(self):
        rng = np.random.default_rng(3)
        sims = [similarity_of_profile(s) for s in rng.uniform(0.34, 1.0, size=12)]
        counts = tally_homology(sims, (0.9, 0.7, 0.5, 0.34))
        assert counts == sorted(counts)
        assert all(c <= 12 for c in counts)


def test_profile_for_members_pure_helix():
    seqs = [Sequence("a", "A" * 18)]
    corpus = Corpus(sequences=seqs, structures={"a": "H" * 18})
    profile = profile_for_members(corpus, ["a"])
    np.testing.assert_array_equal(profile, [[1.0, 0.0, 0.0]] * 9)
    assert structure_similarity(profile) == 1.0


def planted_corpus(seed=2024, n_per_class=10):
    rng = np.random.default_rng(seed)
    seqs, structs = planted_structure_corpus(rng, n_per_class=n_per_class)
    return Corpus(sequences=seqs, structures=structs)


class TestComparePipelines:
    def test_requires_structures(self):
        corpus = Corpus(sequences=[Sequence("a", "A" * 9)], structures=None)
        with pytest.raises(ValidationError):
            compare_pipelines(corpus, Settings())

    def test_report_shape_on_sample_corpus(self):
        settings = Settings(k=3, k_rows=3, k_cols=2, n_particles=10, max_iter=30, seed=1)
        rep = compare_pipelines(load_sample_corpus(), settings)
        # the settings' echo heads compare.json, written by the cli
        assert sorted(rep) == ["biclusters", "clusters", "lambda", "tally"]
        assert rep["tally"]["thresholds"] == list(DEFAULT_THRESHOLDS)
        assert 1 <= len(rep["clusters"]) <= 3
        for entry in rep["clusters"]:
            assert entry["size"] == len(entry["members"])
            assert 0.0 <= entry["similarity"] <= 1.0
            assert entry["homology"] in ("Identical", "Weak", "None")
        for entry in rep["biclusters"]:
            assert entry["volume"] == entry["size"] * len(entry["amino_acids"])
            assert entry["msr"] >= 0.0
        assert len(rep["tally"]["clusters"]) == 3

    def test_tally_matches_entries(self):
        settings = Settings(k=4, k_rows=3, k_cols=2, n_particles=10, max_iter=30, seed=5)
        rep = compare_pipelines(load_sample_corpus(), settings)
        for kind in ("clusters", "biclusters"):
            sims = [e["similarity"] for e in rep[kind]]
            for t, count in zip(rep["tally"]["thresholds"], rep["tally"][kind]):
                assert count == sum(1 for s in sims if s >= t)

    def test_deterministic(self):
        corpus = planted_corpus()
        settings = Settings(k=3, k_rows=3, k_cols=2, n_particles=10, max_iter=40, seed=7)
        a = compare_pipelines(corpus, settings)
        b = compare_pipelines(corpus, settings)
        assert json_text(a) == json_text(b)

    def test_single_group_degenerate(self):
        corpus = planted_corpus(n_per_class=3)
        rep = compare_pipelines(corpus, Settings(k=1, k_rows=1, k_cols=1,
                                                 n_particles=5, max_iter=20, seed=0))
        assert len(rep["clusters"]) == 1
        assert all(c in (0, 1) for c in rep["tally"]["clusters"])

    def test_direction_on_planted_classes(self):
        corpus = planted_corpus()
        rep = compare_pipelines(corpus, Settings(k=5, k_rows=5, k_cols=3,
                                                 n_particles=20, max_iter=100, seed=0))
        assert rep["tally"]["biclusters"][0] >= rep["tally"]["clusters"][0]


class TestEmitters:
    def test_csv_exact(self):
        tally = {"thresholds": [0.70, 0.65, 0.60], "clusters": [1, 3, 4],
                 "biclusters": [3, 5, 5]}
        assert tally_to_csv(tally) == (
            "threshold,clusters,biclusters\n"
            "0.70,1,3\n0.65,3,5\n0.60,4,5\n"
        )

    def test_csv_accepts_dict_form(self):
        tally = {"thresholds": [0.7], "clusters": [2], "biclusters": [3]}
        assert tally_to_csv(tally) == "threshold,clusters,biclusters\n0.70,2,3\n"

    def test_csv_labels_of_distinct_thresholds_stay_distinct(self):
        # 0.651 and 0.65 share two decimals; each label must read back as
        # its own threshold.
        tally = {"thresholds": [0.8, 0.651, 0.65, 0.6], "clusters": [1, 2, 3, 4],
                 "biclusters": [5, 6, 7, 8]}
        assert tally_to_csv(tally) == (
            "threshold,clusters,biclusters\n"
            "0.80,1,5\n0.651,2,6\n0.65,3,7\n0.60,4,8\n"
        )

    def test_json_newline_terminated_and_sorted(self):
        text = json_text({"b": 1, "a": {"d": [1], "c": 2}})
        assert text.endswith("}\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert '\n  "a": {\n    "c": 2,' in text

    @pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
    def test_json_refuses_non_finite_numbers(self, number):
        with pytest.raises(ValueError):
            json_text({"tally": {"thresholds": [number]}})
