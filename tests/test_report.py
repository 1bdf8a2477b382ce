import json
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import featurize, report
from motifswarm.errors import ContractError, ValidationError
from motifswarm.featurize import normalize_windows
from motifswarm.metrics import msr, structure_similarity
from motifswarm.psobiclust import seed_biclusters
from motifswarm.report import (
    DEFAULT_THRESHOLDS,
    Settings,
    bicluster_corpus,
    compare_pipelines,
    corpus_segment_counts,
    corpus_windows,
    json_text,
    profile_for_members,
    tally_homology,
    tally_to_csv,
)
from motifswarm.seqio import Corpus, Sequence, load_sample_corpus

from helpers import planted_structure_corpus, profile_oracle


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
        assert tally_homology(sims, Settings.thresholds) == [4, 4, 4]

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


@pytest.mark.parametrize("seed", range(10))
def test_biclusters_are_the_crossings_in_fitness_order(seed):
    settings = Settings(sample_corpus=True, seed=seed)
    windows = corpus_windows(load_sample_corpus(), settings)
    matrix = normalize_windows(windows, settings.normalization)
    cells = matrix.size
    lam = 0.1 * msr(matrix, range(matrix.shape[0]), range(matrix.shape[1]))
    crossings = seed_biclusters(matrix, settings.k_rows, settings.k_cols, settings.swarm)
    bics, got_lam = bicluster_corpus(windows, settings)
    assert got_lam == lam
    assert bics == sorted(crossings, key=lambda b: (b.msr - lam * b.volume / cells,
                                                    b.rows, b.cols))


def test_profile_for_members_pure_helix():
    seqs = [Sequence("a", "A" * 18)]
    corpus = Corpus(sequences=seqs, structures={"a": "H" * 18})
    profile = profile_for_members(corpus_segment_counts(corpus), [0])
    np.testing.assert_array_equal(profile, [[1.0, 0.0, 0.0]] * 9)
    assert structure_similarity(profile) == 1.0


def ragged_structure_corpus(seed, n=150):
    """n sequences of 9 to 400 residues, so most structure strings end in
    an incomplete segment, and the corpus spans more than one counting
    chunk."""
    rng = np.random.default_rng(seed)
    seqs, structures = [], {}
    for i in range(n):
        length = int(rng.integers(9, 401))
        seqs.append(Sequence(f"s{i}", "A" * length))
        structures[f"s{i}"] = "".join(rng.choice(list("HEC"), size=length,
                                                 p=rng.dirichlet([1, 1, 1])))
    return Corpus(sequences=seqs, structures=structures)


class TestProfileForMembers:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_build_profile_bit_for_bit(self, seed):
        corpus = ragged_structure_corpus(seed)
        assert sum(len(s) for s in corpus.structures.values()) > featurize.CHUNK_RESIDUES
        counts = corpus_segment_counts(corpus)
        rng = np.random.default_rng(100 + seed)
        ids = [s.id for s in corpus.sequences]
        for size in (1, 2, 7, 40, len(ids)):
            rows = rng.choice(len(ids), size=size, replace=False).tolist()
            structures = [corpus.structures[ids[i]] for i in rows]
            expected = profile_oracle([s[t:t + 9] for s in structures
                                       for t in range(0, len(s) - 8, 9)])
            got = profile_for_members(counts, rows)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_counts_match_the_per_string_oracle(self):
        corpus = ragged_structure_corpus(9, n=40)
        counts = corpus_segment_counts(corpus)
        for i, seq in enumerate(corpus.sequences):
            text = corpus.structures[seq.id]
            segments = [text[j:j + 9] for j in range(0, len(text) - 8, 9)]
            np.testing.assert_array_equal(counts[i] / len(segments), profile_oracle(segments))

    def test_zero_segments_is_a_contract_error(self):
        corpus = Corpus(sequences=[Sequence("a", "A" * 9), Sequence("b", "A" * 8)],
                        structures={"a": "H" * 9, "b": "E" * 8})
        counts = corpus_segment_counts(corpus)
        for rows in ([], [1]):
            with pytest.raises(ContractError, match="^cannot build a profile from zero segments$"):
                profile_for_members(counts, rows)
        np.testing.assert_array_equal(profile_for_members(counts, [0, 1]),
                                      profile_oracle(["H" * 9]))

    def test_no_structures_is_a_validation_error(self):
        corpus = Corpus(sequences=[Sequence("a", "A" * 9)], structures=None)
        assert corpus_segment_counts(corpus) is None
        with pytest.raises(ValidationError, match="^corpus carries no structure annotations$"):
            profile_for_members(corpus_segment_counts(corpus), [0])


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


def json_dumps_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# st.characters() draws no surrogates, so lone ones are sampled in.
_json_strings = st.text(st.one_of(
    st.characters(), st.sampled_from("\ud800\udbff\udc00\udfff\"\\\n\x00\x7f\u00e9\u2028")))
_json_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**63]))
_json_scalars = st.one_of(
    st.none(), st.booleans(), _json_strings, _json_floats,
    st.integers(), st.integers(min_value=-2**80, max_value=2**80),
    _json_floats.map(np.float64))
# one key type per dict, as sort_keys needs keys that compare
_json_keys = st.sampled_from([st.integers(), _json_floats, st.booleans(), st.none()])
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_json_strings, inner, max_size=5),
        _json_keys.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=3))),
    max_leaves=30)

# Lists of short lists, as the motif reports' [letter, height] pairs: most
# members are non-empty lists of exact scalars (bool included), mixed with
# members of other kinds (np.float64, dict, tuple, an empty list, or a list
# holding one of these).
_json_exact_scalars = st.one_of(st.none(), _json_strings, _json_floats, st.integers())
# Half the members are lists of exact scalars, so whole lists of them occur.
_json_short_lists = st.lists(
    st.one_of(
        st.lists(_json_exact_scalars, min_size=1, max_size=3),
        st.one_of(
            st.lists(st.one_of(_json_exact_scalars, st.booleans(), _json_floats.map(np.float64),
                               st.just({}), st.just(()), st.just([])), min_size=1, max_size=3),
            st.sampled_from([[], (), {}, {"a": 1}, ("A", 0.5), True, np.float64(0.5)]))),
    max_size=8)


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


_Point = namedtuple("_Point", "x y")


def _nested(depth):
    payload = [1.5]
    for _ in range(depth - 1):
        payload = [payload, "x"]
    return payload


class TestJsonText:
    """json_text is json.dumps(sort_keys=True, indent=2, allow_nan=False)
    plus a newline, byte for byte, and refuses what json.dumps refuses."""

    @settings(max_examples=400, deadline=None)
    @given(_json_payloads)
    def test_equals_json_dumps(self, payload):
        assert json_text(payload) == json_dumps_text(payload)

    @settings(max_examples=300, deadline=None)
    @given(_json_short_lists)
    def test_lists_of_short_lists_equal_json_dumps(self, payload):
        assert json_text(payload) == json_dumps_text(payload)
        assert json_text({"pairs": payload}) == json_dumps_text({"pairs": payload})

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}], -0.0, 5e-324, 1e16, 1e-7,
        2**64 + 1, -(2**100), True, None, "\ud800x\u00e9", np.float64(0.1),
        {True: 1, 2: "two", 0.5: [False]}, {None: None}, {"k": [1, "a", 2.5, None, True]},
        [np.float64(1e300), {"z": np.float64(-0.0)}],
        OrderedDict([("b", 1), ("a", [2.5])]), _Dict(z=1, a={"y": None}),
        _List([_List([1]), "x"]), _Tuple((0.5, _Tuple(()), [True])),
        _Point(np.float64(0.5), np.float64(-2.0)), _nested(60),
    ])
    def test_edge_payloads(self, payload):
        assert json_text(payload) == json_dumps_text(payload)

    @pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf"),
                                        np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [x], lambda x: {"a": [1, {"b": x}]},
                                      lambda x: {x: 1}, lambda x: [[], (x, "s")]])
    def test_non_finite_numbers_raise_value_error(self, number, wrap):
        with pytest.raises(ValueError) as expected:
            json_dumps_text(wrap(number))
        with pytest.raises(ValueError) as got:
            json_text(wrap(number))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("payload", [
        object(), {1, 2}, [b"bytes"], {"a": np.int64(3)}, [np.bool_(True)],
        {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"}, [1.5, {"x": [complex(1, 2)]}],
    ])
    def test_unsupported_objects_raise_type_error(self, payload):
        with pytest.raises(TypeError) as expected:
            json_dumps_text(payload)
        with pytest.raises(TypeError) as got:
            json_text(payload)
        assert str(got.value) == str(expected.value)
