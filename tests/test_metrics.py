import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm.errors import ContractError
from motifswarm.kmeans import kmeans_run
from motifswarm.metrics import (
    HOMOLOGY_IDENTICAL,
    HOMOLOGY_NONE,
    HOMOLOGY_WEAK,
    homology_class,
    msr,
    segment_counts,
    structure_similarity,
)
from motifswarm.pso import PsoConfig
from motifswarm.psokmeans import assignment_fitness, pso_kmeans
from motifswarm.report import Settings, profile_for_members

from helpers import msr_oracle, profile_oracle, segment_counts_oracle


class TestIntraClusterFitness:
    """The clustering fitness that both k-means engines score: nearest-centroid
    city-block distances summed, over the number of clusters."""

    @staticmethod
    def assign(data, centroids):
        labels, fitness = assignment_fitness(np.array(data), np.array(centroids),
                                             len(centroids))
        return labels[:, 0].tolist(), float(fitness[0])

    def test_zero_when_items_sit_on_centroids(self):
        data = [np.array([1.0, 2.0]), np.array([5.0, 5.0])]
        cents = [np.array([1.0, 2.0]), np.array([5.0, 5.0])]
        assert self.assign(data, cents) == ([0, 1], 0.0)

    def test_sum_divided_by_cluster_count(self):
        # cluster 0 distances 2+4=6, cluster 1 distances 1+3=4 -> (6+4)/2
        data = [np.array([2.0]), np.array([-4.0]), np.array([11.0]), np.array([13.0])]
        cents = [np.array([0.0]), np.array([10.0])]
        assert self.assign(data, cents) == ([0, 0, 1, 1], 5.0)

    def test_single_cluster_scalars(self):
        data = [np.array([1.0]), np.array([3.0])]
        assert self.assign(data, [np.array([2.0])]) == ([0, 0], 2.0)

    def test_empty_cluster_contributes_zero(self):
        data = [np.array([1.0])]
        cents = [np.array([1.0]), np.array([99.0])]
        assert self.assign(data, cents) == ([0], 0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            kmeans_run([], k=1, max_iter=Settings.max_iter, seed=Settings.seed)
        with pytest.raises(ContractError):
            pso_kmeans([], 1, PsoConfig(n_particles=2, max_iter=1))


class TestMsr:
    def test_constant_submatrix(self):
        m = np.full((5, 5), 3.7)
        assert msr(m, range(5), range(5)) == pytest.approx(0.0, abs=1e-15)

    def test_additive_model_is_zero(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=8)
        c = rng.normal(size=6)
        m = r[:, None] + c[None, :]
        assert msr(m, range(8), range(6)) == pytest.approx(0.0, abs=1e-18)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = rng.normal(size=(10, 8))
            rows = rng.choice(10, size=6, replace=False)
            cols = rng.choice(8, size=5, replace=False)
            assert msr(m, rows, cols) == pytest.approx(
                msr_oracle(m, rows, cols), rel=1e-12
            )

    def test_shift_invariances(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(7, 6))
        rows, cols = list(range(4)), list(range(5))
        base = msr(m, rows, cols)
        shifted = m + 11.0
        assert msr(shifted, rows, cols) == pytest.approx(base, abs=1e-9)
        row_shift = m.copy()
        row_shift[2, :] += 5.0
        assert msr(row_shift, rows, cols) == pytest.approx(base, abs=1e-9)
        col_shift = m.copy()
        col_shift[:, 3] -= 2.5
        assert msr(col_shift, rows, cols) == pytest.approx(base, abs=1e-9)

    def test_single_row_or_column_is_zero(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6))
        assert msr(m, [2], range(6)) == pytest.approx(0.0, abs=1e-18)
        assert msr(m, range(6), [4]) == pytest.approx(0.0, abs=1e-18)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ContractError):
            msr(np.zeros((3, 3)), [], [0])


def profile_from_rows(rows):
    return np.array(rows, dtype=float)


class TestStructureSimilarity:
    def test_pure_helix(self):
        p = profile_from_rows([[1, 0, 0]] * 9)
        assert structure_similarity(p) == 1.0

    def test_uniform_split(self):
        third = 1.0 / 3.0
        p = profile_from_rows([[third, third, third]] * 9)
        assert structure_similarity(p) == pytest.approx(third, abs=1e-12)

    def test_hand_average_of_row_maxima(self):
        maxima = [0.8, 0.7, 0.9, 0.6, 0.8, 0.7, 0.9, 0.6, 0.8]
        rows = [[m, (1 - m) / 2, (1 - m) / 2] for m in maxima]
        p = profile_from_rows(rows)
        assert structure_similarity(p) == pytest.approx(0.7556, abs=1e-4)


class TestHomologyClass:
    @pytest.mark.parametrize(
        "sim,expected",
        [
            (0.75, HOMOLOGY_IDENTICAL),
            (0.65, HOMOLOGY_WEAK),
            (0.70, HOMOLOGY_WEAK),
            (0.60, HOMOLOGY_NONE),
            (0.45, HOMOLOGY_NONE),
            (1.0, HOMOLOGY_IDENTICAL),
        ],
    )
    def test_thresholds(self, sim, expected):
        assert homology_class(sim) == expected

    def test_monotone(self):
        order = {HOMOLOGY_NONE: 0, HOMOLOGY_WEAK: 1, HOMOLOGY_IDENTICAL: 2}
        grades = [order[homology_class(s)] for s in np.linspace(0, 1, 101)]
        assert grades == sorted(grades)


def group_profile(structures):
    """The profile of a group whose members have these structure strings,
    as the commands build it."""
    return profile_for_members(segment_counts(structures), list(range(len(structures))))


class TestBuildProfile:
    """A group's structure profile: profile_for_members over the members'
    metrics.segment_counts."""

    def test_all_helix_segments(self):
        prof = group_profile(["H" * 9, "H" * 9])
        np.testing.assert_allclose(prof, [[1, 0, 0]] * 9)

    def test_half_helix_half_sheet(self):
        prof = group_profile(["H" * 9 + "E" * 9])
        np.testing.assert_allclose(prof, [[0.5, 0.5, 0]] * 9)

    def test_mixed_hand_tally(self):
        segs = ["HHHHEEEEC", "HHEEEECCC", "HHHHHHHHH", "CCCCCCCCC"]
        prof = group_profile(["".join(segs)])
        # position 1: H,H,H,C -> (0.75, 0, 0.25)
        np.testing.assert_allclose(prof[0], [0.75, 0.0, 0.25])
        # position 5: E,E,H,C -> (0.25, 0.5, 0.25)
        np.testing.assert_allclose(prof[4], [0.25, 0.5, 0.25])
        assert prof.sum(axis=1) == pytest.approx(np.ones(9))

    def test_zero_segments_rejected(self):
        with pytest.raises(ContractError):
            group_profile([])
        with pytest.raises(ContractError):
            group_profile(["H" * 8, "E" * 3])

    def test_chunks_each_structure_into_blocks(self):
        mixed = "HHHEEECCC" + "EEEEEEEEE" + "CHCHCHCHC"
        np.testing.assert_array_equal(
            group_profile([mixed]),
            profile_oracle(["HHHEEECCC", "EEEEEEEEE", "CHCHCHCHC"]))

    def test_each_tail_is_dropped_on_its_own(self):
        # The tails "EEEE" and "CCCCC" together would fill a block; neither
        # may join the other member's labels.
        prof = group_profile(["H" * 9 + "EEEE", "C" * 9 + "CCCCC"])
        np.testing.assert_array_equal(prof, profile_oracle(["H" * 9, "C" * 9]))

    def test_segment_count_is_floor(self):
        # one helix block, then sheet labels: the helix share of position 1
        # is one over the segment count
        for n in [9, 10, 17, 18, 26, 27, 35]:
            prof = group_profile(["H" * 9 + "E" * (n - 9)])
            assert prof[0, 0] == 1 / (n // 9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        structures = data.draw(st.lists(
            st.text(alphabet="HEC", max_size=40), min_size=1, max_size=4).filter(
                lambda ss: any(len(s) >= 9 for s in ss)))
        prof = group_profile(structures)
        segments = [s[t : t + 9] for s in structures for t in range(0, len(s) - 8, 9)]
        np.testing.assert_array_equal(prof, profile_oracle(segments))


@pytest.mark.parametrize("lengths, dtype", [
    ([], np.uint8),
    ([8, 2303], np.uint8),     # 0 and 255 segments
    ([2304, 20], np.uint16),   # 256 segments
    ([2400, 9], np.uint16),    # 266 segments
])
def test_segment_counts_take_the_narrowest_unsigned_type(lengths, dtype):
    """A position's count reaches the most complete segments of any string
    when one label fills it, so a narrower type would wrap."""
    rng = np.random.default_rng(14)
    structures = ["H" * lengths[0]] if lengths else []
    structures += ["".join(rng.choice(list("HEC"), size=m)) for m in lengths[1:]]
    counts = segment_counts(structures)
    assert counts.dtype == dtype
    assert counts.shape == (len(structures), 9, 3)
    for row, structure in zip(counts, structures):
        np.testing.assert_array_equal(row, segment_counts_oracle(structure))
