from dataclasses import replace

import numpy as np
import pytest

from motifswarm import psobiclust
from motifswarm.errors import ContractError
from motifswarm.metrics import msr
from motifswarm.pso import PsoConfig
from motifswarm.psobiclust import (
    Bicluster,
    default_lambda,
    make_bicluster,
    pso_bicluster,
    seed_biclusters,
)
from motifswarm.psokmeans import pso_kmeans

from helpers import msr_oracle, planted_matrix


def jaccard(a, b):
    return len(a & b) / len(a | b)


def penalized(bc, lam, total):
    return bc.msr - lam * bc.volume / total


class TestMakeBicluster:
    def test_fields(self):
        m = np.arange(12.0).reshape(3, 4)
        bc = make_bicluster(m, [2, 0], [3, 1])
        assert bc.rows == (0, 2)
        assert bc.cols == (1, 3)
        assert bc.volume == 4
        assert bc.msr == pytest.approx(msr(m, [0, 2], [1, 3]))

    def test_rejects_empty_sets(self):
        m = np.zeros((3, 3))
        with pytest.raises(ContractError):
            make_bicluster(m, [], [0])
        with pytest.raises(ContractError):
            make_bicluster(m, [0], [])


def test_default_lambda_is_tenth_of_full_msr():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(12, 7))
    assert default_lambda(m) == pytest.approx(0.1 * msr(m, range(12), range(7)))


class TestSeedBiclusters:
    def test_cross_product_partitions(self):
        m = np.zeros((8, 6))
        m[:4, :3] = 5.0
        m[4:, 3:] = 9.0
        seeds = seed_biclusters(m, 2, 2, PsoConfig(n_particles=10, max_iter=40, seed=0))
        assert len(seeds) == 4
        row_union = sorted(r for s in seeds for r in s.rows)
        col_union = sorted(c for s in seeds for c in s.cols)
        assert row_union == sorted(list(range(8)) * 2)
        assert col_union == sorted(list(range(6)) * 2)

    def test_constant_blocks_have_zero_msr(self):
        m = np.zeros((8, 6))
        m[:4, :3] = 5.0
        m[4:, 3:] = 9.0
        seeds = seed_biclusters(m, 2, 2, PsoConfig(n_particles=10, max_iter=40, seed=0))
        diagonal = [s for s in seeds
                    if set(s.rows) in ({0, 1, 2, 3}, {4, 5, 6, 7})
                    and set(s.cols) in ({0, 1, 2}, {3, 4, 5})
                    and (0 in s.rows) == (0 in s.cols)]
        assert len(diagonal) == 2
        assert all(s.msr == pytest.approx(0.0, abs=1e-12) for s in diagonal)

    def test_seed_msr_matches_oracle(self):
        m, _, _ = planted_matrix()
        seeds = seed_biclusters(m, 3, 2, PsoConfig(n_particles=10, max_iter=30, seed=2))
        for s in seeds:
            assert s.msr == pytest.approx(msr_oracle(m, s.rows, s.cols), rel=1e-9)

    def test_config_reaches_both_runs_with_the_next_seed(self, monkeypatch):
        seen = []

        def recording(data, k, cfg):
            seen.append(cfg)
            return pso_kmeans(data, k, cfg)

        monkeypatch.setattr(psobiclust, "pso_kmeans", recording)
        m, _, _ = planted_matrix()
        cfg = PsoConfig(n_particles=6, max_iter=5, w=0.5, c1=1.2, c2=1.7, seed=4)
        seed_biclusters(m, 2, 2, cfg)
        assert seen == [cfg, replace(cfg, seed=5)]

    def test_degenerate_matrix_rejected(self):
        cfg = PsoConfig(n_particles=4, max_iter=5)
        with pytest.raises(ContractError):
            seed_biclusters(np.zeros((1, 5)), 1, 2, cfg)
        with pytest.raises(ContractError):
            seed_biclusters(np.zeros((5, 1)), 2, 1, cfg)
        with pytest.raises(ContractError):
            seed_biclusters(np.zeros((4, 4)), 5, 2, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_are_refused(self, bad):
        m, _, _ = planted_matrix()
        m[6, 2] = bad
        with pytest.raises(ContractError, match="^item 6 holds a non-finite value$"):
            seed_biclusters(m, 2, 2, PsoConfig(n_particles=4, max_iter=5))


class TestPsoBicluster:
    def test_constant_matrix_floor(self):
        m = np.full((6, 5), 2.0)
        seed = make_bicluster(m, [0, 1], [0, 1])
        out = pso_bicluster(m, PsoConfig(n_particles=4, max_iter=30, seed=0), [seed])
        assert out[0].msr == pytest.approx(0.0, abs=1e-12)
        assert out[0].volume >= seed.volume

    def test_full_matrix_seed_bounds_gbest(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(10, 6))
        full = make_bicluster(m, range(10), range(6))
        lam = default_lambda(m)
        out = pso_bicluster(m, PsoConfig(n_particles=5, max_iter=40, seed=1), [full])
        assert penalized(out[0], lam, 60) <= penalized(full, lam, 60) + 1e-12

    def test_planted_block_recovery_through_pipeline(self):
        m, R, C = planted_matrix()
        hits = 0
        for seed in range(3):
            seeds = seed_biclusters(m, 2, 2, PsoConfig(n_particles=20, max_iter=100, seed=seed))
            out = pso_bicluster(m, PsoConfig(n_particles=30, max_iter=300, seed=seed), seeds)
            if (jaccard(set(out[0].rows), R) >= 0.8
                    and jaccard(set(out[0].cols), C) >= 0.8):
                hits += 1
        assert hits == 3

    def test_deterministic(self):
        m, _, _ = planted_matrix(seed=6)
        seed = make_bicluster(m, range(5), range(5))
        cfg = PsoConfig(n_particles=6, max_iter=40, seed=9)
        a = pso_bicluster(m, cfg, [seed])
        b = pso_bicluster(m, cfg, [seed])
        assert a == b

    def test_output_sorted_distinct_gbest_first(self):
        m, _, _ = planted_matrix(seed=7)
        seeds = [make_bicluster(m, range(4), range(4)),
                 make_bicluster(m, range(10, 18), range(8, 14))]
        lam = 0.05
        out = pso_bicluster(m, PsoConfig(n_particles=10, max_iter=60, seed=3),
                            seeds, lam=lam)
        keys = [(b.rows, b.cols) for b in out]
        assert len(keys) == len(set(keys))
        fits = [penalized(b, lam, 800) for b in out]
        assert fits[0] == min(fits)
        assert fits[1:] == sorted(fits[1:])

    def test_returned_invariants(self):
        m, _, _ = planted_matrix(seed=8)
        seed = make_bicluster(m, range(6), range(6))
        out = pso_bicluster(m, PsoConfig(n_particles=5, max_iter=30, seed=4), [seed])
        for b in out:
            assert b.rows and b.cols
            assert b.volume == len(b.rows) * len(b.cols)
            assert b.msr == pytest.approx(msr(m, b.rows, b.cols), abs=1e-9)

    def test_seed_validation(self):
        m = np.zeros((4, 4))
        cfg = PsoConfig(n_particles=2, max_iter=5)
        with pytest.raises(ContractError):
            pso_bicluster(m, cfg, [])
        bad = Bicluster(rows=(0, 9), cols=(0,), msr=0.0, volume=2)
        with pytest.raises(ContractError):
            pso_bicluster(m, cfg, [bad])

    def test_negative_seed_indices_are_refused(self):
        # Python indexing would read row -1 as row 9 and column -2 as column 3.
        m = np.arange(50.0).reshape(10, 5)
        cfg = PsoConfig(n_particles=2, max_iter=5)
        for rows, cols in (((-1, 0), (0, 1)), ((0, 1), (-2, 1))):
            bad = Bicluster(rows=rows, cols=cols, msr=0.0, volume=4)
            with pytest.raises(ContractError, match="index out of range"):
                pso_bicluster(m, cfg, [bad])

    def test_lambda_overflowing_the_volume_reward_is_refused(self):
        m = np.arange(24.0).reshape(6, 4)
        seed = make_bicluster(m, [0, 1], [0, 1])
        cfg = PsoConfig(n_particles=2, max_iter=5)
        with pytest.raises(ContractError, match="overflows the volume reward"):
            pso_bicluster(m, cfg, [seed], lam=1e307)
        assert pso_bicluster(m, cfg, [seed], lam=1e306)


class TestRanking:
    def test_crossings_come_out_in_fitness_order_whatever_the_config(self):
        m, _, _ = planted_matrix(seed=9)
        lam, total = default_lambda(m), m.size
        seeds = seed_biclusters(m, 3, 2, PsoConfig(n_particles=10, max_iter=30, seed=1))
        want = sorted(seeds, key=lambda b: (penalized(b, lam, total), b.rows, b.cols))
        for cfg in (PsoConfig(n_particles=1, max_iter=1),
                    PsoConfig(n_particles=30, max_iter=300, w=0.1, seed=8)):
            assert pso_bicluster(m, cfg, seeds) == want
            assert pso_bicluster(m, cfg, seeds[::-1], lam=lam) == want

    def test_equal_fitness_goes_to_lower_rows_then_lower_columns(self):
        m = np.full((6, 5), 3.0)  # every submatrix has msr 0
        cells = [((2, 3), (0, 1)), ((0, 1), (2, 4)), ((0, 1), (0, 3)), ((0, 5), (1, 2))]
        seeds = [make_bicluster(m, rows, cols) for rows, cols in cells]
        out = pso_bicluster(m, PsoConfig(n_particles=2, max_iter=5), seeds, lam=0.5)
        assert [(b.rows, b.cols) for b in out] == sorted(cells)

    def test_repeated_seeds_come_out_once_with_their_exact_msr(self):
        m, _, _ = planted_matrix(seed=3)
        seed = make_bicluster(m, range(5, 13), range(3, 9))
        stale = Bicluster(rows=seed.rows, cols=seed.cols, msr=99.0, volume=seed.volume)
        out = pso_bicluster(m, PsoConfig(n_particles=2, max_iter=5), [seed, stale, seed])
        assert out == [seed]

    def test_more_seeds_than_a_swarm_holds_are_ranked(self):
        m, _, _ = planted_matrix(seed=4)
        seeds = seed_biclusters(m, 11, 10, PsoConfig(n_particles=8, max_iter=10))
        assert len(seeds) > 100
        assert len(pso_bicluster(m, PsoConfig(n_particles=2, max_iter=5), seeds)) == \
            len(seeds)


def test_row_permutation_equivariance():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(8, 5))
    seeds = [make_bicluster(m, [0, 1, 2], [0, 1]),
             make_bicluster(m, [4, 5, 6, 7], [2, 3, 4]),
             make_bicluster(m, [1, 3, 5], [0, 2, 4]),
             make_bicluster(m, [0, 7], [1, 3])]
    cfg = PsoConfig(n_particles=2, max_iter=40, seed=0)
    out_a = pso_bicluster(m, cfg, seeds)

    perm = np.array([3, 0, 6, 1, 7, 2, 5, 4])  # new row i holds old row perm[i]
    inv = np.argsort(perm)
    m_p = m[perm]
    seeds_p = [make_bicluster(m_p, [inv[r] for r in s.rows], s.cols) for s in seeds]
    out_b = pso_bicluster(m_p, cfg, seeds_p)

    def mapped(b):
        return (tuple(sorted(int(inv[r]) for r in b.rows)), b.cols)

    assert [mapped(b) for b in out_a] == [(b.rows, b.cols) for b in out_b]
    assert [b.msr for b in out_a] == pytest.approx([b.msr for b in out_b], rel=1e-12)
