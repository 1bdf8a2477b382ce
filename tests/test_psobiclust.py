import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import psobiclust
from motifswarm.errors import ContractError
from motifswarm.metrics import msr
from motifswarm.pso import MAX_PARTICLES, PsoConfig
from motifswarm.psobiclust import (
    Bicluster,
    default_lambda,
    make_bicluster,
    pso_bicluster,
    msr_ranker,
    seed_biclusters,
)
from motifswarm.psokmeans import pso_kmeans

from helpers import bicluster_histories, msr_oracle, planted_matrix


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

    def test_refining_a_planted_block_stops_once_it_stalls(self):
        # The seeds already hold the planted block, so the refining swarm's
        # gbest never improves after its first scoring: it ends at iteration
        # psobiclust.STALL_ITERATIONS + 1 (21) of the 300 allowed and still
        # returns the block.
        m, R, C = planted_matrix()
        for seed in range(3):
            seeds = seed_biclusters(m, 2, 2, PsoConfig(n_particles=20, max_iter=100,
                                                       seed=seed))
            with bicluster_histories() as histories:
                out = pso_bicluster(m, PsoConfig(n_particles=30, max_iter=300, seed=seed),
                                    seeds)
            [fits] = histories
            assert len(fits) <= psobiclust.STALL_ITERATIONS + 1, seed
            assert (set(out[0].rows), set(out[0].cols)) == (R, C), seed

    def test_gbest_monotone_via_callback(self):
        m, _, _ = planted_matrix(seed=5)
        seed = make_bicluster(m, range(0, 9), range(0, 7))
        with bicluster_histories() as histories:
            pso_bicluster(m, PsoConfig(n_particles=8, max_iter=50, seed=2), [seed])
        [fits] = histories
        assert len(fits) == 50
        assert all(b <= a for a, b in zip(fits, fits[1:]))

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
        # Python indexing would read row -1 as row 9, and column -2 as bit
        # n_rows - 2, which is row 8.
        m = np.arange(50.0).reshape(10, 5)
        cfg = PsoConfig(n_particles=2, max_iter=5)
        for rows, cols in (((-1, 0), (0, 1)), ((0, 1), (-2, 1))):
            bad = Bicluster(rows=rows, cols=cols, msr=0.0, volume=4)
            with pytest.raises(ContractError, match="seed indices outside matrix"):
                pso_bicluster(m, cfg, [bad])

    def test_lambda_overflowing_the_volume_reward_is_refused(self):
        m = np.arange(24.0).reshape(6, 4)
        seed = make_bicluster(m, [0, 1], [0, 1])
        cfg = PsoConfig(n_particles=2, max_iter=5)
        with pytest.raises(ContractError, match="overflows the volume reward"):
            pso_bicluster(m, cfg, [seed], lam=1e307)
        assert pso_bicluster(m, cfg, [seed], lam=1e306)

    def test_more_seeds_than_particles_allowed_is_an_error(self):
        m = np.arange(24.0).reshape(6, 4)
        seeds = [make_bicluster(m, [0, 1], [0, 1])] * (MAX_PARTICLES + 1)
        cfg = PsoConfig(n_particles=2, max_iter=5)
        with pytest.raises(ContractError, match=f"{MAX_PARTICLES + 1} seed"):
            pso_bicluster(m, cfg, seeds)
        assert len(pso_bicluster(m, cfg, seeds[:MAX_PARTICLES])) >= 1


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 12), n_cols=st.integers(1, 8), n=st.integers(1, 8),
       seed=st.integers(0, 2**16), scale=st.sampled_from([1.0, 50.0]),
       offset=st.sampled_from([0.0, 100.0]))
def test_swarm_msr_matches_oracle(n_rows, n_cols, n, seed, scale, offset):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n_rows, n_cols)) * scale + offset
    rows = rng.random((n, n_rows)) < rng.random((n, 1))
    cols = rng.random((n, n_cols)) < rng.random((n, 1))
    rows[0], cols[0] = True, True  # the full matrix
    rows[np.arange(n), rng.integers(n_rows, size=n)] = True
    cols[np.arange(n), rng.integers(n_cols, size=n)] = True
    got = msr_ranker(m)(rows.astype(float), cols.astype(float))
    assert got.shape == (n,)
    for p in range(n):
        r, c = np.flatnonzero(rows[p]), np.flatnonzero(cols[p])
        if r.size == 1 or c.size == 1:
            assert got[p] == 0.0
        else:
            assert math.isclose(got[p], msr_oracle(m, r, c), rel_tol=1e-9,
                                abs_tol=1e-12 * scale**2)


class PermutedRng:
    """Mirrors a base generator with every (n, n_bits) draw re-indexed along
    the bit axis, so a run on permuted data consumes corresponding numbers."""

    def __init__(self, base, bit_perm):
        self.base = base
        self.bit_perm = bit_perm

    def _remap(self, draw):
        if draw.ndim == 2 and draw.shape[1] == len(self.bit_perm):
            return draw[:, self.bit_perm]
        return draw

    def random(self, size=None):
        return self._remap(np.asarray(self.base.random(size)))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._remap(np.asarray(self.base.uniform(low, high, size)))


class RecordingRng:
    """Passes draws through to a base generator and logs (method, size)."""

    def __init__(self, base):
        self.base = base
        self.log = []

    def random(self, size=None):
        self.log.append(("random", size))
        return self.base.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        self.log.append(("uniform", size))
        return self.base.uniform(low, high, size)


def test_draws_speeds_once_then_three_per_move():
    """Initial speeds, then r1, r2 and the bit draw for each move: one fewer
    than the iterations, since the last scoring is not followed by a move.
    The per-seed artifact bytes depend on this sequence."""
    m, _, _ = planted_matrix(seed=4)
    seed = make_bicluster(m, range(6), range(5))
    rng = RecordingRng(np.random.default_rng(0))
    pso_bicluster(m, PsoConfig(n_particles=3, max_iter=4, seed=0), [seed], rng=rng)
    shape = (3, 60)
    assert [(name, tuple(size)) for name, size in rng.log] == \
        [("uniform", shape)] + [("random", shape)] * 3 * 3


def test_row_permutation_equivariance():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(8, 5))
    seeds = [make_bicluster(m, [0, 1, 2], [0, 1]),
             make_bicluster(m, [4, 5, 6, 7], [2, 3, 4])]
    cfg = PsoConfig(n_particles=2, max_iter=40, seed=0)
    out_a = pso_bicluster(m, cfg, seeds, rng=np.random.default_rng(99))

    perm = np.array([3, 0, 6, 1, 7, 2, 5, 4])  # new row i holds old row perm[i]
    inv = np.argsort(perm)
    m_p = m[perm]
    seeds_p = [make_bicluster(m_p, [inv[r] for r in s.rows], s.cols) for s in seeds]
    bit_perm = np.concatenate([perm, 8 + np.arange(5)])
    out_b = pso_bicluster(m_p, cfg, seeds_p,
                          rng=PermutedRng(np.random.default_rng(99), bit_perm))

    def mapped(b):
        return (tuple(sorted(int(inv[r]) for r in b.rows)), b.cols)

    assert len(out_a) == len(out_b)
    assert mapped(out_a[0]) == (out_b[0].rows, out_b[0].cols)
    assert {mapped(b) for b in out_a} == {(b.rows, b.cols) for b in out_b}
