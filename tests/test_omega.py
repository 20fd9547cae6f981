"""Unit + property tests for the omega statistic (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import SumMatrix
from repro.core.omega import (
    DENOMINATOR_OFFSET,
    OmegaWorkspace,
    omega_brute_force,
    omega_from_sums,
    omega_max_at_split,
    omega_split_matrix,
)
from repro.datasets.generators import random_alignment, sweep_signature_alignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_matrix


class TestOmegaFromSums:
    def test_hand_computed(self):
        # l = 3, r = 2: C(3,2)+C(2,2) = 4 within pairs, 6 cross pairs
        omega = omega_from_sums(2.0, 1.0, 0.6, 3, 2, eps=0.0)
        expected = ((2.0 + 1.0) / 4.0) / (0.6 / 6.0)
        assert omega == pytest.approx(expected)

    def test_eps_guards_zero_cross(self):
        omega = omega_from_sums(1.0, 1.0, 0.0, 3, 3)
        assert np.isfinite(omega)
        assert omega == pytest.approx((2.0 / 6.0) / DENOMINATOR_OFFSET)

    def test_both_singleton_windows_zero(self):
        assert omega_from_sums(0.0, 0.0, 0.5, 1, 1) == 0.0

    def test_one_singleton_window(self):
        # l = 1 contributes no within pairs but normalization uses C(r,2)
        omega = omega_from_sums(0.0, 3.0, 1.2, 1, 4, eps=0.0)
        expected = (3.0 / 6.0) / (1.2 / 4.0)
        assert omega == pytest.approx(expected)

    def test_vectorized_broadcast(self):
        out = omega_from_sums(
            np.array([1.0, 2.0]), 1.0, np.array([0.5, 0.5]), 3, 3
        )
        assert out.shape == (2,)
        assert out[1] > out[0]

    def test_rejects_zero_window(self):
        with pytest.raises(ScanConfigError):
            omega_from_sums(1.0, 1.0, 1.0, 0, 3)

    def test_higher_cross_ld_lowers_omega(self):
        low = omega_from_sums(2.0, 2.0, 0.1, 4, 4)
        high = omega_from_sums(2.0, 2.0, 3.0, 4, 4)
        assert low > high


class TestBruteForceOracle:
    def test_matches_vectorized_single(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        for a, c, b in [(0, 10, 30), (5, 20, 40), (2, 3, 6)]:
            bf = omega_brute_force(r2, a, c, b)
            res = omega_max_at_split(sm, np.array([a]), c, np.array([b]))
            assert res.omega == pytest.approx(bf, rel=1e-9)

    def test_rejects_bad_geometry(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 5, 4, 10)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 0, 10, 10)
        with pytest.raises(ScanConfigError):
            omega_brute_force(r2, 0, 10, 999)


class TestSplitMatrix:
    def test_shape_and_orientation(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.array([0, 5, 10])
        rj = np.array([30, 40])
        scores = omega_split_matrix(sm, li, 20, rj)
        assert scores.shape == (2, 3)
        for jj, j in enumerate(rj):
            for ii, i in enumerate(li):
                bf = omega_brute_force(r2, int(i), 20, int(j))
                assert scores[jj, ii] == pytest.approx(bf, rel=1e-9)

    def test_empty_gives_empty(self, small_alignment):
        sm = SumMatrix(r_squared_matrix(small_alignment))
        out = omega_split_matrix(sm, np.array([], dtype=int), 10, np.array([20]))
        assert out.shape == (1, 0)

    def test_scores_non_negative(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.arange(0, 21)
        rj = np.arange(21, 60)
        scores = omega_split_matrix(sm, li, 20, rj)
        assert (scores >= 0).all()


class TestOmegaMax:
    def test_max_is_argmax(self, small_alignment):
        r2 = r_squared_matrix(small_alignment)
        sm = SumMatrix(r2)
        li = np.arange(0, 15)
        rj = np.arange(16, 50)
        res = omega_max_at_split(sm, li, 15, rj)
        scores = omega_split_matrix(sm, li, 15, rj)
        assert res.omega == pytest.approx(scores.max())
        assert res.n_evaluations == scores.size
        bf = omega_brute_force(r2, res.left_border, 15, res.right_border)
        assert res.omega == pytest.approx(bf, rel=1e-9)

    def test_empty_candidates(self, small_alignment):
        sm = SumMatrix(r_squared_matrix(small_alignment))
        res = omega_max_at_split(sm, np.array([], dtype=int), 5, np.array([10]))
        assert res.omega == 0.0
        assert res.left_border == -1
        assert res.n_evaluations == 0

    def test_sweep_signal_beats_random(self):
        """omega at the centre of a planted sweep must dominate omega on
        an LD-free alignment of the same shape — the statistic's purpose."""
        sweep = sweep_signature_alignment(60, 200, seed=5)
        neutral = random_alignment(60, 200, length=sweep.length, seed=5)

        def centre_omega(aln):
            r2 = r_squared_matrix(aln)
            sm = SumMatrix(r2)
            c = aln.n_sites // 2
            li = np.arange(0, c - 1)
            rj = np.arange(c + 2, aln.n_sites)
            return omega_max_at_split(sm, li, c, rj).omega

        assert centre_omega(sweep) > 5 * centre_omega(neutral)

    @given(
        n_sites=st.integers(6, 20),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_vectorized_equals_brute(self, n_sites, seed):
        aln = random_alignment(10, n_sites, seed=seed)
        r2 = r_squared_matrix(aln)
        sm = SumMatrix(r2)
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, n_sites - 2))
        a = int(rng.integers(0, c + 1))
        b = int(rng.integers(c + 1, n_sites))
        bf = omega_brute_force(r2, a, c, b)
        res = omega_max_at_split(sm, np.array([a]), c, np.array([b]))
        assert res.omega == pytest.approx(bf, rel=1e-9, abs=1e-12)


# --------------------------------------------------------------------- #
# in-place Eq. 2: bitwise equal to omega_split_matrix + argmax
# --------------------------------------------------------------------- #


def _bits(omega, left, right, n_evaluations):
    """Comparable result tuple; NaN scores compare by their bytes."""
    return (np.float64(omega).tobytes(), left, right, n_evaluations)


def _reference(sums, li, c, rj, eps):
    scores = omega_split_matrix(sums, li, c, rj, eps=eps)
    flat = int(np.argmax(scores))
    jj, ii = np.unravel_index(flat, scores.shape)
    return _bits(scores[jj, ii], int(li[ii]), int(rj[jj]), scores.size)


def _in_place(sums, li, c, rj, eps, workspace):
    res = omega_max_at_split(sums, li, c, rj, eps=eps, workspace=workspace)
    return _bits(
        res.omega, res.left_border, res.right_border, res.n_evaluations
    )


def _r2(kind: str, w: int, seed: int, cut: int) -> np.ndarray:
    """Symmetric r² test matrices, including ones whose cross sums are
    exactly zero (NaN and inf scores at eps = 0) and ones carrying a NaN
    pair, whose NaN scores can first appear in a late row block."""
    rng = np.random.default_rng(seed)
    a = rng.random((w, w))
    if kind == "sparse":
        a *= rng.random((w, w)) < 0.2
    r2 = (a + a.T) / 2.0
    if kind == "zeros":
        r2[:] = 0.0
    elif kind == "blocks":  # LD inside each flank, none across ``cut``
        r2[:cut, cut:] = 0.0
        r2[cut:, :cut] = 0.0
    elif kind == "nan":
        i, j = rng.integers(0, w, size=2)
        r2[i, j] = r2[j, i] = np.nan
    return r2


@st.composite
def _eq2_cases(draw, max_w=24):
    w = draw(st.integers(2, max_w))
    c = draw(st.integers(0, w - 2))
    kind = draw(
        st.sampled_from(["random", "sparse", "zeros", "blocks", "nan"])
    )
    sums = SumMatrix(_r2(kind, w, draw(st.integers(0, 2**16)), c + 1))
    l0 = draw(st.integers(0, c))
    l1 = draw(st.integers(l0, c))
    r0 = draw(st.integers(c + 1, w - 1))
    r1 = draw(st.integers(r0, w - 1))
    eps = draw(st.sampled_from([DENOMINATOR_OFFSET, 0.0, 1.0]))
    return sums, np.arange(l0, l1 + 1), c, np.arange(r0, r1 + 1), eps


class TestInPlaceEq2:
    @given(case=_eq2_cases(), block_scores=st.sampled_from([1, 3, 7, 1 << 15]))
    @settings(max_examples=300, deadline=None)
    def test_property_bitwise_equals_split_matrix(self, case, block_scores):
        """Every row-block size (down to one row per block) merges to the
        same first-hit maximum as one argmax over the whole grid."""
        sums, li, c, rj, eps = case
        ws = OmegaWorkspace()
        ws.BLOCK_SCORES = block_scores
        assert _in_place(sums, li, c, rj, eps, ws) == _reference(
            sums, li, c, rj, eps
        )

    @given(
        cases=st.lists(_eq2_cases(max_w=40), min_size=2, max_size=8),
        block_scores=st.sampled_from([5, 1 << 15]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_workspace_across_growing_and_shrinking_shapes(
        self, cases, block_scores
    ):
        ws = OmegaWorkspace()
        ws.BLOCK_SCORES = block_scores
        for sums, li, c, rj, eps in cases + cases[::-1]:
            assert _in_place(sums, li, c, rj, eps, ws) == _reference(
                sums, li, c, rj, eps
            )

    @pytest.mark.parametrize("eps", [DENOMINATOR_OFFSET, 0.0])
    def test_corner_without_within_pairs(self, eps):
        """l = r = 1 (borders c and c + 1) scores 0 whatever the sums."""
        sums = SumMatrix(_r2("random", 12, 1, 0))
        c = 5
        for li, rj in (
            (np.array([c]), np.array([c + 1])),
            (np.arange(2, c + 1), np.arange(c + 1, 10)),
        ):
            got = _in_place(sums, li, c, rj, eps, OmegaWorkspace())
            assert got == _reference(sums, li, c, rj, eps)
        single = omega_max_at_split(sums, np.array([c]), c, np.array([c + 1]))
        assert single.omega == 0.0

    def test_zero_cross_sums_nan_and_inf_first_hit(self):
        """eps = 0 with zero cross sums: 0/0 = NaN beats every number and
        the first NaN wins; x/0 = inf otherwise. With LD only inside the
        flanks the l = r = 1 corner is the one 0/0 cell."""
        c = 6
        ws = OmegaWorkspace()
        ws.BLOCK_SCORES = 4
        for kind, l1, expect in (
            ("zeros", c, np.isnan),
            ("blocks", c, np.isnan),
            ("blocks", c - 1, np.isinf),
        ):
            sums = SumMatrix(_r2(kind, 14, 3, c + 1))
            li, rj = np.arange(0, l1 + 1), np.arange(c + 1, 14)
            got = _in_place(sums, li, c, rj, 0.0, ws)
            assert got == _reference(sums, li, c, rj, 0.0)
            assert expect(np.frombuffer(got[0])[0])

    def test_nan_in_a_late_row_block_wins(self):
        """A NaN pair far to the right poisons only the widest right
        windows: finite scores in early row blocks, NaN in late ones —
        the merge must still return the first NaN, as np.argmax does."""
        r2 = _r2("random", 30, 6, 0)
        r2[2, 27] = r2[27, 2] = np.nan
        sums = SumMatrix(r2)
        c, li, rj = 9, np.arange(0, 10), np.arange(10, 30)
        ws = OmegaWorkspace()
        ws.BLOCK_SCORES = 10  # one row per block
        got = _in_place(sums, li, c, rj, DENOMINATOR_OFFSET, ws)
        assert got == _reference(sums, li, c, rj, DENOMINATOR_OFFSET)
        assert np.isnan(np.frombuffer(got[0])[0])
        assert got[2] == 27

    def test_single_border_on_one_side(self):
        sums = SumMatrix(_r2("random", 20, 4, 0))
        c = 9
        for li, rj in (
            (np.array([3]), np.arange(c + 1, 20)),
            (np.arange(0, c + 1), np.array([15])),
            (np.array([c]), np.array([c + 1])),
        ):
            assert _in_place(sums, li, c, rj, DENOMINATOR_OFFSET, None) == (
                _reference(sums, li, c, rj, DENOMINATOR_OFFSET)
            )

    @given(
        w=st.integers(4, 30),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_contiguous_borders_take_the_fallback(self, w, seed, data):
        """Gappy, unsorted or repeated border arrays are scored by
        omega_split_matrix; the result is the same either way."""
        c = data.draw(st.integers(0, w - 2))
        sums = SumMatrix(_r2("sparse", w, seed, c + 1))
        li = np.array(
            data.draw(st.lists(st.integers(0, c), min_size=1, max_size=8))
        )
        rj = np.array(
            data.draw(
                st.lists(st.integers(c + 1, w - 1), min_size=1, max_size=8)
            )
        )
        eps = data.draw(st.sampled_from([DENOMINATOR_OFFSET, 0.0]))
        assert _in_place(sums, li, c, rj, eps, OmegaWorkspace()) == (
            _reference(sums, li, c, rj, eps)
        )

    def test_out_of_range_runs_rejected(self):
        sums = SumMatrix(_r2("random", 10, 5, 0))
        with pytest.raises(ScanConfigError):
            omega_max_at_split(sums, np.arange(0, 5), 4, np.arange(5, 11))
        with pytest.raises(ScanConfigError):
            omega_max_at_split(sums, np.arange(0, 6), 4, np.arange(5, 9))
