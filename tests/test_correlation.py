"""Unit + property tests for repro.ld.correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import random_alignment
from repro.errors import LDError
from repro.ld.correlation import (
    r_squared_from_counts,
    r_squared_from_site_counts,
    r_squared_pair,
    r_squared_pairs,
)


def reference_r2(col_i: np.ndarray, col_j: np.ndarray) -> float:
    """Squared Pearson correlation computed by numpy.corrcoef (oracle)."""
    c = np.corrcoef(col_i, col_j)[0, 1]
    return float(c * c)


class TestRSquaredFromCounts:
    def test_perfect_ld(self):
        # identical columns: p_i = p_j = p_ij = 0.5 over 4 samples
        r2 = r_squared_from_counts(
            np.array([2]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(1.0)

    def test_no_ld_independent(self):
        # p_i = p_j = 0.5, p_ij = 0.25 -> numerator 0
        r2 = r_squared_from_counts(
            np.array([1]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(0.0)

    def test_monomorphic_maps_to_zero(self):
        r2 = r_squared_from_counts(
            np.array([0]), np.array([0]), np.array([2]), 4
        )
        assert r2[0] == 0.0

    def test_monomorphic_strict_raises(self):
        with pytest.raises(LDError, match="monomorphic"):
            r_squared_from_counts(
                np.array([0]), np.array([0]), np.array([2]), 4, strict=True
            )

    def test_rejects_zero_samples(self):
        with pytest.raises(LDError):
            r_squared_from_counts(np.array([0]), np.array([0]), np.array([0]), 0)

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        n = 50
        c_i = rng.integers(1, n, 200)
        c_j = rng.integers(1, n, 200)
        n11 = np.minimum(c_i, c_j)
        r2 = r_squared_from_counts(n11, c_i, c_j, n)
        assert (r2 >= 0).all() and (r2 <= 1).all()

    def test_anticorrelation_is_positive_r2(self):
        # complementary columns: n11 = 0, both freq 0.5 -> r = -1, r2 = 1
        r2 = r_squared_from_counts(
            np.array([0]), np.array([2]), np.array([2]), 4
        )
        assert r2[0] == pytest.approx(1.0)


class TestRSquaredPair:
    def test_matches_corrcoef(self, small_alignment):
        m = small_alignment.matrix
        for i, j in [(0, 1), (3, 17), (10, 59)]:
            expected = reference_r2(m[:, i], m[:, j])
            assert r_squared_pair(small_alignment, i, j) == pytest.approx(
                expected, abs=1e-12
            )

    def test_self_pair_is_one(self, small_alignment):
        assert r_squared_pair(small_alignment, 4, 4) == pytest.approx(1.0)

    def test_symmetric(self, small_alignment):
        a = r_squared_pair(small_alignment, 2, 9)
        b = r_squared_pair(small_alignment, 9, 2)
        assert a == pytest.approx(b)

    def test_out_of_range(self, small_alignment):
        with pytest.raises(LDError):
            r_squared_pair(small_alignment, 0, 999)


class TestRSquaredPairs:
    def test_matches_scalar(self, small_alignment):
        i = np.array([0, 3, 10, 5])
        j = np.array([1, 17, 59, 5])
        batch = r_squared_pairs(small_alignment, i, j)
        for k in range(i.size):
            assert batch[k] == pytest.approx(
                r_squared_pair(small_alignment, int(i[k]), int(j[k])), abs=1e-12
            )

    def test_empty(self, small_alignment):
        out = r_squared_pairs(small_alignment, np.array([]), np.array([]))
        assert out.size == 0

    def test_shape_mismatch(self, small_alignment):
        with pytest.raises(LDError, match="shapes differ"):
            r_squared_pairs(small_alignment, np.array([0, 1]), np.array([0]))

    def test_out_of_range(self, small_alignment):
        with pytest.raises(LDError, match="out of range"):
            r_squared_pairs(small_alignment, np.array([0]), np.array([-1]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_corrcoef(self, seed):
        aln = random_alignment(15, 10, seed=seed)
        rng = np.random.default_rng(seed + 1)
        i = rng.integers(0, 10, size=5)
        j = rng.integers(0, 10, size=5)
        got = r_squared_pairs(aln, i, j)
        m = aln.matrix
        for k in range(5):
            if i[k] == j[k]:
                continue
            expected = reference_r2(m[:, i[k]], m[:, j[k]])
            assert got[k] == pytest.approx(expected, abs=1e-10)


class TestRSquaredFromSiteCounts:
    """The block tail over per-site counts equals the pairwise tail on
    the broadcast counts byte for byte — for any counts, consistent with
    a real alignment or not, monomorphic rows and columns included."""

    @staticmethod
    def _pairwise(n11, c_rows, c_cols, n):
        return r_squared_from_counts(
            n11,
            np.broadcast_to(c_rows[:, None], n11.shape),
            np.broadcast_to(c_cols[None, :], n11.shape),
            n,
        )

    @given(
        n=st.integers(1, 300),
        rows=st.integers(0, 9),
        cols=st.integers(0, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equals_pairwise_tail(self, n, rows, cols, seed):
        rng = np.random.default_rng(seed)
        c_rows = rng.integers(0, n + 1, size=rows)
        c_cols = rng.integers(0, n + 1, size=cols)
        # Pin some sites monomorphic (0 or n) and give them counts no
        # real alignment has, so only the explicit zeroing yields 0.
        c_rows[: rows // 3] = 0
        c_cols[: cols // 3] = n
        n11 = rng.integers(0, n + 1, size=(rows, cols)).astype(np.float32)
        want = self._pairwise(n11, c_rows, c_cols, n)
        got = r_squared_from_site_counts(n11, c_rows, c_cols, n)
        assert got.tobytes() == want.tobytes()
        buf = np.full((rows + 2, cols + 3), -1.0)
        view = buf[1 : rows + 1, 2 : cols + 2]
        assert r_squared_from_site_counts(
            n11, c_rows, c_cols, n, out=view
        ) is view
        assert np.ascontiguousarray(view).tobytes() == want.tobytes()

    def test_strict_raises_on_a_monomorphic_site(self):
        n11 = np.zeros((2, 2))
        with pytest.raises(LDError, match="monomorphic"):
            r_squared_from_site_counts(
                n11, np.array([1, 0]), np.array([1, 2]), 4, strict=True
            )
        # An empty block has no pair to be undefined.
        r_squared_from_site_counts(
            np.zeros((0, 2)), np.array([], dtype=int), np.array([0, 1]), 4,
            strict=True,
        )

    def test_rejects_zero_samples(self):
        with pytest.raises(LDError):
            r_squared_from_site_counts(
                np.zeros((1, 1)), np.array([0]), np.array([0]), 0
            )
