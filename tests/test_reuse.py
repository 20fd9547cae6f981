"""Unit tests for the r2 data-reuse cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse import R2RegionCache, ReuseStats, simulate_fresh_entries
from repro.datasets.generators import haplotype_block_alignment
from repro.errors import ScanConfigError
from repro.ld.gemm import r_squared_block
from repro.ld.operands import LDBackendFiller, operands_for


class TestReuseStats:
    def test_fraction_empty(self):
        assert ReuseStats().reuse_fraction == 0.0

    def test_fraction(self):
        s = ReuseStats(entries_computed=25, entries_reused=75)
        assert s.reuse_fraction == pytest.approx(0.75)


class TestR2RegionCache:
    def test_first_region_computed(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        r2 = cache.region_matrix(0, 19)
        expected = r_squared_block(small_alignment, slice(0, 20), slice(0, 20))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 0
        assert cache.stats.entries_computed == 400

    def test_overlapping_region_correct(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 19)
        r2 = cache.region_matrix(10, 29)
        expected = r_squared_block(small_alignment, slice(10, 30), slice(10, 30))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 100  # 10x10 overlap block

    def test_forward_scan_reuses_majority(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        for start in range(0, 30, 2):
            cache.region_matrix(start, start + 29)
        assert cache.stats.reuse_fraction > 0.5

    def test_disjoint_region_recomputed(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 9)
        cache.region_matrix(30, 39)
        assert cache.stats.entries_reused == 0

    def test_backward_overlap_also_works(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 39)
        r2 = cache.region_matrix(10, 29)
        expected = r_squared_block(small_alignment, slice(10, 30), slice(10, 30))
        np.testing.assert_allclose(r2, expected, atol=1e-12)
        assert cache.stats.entries_reused == 100

    def test_region_shrinks_inside_previous(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 39)
        r2 = cache.region_matrix(10, 19)
        expected = r_squared_block(small_alignment, slice(10, 20), slice(10, 20))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_region_grows_both_sides(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        r2 = cache.region_matrix(10, 39)
        expected = r_squared_block(small_alignment, slice(10, 40), slice(10, 40))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_packed_backend_equivalent(self, small_alignment):
        a = R2RegionCache(small_alignment, backend="gemm")
        b = R2RegionCache(small_alignment, backend="packed")
        for start, stop in [(0, 19), (10, 29), (25, 45)]:
            np.testing.assert_allclose(
                a.region_matrix(start, stop),
                b.region_matrix(start, stop),
                atol=1e-12,
            )

    def test_unknown_backend(self, small_alignment):
        with pytest.raises(ScanConfigError, match="backend"):
            R2RegionCache(small_alignment, backend="quantum")

    def test_bounds(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(-1, 5)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(0, 999)
        with pytest.raises(ScanConfigError):
            cache.region_matrix(10, 5)

    def test_reset_drops_cache(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(0, 19)
        cache.reset()
        cache.region_matrix(5, 24)
        assert cache.stats.entries_reused == 0

    def test_memory_guard(self, small_alignment):
        """An over-wide region fails with a clear message instead of an
        opaque MemoryError."""
        cache = R2RegionCache(small_alignment, max_region_bytes=1000)
        with pytest.raises(ScanConfigError, match="reduce max_window"):
            cache.region_matrix(0, 59)
        # small regions still fine under the tiny cap
        cache.region_matrix(0, 5)

    def test_memory_guard_rejects_silly_cap(self, small_alignment):
        with pytest.raises(ScanConfigError):
            R2RegionCache(small_alignment, max_region_bytes=0)

    def test_served_matrix_is_read_only(self, small_alignment):
        """A served matrix is a view of the cache's anchored buffer:
        writing through it is refused, so it cannot corrupt later reuse."""
        cache = R2RegionCache(small_alignment)
        first = cache.region_matrix(0, 19)
        expected_second = r_squared_block(
            small_alignment, slice(10, 30), slice(10, 30)
        ).copy()
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 123.0
        second = cache.region_matrix(10, 29)
        np.testing.assert_allclose(second, expected_second, atol=1e-12)


class TestDualFreshSegments:
    """Regression tests for the dual-fresh-segment case: a backward jump
    whose region grows past the previous one on *both* sides, leaving
    fresh SNPs left and right of the relocated overlap block.

    The original implementation computed the full-width left rows and the
    full-width right rows independently, so the left-fresh x right-fresh
    cross block was written (and counted) twice — the counters over-stated
    the computed entries even though the matrix values came out right.
    """

    def test_matrix_correct(self, small_alignment):
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        r2 = cache.region_matrix(10, 39)
        expected = r_squared_block(small_alignment, slice(10, 40), slice(10, 40))
        np.testing.assert_allclose(r2, expected, atol=1e-12)

    def test_counter_exact(self, small_alignment):
        """Fresh entries = W^2 - V^2 (V = overlap width): the 30x30 region
        reuses the 10x10 block, so exactly 800 entries are computed — the
        double-counted cross block would have reported 1000."""
        cache = R2RegionCache(small_alignment)
        cache.region_matrix(20, 29)
        before = cache.stats.entries_computed
        cache.region_matrix(10, 39)
        assert cache.stats.entries_computed - before == 30 * 30 - 10 * 10
        assert cache.stats.entries_reused == 10 * 10

    def test_counter_conservation(self, small_alignment):
        """computed + reused must equal the sum of served region areas —
        the invariant the double-count broke."""
        cache = R2RegionCache(small_alignment)
        regions = [(20, 29), (10, 39), (35, 50), (30, 59), (0, 29)]
        for start, stop in regions:
            cache.region_matrix(start, stop)
        area = sum((b - a + 1) ** 2 for a, b in regions)
        assert cache.stats.entries_computed + cache.stats.entries_reused == area

    def test_simulator_cross_check_backward_forward(self, small_alignment):
        """simulate_fresh_entries must agree *exactly* with the corrected
        cache accounting on a sequence containing a dual-fresh region."""
        regions = [(20, 29), (10, 39), (5, 44), (50, 59), (40, 59), (0, 19)]
        cache = R2RegionCache(small_alignment)
        real = []
        prev = 0
        for start, stop in regions:
            cache.region_matrix(start, stop)
            real.append(cache.stats.entries_computed - prev)
            prev = cache.stats.entries_computed
        assert simulate_fresh_entries(regions) == real

    def test_simulator_dual_fresh_value(self):
        # (20,29) then (10,39): 30^2 minus the relocated 10^2 block.
        assert simulate_fresh_entries([(20, 29), (10, 39)]) == [100, 800]


# --------------------------------------------------------------------- #
# the anchored r² buffer
# --------------------------------------------------------------------- #

_ANCHOR_ALN = haplotype_block_alignment(24, 90, seed=17)


@st.composite
def _region_walks(draw):
    """Region sequences mixing forward strides (which outrun the anchor
    and force in-place re-anchors), backward steps, shrinking and growing
    widths, and disjoint jumps."""
    n = _ANCHOR_ALN.n_sites
    start = draw(st.integers(0, n - 1))
    width = draw(st.integers(1, 30))
    regions = []
    for _ in range(draw(st.integers(1, 25))):
        stop = min(n - 1, start + width - 1)
        regions.append((start, stop))
        move = draw(st.sampled_from(["forward", "backward", "jump", "resize"]))
        if move == "forward":
            start += draw(st.integers(1, 8))
        elif move == "backward":
            start -= draw(st.integers(1, 8))
        elif move == "jump":
            start = draw(st.integers(0, n - 1))
        else:
            width = draw(st.integers(1, 30))
        start = min(max(start, 0), n - 1)
    return regions


class TestAnchoredBuffer:
    @given(regions=_region_walks())
    @settings(max_examples=150, deadline=None)
    def test_property_walks_equal_direct_fill(self, regions):
        """Every served region is bitwise the direct fill, is read-only,
        the counters match the pure mirror, and the buffer never exceeds
        1.25 x the widest region served (plus rounding)."""
        cache = R2RegionCache(_ANCHOR_ALN)
        direct = LDBackendFiller(operands_for(_ANCHOR_ALN), "gemm")
        widest = 0
        for start, stop in regions:
            got = cache.region_matrix(start, stop)
            want = direct(slice(start, stop + 1), slice(start, stop + 1))
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert not got.flags.writeable
            widest = max(widest, stop - start + 1)
            assert cache.capacity <= math.ceil(1.25 * widest)
        fresh = simulate_fresh_entries(regions)
        assert cache.stats.entries_computed == sum(fresh)
        total = sum((b - a + 1) ** 2 for a, b in regions)
        assert cache.stats.entries_reused == total - sum(fresh)
        assert cache.stats.regions_served == len(regions)

    def test_forward_scan_re_anchors_in_place(self):
        """A constant-width forward scan keeps serving views of the one
        buffer its first region allocated, across many re-anchors."""
        cache = R2RegionCache(_ANCHOR_ALN)
        first = cache.region_matrix(0, 19)
        capacity = cache.capacity
        assert capacity == 25
        for start in range(1, 71, 3):
            view = cache.region_matrix(start, start + 19)
            assert np.shares_memory(view, first)
            assert cache.capacity == capacity
            want = r_squared_block(
                _ANCHOR_ALN, slice(start, start + 20), slice(start, start + 20)
            )
            assert view.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_backward_scan_re_anchors_in_place(self):
        cache = R2RegionCache(_ANCHOR_ALN)
        first = cache.region_matrix(70, 89)
        for start in range(67, 0, -3):
            view = cache.region_matrix(start, start + 19)
            assert np.shares_memory(view, first)
            want = r_squared_block(
                _ANCHOR_ALN, slice(start, start + 20), slice(start, start + 20)
            )
            assert view.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_wider_region_grows_the_buffer(self):
        cache = R2RegionCache(_ANCHOR_ALN)
        cache.region_matrix(10, 19)
        assert cache.capacity == math.ceil(1.25 * 10)
        wide = cache.region_matrix(12, 51)
        assert cache.capacity == 50
        want = r_squared_block(_ANCHOR_ALN, slice(12, 52), slice(12, 52))
        assert wide.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_capacity_respects_the_byte_cap_and_site_count(self):
        cache = R2RegionCache(_ANCHOR_ALN, max_region_bytes=8 * 21 * 21)
        cache.region_matrix(0, 19)
        assert cache.capacity == 21  # not 25: 25 x 25 would break the cap
        whole = R2RegionCache(_ANCHOR_ALN)
        whole.region_matrix(0, 89)
        assert whole.capacity == 90  # never wider than the alignment


# --------------------------------------------------------------------- #
# filling ahead
# --------------------------------------------------------------------- #


class _HorizonSource:
    """Block source over ``_ANCHOR_ALN`` that serves only sites below
    ``horizon`` (like a streamed chunk) and counts its physical fills.
    :meth:`block_into` takes the cache's ``out`` buffer views;
    :meth:`block` returns fresh blocks."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.calls = 0
        self.entries = 0
        self._filler = LDBackendFiller(operands_for(_ANCHOR_ALN), "gemm")

    def _check(self, rows, cols):
        if max(rows.stop, cols.stop) > self.horizon:
            raise AssertionError(
                f"asked for {rows} x {cols} past horizon {self.horizon}"
            )
        self.calls += 1
        self.entries += (rows.stop - rows.start) * (cols.stop - cols.start)

    def block(self, rows, cols):
        self._check(rows, cols)
        return self._filler(rows, cols)

    def block_into(self, rows, cols, out=None):
        self._check(rows, cols)
        return self._filler(rows, cols, out=out)


@st.composite
def _horizon_walks(draw):
    """A horizon below the site count plus a walk of regions under it."""
    n = _ANCHOR_ALN.n_sites
    horizon = draw(st.integers(2, n - 1))
    start = draw(st.integers(0, horizon - 1))
    width = draw(st.integers(1, 30))
    regions = []
    for _ in range(draw(st.integers(1, 30))):
        regions.append((start, min(horizon - 1, start + width - 1)))
        move = draw(
            st.sampled_from(["forward", "forward", "backward", "jump", "resize"])
        )
        if move == "forward":
            start += draw(st.integers(1, 8))
        elif move == "backward":
            start -= draw(st.integers(1, 8))
        elif move == "jump":
            start = draw(st.integers(0, horizon - 1))
        else:
            width = draw(st.integers(1, 30))
        start = min(max(start, 0), horizon - 1)
    return horizon, regions


class TestFillAhead:
    @given(walk=_horizon_walks(), into=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_property_walks_under_a_horizon(self, walk, into):
        """Forward, backward and disjoint walks under a horizon: every
        view is bitwise the direct fill and read-only, the source is
        never asked past the horizon, the served-region counters equal
        the pure mirror, and the buffer stays within 1.25 x the widest
        region (plus rounding)."""
        horizon, regions = walk
        source = _HorizonSource(horizon)
        cache = R2RegionCache(
            None,
            block_fn=source.block_into if into else source.block,
            n_sites=_ANCHOR_ALN.n_sites,
        )
        cache.horizon = horizon
        widest = 0
        for start, stop in regions:
            got = cache.region_matrix(start, stop)
            want = r_squared_block(
                _ANCHOR_ALN, slice(start, stop + 1), slice(start, stop + 1)
            )
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            widest = max(widest, stop - start + 1)
            assert cache.capacity <= 1.25 * widest + 1
        fresh = simulate_fresh_entries(regions)
        assert cache.stats.entries_computed == sum(fresh)
        total = sum((b - a + 1) ** 2 for a, b in regions)
        assert cache.stats.entries_reused == total - sum(fresh)

    def test_region_past_the_horizon_is_refused(self):
        cache = R2RegionCache(_ANCHOR_ALN)
        cache.horizon = 40
        cache.region_matrix(10, 39)
        with pytest.raises(ScanConfigError, match="horizon"):
            cache.region_matrix(11, 40)

    def test_forward_scan_fills_ahead_in_few_calls(self):
        """A stride-1 forward scan: each fill reaches the buffer edge, so
        the positions after it compute nothing and the source sees a
        fraction of the calls one fringe per position would take; the
        rows it filled ahead cost at most a fifth more entries than
        the fringes would."""
        source = _HorizonSource(_ANCHOR_ALN.n_sites)
        cache = R2RegionCache(
            None, block_fn=source.block_into, n_sites=_ANCHOR_ALN.n_sites
        )
        width, steps = 40, 40
        calls = []
        for start in range(steps):
            cache.region_matrix(start, start + width - 1)
            calls.append(source.calls)
        # The first region fills its own square in one slab; the first
        # step past it fills ahead to the buffer edge (capacity 50), and
        # the next steps until that edge are served without a call.
        assert calls[0] == 1
        assert calls[1] == 2
        assert calls[1:10] == [2] * 9
        assert calls[-1] <= steps // 5 + 2
        fringes = width * width + (steps - 1) * width
        assert source.entries <= 1.2 * fringes

    def test_reset_forgets_the_filled_rows(self):
        source = _HorizonSource(_ANCHOR_ALN.n_sites)
        cache = R2RegionCache(
            None, block_fn=source.block, n_sites=_ANCHOR_ALN.n_sites
        )
        cache.region_matrix(0, 19)
        cache.region_matrix(1, 20)
        calls = source.calls
        cache.reset()
        view = cache.region_matrix(1, 20)
        assert source.calls > calls
        want = r_squared_block(_ANCHOR_ALN, slice(1, 21), slice(1, 21))
        assert view.tobytes() == want.tobytes()


class TestModelledEnginesKeepTheirCharge:
    """The modelled GPU/FPGA engines charge LD device time from the
    cache's served-region counters, so how the host fills r² must not
    move their modelled seconds. Pinned on a fixed input."""

    @pytest.fixture(scope="class")
    def scanned(self):
        from repro.accel.fpga import ALVEO_U200, FPGAOmegaEngine, PipelineModel
        from repro.accel.gpu import TESLA_K80, GPUOmegaEngine
        from repro.core.grid import GridSpec
        from repro.core.scan import OmegaConfig

        aln = haplotype_block_alignment(40, 300, seed=5)
        cfg = OmegaConfig(
            grid=GridSpec(n_positions=40, max_window=aln.length / 6)
        )
        return {
            "gpu": GPUOmegaEngine(TESLA_K80).scan(aln, cfg),
            "fpga": FPGAOmegaEngine(PipelineModel(ALVEO_U200)).scan(aln, cfg),
        }

    PINNED = {
        "gpu": {
            "d2h": "0x1.37961a73f405ap-12",
            "h2d": "0x1.3a83ceb5e5920p-12",
            "kernel": "0x1.99f9315da24b7p-11",
            "ld": "0x1.a30db8df6975ep-8",
            "prep": "0x1.6c5831b41beadp-12",
        },
        "fpga": {
            "ld": "0x1.ef0148b7bc5b7p-18",
            "omega_hw": "0x1.023b5f42fc0c4p-14",
            "omega_sw": "0x1.b57ccc81cbc52p-12",
        },
    }

    @pytest.mark.parametrize("engine", ["gpu", "fpga"])
    def test_modelled_seconds_are_pinned(self, scanned, engine):
        result, record = scanned[engine]
        assert record.scores["ld"] == 49328
        assert result.reuse.entries_computed == 49328
        assert result.reuse.entries_reused == 292465
        pinned = self.PINNED[engine]
        assert set(record.seconds) == set(pinned)
        for phase, value in pinned.items():
            assert record.seconds[phase] == pytest.approx(
                float.fromhex(value), rel=1e-12
            ), phase
