"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, make_alignment  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, {}]


class TestSelfTime:
    def test_nested_spans(self):
        # root 0..100 holds a 10..60 (which holds b 20..30) and c 70..90.
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 60, 0),
            span("b", 20, 30, 1),
            span("c", 70, 90, 0),
        ]
        st = tracing.self_times(spans)
        assert st["root"] == pytest.approx(30e-9)
        assert st["a"] == pytest.approx(40e-9)
        assert st["b"] == pytest.approx(10e-9)
        assert st["c"] == pytest.approx(20e-9)
        assert sum(st.values()) == pytest.approx(100e-9)

    def test_same_name_at_two_depths_sums_self_times(self):
        spans = [span("eq2", 0, 50, -1), span("gather", 5, 25, 0),
                 span("eq2", 30, 40, 0)]
        st = tracing.self_times(spans)
        assert st["eq2"] == pytest.approx(20e-9 + 10e-9)
        assert st["gather"] == pytest.approx(20e-9)

    def test_wrappers_record_parent_links(self):
        rec = tracing.Recorder()
        inner = tracing.traced(rec, "inner", lambda: time.sleep(0.01))

        def outer_fn():
            inner()
            return 7

        outer = tracing.traced(rec, "outer", outer_fn,
                               lambda attrs, _a, out: attrs.update(out=out))
        assert outer() == 7
        names = [s[tracing.NAME] for s in rec.spans]
        assert names == ["outer", "inner"]
        assert rec.spans[1][tracing.PARENT] == 0
        assert rec.spans[0][tracing.ATTRS] == {"out": 7}
        st = tracing.self_times(rec.spans)
        assert st["inner"] >= 0.009
        assert st["outer"] < st["inner"]

    def test_generator_pulls_land_under_the_puller(self):
        rec = tracing.Recorder()

        def chunks():
            for k in range(3):
                time.sleep(0.01)  # lazy work, done when pulled
                yield k

        it = tracing.TracedIterator(rec, "ingest", chunks())
        with rec.span("scan"):
            got = []
            for _ in range(3):
                got.append(next(it))
                time.sleep(0.005)
            it.close()
        assert got == [0, 1, 2]
        assert tracing.count(rec.spans, "ingest") == 3
        assert all(s[tracing.PARENT] == 0 for s in rec.spans[1:])
        st = tracing.self_times(rec.spans)
        assert st["ingest"] >= 0.03
        assert 0.015 <= st["scan"] < st["ingest"]

    def test_exception_still_closes_span(self):
        rec = tracing.Recorder()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracing.traced(rec, "boom", boom)()
        assert rec.spans[0][tracing.END] >= rec.spans[0][tracing.START] > 0
        with rec.span("next"):
            pass
        assert rec.spans[1][tracing.PARENT] == -1


class TestStats:
    def test_median(self):
        assert stats.median([3, 1, 2]) == 2
        assert stats.median([4, 1, 3, 2]) == 2.5
        with pytest.raises(ValueError):
            stats.median([])

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        assert stats.percentile(xs, 50) == 50
        assert stats.percentile(xs, 90) == 90
        assert stats.percentile(xs, 1) == 1
        assert stats.percentile([5.0], 99) == 5.0

    @pytest.mark.parametrize(
        "n, p", [(10, None), (19, None), (20, 50), (27, 62), (40, 75),
                 (100, 90), (1000, 99)],
    )
    def test_tail_keeps_ten_samples_beyond(self, n, p):
        values = list(range(n))
        got = stats.tail(values)
        if p is None:
            assert got is None
            return
        assert got[0] == p
        beyond = sum(1 for v in values if v > got[1])
        assert beyond >= 10
        # One whole percentile higher would leave fewer than ten beyond.
        higher = stats.percentile(values, p + 1)
        assert sum(1 for v in values if v > higher) < 10

    def _report(self, omegas, borders):
        from repro.core.results import ScanResult

        n = len(omegas)
        return ScanResult(
            positions=np.arange(n, dtype=np.float64),
            omegas=np.array(omegas, dtype=np.float64),
            left_borders_bp=np.array(borders, dtype=np.float64),
            right_borders_bp=np.array(borders, dtype=np.float64),
            n_evaluations=np.arange(n, dtype=np.int64),
        )

    def test_digest_stable_and_nan_safe(self):
        a = self._report([1.0, 0.0], [3.0, np.nan])
        b = self._report([1.0, 0.0], [3.0, np.nan])
        assert stats.digest(a) == stats.digest(b)
        assert stats.digest(a) == stats.digest(a)
        assert len(stats.digest(a)) == 64

    def test_digest_sees_last_bit(self):
        a = self._report([1.0, 0.0], [3.0, np.nan])
        b = self._report([np.nextafter(1.0, 2.0), 0.0], [3.0, np.nan])
        assert stats.digest(a) != stats.digest(b)


class TestWorkloads:
    def test_seed_changes_values_not_shape(self):
        w = Workload("t", 20, 300, 10, 20, "memory")
        m1, p1 = make_alignment(w, 1)
        m2, p2 = make_alignment(w, 2)
        assert m1.shape == m2.shape == (20, 300)
        assert not np.array_equal(m1, m2)
        m1b, p1b = make_alignment(w, 1)
        assert np.array_equal(m1, m1b) and np.array_equal(p1, p1b)
        col = m1.sum(axis=0)
        assert np.all((col > 0) & (col < 20))
        assert np.all(np.diff(p1) > 0)

    def test_every_workload_fits_its_budget(self):
        for w in WORKLOADS.values():
            assert w.max_window > 0
            if w.mode == "stream":
                assert 2 * w.snps_per_side + 1 < w.snp_budget


class TestChecksAndLayers:
    @pytest.fixture(scope="class")
    def scanned(self):
        from repro.core.grid import GridSpec, build_plans_from_positions
        from repro.core.scan import OmegaConfig, OmegaPlusScanner
        from repro.datasets.alignment import SNPAlignment

        w = Workload("t", 40, 400, 30, 25, "memory")
        matrix, positions = make_alignment(w, 5)
        aln = SNPAlignment(matrix=matrix, positions=positions, length=1e7)
        cfg = OmegaConfig(grid=GridSpec(n_positions=25,
                                        max_window=w.max_window))
        rec = tracing.Recorder()
        restore = tracing.install(rec)
        try:
            with rec.span("scan"):
                result = OmegaPlusScanner(cfg).scan(aln)
        finally:
            restore()
        plans = build_plans_from_positions(positions, cfg.grid)
        return matrix, positions, plans, result, cfg, rec

    def test_oracle_accepts_the_scan(self, scanned):
        matrix, positions, plans, result, cfg, _rec = scanned
        errors = checks.check_sampled(matrix, positions, plans, result,
                                      cfg.eps, np.random.default_rng(0), n=25)
        assert errors == []

    def test_oracle_rejects_a_perturbed_omega(self, scanned):
        matrix, positions, plans, result, cfg, _rec = scanned
        k = int(np.flatnonzero(result.n_evaluations > 0)[3])
        bad = result.omegas.copy()
        bad[k] *= 1 + 1e-6
        import dataclasses

        broken = dataclasses.replace(result, omegas=bad)
        assert checks.check_position(matrix, positions, plans[k], broken, k,
                                     cfg.eps)

    def test_install_is_undone(self, scanned):
        import importlib

        scan_mod = importlib.import_module("repro.core.scan")
        from repro.ld.operands import LDBackendFiller

        assert not hasattr(scan_mod.omega_max_at_split, "__wrapped__")
        assert not hasattr(LDBackendFiller.__call__, "__wrapped__")

    def test_layer_summary(self, scanned):
        _m, _p, _plans, result, _cfg, rec = scanned
        payload = {
            "spans": rec.spans, "worker_spans": [],
            "counters": result.metrics["counters"],
            "reuse_fraction": result.reuse.reuse_fraction,
            "dp_reuse_fraction": result.reuse.dp_reuse_fraction,
        }
        raw = layers.scan_raw(payload, 40, parallel=False)
        # Fresh blocks are mirrored into the region, so the region cache
        # counts up to twice the entries the filler computed.
        assert 0 < raw["tile_fill.entries"] <= result.reuse.entries_computed
        assert raw["eq2.evals"] <= int(result.n_evaluations.sum())
        assert raw["dp.builds"] + raw["dp.extends"] + raw["dp.views"] == (
            int(np.count_nonzero(result.n_evaluations > 0))
        )
        values = layers.summarize(
            [raw], untraced_scan_s=raw["scan.wall_s"], n_workers=1,
            input_bytes=0,
            ceilings={"gemm_gflops": 10.0, "memcpy_gb_s": 5.0,
                      "n_samples": 40},
        )
        assert set(values) == {name for name, _unit in layers.PER_LAYER}
        assert 0.5 < values["trace.coverage"] <= 1.0
        assert values["trace.overhead"] == pytest.approx(0.0)
        assert values["ingest.s"] == 0.0

    def test_weighted_median(self):
        assert layers._weighted_median([(1, 1), (5, 10), (9, 1)]) == 5
        assert layers._weighted_median([(2, 3)]) == 2
