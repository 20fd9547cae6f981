"""The compiled Eq. 2 kernel's build, cache and fallback.

Equality of the kernel's scores with the numpy path is tested in
``test_omega.py`` (``TestInPlaceEq2`` and its numpy twin); these tests
cover how the kernel is obtained.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.dp import SumMatrix
from repro.core.omega import OmegaWorkspace
from repro.core.scan import scan
from repro.datasets.generators import haplotype_block_alignment
from repro.obs.flight import get_flight


def _compiled_or_skip():
    if native.load_eq2() is None:
        pytest.skip("the compiled Eq. 2 kernel could not be built")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel memo and an empty cache under ``tmp_path``."""
    monkeypatch.setattr(native, "_eq2", native._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro"


def _report(result):
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (
            result.positions,
            result.omegas,
            result.left_borders_bp,
            result.right_borders_bp,
            result.n_evaluations,
        )
    )


def _scan_report():
    aln = haplotype_block_alignment(30, 240, seed=21)
    return _report(scan(aln, grid_size=25, max_window=aln.length / 3))


def _kernel_matches_numpy(fn) -> bool:
    """Score one grid with ``fn`` and compare with the numpy path."""
    rng = np.random.default_rng(3)
    a = rng.random((40, 40))
    sums = SumMatrix((a + a.T) / 2.0)
    c, l0, l1, r0, r1 = 19, 2, 19, 20, 37
    scratch = np.empty(1 + 5 * (l1 - l0 + 1))
    p = sums.prefix
    at = fn(
        p.ctypes.data, p.strides[0] // 8, l0, l1, c, r0, r1, 1e-5,
        scratch.ctypes.data + 8, scratch.ctypes.data,
    )
    expect = OmegaWorkspace().max_runs_numpy(
        sums, np.arange(l0, l1 + 1), c, np.arange(r0, r1 + 1)
    )
    return (scratch[0], at) == expect


def _build_in(directory, barrier):
    barrier.wait(timeout=60)
    fn = native.build_eq2(Path(directory))
    sys.exit(0 if _kernel_matches_numpy(fn) else 1)


class TestBuildAndCache:
    def test_import_builds_nothing(self, tmp_path):
        """Importing the package runs no compiler: the kernel is built
        on the first Eq. 2 call."""
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        code = (
            "import repro, repro.core.scan\n"
            "from repro.core import native\n"
            "assert native._eq2 is native._UNLOADED\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=120
        )
        assert not (tmp_path / "repro").exists()

    def test_concurrent_builds_into_one_cache(self, tmp_path):
        """Two forked processes building into one empty cache at once
        both load a whole, working library."""
        _compiled_or_skip()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_build_in, args=(str(tmp_path), barrier))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=180)
            assert not p.is_alive()
            assert p.exitcode == 0
        libs = list(tmp_path.iterdir())
        assert len(libs) == 1 and libs[0].suffix == ".so"

    def test_cache_is_private(self, fresh_loader):
        """Under a permissive umask the cache and library are still
        private, so the ownership check accepts them."""
        _compiled_or_skip()
        old = os.umask(0o002)
        try:
            assert native.eq2_kernel() == "c"
        finally:
            os.umask(old)
        for path in [fresh_loader, *fresh_loader.iterdir()]:
            assert os.stat(path).st_mode & 0o077 == 0

    @pytest.mark.parametrize("how", ["group-writable", "foreign-owned"])
    def test_unsafe_cache_is_not_loaded_from(
        self, fresh_loader, monkeypatch, how
    ):
        """A library already in the cache is not loaded when the cache
        directory could have been written by someone else."""
        _compiled_or_skip()
        native.build_eq2(fresh_loader)
        if how == "group-writable":
            os.chmod(fresh_loader, 0o770)
        else:
            uid = os.getuid() + 1
            monkeypatch.setattr(native.os, "getuid", lambda: uid)
        with pytest.raises(PermissionError):
            native.build_eq2(fresh_loader)
        monkeypatch.setattr(native, "_eq2", native._UNLOADED)
        assert native.eq2_kernel() == "numpy"


class TestFallback:
    @pytest.mark.parametrize("cc", ["false", "/nonexistent/cc"])
    def test_failed_build_falls_back_bitwise(
        self, fresh_loader, monkeypatch, cc
    ):
        """A compile that fails (or no compiler at all) leaves the numpy
        path in charge, records why once, and the scan report keeps
        every bit."""
        reference = _scan_report()  # compiled, where it builds
        monkeypatch.setattr(native, "_eq2", native._UNLOADED)
        monkeypatch.setattr(native, "CC", cc)
        t0 = time.perf_counter_ns()
        assert native.eq2_kernel() == "numpy"
        assert _scan_report() == reference
        fallbacks = [
            e
            for e in get_flight().snapshot()
            if e["name"] == "eq2.fallback" and e["t_ns"] >= t0
        ]
        assert len(fallbacks) == 1 and fallbacks[0]["detail"]["reason"]
        assert not list(fresh_loader.glob("*.tmp"))


class TestEveryScanReachesTheKernel:
    def test_reports_equal_on_both_kernels(self, monkeypatch, tmp_path):
        """Sequential, streamed and multiprocess scans all score through
        the compiled kernel, and each report is bitwise equal to the same
        scan on the numpy path."""
        from repro.core.grid import GridSpec, build_plans
        from repro.core.parallel import parallel_scan
        from repro.core.scan import OmegaConfig, OmegaPlusScanner, scan_stream
        from repro.datasets.msformat import ms_text, parse_ms_text
        from repro.datasets.streaming import StreamingAlignmentReader

        kernel = native.load_eq2()
        if kernel is None:
            pytest.skip("the compiled Eq. 2 kernel could not be built")
        aln = haplotype_block_alignment(24, 300, seed=17)
        path = tmp_path / "chrom.ms"
        path.write_text(ms_text([aln]), encoding="ascii")
        aln = parse_ms_text(path.read_text(), length=aln.length)[0].alignment
        config = OmegaConfig(
            grid=GridSpec(n_positions=30, max_window=aln.length / 4)
        )
        budget = 8 + max(
            p.region_width for p in build_plans(aln, config.grid) if p.valid
        )

        def reports():
            reader = StreamingAlignmentReader(
                str(path), format="ms", length=aln.length
            )
            return [
                _report(OmegaPlusScanner(config).scan(aln)),
                _report(scan_stream(reader, config, snp_budget=budget)),
                _report(parallel_scan(aln, config, n_workers=2)),
            ]

        calls = []

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(native, "load_eq2", lambda: counted)
        compiled = reports()
        assert calls  # the in-process scans went through the kernel
        monkeypatch.setattr(native, "load_eq2", lambda: None)
        assert reports() == compiled
