"""Tests for the live introspection layer (``repro.obs.ledger`` and
friends): the shared-memory progress ledger's seqlock protocol, the
ETA engine, the OpenMetrics exposition, the flight recorder, and the
``omegascan top`` / daemon surfaces built on them.

The property that matters most — a reader never acts on a torn slot
without knowing it — is tested three ways: a hypothesis round-trip over
arbitrary payloads, a real concurrent writer process hammered by a
reader, and a SIGKILL mid-run through the shard orchestrator.
"""

import asyncio
import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.cli import main as cli_main
from repro.core.costmodel import (
    ScanCostModel,
    reset_cost_model,
    set_cost_model,
)
from repro.core.grid import GridSpec
from repro.core.scan import OmegaConfig
from repro.datasets.generators import (
    haplotype_block_alignment,
    sweep_signature_alignment,
)
from repro.datasets.msformat import write_ms
from repro.obs.eta import EtaEstimate, estimate_eta
from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder, get_flight
from repro.obs.ledger import (
    HEADER_SIZE,
    SLOT_SIZE,
    LedgerFormatError,
    ProgressLedger,
    SlotView,
    SlotWriter,
    bind_live_slot,
    live_slot,
)
from repro.obs.openmetrics import (
    metric_name,
    render_openmetrics,
    validate_openmetrics,
)
from repro.shard import (
    Manifest,
    build_manifest,
    merge_manifest,
    run_manifest,
    shard_postmortem,
)
from repro.shard.runner import HOLD_DIR_ENV


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    obs.reset()
    reset_cost_model()


def _slot(**kw) -> SlotView:
    base = dict(
        index=0, gen=2, pid=1234, started_ns=1_000_000_000,
        heartbeat_ns=3_000_000_000, positions_done=10,
        positions_total=100, est_cost_done=50.0, est_cost_total=500.0,
        rss_bytes=1 << 20, phase="scan", key="shard-0", torn=False,
    )
    base.update(kw)
    return SlotView(**base)


# --------------------------------------------------------------------- #
# ledger file + seqlock
# --------------------------------------------------------------------- #


class TestLedger:
    def test_create_open_round_trip(self, tmp_path):
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 3) as ledger:
            assert ledger.n_slots == 3
            for slot in ledger.read_slots():
                assert not slot.bound
                assert slot.fraction is None
                assert not slot.stale(0.0)
        with ProgressLedger.open(path) as again:
            assert again.n_slots == 3
        assert os.path.getsize(path) == HEADER_SIZE + 3 * SLOT_SIZE

    def test_not_a_ledger_rejected(self, tmp_path):
        path = tmp_path / "bogus.ledger"
        path.write_bytes(b"definitely not a ledger" + b"\x00" * 100)
        with pytest.raises(LedgerFormatError):
            ProgressLedger.open(str(path))
        path.write_bytes(b"OMG")
        with pytest.raises(LedgerFormatError):
            ProgressLedger.open(str(path))
        with pytest.raises(LedgerFormatError):
            ProgressLedger.open(str(tmp_path / "missing.ledger"))

    def test_bind_publish_finish(self, tmp_path):
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 1) as ledger:
            ledger.init_slot(
                0, key="shard-7", positions_total=20, est_cost_total=40.0
            )
            w = ledger.slot_writer(0, min_interval_ns=0)
            w.bind(phase="scan")  # inherits key + totals from init
            w.add_progress(5, 10.0)
            slot = ledger.read_slot(0)
            assert slot.key == "shard-7"
            assert slot.bound and not slot.torn
            assert slot.pid == os.getpid()
            assert slot.positions_done == 5
            assert slot.fraction == pytest.approx(10.0 / 40.0)
            w.finish("done")
            done = ledger.read_slot(0)
            # finish clamps done to the declared totals
            assert done.positions_done == 20
            assert done.est_cost_done == 40.0
            assert done.fraction == 1.0
            assert not done.stale(0.0)

    def test_throttle_holds_back_publishes(self, tmp_path):
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 1) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=10**12)
            w.bind(key="k", phase="scan")
            for _ in range(100):
                w.add_progress(1, 1.0)
            # bind published; the throttled adds did not
            assert ledger.read_slot(0).positions_done == 0
            w.finish()
            assert ledger.read_slot(0).positions_done == 100

    def test_mark_phase_preserves_progress(self, tmp_path):
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 2) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=0)
            w.bind(key="shard-0", phase="scan", positions_total=10)
            w.add_progress(4, 8.0)
            ledger.mark_phase(0, "failed")
            slot = ledger.read_slot(0)
            assert slot.phase == "failed"
            assert slot.positions_done == 4
            assert slot.est_cost_done == 8.0
            assert slot.key == "shard-0"
            assert not slot.stale(0.0)  # terminal phases are never stale

    def test_torn_read_flagged_and_healed(self, tmp_path):
        """A writer dying mid-publish leaves an odd generation: readers
        still get the fields, flagged torn; the next writer heals it."""
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 1) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=0)
            w.bind(key="victim", phase="scan")
            w.add_progress(3, 6.0)
            # Simulate SIGKILL between the two gen increments.
            struct.pack_into("<Q", ledger._mm, HEADER_SIZE, 7)
            slot = ledger.read_slot(0)
            assert slot.torn
            assert slot.key == "victim"  # payload still surfaced
            assert slot.positions_done == 3
            # A new writer takes over cleanly: gen becomes even again.
            w2 = ledger.slot_writer(0, min_interval_ns=0)
            w2.bind(key="retry", phase="scan")
            healed = ledger.read_slot(0)
            assert not healed.torn
            assert healed.gen % 2 == 0
            assert healed.key == "retry"

    def test_publish_stopped_at_every_byte_reads_consistently(
        self, tmp_path, monkeypatch
    ):
        """Stop a publish after each possible count of written bytes (a
        SIGKILL at that point): the reader returns the old record or the
        new one, whole, and never a keyless slot."""
        path = str(tmp_path / "x.ledger")
        old = ("scan", 3, 6.0)
        new = ("ingest", 7, 14.0)

        class Killed(Exception):
            pass

        real_store = SlotWriter._store
        written = []

        def counting_store(self, off, data):
            written.append(len(data))
            real_store(self, off, data)

        with ProgressLedger.create(path, 1) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=0)
            monkeypatch.setattr(SlotWriter, "_store", counting_store)
            w.bind(key="victim", phase="scan")
            publish_bytes = sum(written)
            monkeypatch.setattr(SlotWriter, "_store", real_store)
            assert publish_bytes == 2 * (8 + 112 + 8)

            for stop in range(publish_bytes + 1):
                # A fresh writer heals the odd generation a stop left.
                w = ledger.slot_writer(0, min_interval_ns=0)
                w.bind(key="victim", phase="scan")
                w.add_progress(3, 6.0)
                budget = [stop]

                def stopping_store(self, off, data):
                    n = min(budget[0], len(data))
                    real_store(self, off, data[:n])
                    budget[0] -= n
                    if n < len(data):
                        raise Killed

                monkeypatch.setattr(SlotWriter, "_store", stopping_store)
                w.set_phase("ingest", publish=False)
                try:
                    w.add_progress(4, 8.0)
                except Killed:
                    pass
                monkeypatch.setattr(SlotWriter, "_store", real_store)

                slot = ledger.read_slot(0)
                seen = (slot.phase, slot.positions_done, slot.est_cost_done)
                assert slot.key == "victim", stop
                assert slot.pid == os.getpid(), stop
                assert seen in (old, new), (stop, seen)
                if stop == 0:
                    assert seen == old and not slot.torn
                if stop == publish_bytes:
                    assert seen == new and not slot.torn

    def test_live_slot_is_pid_guarded(self, tmp_path):
        path = str(tmp_path / "x.ledger")
        with ProgressLedger.create(path, 1) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=0)
            assert live_slot() is None
            bind_live_slot(w)
            assert live_slot() is w
            # a forked child must NOT inherit the binding
            import repro.obs.ledger as ledger_mod
            pid, writer = ledger_mod._LIVE
            ledger_mod._LIVE = (pid + 1, writer)  # fake "other process"
            assert live_slot() is None
            obs.reset()  # clears the live slot
            assert live_slot() is None

    @settings(max_examples=50, deadline=None)
    @given(
        pid=st.integers(0, 2**31),
        done=st.integers(0, 2**40),
        total=st.integers(0, 2**40),
        cost_done=st.floats(0, 1e15, allow_nan=False),
        cost_total=st.floats(0, 1e15, allow_nan=False),
        rss=st.integers(0, 2**40),
        phase=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=16,
        ),
        key=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=32,
        ),
    )
    def test_seqlock_round_trip_property(
        self, pid, done, total, cost_done, cost_total, rss, phase, key,
    ):
        """Any payload a writer publishes reads back exactly (ASCII
        fields NUL-trimmed), never torn, with an even generation."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp, ProgressLedger.create(
            os.path.join(tmp, "prop.ledger"), 1
        ) as ledger:
            w = ledger.slot_writer(0, min_interval_ns=0)
            w._pid = pid
            w._started_ns = 1
            w._positions_done = done
            w._positions_total = total
            w._est_cost_done = cost_done
            w._est_cost_total = cost_total
            w._rss_bytes = rss
            w._phase = phase
            w._key = key
            w._write()
            slot = ledger.read_slot(0)
            assert not slot.torn
            assert slot.gen % 2 == 0
            assert slot.pid == pid
            assert slot.positions_done == done
            assert slot.positions_total == total
            assert slot.est_cost_done == cost_done
            assert slot.est_cost_total == cost_total
            assert slot.rss_bytes == rss
            assert slot.phase == phase.rstrip("\x00")
            assert slot.key == key.rstrip("\x00")


WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.obs.ledger import ProgressLedger

    path = sys.argv[1]
    ledger = ProgressLedger.open(path, writable=True)
    w = ledger.slot_writer(0, min_interval_ns=0)
    w.bind(key="hammer", phase="scan", positions_total=10**9)
    print("ready", flush=True)
    # invariant under test: est_cost_done == positions_done * 3.5
    while True:
        w.add_progress(1, 3.5)
    """
)


class TestConcurrentReaders:
    def test_reader_never_sees_inconsistent_slot(self, tmp_path):
        """A real second process publishing as fast as it can: every
        non-torn read must satisfy the writer's invariant and progress
        must be monotone."""
        path = str(tmp_path / "conc.ledger")
        ProgressLedger.create(path, 1).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT, path],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            with ProgressLedger.open(path) as ledger:
                deadline = time.monotonic() + 5.0
                reads = clean = 0
                last_done = -1
                while time.monotonic() < deadline and clean < 2000:
                    slot = ledger.read_slot(0)
                    reads += 1
                    if slot.torn:
                        continue
                    clean += 1
                    assert slot.est_cost_done == pytest.approx(
                        slot.positions_done * 3.5
                    )
                    assert slot.positions_done >= last_done
                    last_done = slot.positions_done
            assert clean >= 100, f"{clean}/{reads} clean reads"
            assert last_done > 0
        finally:
            proc.kill()
            proc.wait()

    def test_sigkilled_writer_leaves_readable_ledger(self, tmp_path):
        """SIGKILL the writer process mid-hammer: the file must still
        open and read (possibly flagged torn), and its heartbeat goes
        stale — the exact situation ``omegascan top`` reports."""
        path = str(tmp_path / "kill.ledger")
        ProgressLedger.create(path, 1).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT, path],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(0.1)  # let it publish a while
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        with ProgressLedger.open(path) as ledger:
            slot = ledger.read_slot(0)
            assert slot.bound
            assert slot.key == "hammer"
            assert slot.positions_done > 0
            assert slot.pid == proc.pid
            time.sleep(0.05)
            assert slot.stale(stale_after=0.01)


# --------------------------------------------------------------------- #
# ETA engine
# --------------------------------------------------------------------- #


class TestEta:
    def test_unbound_slot_has_no_estimate(self):
        est = estimate_eta(_slot(started_ns=0, heartbeat_ns=0))
        assert est == EtaEstimate(None, None, None, "none", False)

    def test_done_slot_is_zero_eta(self):
        est = estimate_eta(
            _slot(phase="done", est_cost_done=500.0)
        )
        assert est.eta_seconds == 0.0
        assert est.fraction == 1.0

    def test_realized_rate_without_model(self):
        reset_cost_model()
        # 50 cost units in 2 seconds -> 25 units/s; 450 remain -> 18 s.
        est = estimate_eta(_slot(), now_ns=4_000_000_000)
        assert est.source == "realized"
        assert est.rate_units_per_second == pytest.approx(25.0)
        assert est.eta_seconds == pytest.approx(450.0 / 25.0)
        assert est.fraction == pytest.approx(0.1)

    def test_model_rate_without_progress(self):
        set_cost_model(
            ScanCostModel(
                seconds_per_unit=0.01, calibration_blocks=10,
                est_cost_sum=100.0, seconds_sum=1.0,
            )
        )
        est = estimate_eta(
            _slot(est_cost_done=0.0, positions_done=0),
            now_ns=4_000_000_000,
        )
        assert est.source == "model"
        assert est.rate_units_per_second == pytest.approx(100.0)
        assert est.eta_seconds == pytest.approx(5.0)

    def test_blended_rate_shifts_with_evidence(self):
        # model: 100 units/s, avg calibrated block = 10 units
        set_cost_model(
            ScanCostModel(
                seconds_per_unit=0.01, calibration_blocks=10,
                est_cost_sum=100.0, seconds_sum=1.0,
            )
        )
        # realized: 25 units/s with 50 units done -> weight 50/60
        est = estimate_eta(_slot(), now_ns=4_000_000_000)
        assert est.source == "blended"
        w = 50.0 / 60.0
        assert est.rate_units_per_second == pytest.approx(
            w * 25.0 + (1 - w) * 100.0
        )
        # barely-started worker leans on the model
        early = estimate_eta(
            _slot(est_cost_done=0.5, positions_done=1),
            now_ns=4_000_000_000,
        )
        assert early.rate_units_per_second > est.rate_units_per_second

    def test_position_rate_fallback(self):
        reset_cost_model()
        est = estimate_eta(
            _slot(est_cost_done=0.0, est_cost_total=0.0),
            now_ns=4_000_000_000,
        )
        # 10/100 positions in 2s -> 5 pos/s -> 18s remaining
        assert est.source == "realized"
        assert est.eta_seconds == pytest.approx(90.0 / 5.0)

    def test_stale_flag_propagates(self):
        reset_cost_model()
        est = estimate_eta(
            _slot(), stale_after=0.5, now_ns=30_000_000_000
        )
        assert est.stale
        payload = est.to_payload()
        assert payload["stale"] is True
        assert set(payload) == {
            "fraction", "eta_seconds", "rate_units_per_second",
            "source", "stale",
        }


# --------------------------------------------------------------------- #
# OpenMetrics exposition
# --------------------------------------------------------------------- #


class TestOpenMetrics:
    def _snapshot(self):
        reg = obs.MetricsRegistry()
        reg.counter("scan.positions").inc(42)
        reg.counter("service.requests_completed").inc(3)
        reg.gauge("service.backlog_cost_units").set(1.5)
        reg.gauge("service.backlog_cost_units").set(0.5)
        h = reg.histogram("scan.block_seconds")
        for v in (0.001, 0.004, 0.5, 3.0):
            h.observe(v)
        return reg.snapshot()

    def test_round_trip_validates(self):
        text = render_openmetrics(self._snapshot())
        families = validate_openmetrics(text)
        assert families["repro_scan_positions"]["type"] == "counter"
        (sample,) = [
            s for s in families["repro_scan_positions"]["samples"]
            if s[0].endswith("_total")
        ]
        assert sample[2] == 42.0
        assert text.rstrip().endswith("# EOF")

    def test_gauge_stats_exposed(self):
        text = render_openmetrics(self._snapshot())
        families = validate_openmetrics(text)
        gauge = families["repro_service_backlog_cost_units"]
        stats = {
            s[1].get("stat"): s[2] for s in gauge["samples"]
        }
        assert stats["last"] == 0.5
        assert stats["min"] == 0.5
        assert stats["max"] == 1.5
        assert stats["count"] == 2.0

    def test_histogram_buckets_cumulative(self):
        text = render_openmetrics(self._snapshot())
        families = validate_openmetrics(text)
        hist = families["repro_scan_block_seconds"]
        buckets = [
            (s[1]["le"], s[2]) for s in hist["samples"]
            if s[0].endswith("_bucket")
        ]
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 4.0
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)
        count = [
            s for s in hist["samples"] if s[0].endswith("_count")
        ][0][2]
        assert count == 4.0
        total = [
            s for s in hist["samples"] if s[0].endswith("_sum")
        ][0][2]
        assert total == pytest.approx(3.505)

    def test_metric_name_sanitisation(self):
        assert metric_name("scan.positions") == "repro_scan_positions"
        assert metric_name("a-b c!") == "repro_a_b_c_"

    @pytest.mark.parametrize(
        "mutilate",
        [
            lambda t: t.replace("# EOF", ""),  # missing terminator
            lambda t: t.replace(
                "# TYPE repro_scan_positions counter\n", ""
            ),  # sample without family
            lambda t: t + "\n\n# EOF\n",  # blank line
            lambda t: t.replace("42", "forty-two"),  # bad value
        ],
    )
    def test_malformed_rejected(self, mutilate):
        text = mutilate(render_openmetrics(self._snapshot()))
        with pytest.raises(ValueError):
            validate_openmetrics(text)

    def test_noncumulative_buckets_rejected(self):
        text = (
            "# TYPE x histogram\n"
            'x_bucket{le="1"} 5\n'
            'x_bucket{le="2"} 3\n'
            'x_bucket{le="+Inf"} 5\n'
            "x_sum 1\n"
            "x_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_openmetrics(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE x histogram\n"
            'x_bucket{le="1"} 5\n'
            "x_sum 1\n"
            "x_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="Inf"):
            validate_openmetrics(text)


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4)
        for k in range(10):
            rec.record("tick", "t", k=k)
        events = rec.snapshot()
        assert len(events) == 4
        assert events[-1]["detail"]["k"] == 9

    def test_dump_document(self, tmp_path):
        rec = FlightRecorder()
        rec.record("chunk", "stream.ingest", site_lo=0, site_hi=64)
        path = str(tmp_path / "flight.json")
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            rec.dump(path, error=exc, extra={"shard": 3})
        doc = json.loads(open(path).read())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["pid"] == os.getpid()
        assert doc["shard"] == 3
        assert doc["error"]["type"] == "RuntimeError"
        assert "boom" in doc["error"]["message"]
        assert "RuntimeError" in doc["error"]["traceback"]
        assert doc["events"][0]["name"] == "stream.ingest"

    def test_process_recorder_reset(self):
        get_flight().record("x", "y")
        assert get_flight().snapshot()
        obs.reset()
        assert not get_flight().snapshot()


# --------------------------------------------------------------------- #
# shard integration: ledger next to the manifest + postmortems
# --------------------------------------------------------------------- #

CONFIG = OmegaConfig(grid=GridSpec(n_positions=12, max_window=0.25))
BUDGET = 60


@pytest.fixture
def multi_ms(tmp_path):
    path = tmp_path / "multi.ms"
    write_ms(
        [
            haplotype_block_alignment(20, 80, seed=11),
            haplotype_block_alignment(20, 60, seed=12),
        ],
        str(path),
    )
    return str(path)


class TestShardLedger:
    def test_run_fills_ledger(self, multi_ms, tmp_path):
        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=str(tmp_path / "m.manifest"),
            snp_budget=BUDGET, shards_per_unit=2, length=1.0,
        )
        run_manifest(manifest, max_workers=2)
        with ProgressLedger.open(manifest.progress_ledger_path) as ledger:
            slots = ledger.read_slots()
        assert len(slots) == len(manifest.shards)
        for slot, shard in zip(slots, manifest.shards):
            assert slot.key == f"shard-{shard.id}"
            assert slot.phase == "done"
            assert slot.fraction == 1.0
            assert not slot.torn
        # stderr captures land in the sidecar dir
        for shard in manifest.shards:
            assert os.path.exists(
                manifest.sidecar_path(f"shard-{shard.id}.stderr")
            )

    def test_sigkill_leaves_readable_ledger_and_flight_dump(
        self, multi_ms, tmp_path, monkeypatch
    ):
        """The acceptance path: kill a shard worker mid-run, then check
        every introspection artefact the orchestrator must leave."""
        from repro.core.parallel import build_plans_from_positions
        from repro.datasets.streaming import StreamingAlignmentReader

        hold_dir = tmp_path / "holds"
        hold_dir.mkdir()
        monkeypatch.setenv(HOLD_DIR_ENV, str(hold_dir))
        reader = StreamingAlignmentReader(
            multi_ms, format="ms", length=1.0, replicate=0
        )
        plans = build_plans_from_positions(reader.positions, CONFIG.grid)
        budget = max(p.region_width for p in plans if p.valid) + 4

        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=str(tmp_path / "kill.manifest"),
            snp_budget=budget, shards_per_unit=1, length=1.0,
        )
        victim = manifest.shards[0].id
        hold = hold_dir / f"{victim}.hold"
        ack = hold_dir / f"{victim}.holding"
        hold.touch()
        failure = []

        def assassin():
            # The orchestrator records a worker's pid just after forking
            # it, so a fast worker can reach the hold first: wait for
            # both. Releasing the hold on every exit path keeps a failure
            # here from parking the worker (and run_manifest) for good.
            deadline = time.monotonic() + 60
            try:
                pid = None
                while pid is None:
                    if time.monotonic() > deadline:
                        failure.append("worker never reached the hold")
                        return
                    if ack.exists():
                        pid = Manifest.load(manifest.path).shard(victim).pid
                    if pid is None:
                        time.sleep(0.01)
                os.kill(pid, signal.SIGKILL)
            except Exception as exc:
                failure.append(f"assassin failed: {exc!r}")
            finally:
                hold.unlink(missing_ok=True)

        killer = threading.Thread(target=assassin)
        killer.start()
        try:
            report = run_manifest(manifest, max_workers=2)
        finally:
            killer.join()
        assert not failure, failure[0]
        assert list(report.failed) == [victim]

        # Ledger survives the kill, readable, with the victim failed.
        with ProgressLedger.open(manifest.progress_ledger_path) as ledger:
            slots = ledger.read_slots()
        by_key = {s.key: s for s in slots}
        assert by_key[f"shard-{victim}"].phase == "failed"

        # The orchestrator wrote a reap postmortem flight dump.
        post = shard_postmortem(manifest, victim)
        assert post["flight_path"] is not None
        doc = json.loads(open(post["flight_path"]).read())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["origin"] == "orchestrator-reap"
        assert doc["error"]["type"] == "WorkerDeath"
        assert doc["shard"] == victim
        assert doc["last_ledger_slot"]["key"] == f"shard-{victim}"

        # Resume converges and rewrites the ledger to all-done.
        monkeypatch.delenv(HOLD_DIR_ENV)
        resumed = run_manifest(manifest.path, max_workers=2)
        assert resumed.failed == {}
        with ProgressLedger.open(manifest.progress_ledger_path) as ledger:
            assert all(
                s.phase == "done" for s in ledger.read_slots()
            )
        merge_manifest(manifest.path)  # merges cleanly

    def test_cli_prints_postmortem_on_failure(
        self, multi_ms, tmp_path, monkeypatch, capsys
    ):
        """``omegascan shard-scan`` exit code 3 comes with the failed
        shard's stderr tail and flight dump path."""
        manifest_path = str(tmp_path / "cli.manifest")
        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=manifest_path,
            snp_budget=BUDGET, shards_per_unit=1, length=1.0,
        )
        # Sabotage one shard: its unit's input file truncated mid-run is
        # hard to stage, so instead make the worker die on a poisoned
        # sidecar directory (a file where the dir must be).
        victim = manifest.shards[0].id
        import repro.shard.runner as runner_mod

        real_worker = runner_mod._shard_worker

        def poisoned(job):
            if job.shard_id == victim:
                raise RuntimeError("injected shard failure")
            return real_worker(job)

        monkeypatch.setattr(runner_mod, "_shard_worker", poisoned)
        # In-process pool workers inherit the monkeypatch only with the
        # fork start method; run the orchestrator directly instead.
        rc = cli_main([
            "shard-scan", multi_ms, "--manifest", manifest_path,
            "--jobs", "1", "-o", str(tmp_path / "out.tsv"),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"shard {victim} failed" in captured.err
        assert "flight recorder:" in captured.err
        assert f"flight-{victim}.json" in captured.err


# --------------------------------------------------------------------- #
# omegascan top
# --------------------------------------------------------------------- #


class TestTopCommand:
    def test_top_once_json_on_manifest(
        self, multi_ms, tmp_path, capsys
    ):
        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=str(tmp_path / "top.manifest"),
            snp_budget=BUDGET, shards_per_unit=2, length=1.0,
        )
        run_manifest(manifest, max_workers=2)
        rc = cli_main(["top", manifest.path, "--once", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == "repro.live-top/1"
        assert doc["source"] == "ledger"
        assert len(doc["slots"]) == len(manifest.shards)
        for slot in doc["slots"]:
            assert slot["phase"] == "done"
            assert slot["fraction"] == 1.0
            assert slot["positions_done"] > 0
            assert slot["eta"]["eta_seconds"] == 0.0
            assert slot["stale"] is False

    def test_top_resolves_directory_and_ledger_file(
        self, multi_ms, tmp_path, capsys
    ):
        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=str(tmp_path / "dir.manifest"),
            snp_budget=BUDGET, shards_per_unit=1, length=1.0,
        )
        run_manifest(manifest, max_workers=1)
        for target in (
            str(tmp_path),  # directory globs *.ledger
            manifest.progress_ledger_path,  # direct file
        ):
            assert cli_main(["top", target, "--once", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["source"] == "ledger"

    def test_top_human_rendering(self, multi_ms, tmp_path, capsys):
        manifest = build_manifest(
            [multi_ms], CONFIG,
            manifest_path=str(tmp_path / "h.manifest"),
            snp_budget=BUDGET, shards_per_unit=1, length=1.0,
        )
        run_manifest(manifest, max_workers=1)
        assert cli_main(["top", manifest.path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "omegascan top" in out
        assert "shard-0" in out
        assert "100%" in out
        assert "done" in out

    def test_top_on_nothing_errors(self, tmp_path):
        rc = cli_main(["top", str(tmp_path / "nope"), "--once"])
        assert rc == 2  # ReproError path


# --------------------------------------------------------------------- #
# service: status requests + ledger + OpenMetrics op
# --------------------------------------------------------------------- #


class TestServiceIntrospection:
    @pytest.fixture()
    def aln(self):
        return sweep_signature_alignment(30, 200, seed=7)

    @pytest.fixture()
    def config(self, aln):
        return OmegaConfig(
            grid=GridSpec(n_positions=10, max_window=aln.length / 4)
        )

    def _run(self, coro):
        return asyncio.run(coro)

    def test_status_and_metrics_surface(self, aln, config, tmp_path):
        from repro.service import ScanRequest, ScanService

        ledger_path = str(tmp_path / "svc.ledger")

        async def scenario():
            async with ScanService(
                aln, config, n_workers=2, ledger_path=ledger_path
            ) as svc:
                await svc.scan(ScanRequest())
                return svc.status(), svc.metrics_snapshot()

        status, snapshot = self._run(scenario())
        assert status["requests"] == []  # nothing in flight anymore
        ledger = status["ledger"]
        assert ledger["path"] == ledger_path
        done = [s for s in ledger["slots"] if s["phase"] == "done"]
        assert len(done) == 1
        assert done[0]["key"] == "req-000001"
        assert done[0]["fraction"] == 1.0
        # exposition renders and validates, with service counters in it
        families = validate_openmetrics(render_openmetrics(snapshot))
        assert "repro_service_requests_completed" in families

    def test_in_flight_request_progress(self, aln, config, tmp_path):
        """The status op reports a running request's ledger progress."""
        from repro.service import ScanRequest, ScanService

        async def scenario():
            async with ScanService(
                aln, config, n_workers=2,
                ledger_path=str(tmp_path / "flight.ledger"),
            ) as svc:
                job = await svc.submit(ScanRequest())
                seen = None
                for _ in range(2000):
                    status = svc.status()
                    if status["requests"]:
                        seen = status["requests"][0]
                        break
                    await asyncio.sleep(0.001)
                await job.wait()
                return seen

        entry = self._run(scenario())
        assert entry is not None
        assert entry["request_id"] == "req-000001"
        assert entry["priority"] == 0
        assert entry["est_cost"] > 0
        assert entry["n_positions"] == 10
        assert entry["admitted_seconds_ago"] >= 0

    def test_metrics_op_over_socket(self, aln, config, tmp_path):
        from repro.service import ScanRequest, ScanService
        from repro.service.server import serve_unix

        socket_path = str(tmp_path / "svc.sock")

        async def scenario():
            svc = ScanService(
                aln, config, n_workers=2,
                ledger_path=socket_path + ".ledger",
            )
            ready = asyncio.Event()
            server = asyncio.create_task(
                serve_unix(svc, socket_path, ready=ready)
            )
            await ready.wait()

            async def query(payload):
                reader, writer = await asyncio.open_unix_connection(
                    socket_path
                )
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

            scan = await query({"op": "scan", "n_positions": 6})
            metrics = await query({"op": "metrics"})
            status = await query({"op": "status"})
            await query({"op": "shutdown"})
            await server
            return scan, metrics, status

        scan, metrics, status = self._run(scenario())
        assert scan["ok"] and len(scan["omegas"]) == 6
        assert metrics["ok"]
        assert "openmetrics" in metrics["content_type"]
        families = validate_openmetrics(metrics["exposition"])
        assert "repro_service_requests_completed" in families
        assert status["ledger"]["slots"][0]["positions_done"] > 0
