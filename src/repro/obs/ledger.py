"""Shared-memory progress ledger: live, crash-safe scan introspection.

Every long-running component (scanner batch sink, parallel block loops,
streaming session, shard workers, service dispatchers) publishes its
progress into a small mmap'd fixed-slot file that any other process can
read at any moment — including after the writer was SIGKILLed. The file
is the *live* counterpart of the post-hoc trace/metrics layer: a dozen
numbers per process, updated lock-free a few times per second.

File format (little-endian throughout)
--------------------------------------
64-byte header::

    offset  size  field
    0       8     magic  b"OMGLEDG1"
    8       8     version (currently 2)
    16      8     n_slots
    24      8     slot_size (currently 256)
    32      32    zero padding

followed by ``n_slots`` slots of 256 bytes (four cache lines on x86 —
no two writers ever share a line). A slot holds two 128-byte records
with the same layout: the live record at offset 0 and a last-good
*shadow* copy at offset 128::

    offset  size  field
    0       8     gen              seqlock generation counter
    8       8     pid
    16      8     started_ns       CLOCK_MONOTONIC; 0 = never bound
    24      8     heartbeat_ns     CLOCK_MONOTONIC of last publish
    32      8     positions_done
    40      8     positions_total  0 = unknown
    48      8     est_cost_done    float64, Eq. 4 model units
    56      8     est_cost_total   float64, 0 = unknown
    64      8     rss_bytes
    72      16    phase            NUL-padded ASCII ("ingest", "scan", ...)
    88      32    key              NUL-padded ASCII ("shard-3", "req-000042")
    120     8     zero padding

Seqlock protocol
----------------
Each slot has exactly one writer at a time. A publish packs the payload
into a local buffer first, then writes each record the same way:
increment ``gen`` to an odd value, store the payload with one slice
assignment, increment ``gen`` again (even). It writes the live record,
then the shadow. A reader loads ``gen``, copies the payload, and
re-loads ``gen``: a stable even value means the copy is consistent;
otherwise it retries a few times, then reads the shadow the same way.

A writer killed *mid-publish* leaves at most one record unstable: dying
in the live record leaves the shadow holding the previous publish, and
dying in the shadow leaves the live record complete. The reader returns
the live record when it is stable, else the shadow's consistent copy
flagged ``torn=True`` (and the stale heartbeat tells the rest of the
story); a slot whose records are both unstable, which no single writer
can produce, surfaces the live record's bytes, flagged. No locks, no
signals, no shared fate between reader and writer.

Per-process publishing rides the same no-op fast path as tracing: hot
code calls :func:`live_slot` once per operation and thereafter pays one
``is not None`` check (see ``benchmarks/bench_obs_overhead.py``).
Publishes are time-throttled (default 50 ms) so even a per-position
caller writes at most ~20 slots/second.
"""

from __future__ import annotations

import os
import mmap
import struct
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError

__all__ = [
    "HEADER_SIZE",
    "LEDGER_MAGIC",
    "LEDGER_VERSION",
    "LedgerFormatError",
    "ProgressLedger",
    "SLOT_SIZE",
    "SlotView",
    "SlotWriter",
    "bind_live_slot",
    "clear_live_slot",
    "live_slot",
]

LEDGER_MAGIC = b"OMGLEDG1"
LEDGER_VERSION = 2
HEADER_SIZE = 64
SLOT_SIZE = 256
#: Offset of the shadow record inside a slot.
_SHADOW_OFF = SLOT_SIZE // 2

_PHASE_LEN = 16
_KEY_LEN = 32

_HEADER = struct.Struct("<8sQQQ")
# gen, pid, started_ns, heartbeat_ns, positions_done, positions_total,
# est_cost_done, est_cost_total, rss_bytes, phase, key
_PAYLOAD = struct.Struct("<QQQQQddQ16s32s")
_GEN = struct.Struct("<Q")
_PAYLOAD_OFF = 8  # payload starts right after gen

#: Reads of an odd/changing generation retry this many times before
#: giving up and flagging the copy as torn.
_READ_RETRIES = 64

#: Default minimum interval between throttled publishes (50 ms).
_DEFAULT_MIN_INTERVAL_NS = 50_000_000

#: RSS is re-sampled at most this often (it costs a /proc read).
_RSS_INTERVAL_NS = 500_000_000


class LedgerFormatError(ReproError, ValueError):
    """The ledger file is missing, truncated, or not a ledger."""


def _pad_ascii(text: str, size: int) -> bytes:
    raw = text.encode("ascii", "replace")[:size]
    return raw  # struct "Ns" NUL-pads on pack

def _unpad_ascii(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("ascii", "replace")


@dataclass(frozen=True)
class SlotView:
    """One consistent (or flagged-torn) copy of a ledger slot."""

    index: int
    gen: int
    pid: int
    started_ns: int
    heartbeat_ns: int
    positions_done: int
    positions_total: int
    est_cost_done: float
    est_cost_total: float
    rss_bytes: int
    phase: str
    key: str
    torn: bool

    @property
    def bound(self) -> bool:
        """True once a worker has published into this slot."""
        return self.started_ns > 0

    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction in [0, 1]; cost-weighted when totals are
        known, position-weighted otherwise, ``None`` when neither is."""
        if self.est_cost_total > 0:
            return min(1.0, self.est_cost_done / self.est_cost_total)
        if self.positions_total > 0:
            return min(1.0, self.positions_done / self.positions_total)
        return None

    def heartbeat_age_seconds(self, now_ns: Optional[int] = None) -> float:
        if now_ns is None:
            now_ns = time.perf_counter_ns()
        return max(0.0, (now_ns - self.heartbeat_ns) / 1e9)

    def stale(
        self, stale_after: float = 5.0, now_ns: Optional[int] = None
    ) -> bool:
        """A bound, unfinished slot whose heartbeat stopped."""
        if not self.bound or self.phase in ("done", "failed"):
            return False
        return self.heartbeat_age_seconds(now_ns) > stale_after

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "pid": self.pid,
            "phase": self.phase,
            "bound": self.bound,
            "torn": self.torn,
            "positions_done": self.positions_done,
            "positions_total": self.positions_total,
            "est_cost_done": self.est_cost_done,
            "est_cost_total": self.est_cost_total,
            "rss_bytes": self.rss_bytes,
            "started_ns": self.started_ns,
            "heartbeat_ns": self.heartbeat_ns,
        }


class ProgressLedger:
    """mmap over a fixed-slot ledger file (creator, reader, or writer)."""

    def __init__(self, path: str, mm: mmap.mmap, n_slots: int) -> None:
        self.path = path
        self._mm = mm
        self.n_slots = n_slots
        self._closed = False

    # -- lifecycle ---------------------------------------------------- #

    @classmethod
    def create(cls, path: str, n_slots: int) -> "ProgressLedger":
        """Create (or truncate) a ledger with ``n_slots`` empty slots."""
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        size = HEADER_SIZE + n_slots * SLOT_SIZE
        header = _HEADER.pack(LEDGER_MAGIC, LEDGER_VERSION, n_slots, SLOT_SIZE)
        blob = header + b"\x00" * (size - len(header))
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return cls.open(path, writable=True)

    @classmethod
    def open(cls, path: str, *, writable: bool = False) -> "ProgressLedger":
        """Map an existing ledger; validates magic/version/size."""
        flags = os.O_RDWR if writable else os.O_RDONLY
        try:
            fd = os.open(path, flags)
        except OSError as exc:
            raise LedgerFormatError(f"cannot open ledger {path}: {exc}")
        try:
            size = os.fstat(fd).st_size
            if size < HEADER_SIZE:
                raise LedgerFormatError(
                    f"ledger {path} truncated ({size} bytes)"
                )
            access = mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ
            mm = mmap.mmap(fd, size, access=access)
        finally:
            os.close(fd)
        magic, version, n_slots, slot_size = _HEADER.unpack_from(mm, 0)
        if magic != LEDGER_MAGIC:
            mm.close()
            raise LedgerFormatError(f"{path} is not a progress ledger")
        if version != LEDGER_VERSION or slot_size != SLOT_SIZE:
            mm.close()
            raise LedgerFormatError(
                f"ledger {path}: unsupported version={version} "
                f"slot_size={slot_size}"
            )
        if size < HEADER_SIZE + n_slots * SLOT_SIZE:
            mm.close()
            raise LedgerFormatError(
                f"ledger {path} truncated: {n_slots} slots need "
                f"{HEADER_SIZE + n_slots * SLOT_SIZE} bytes, file has {size}"
            )
        return cls(path, mm, int(n_slots))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._mm.close()

    def __enter__(self) -> "ProgressLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ------------------------------------------------------ #

    def _slot_off(self, index: int) -> int:
        if not 0 <= index < self.n_slots:
            raise IndexError(
                f"slot {index} out of range (ledger has {self.n_slots})"
            )
        return HEADER_SIZE + index * SLOT_SIZE

    def _read_record(self, off: int):
        """Seqlock read of the record at ``off``: ``(gen, payload,
        stable)``, retrying while the generation is odd or moving."""
        mm = self._mm
        g1, payload = 0, b""
        for _ in range(_READ_RETRIES):
            (g0,) = _GEN.unpack_from(mm, off)
            payload = mm[off + _PAYLOAD_OFF : off + _PAYLOAD_OFF + _PAYLOAD.size]
            (g1,) = _GEN.unpack_from(mm, off)
            if g0 == g1 and g0 % 2 == 0:
                return g1, payload, True
        return g1, payload, False

    def read_slot(self, index: int) -> SlotView:
        """The live record when it is stable, else the last-good shadow
        flagged ``torn``."""
        off = self._slot_off(index)
        gen, payload, stable = self._read_record(off)
        if not stable:
            _gen, shadow, shadow_stable = self._read_record(off + _SHADOW_OFF)
            if shadow_stable:
                payload = shadow
        (
            pid,
            started_ns,
            heartbeat_ns,
            positions_done,
            positions_total,
            est_cost_done,
            est_cost_total,
            rss_bytes,
            phase_raw,
            key_raw,
        ) = _PAYLOAD.unpack(payload)
        return SlotView(
            index=index,
            gen=gen,
            pid=pid,
            started_ns=started_ns,
            heartbeat_ns=heartbeat_ns,
            positions_done=positions_done,
            positions_total=positions_total,
            est_cost_done=est_cost_done,
            est_cost_total=est_cost_total,
            rss_bytes=rss_bytes,
            phase=_unpad_ascii(phase_raw),
            key=_unpad_ascii(key_raw),
            torn=not stable,
        )

    def read_slots(self) -> List[SlotView]:
        return [self.read_slot(i) for i in range(self.n_slots)]

    # -- writing ------------------------------------------------------ #

    def slot_writer(
        self, index: int, *, min_interval_ns: int = _DEFAULT_MIN_INTERVAL_NS
    ) -> "SlotWriter":
        self._slot_off(index)  # bounds check
        return SlotWriter(self, index, min_interval_ns=min_interval_ns)

    def init_slot(
        self,
        index: int,
        *,
        key: str,
        positions_total: int = 0,
        est_cost_total: float = 0.0,
        phase: str = "pending",
        positions_done: int = 0,
        est_cost_done: float = 0.0,
    ) -> None:
        """Orchestrator-side slot (re)initialisation — key and totals.

        Only safe while no worker owns the slot (before spawn / after
        join); uses the same seqlock write protocol.
        """
        w = SlotWriter(self, index, min_interval_ns=0)
        w._positions_done = positions_done
        w._positions_total = positions_total
        w._est_cost_done = est_cost_done
        w._est_cost_total = est_cost_total
        w._phase = phase
        w._key = key
        w._pid = 0
        w._started_ns = 0
        w._rss_bytes = 0
        w._write()

    def mark_phase(self, index: int, phase: str) -> None:
        """Overwrite one slot's phase, preserving every other field.

        Orchestrator-side: used after a worker's death (never while it
        lives — slots are single-writer) to stamp ``failed`` over the
        victim's last published progress.
        """
        cur = self.read_slot(index)
        w = SlotWriter(self, index, min_interval_ns=0)
        w._pid = cur.pid
        w._started_ns = cur.started_ns
        w._positions_done = cur.positions_done
        w._positions_total = cur.positions_total
        w._est_cost_done = cur.est_cost_done
        w._est_cost_total = cur.est_cost_total
        w._rss_bytes = cur.rss_bytes
        w._key = cur.key
        w._phase = phase
        w._write()


class SlotWriter:
    """Single-writer handle over one slot; keeps a shadow of the payload
    so each publish writes the full, consistent record."""

    def __init__(
        self,
        ledger: ProgressLedger,
        index: int,
        *,
        min_interval_ns: int = _DEFAULT_MIN_INTERVAL_NS,
    ) -> None:
        self._ledger = ledger
        self._mm = ledger._mm
        self._off = ledger._slot_off(index)
        self.index = index
        self._min_interval_ns = min_interval_ns
        self._last_publish_ns = 0
        self._last_rss_ns = 0
        # shadow payload
        self._pid = 0
        self._started_ns = 0
        self._positions_done = 0
        self._positions_total = 0
        self._est_cost_done = 0.0
        self._est_cost_total = 0.0
        self._rss_bytes = 0
        self._phase = ""
        self._key = ""

    # -- seqlock write ------------------------------------------------ #

    def _write(self) -> None:
        now = time.perf_counter_ns()
        payload = _PAYLOAD.pack(
            self._pid,
            self._started_ns,
            now,
            self._positions_done,
            self._positions_total,
            self._est_cost_done,
            self._est_cost_total,
            self._rss_bytes,
            _pad_ascii(self._phase, _PHASE_LEN),
            _pad_ascii(self._key, _KEY_LEN),
        )
        self._publish(self._off, payload)
        self._publish(self._off + _SHADOW_OFF, payload)
        self._last_publish_ns = now

    def _publish(self, off: int, payload: bytes) -> None:
        """Seqlock write of one record: odd gen, payload, even gen."""
        (gen,) = _GEN.unpack_from(self._mm, off)
        if gen % 2:  # previous writer died mid-publish; take over cleanly
            gen += 1
        self._store(off, _GEN.pack(gen + 1))  # odd: write in progress
        self._store(off + _PAYLOAD_OFF, payload)
        self._store(off, _GEN.pack(gen + 2))  # even: stable

    def _store(self, off: int, data: bytes) -> None:
        """Every byte a publish writes goes through here (one slice
        assignment; tests replace it to stop a publish at any byte)."""
        self._mm[off : off + len(data)] = data

    def _maybe_rss(self, now_ns: int) -> None:
        if now_ns - self._last_rss_ns >= _RSS_INTERVAL_NS:
            from repro import obs

            self._rss_bytes = obs.current_rss_bytes()
            self._last_rss_ns = now_ns

    # -- public API --------------------------------------------------- #

    def bind(
        self,
        *,
        key: Optional[str] = None,
        phase: str = "start",
        positions_total: Optional[int] = None,
        est_cost_total: Optional[float] = None,
    ) -> "SlotWriter":
        """Claim the slot for this process and publish immediately.

        Fields left ``None`` are inherited from whatever the
        orchestrator pre-initialised the slot with (key, totals).
        """
        current = self._ledger.read_slot(self.index)
        self._key = key if key is not None else current.key
        self._positions_total = (
            positions_total
            if positions_total is not None
            else current.positions_total
        )
        self._est_cost_total = (
            est_cost_total
            if est_cost_total is not None
            else current.est_cost_total
        )
        self._pid = os.getpid()
        now = time.perf_counter_ns()
        self._started_ns = now
        self._phase = phase
        self._maybe_rss(now)
        self._write()
        return self

    def add_progress(self, n_positions: int, est_cost: float = 0.0) -> None:
        """Accumulate progress; publishes only when the throttle allows.

        This is the hot-path call — when the throttle holds it back it
        costs two integer adds and a clock read.
        """
        self._positions_done += n_positions
        self._est_cost_done += est_cost
        now = time.perf_counter_ns()
        if now - self._last_publish_ns >= self._min_interval_ns:
            self._maybe_rss(now)
            self._write()

    def set_phase(self, phase: str, *, publish: bool = True) -> None:
        self._phase = phase
        if publish:
            self._maybe_rss(time.perf_counter_ns())
            self._write()

    def touch(self, phase: Optional[str] = None) -> None:
        """Heartbeat (throttled); optionally switch phase."""
        if phase is not None and phase != self._phase:
            self._phase = phase
            self._write()
            return
        now = time.perf_counter_ns()
        if now - self._last_publish_ns >= self._min_interval_ns:
            self._maybe_rss(now)
            self._write()

    def finish(self, phase: str = "done") -> None:
        """Final unthrottled publish (clamps done to totals if known)."""
        if self._positions_total and phase == "done":
            self._positions_done = max(
                self._positions_done, self._positions_total
            )
        if self._est_cost_total and phase == "done":
            self._est_cost_done = max(self._est_cost_done, self._est_cost_total)
        self._phase = phase
        self._maybe_rss(time.perf_counter_ns())
        self._write()


# --------------------------------------------------------------------- #
# per-process live slot (the no-op fast path)
# --------------------------------------------------------------------- #

#: (pid, writer) — pid-guarded so a forked child never publishes into
#: its parent's slot (one slot has exactly one writer).
_LIVE: Optional[tuple] = None


def bind_live_slot(writer: SlotWriter) -> None:
    """Make ``writer`` this process's ambient progress output.

    Scanner sinks, block loops and streaming readers pick it up through
    :func:`live_slot`; processes that never bind one pay a single
    ``None`` check.
    """
    global _LIVE
    _LIVE = (os.getpid(), writer)


def live_slot() -> Optional[SlotWriter]:
    """This process's bound slot writer, or ``None`` (the common case)."""
    if _LIVE is None:
        return None
    pid, writer = _LIVE
    if pid != os.getpid():
        return None
    return writer


def clear_live_slot() -> None:
    global _LIVE
    _LIVE = None
