"""Bounded-memory streaming ingestion of chromosome-scale alignments.

The scanners in :mod:`repro.core` assume the full SNP matrix is resident
before the ω scan starts, which caps input size at available RAM. This
module removes that cap: a :class:`StreamingAlignmentReader` parses ms or
VCF input in two passes —

1. an **index pass** that retains only the site positions (plus the
   sample count), O(n_sites) floats however large the genotype matrix is,
   applying exactly the transformations the in-memory pipeline applies
   (ms position scaling and tie-nudging; VCF major-allele imputation and
   monomorphic-site dropping), so the streamed scan plan is identical to
   the in-memory one;
2. a **chunk pass** (:meth:`~AlignmentStreamSource.windows`) that yields
   :class:`~repro.datasets.alignment.SNPAlignment` chunks for a monotonic
   sequence of site ranges, holding at most one chunk's genotypes at a
   time. VCF is site-major, so one forward pass with a sliding column
   buffer serves every window; ms is row-major, so the index pass
   records each haplotype row's byte offset and a window reads only its
   own columns, one positioned read per row. A file whose size, mtime
   or inode changed since the index pass is refused.

Chunk positions stay in *global* coordinates
(:meth:`SNPAlignment.site_slice` semantics), so window arithmetic and
grid planning against the index-pass positions remain valid inside every
chunk. ``scan_stream`` in :mod:`repro.core.scan` drives these sources.
"""

from __future__ import annotations

import io
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.datasets.missing import impute_major_column
from repro.datasets.msformat import (
    parse_haplotype_line,
    parse_positions_line,
    parse_segsites_line,
    scale_positions,
)
from repro.datasets.vcf import iter_vcf_records, vcf_chromosome_census
from repro.errors import DataFormatError, ScanConfigError, StreamingError

__all__ = [
    "AlignmentStreamSource",
    "ChromosomeInfo",
    "InMemoryStreamSource",
    "StreamingAlignmentReader",
    "enumerate_chromosomes",
]


@dataclass(frozen=True)
class ChromosomeInfo:
    """One independently scannable unit of an input file.

    For VCF this is a chromosome (``name`` is the CHROM value); for ms it
    is a replicate block (``name`` is the decimal replicate index, the
    value accepted by ``StreamingAlignmentReader(replicate=...)``).
    ``n_records`` counts the records the streaming index pass would
    consider — usable biallelic SNPs for VCF (before imputation and the
    polymorphism filter), segregating sites for ms — so manifest planners
    can skip empty units without a full index pass.
    """

    name: str
    n_records: int


def _ms_replicate_census(fh: Iterable[str]) -> List[ChromosomeInfo]:
    """Enumerate the replicate blocks of an ms stream in file order."""
    out: List[ChromosomeInfo] = []
    lines = (ln.rstrip("\n") for ln in fh)
    for line in lines:
        if line.strip() == "//":
            seg_line = next((ln for ln in lines if ln.strip()), None)
            if seg_line is None or not seg_line.startswith("segsites:"):
                raise DataFormatError(
                    f"replicate {len(out)}: expected 'segsites:' after "
                    f"'//', got {seg_line!r}" if seg_line is not None else
                    f"replicate {len(out)}: file ends after '//'"
                )
            segsites = parse_segsites_line(seg_line, len(out))
            out.append(
                ChromosomeInfo(name=str(len(out)), n_records=segsites)
            )
    if not out:
        raise DataFormatError("no '//' replicate blocks found in ms input")
    return out


def enumerate_chromosomes(
    path: Optional[str] = None,
    *,
    text: Optional[str] = None,
    format: str = "ms",
) -> List[ChromosomeInfo]:
    """Enumerate the scannable units of an input file without indexing it.

    One cheap structural pass: VCF returns its chromosomes in file order
    (raising :class:`~repro.errors.DataFormatError` on non-contiguous
    chromosome blocks, see
    :func:`~repro.datasets.vcf.vcf_chromosome_census`); ms returns its
    replicate blocks. This is how the shard planner builds a manifest
    from bare file paths with no user-supplied region list.
    """
    if (path is None) == (text is None):
        raise StreamingError("pass exactly one of path= or text=")
    if format not in ("ms", "vcf"):
        raise ScanConfigError(
            f"streaming supports 'ms' and 'vcf', got {format!r}"
        )
    fh: io.TextIOBase = (
        open(path, "r", encoding="ascii")
        if path is not None
        else io.StringIO(text)
    )
    with fh:
        if format == "ms":
            return _ms_replicate_census(fh)
        return [
            ChromosomeInfo(name=chrom, n_records=count)
            for chrom, count in vcf_chromosome_census(fh)
        ]


def _offset_lines(fh: Iterable[bytes]) -> Iterator[Tuple[int, bytes]]:
    """``(byte offset, raw line)`` for each line of a binary stream."""
    offset = 0
    for raw in fh:
        yield offset, raw
        offset += len(raw)


def _check_ranges(
    ranges: Sequence[Tuple[int, int]], n_sites: int
) -> List[Tuple[int, int]]:
    """Validate a monotonic sequence of [lo, hi) site ranges."""
    checked: List[Tuple[int, int]] = []
    prev_lo = prev_hi = 0
    for lo, hi in ranges:
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= n_sites):
            raise StreamingError(
                f"window [{lo}, {hi}) out of bounds for {n_sites} sites"
            )
        if lo < prev_lo or hi < prev_hi:
            raise StreamingError(
                "window ranges must be monotonically non-decreasing "
                f"(got [{lo}, {hi}) after [{prev_lo}, {prev_hi})) — "
                "streaming sources are single-pass"
            )
        prev_lo, prev_hi = lo, hi
        checked.append((lo, hi))
    return checked


def _live_windows(
    inner: Iterator[SNPAlignment],
) -> Iterator[SNPAlignment]:
    """Wrap a window generator with live-introspection hooks.

    Each file-backed window read heartbeats the process's progress-ledger
    slot (if one is bound — a plain ``None`` check otherwise) and leaves
    a flight-recorder breadcrumb, so a worker stuck inside a slow ingest
    still looks alive to ``omegascan top`` and a postmortem shows how far
    the reader got.
    """
    from repro.obs.flight import get_flight
    from repro.obs.ledger import live_slot

    def gen() -> Iterator[SNPAlignment]:
        try:
            for chunk in inner:
                w = live_slot()
                if w is not None:
                    w.touch()
                get_flight().record(
                    "window", "reader.window", sites=int(chunk.n_sites)
                )
                yield chunk
        finally:
            inner.close()

    return gen()


class AlignmentStreamSource:
    """Interface of a chunk-serving alignment source.

    Concrete sources expose the index-pass metadata (``positions``,
    ``n_samples``, ``n_sites``, ``length``) up front and materialize
    genotypes only per requested window.
    """

    @property
    def positions(self) -> np.ndarray:
        """All site positions (global coordinates, post-transform)."""
        raise NotImplementedError

    @property
    def n_samples(self) -> int:
        raise NotImplementedError

    @property
    def n_sites(self) -> int:
        return int(self.positions.size)

    @property
    def length(self) -> float:
        raise NotImplementedError

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        """Yield one chunk per [lo, hi) site range.

        Ranges must be monotonically non-decreasing in both endpoints
        (overlap is fine, rewinding is not — VCF streaming is a single
        forward pass). Closing the returned generator mid-iteration
        releases any underlying file handle.
        """
        raise NotImplementedError

    def chunks(
        self, snp_budget: int, *, overlap: int = 0
    ) -> Iterator[SNPAlignment]:
        """Yield fixed-size overlapping chunks covering every site."""
        if snp_budget < 1:
            raise ScanConfigError(
                f"snp_budget must be >= 1, got {snp_budget}"
            )
        if not 0 <= overlap < snp_budget:
            raise ScanConfigError(
                f"overlap must be in [0, snp_budget), got {overlap}"
            )
        n = self.n_sites
        ranges: List[Tuple[int, int]] = []
        lo = 0
        while lo < n or (lo == 0 and n == 0):
            hi = min(n, lo + snp_budget)
            ranges.append((lo, hi))
            if hi >= n:
                break
            lo = hi - overlap
        return self.windows(ranges)


class InMemoryStreamSource(AlignmentStreamSource):
    """Adapter serving chunks of an already-loaded alignment.

    Exists so the streamed scan path can run (and be equivalence-tested)
    against any in-memory alignment without touching the filesystem.
    """

    def __init__(self, alignment: SNPAlignment):
        self._alignment = alignment

    @property
    def positions(self) -> np.ndarray:
        return self._alignment.positions

    @property
    def n_samples(self) -> int:
        return self._alignment.n_samples

    @property
    def length(self) -> float:
        return self._alignment.length

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        checked = _check_ranges(ranges, self.n_sites)

        def gen() -> Iterator[SNPAlignment]:
            for lo, hi in checked:
                yield self._alignment.site_slice(lo, hi)

        return gen()


class StreamingAlignmentReader(AlignmentStreamSource):
    """Incremental ms/VCF reader with an O(n_sites) index pass.

    Parameters
    ----------
    path:
        Input file path (re-openable — the chunk pass re-reads it).
        Mutually exclusive with ``text``.
    text:
        Input held in a string (convenience for tests/small inputs).
    format:
        ``"ms"`` or ``"vcf"``.
    length:
        Region length in bp. ms default 1.0 (fractional positions);
        VCF default ``None`` (last record position + 1, as
        :func:`~repro.datasets.vcf.parse_vcf`).
    replicate:
        Replicate index within an ms file.
    chromosome:
        CHROM value to keep in a VCF (as :func:`parse_vcf`).

    The VCF route applies major-allele imputation and drops monomorphic
    sites per column, matching the in-memory
    ``parse_vcf(...).impute_major().drop_monomorphic()`` pipeline
    bitwise. Unsorted VCF positions raise
    :class:`~repro.errors.DataFormatError`: the in-memory parser sorts
    globally, which a single forward pass cannot.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        text: Optional[str] = None,
        format: str = "ms",
        length: Optional[float] = None,
        replicate: int = 0,
        chromosome: Optional[str] = None,
    ):
        if (path is None) == (text is None):
            raise StreamingError(
                "pass exactly one of path= or text="
            )
        if format not in ("ms", "vcf"):
            raise ScanConfigError(
                f"streaming supports 'ms' and 'vcf', got {format!r}"
            )
        if replicate < 0:
            raise ScanConfigError(
                f"replicate must be >= 0, got {replicate}"
            )
        self._path = path
        self._text = text
        # The ms route works on bytes: a path is read as ASCII, and text
        # is held encoded so a window slices it as it would read the file.
        self._data = b""
        self._encoding = "ascii"
        self._row_offsets: List[int] = []
        self._stamp: Optional[Tuple[int, int, int]] = None
        self._format = format
        self._replicate = replicate
        self._chromosome = chromosome
        self._positions: np.ndarray
        self._n_samples: int
        self._length: float
        if format == "ms":
            if text is not None:
                self._data, self._encoding = text.encode("utf-8"), "utf-8"
            self._index_ms(1.0 if length is None else float(length))
        else:
            self._index_vcf(length)

    # -------------------------------------------------------------- #
    # common plumbing
    # -------------------------------------------------------------- #

    def _open(self) -> io.TextIOBase:
        if self._path is not None:
            return open(self._path, "r", encoding="ascii")
        return io.StringIO(self._text)

    def chromosomes(self) -> List[ChromosomeInfo]:
        """Enumerate every scannable unit of the underlying input (all
        VCF chromosomes / all ms replicates, not just the one this reader
        was constructed for). See :func:`enumerate_chromosomes`."""
        with self._open() as fh:
            if self._format == "ms":
                return _ms_replicate_census(fh)
            return [
                ChromosomeInfo(name=chrom, n_records=count)
                for chrom, count in vcf_chromosome_census(fh)
            ]

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def length(self) -> float:
        return self._length

    def windows(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        checked = _check_ranges(ranges, self.n_sites)
        if self._format == "ms":
            return _live_windows(self._ms_windows(checked))
        return _live_windows(self._vcf_windows(checked))

    # -------------------------------------------------------------- #
    # ms route (row-major: rows indexed by byte offset, read per window)
    # -------------------------------------------------------------- #

    def _ms_bytes(self) -> io.BufferedIOBase:
        if self._path is not None:
            return open(self._path, "rb")
        return io.BytesIO(self._data)

    def _ms_enter_replicate(
        self, lines: Iterator[Tuple[int, bytes]]
    ) -> Tuple[int, np.ndarray]:
        """Advance ``lines`` (``(byte offset, raw line)`` pairs) to the
        target replicate's first haplotype row. Returns ``(segsites,
        relative positions)``."""
        rep = self._replicate
        text = (raw.decode(self._encoding).rstrip("\n") for _, raw in lines)
        seen = 0
        found = False
        for line in text:
            if line.strip() == "//":
                if seen == rep:
                    found = True
                    break
                seen += 1
        if not found:
            if seen == 0 and rep == 0:
                raise DataFormatError(
                    "no '//' replicate blocks found in ms input"
                )
            raise DataFormatError(
                f"replicate {rep} out of range (file has {seen})"
            )
        line = next((ln for ln in text if ln.strip()), None)
        if line is None or not line.startswith("segsites:"):
            raise DataFormatError(
                f"replicate {rep}: expected 'segsites:' after '//', "
                f"got {line!r}" if line is not None else
                f"replicate {rep}: file ends after '//'"
            )
        segsites = parse_segsites_line(line, rep)
        if segsites == 0:
            return segsites, np.zeros(0)
        line = next((ln for ln in text if ln.strip()), None)
        if line is None or not line.startswith("positions:"):
            raise DataFormatError(
                f"replicate {rep}: expected 'positions:' line"
            )
        return segsites, parse_positions_line(line, segsites, rep)

    def _index_ms(self, length: float) -> None:
        """One pass: validate every haplotype row and record the byte
        offset of its first allele, so a window reads only its columns."""
        offsets: List[int] = []
        with self._ms_bytes() as fh:
            if self._path is not None:
                st = os.fstat(fh.fileno())
                self._stamp = (st.st_size, st.st_mtime_ns, st.st_ino)
            lines = _offset_lines(fh)
            segsites, rel = self._ms_enter_replicate(lines)
            if segsites > 0:
                for offset, raw in lines:
                    row = raw.strip()
                    if not row or row == b"//":
                        break
                    parse_haplotype_line(
                        row.decode(self._encoding), segsites, self._replicate
                    )
                    offsets.append(offset + len(raw) - len(raw.lstrip()))
                if not offsets:
                    raise DataFormatError(
                        f"replicate {self._replicate}: no haplotype rows"
                    )
        self._row_offsets = offsets
        self._n_samples = len(offsets)
        self._positions = scale_positions(rel, length)
        self._length = length

    def _ms_windows(
        self, ranges: List[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        def changed(what: str) -> StreamingError:
            return StreamingError(
                "ms input changed between the index pass and the chunk "
                f"pass ({what})"
            )

        def gen() -> Iterator[SNPAlignment]:
            with self._ms_bytes() as fh:
                if self._path is None:
                    data = self._data

                    def read(n: int, at: int) -> bytes:
                        return data[at : at + n]

                else:
                    fd = fh.fileno()

                    def read(n: int, at: int) -> bytes:
                        return os.pread(fd, n, at)

                for lo, hi in ranges:
                    if self._path is not None:
                        st = os.fstat(fd)
                        stamp = (st.st_size, st.st_mtime_ns, st.st_ino)
                        if stamp != self._stamp:
                            raise changed(
                                f"size, mtime or inode {stamp}, indexed "
                                f"{self._stamp}"
                            )
                    width = hi - lo
                    matrix = np.empty((self._n_samples, width), np.uint8)
                    for k, offset in enumerate(self._row_offsets):
                        chunk = read(width, offset + lo)
                        if len(chunk) != width:
                            raise changed(f"short read in haplotype {k}")
                        matrix[k] = np.frombuffer(chunk, dtype=np.uint8)
                    matrix -= ord("0")
                    if matrix.size and matrix.max() > 1:
                        raise changed("a non-0/1 allele in the window")
                    yield SNPAlignment(
                        matrix=matrix,
                        positions=self._positions[lo:hi],
                        length=self._length,
                    )

        return gen()

    # -------------------------------------------------------------- #
    # VCF route (site-major: one forward pass, sliding column buffer)
    # -------------------------------------------------------------- #

    def _vcf_stream(
        self, fh: io.TextIOBase
    ) -> Iterator[Tuple[float, np.ndarray, bool]]:
        """Yield ``(position, imputed column, kept)`` per biallelic
        record, applying the exact in-memory transform chain: tie-nudge
        (sorted input required), major-allele imputation, polymorphism
        filter."""
        prev_raw: Optional[float] = None
        prev_out: Optional[float] = None
        any_records = False
        for record in iter_vcf_records(fh, chromosome=self._chromosome):
            any_records = True
            if prev_raw is not None and record.position < prev_raw:
                raise DataFormatError(
                    f"unsorted VCF positions ({record.position:.0f} after "
                    f"{prev_raw:.0f}): streaming requires position-sorted "
                    "records; sort the file or use the in-memory parser"
                )
            prev_raw = record.position
            pos = record.position
            if prev_out is not None and pos <= prev_out:
                pos = float(np.nextafter(prev_out, np.inf))
            prev_out = pos
            column = impute_major_column(record.calls)
            count = int(column.sum(dtype=np.int64))
            yield pos, column, 0 < count < column.size
        if not any_records:
            raise DataFormatError("no usable biallelic SNP records found")

    def _index_vcf(self, length: Optional[float]) -> None:
        positions: List[float] = []
        n_samples = 0
        last_pos = 0.0
        with self._open() as fh:
            for pos, column, kept in self._vcf_stream(fh):
                n_samples = column.size
                last_pos = pos
                if kept:
                    positions.append(pos)
        self._n_samples = n_samples
        self._positions = np.array(positions, dtype=np.float64)
        self._length = (
            float(length) if length else float(last_pos + 1.0)
        )

    def _vcf_windows(
        self, ranges: List[Tuple[int, int]]
    ) -> Iterator[SNPAlignment]:
        def gen() -> Iterator[SNPAlignment]:
            with self._open() as fh:
                stream = self._vcf_stream(fh)
                buffer: deque = deque()  # (kept site index, column)
                next_idx = 0
                for lo, hi in ranges:
                    while buffer and buffer[0][0] < lo:
                        buffer.popleft()
                    while next_idx < hi:
                        try:
                            while True:
                                pos, column, kept = next(stream)
                                if kept:
                                    break
                        except StopIteration:
                            raise StreamingError(
                                "VCF input changed between the index pass "
                                f"and the chunk pass (ended at kept site "
                                f"{next_idx}, indexed {self.n_sites})"
                            ) from None
                        if pos != self._positions[next_idx]:
                            raise StreamingError(
                                "VCF input changed between the index pass "
                                f"and the chunk pass (site {next_idx} at "
                                f"{pos}, indexed "
                                f"{self._positions[next_idx]})"
                            )
                        if next_idx >= lo:
                            buffer.append((next_idx, column))
                        next_idx += 1
                    cols = [col for _idx, col in buffer]
                    matrix = (
                        np.column_stack(cols)
                        if cols
                        else np.zeros(
                            (self._n_samples, 0), dtype=np.uint8
                        )
                    )
                    yield SNPAlignment(
                        matrix=matrix,
                        positions=self._positions[lo:hi],
                        length=self._length,
                    )

        return gen()
