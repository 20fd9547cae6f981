"""Word-packed SNP representation.

OmegaPlus compresses binary SNP data into machine words on the CPU before
any computation (Fig. 3, "data compression" step): each site's column of
``n_samples`` alleles becomes ``ceil(n_samples / 64)`` 64-bit words, and the
counts that feed r-squared come out of popcounts of ``AND``-ed words. The
:class:`PackedAlignment` here reproduces that layout; the popcount LD
kernels in :mod:`repro.ld.packed_kernels` consume it.

Layout choice: the per-site words are contiguous (site-major, i.e. shape
``(n_sites, n_words)``) because LD compares *pairs of sites* — the two
operand rows of every comparison are then two contiguous word vectors, the
same locality argument the paper makes for storing the DP matrix M in
column-major order.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.errors import AlignmentError
from repro.utils.bitops import pack_bits, popcount64, unpack_bits

__all__ = ["PackedAlignment", "SharedPackedWords", "SharedPackedSpec"]


@dataclass(frozen=True)
class PackedAlignment:
    """Bit-packed view of a :class:`SNPAlignment`.

    Attributes
    ----------
    words:
        ``uint64`` array of shape ``(n_sites, n_words)``; bit ``k`` of site
        ``s`` (sample index ``k``) lives in ``words[s, k // 64]`` at bit
        position ``63 - (k % 64)``.
    n_samples:
        Number of valid bits per site row.
    positions:
        Genomic coordinates, identical to the source alignment.
    length:
        Region length, identical to the source alignment.
    """

    words: np.ndarray
    n_samples: int
    positions: np.ndarray
    length: float

    @classmethod
    def from_alignment(cls, alignment: SNPAlignment) -> "PackedAlignment":
        """Pack each site column of ``alignment`` into 64-bit words."""
        return cls.from_matrix(
            alignment.matrix, alignment.positions, alignment.length
        )

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, positions: np.ndarray, length: float
    ) -> "PackedAlignment":
        """Pack each site column of a (samples x sites) 0/1 matrix."""
        # Transpose to (n_sites, n_samples) so the packed axis is samples.
        site_major = np.ascontiguousarray(matrix.T)
        return cls(
            words=pack_bits(site_major),
            n_samples=matrix.shape[0],
            positions=positions,
            length=length,
        )

    def __post_init__(self) -> None:
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.ndim != 2:
            raise AlignmentError(
                f"words must be 2-D (sites x words), got shape {words.shape}"
            )
        needed = (self.n_samples + 63) // 64
        if words.shape[0] and words.shape[1] != needed:
            raise AlignmentError(
                f"{self.n_samples} samples require {needed} words per site, "
                f"got {words.shape[1]}"
            )
        object.__setattr__(self, "words", words)

    @property
    def n_sites(self) -> int:
        """Number of sites (rows of the word matrix)."""
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        """Number of 64-bit words per site."""
        return self.words.shape[1]

    def derived_counts(self) -> np.ndarray:
        """Derived-allele count per site via popcount (int64)."""
        if self.n_sites == 0:
            return np.zeros(0, dtype=np.int64)
        return popcount64(self.words).sum(axis=1)

    def pair_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Co-occurrence counts ``n_11`` for site index pairs ``(i, j)``.

        ``n_11`` is the number of samples carrying the derived allele at
        *both* sites — the quantity ``n * p_ij`` in Eq. (1). Fully
        vectorized over the pair arrays.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        both = self.words[i] & self.words[j]
        return popcount64(both).sum(axis=-1)

    def unpack(self) -> SNPAlignment:
        """Reconstruct the dense :class:`SNPAlignment` (round-trip inverse
        of :meth:`from_alignment`)."""
        if self.n_sites == 0:
            matrix = np.zeros((self.n_samples, 0), dtype=np.uint8)
        else:
            matrix = unpack_bits(self.words, self.n_samples).T
        return SNPAlignment(matrix=matrix, positions=self.positions, length=self.length)

    def nbytes(self) -> int:
        """Memory footprint of the packed words in bytes (the quantity the
        accelerator transfer models charge for SNP data)."""
        return int(self.words.nbytes)


# ---------------------------------------------------------------------- #
# shared-memory placement of the packed word plane
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SharedPackedSpec:
    """Picklable handle to a shared packed word plane.

    The packed twin of
    :class:`~repro.datasets.alignment.SharedAlignmentSpec`: a name plus
    three integers crosses the process boundary instead of the word
    matrix. Workers call :meth:`SharedPackedWords.attach` with it.
    """

    words_name: str
    n_sites: int
    n_words: int
    n_samples: int


class SharedPackedWords:
    """Owner/attachment of the shared segment backing a packed word plane.

    The parent packs the alignment **once**, copies the word matrix into
    one POSIX shared-memory segment, and ships :attr:`spec` alongside the
    :class:`~repro.datasets.alignment.SharedAlignmentSpec`; each worker
    attaches a read-only zero-copy view and rebuilds a
    :class:`PackedAlignment` around it via :meth:`packed_for` — no
    per-process re-packing, no duplicated plane in RSS.

    Lifecycle mirrors ``SharedAlignmentSegments``: the creator owns the
    segment and must :meth:`unlink`; attachments just :meth:`close`. The
    context-manager form closes, and additionally unlinks on the owner
    side, even on error paths.
    """

    def __init__(
        self,
        spec: SharedPackedSpec,
        shm: Optional[shared_memory.SharedMemory],
        words: Optional[np.ndarray],
        *,
        owner: bool,
    ):
        self.spec = spec
        self._shm = shm
        self._words = words
        self._owner = owner

    # -------------------------------------------------------------- #

    @classmethod
    def create(cls, packed: PackedAlignment) -> "SharedPackedWords":
        """Copy ``packed.words`` into a freshly created shared segment."""
        token = f"{SHM_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        spec = SharedPackedSpec(
            words_name=f"{token}-packed",
            n_sites=packed.n_sites,
            n_words=packed.n_words,
            n_samples=packed.n_samples,
        )
        shm = shared_memory.SharedMemory(
            name=spec.words_name, create=True, size=max(1, packed.words.nbytes)
        )
        try:
            view = np.ndarray(
                packed.words.shape, dtype=np.uint64, buffer=shm.buf
            )
            view[:] = packed.words
            del view
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(spec, shm, None, owner=True)

    @classmethod
    def attach(cls, spec: SharedPackedSpec) -> "SharedPackedWords":
        """Attach to an existing plane; :attr:`words` is a read-only
        zero-copy view of the shared pages."""
        shm = shared_memory.SharedMemory(name=spec.words_name)
        try:
            words = np.ndarray(
                (spec.n_sites, spec.n_words), dtype=np.uint64, buffer=shm.buf
            )
            words.flags.writeable = False
        except BaseException:
            shm.close()
            raise
        return cls(spec, shm, words, owner=False)

    # -------------------------------------------------------------- #

    @property
    def words(self) -> np.ndarray:
        """The shared word plane (attachments only)."""
        if self._words is None:
            raise AlignmentError(
                "no attached word plane; the creating side keeps using its "
                "own packed copy — call attach(spec) to map the shared one"
            )
        return self._words

    def packed_for(
        self, positions: np.ndarray, length: float
    ) -> PackedAlignment:
        """A :class:`PackedAlignment` over the shared plane (zero-copy:
        the ``ascontiguousarray`` round-trip in ``__post_init__`` is a
        no-op for the contiguous typed view)."""
        return PackedAlignment(
            words=self.words,
            n_samples=self.spec.n_samples,
            positions=positions,
            length=length,
        )

    def close(self) -> None:
        """Release this process's mapping (drops the word view)."""
        self._words = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment from the system (owner side; idempotent)."""
        try:
            shm = shared_memory.SharedMemory(name=self.spec.words_name)
        except FileNotFoundError:
            return
        shm.close()
        shm.unlink()

    def __enter__(self) -> "SharedPackedWords":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
