"""Build and load the compiled Eq. (2) kernel (``_eq2.c``).

The kernel is built on first use with the system C compiler and loaded
through :mod:`ctypes`, so the package needs no build step and no extra
dependency. :func:`load_eq2` does the work once per process and returns
the kernel, or ``None`` when it cannot be had; the caller then scores
with the numpy path, which stays the reference.

Build: ``cc -O3 -std=c99 -ffp-contract=off -fPIC -shared``. No
``-ffast-math`` and no ``-march=native``: the kernel must round exactly
as numpy does, and a fused multiply-add would round once where numpy
rounds twice.

Cache: ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when unset), one
library per sha256 of the source and the flags. A build writes a temp
file in the cache and renames it into place, so processes that build at
the same time (forked workers) each load a whole library. The cache is
used only when the current user owns it and it is neither group- nor
world-writable.

No compiler, an unusable cache or a failed build leaves the numpy path
in charge; the reason is recorded once in the flight recorder.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Callable, Optional

__all__ = ["CFLAGS", "build_eq2", "cache_dir", "eq2_kernel", "load_eq2"]

#: Compiler command and flags. The library name hashes them with the
#: source, so changing either builds a fresh library.
CC = "cc"
CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE = Path(__file__).with_name("_eq2.c")
_UNLOADED = object()
_eq2 = _UNLOADED  # memo of load_eq2: the kernel, None, or unloaded


def cache_dir() -> Path:
    """Directory holding built libraries."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _check_private(path: Path) -> None:
    """Raise ``PermissionError`` unless ``path`` belongs to the current
    user and no one else may write to it."""
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise PermissionError(f"{path} is owned by uid {st.st_uid}")
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{path} is group- or world-writable")


def build_eq2(directory: Path) -> Callable:
    """Build (unless cached) and load the kernel from ``directory``.

    Returns the ctypes function ``repro_eq2_max``. Raises ``OSError``
    (no compiler, unusable directory, failed load) or
    ``subprocess.SubprocessError`` (failed or hung compile).
    """
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(
        source + "\0".join((CC,) + CFLAGS).encode()
    ).hexdigest()
    lib = directory / f"eq2-{digest[:24]}.so"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    _check_private(directory)
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run(
                [CC, *CFLAGS, "-o", tmp, str(_SOURCE)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.chmod(tmp, 0o700)  # whatever the umask, as the check needs
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_private(lib)
    fn = ctypes.CDLL(str(lib)).repro_eq2_max
    i64, dp = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [dp, i64, i64, i64, i64, i64, i64, ctypes.c_double, dp, dp]
    fn.restype = i64
    return fn


def load_eq2() -> Optional[Callable]:
    """The compiled kernel, or ``None`` when the numpy path must serve.

    Builds or loads on the first call of the process and memoizes the
    outcome; a fallback is recorded once, as ``eq2.fallback`` in the
    flight recorder.
    """
    global _eq2
    if _eq2 is _UNLOADED:
        import subprocess

        try:
            _eq2 = build_eq2(cache_dir())
        except (OSError, subprocess.SubprocessError) as exc:
            from repro.obs.flight import get_flight

            _eq2 = None
            get_flight().record(
                "eq2", "eq2.fallback", reason=f"{type(exc).__name__}: {exc}"
            )
    return _eq2


def eq2_kernel() -> str:
    """Name of the Eq. (2) kernel scans use: ``"c"`` or ``"numpy"``."""
    return "numpy" if load_eq2() is None else "c"
