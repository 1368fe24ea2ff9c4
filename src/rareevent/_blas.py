"""Thread counts of every OpenBLAS this process has loaded, through ctypes.

numpy and scipy each bundle their own OpenBLAS, found by name in
/proc/self/maps.  Where that file does not exist no library is found and
every call here does nothing.  A thread count is process-wide state: it
holds for every thread of the process until it is set again.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@lru_cache(maxsize=1)
def _libraries() -> tuple[tuple, ...]:
    """(get, set) thread-count functions, one pair per loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except FileNotFoundError:
        return ()
    pairs = []
    for lib in map(ctypes.CDLL, sorted(paths)):
        for pattern in _SYMBOLS:
            get, set_ = (getattr(lib, pattern.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pairs.append((get, set_))
                break
    return tuple(pairs)


def blas_threads() -> list[int]:
    """Thread count of each loaded OpenBLAS; empty where none is found."""
    return [get() for get, _ in _libraries()]


def set_blas_threads(n: int) -> None:
    """Set every loaded OpenBLAS to n threads."""
    for _, set_ in _libraries():
        set_(n)


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore the counts."""
    saved = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(_libraries(), saved):
            set_(n)
