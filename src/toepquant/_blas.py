"""OpenBLAS thread control through numpy's bundled library, where it has one.

Every trial runs with OpenBLAS on one thread (:func:`single_blas_thread`).
Worker threads that each call BLAS would oversubscribe the cores if OpenBLAS
also ran its own threads, and the eigenvectors of a nearly degenerate
spectrum depend on OpenBLAS's thread count, so pinning it keeps a trial's
output the same at any number of workers.  Where numpy bundles no OpenBLAS
exposing the thread-count symbols, BLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


@lru_cache(maxsize=None)
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of numpy's bundled scipy-openblas, or ``None``."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def openblas_threads() -> int | None:
    """OpenBLAS's current thread count, or ``None`` where it cannot be read."""
    lib = _openblas()
    return None if lib is None else lib[0]()


# OpenBLAS's thread count is one per process: the blocks open in any thread
# share one pin, and the count they found on the first entry
_pin = threading.Lock()
_depth = 0
_before = 0


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread, then restore the previous count.

    Blocks may overlap, nested or in different threads: the first to enter
    pins the count, and the last to leave restores it.
    """
    global _depth, _before
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    with _pin:
        if _depth == 0:
            _before = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _pin:
            _depth -= 1
            if _depth == 0:
                set_(_before)
