"""numpy's BLAS thread count, read and held through ctypes.

masktab's commands run their numerics at one BLAS thread. The weight
gradients ``delta.T @ x`` sum over the batch in an order that depends on the
thread count, so only a fixed count gives the same bytes. The pipeline forks
children only where ``threads()`` knows the BLAS, whose pool survives a fork;
another BLAS's threads, such as GNU OpenMP's, may not.

Only the OpenBLAS that numpy's wheels bundle is known here: it sits in
``numpy.libs`` (``numpy/.dylibs`` on macOS) and exports its thread calls
under a ``scipy_openblas`` or ``openblas`` prefix. Where numpy uses another
BLAS (a distribution's OpenBLAS, MKL, Accelerate), ``threads()`` is None and
``one_thread()`` changes nothing, so results there depend on the thread
count that BLAS runs at.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _openblas():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    here = os.path.dirname(np.__file__)
    paths = []
    for folder in (os.path.join(here, os.pardir, "numpy.libs"), os.path.join(here, ".dylibs")):
        for name in ("libscipy_openblas*", "libopenblas*"):
            paths += sorted(glob.glob(os.path.join(folder, name)))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None


def threads() -> int | None:
    """The number of threads numpy's BLAS runs at now, or None if unknown."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def one_thread():
    """Hold numpy's BLAS to one thread inside the block (also as a decorator),
    then restore the count it had; where the BLAS is unknown, do nothing."""
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
