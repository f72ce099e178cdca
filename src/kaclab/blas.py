"""One BLAS thread inside kaclab's solvers, whatever the caller's setting.

OpenBLAS splits a dot product, a norm or a matrix product across its threads
above a size threshold, and a sum split another way rounds another way: at
OPENBLAS_NUM_THREADS=2, a d=2 N=16384 record and one of six N=3-4 oracle
ground states hashed differently from one thread.  numpy and scipy each
bundle their own OpenBLAS (numpy.libs/ and scipy.libs/ beside the packages
of a wheel install), and each exports a get/set pair for its thread count.
one_thread() sets every one found to one thread and restores the caller's
counts on exit.  The count is process-wide, so threads of one process that
enter kaclab at once share it.

The libraries are resolved once, at import.  A bundled library without the
pair, and a package with no bundled OpenBLAS (a build against a system BLAS),
is named in a DEBUG line on every entry and left as it is.
"""

import contextlib
import ctypes
import glob
import logging
import os

import numpy
import scipy

logger = logging.getLogger(__name__)

# (get, set) pairs: scipy-openblas with 64-bit and with 32-bit integers, then
# a plain OpenBLAS build of either kind
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _thread_controls():
    """(get, set) of each bundled OpenBLAS, and the names of what has none."""
    controls, unpinned = [], []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
        if not paths:
            unpinned.append(f"{pkg.__name__} (no bundled OpenBLAS)")
        for path in paths:
            name = f"{pkg.__name__}:{os.path.basename(path)}"
            try:
                lib = ctypes.CDLL(path)
            except OSError as exc:
                unpinned.append(f"{name} ({exc})")
                continue
            pair = next(((getattr(lib, get), getattr(lib, set_)) for get, set_ in _SYMBOLS
                         if hasattr(lib, get) and hasattr(lib, set_)), None)
            if pair is None:
                unpinned.append(f"{name} (no thread-count functions)")
                continue
            pair[0].argtypes, pair[0].restype = [], ctypes.c_int
            pair[1].argtypes, pair[1].restype = [ctypes.c_int], None
            controls.append(pair)
    return tuple(controls), tuple(unpinned)


_CONTROLS, _UNPINNED = _thread_controls()


@contextlib.contextmanager
def one_thread():
    """Run the body with each bundled OpenBLAS at one thread; restore each count after.

    Also a decorator: @one_thread() pins every call of the function.
    """
    if _UNPINNED:
        logger.debug("BLAS threads not pinned: %s", ", ".join(_UNPINNED))
    saved = [get() for get, _ in _CONTROLS]
    for (_, set_), count in zip(_CONTROLS, saved):
        if count != 1:
            set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(_CONTROLS, saved):
            if count != 1:
                set_(count)
