"""Discrete L2 conventions for grid functions.

Grid functions are full d-dimensional arrays over the interior nodes of the
box, zero on blocked nodes.  All inner products carry the cell volume h^d so
that norms approximate their continuum counterparts.
"""

import numpy as np


def inner(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """h^d-weighted inner product of two grid functions."""
    return float(np.vdot(a, b).real) * h ** a.ndim


def norm(a: np.ndarray, h: float) -> float:
    """Discrete L2 norm sqrt(sum a^2 h^d)."""
    return float(np.sqrt(np.sum(a * a))) * h ** (a.ndim / 2.0)


def normalize(a: np.ndarray, h: float) -> np.ndarray:
    """Return a / ||a|| in the discrete L2 norm."""
    n = norm(a, h)
    if n == 0.0:
        raise ValueError("cannot normalize the zero grid function")
    return a / n


def face_slices(d: int):
    """Per axis, index tuples (lo, hi) pairing face-adjacent nodes.

    grid[lo] and grid[hi] line up every node with its neighbour one step
    back along that axis, so each face-adjacent pair appears exactly once.
    """
    for ax in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax] = slice(1, None)
        hi[ax] = slice(None, -1)
        yield tuple(lo), tuple(hi)


def fix_sign(a: np.ndarray) -> np.ndarray:
    """Flip a global sign so the grid sum is nonnegative (reproducible records).

    If the sum vanishes, the first nonzero entry is made positive instead.
    """
    s = float(np.sum(a))
    if s < 0.0:
        return -a
    if s == 0.0:
        flat = a.ravel()
        nz = np.flatnonzero(flat)
        if nz.size and flat[nz[0]] < 0.0:
            return -a
    return a
