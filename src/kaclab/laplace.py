"""Discrete Dirichlet Laplacian on the vacancy mask and its lowest eigenpairs.

The operator is the standard (2d+1)-point stencil restricted to vacant nodes:
diagonal 2d/h^2, off-diagonal -1/h^2 between face-adjacent vacant nodes, hard
zeros on blocked and boundary nodes.  An optional one-body potential, with
-Lap + potential positive definite, and a constant diagonal shift turn the
same machinery into the effective mean-field operator.  An operator has two
forms: apply_grid, the matrix-free product, and matrix(), the sparse matrix
of its unshifted SPD part, which the dense eigensolver reads and every
linear solve inverts: MaskedOperator.solve factorizes it on first use,
counts its solves and holds the factor until release().  A narrow band
(band_factorizes: d, the node count and a bound on the bandwidth) gets
LAPACK's banded Cholesky, assembled from the face pairs with no sparse
matrix; a wide one SuperLU in symmetric mode (minimum degree ordering of
A + A^T, diagonal pivots).  ARPACK's shift-invert above DENSE_CUTOFF nodes
and, on a host component whose own factor would be SuperLU, the Hartree
flow's preconditioner solve on the Laplacian's, one factor.
On large sets the pipeline asks for a third eigenpair: lambda3 bounds the
rest of the spectrum from below, which lets hartree solve h_u on this same
factor, certified, not on its own.
"""

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import grids
from .errors import KacLabError, SolverError

# measured crossover on d=2 masks (one BLAS thread, medians of 30 calls),
# the Laplacian and h_u together: ~190 nodes with ARPACK at tol=0 and
# SuperLU, ~150 at tol / 10, ~100 once h_u's factor is a banded Cholesky;
# ARPACK won every set of 108-378 nodes (README sweep, Spectral solver)
DENSE_CUTOFF = 100
DEGENERACY_RTOL = 1e-10  # lambda2 - lambda1 below this (relative) is reported degenerate
# the solver contract: an eigenpair's residual is at most EIG_TOL |eigenvalue|
# plus a machine-precision floor (check_residual); every eig_tol defaults to it
EIG_TOL = 1e-9

logger = logging.getLogger(__name__)

# SuperLU options of MaskedOperator.solve, the only place kaclab factorizes,
# for the bands too wide for a Cholesky (BAND_MAX_WORK).  The matrix is
# -Lap_Dirichlet, or for h_u's own eigensolve -Lap + W - sigma: W >= 0
# (kappa >= 0 and profiles that interaction.py validates nonnegative) and
# sigma is 0.9 lambda1 of the whole vacancy set, or 0 (the rule is
# hartree.effective_spectrum's), so by Weyl's inequality its least
# eigenvalue is at least lambda1 - sigma > 0.  It is symmetric positive
# definite: a Cholesky factor exists, and diagonal pivots are safe.  In
# symmetric mode SuperLU can then order A + A^T by minimum degree, which
# halves the fill of its default COLAMD ordering in 2D and cuts it ~2.2x
# in 3D.  SuperLU does not check the pivots' sign; the banded Cholesky
# raises SolverError on a pivot that is not positive.
SPD_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}
# MaskedOperator factorizes n nodes of bandwidth bound w with LAPACK's
# banded Cholesky (dpbtrf: ~n (w+1)^2 flops, n (w+1) doubles) where
# n (w+1)^2 is at most this, per dimension, else with SuperLU.  Measured
# per realization (README, Spectral solver): in 2D the band wins up to
# ~4k nodes (d=2 N=768, 2e7) and loses from ~5.5k (3.6e7); in 3D it wins
# in time to ~10k nodes, but holds ~1.3x SuperLU's fill, so 1e9 (d=3
# N=512, 6.7k nodes) keeps sparse_3d (13.5k nodes, 4.5e9) on SuperLU.
BAND_MAX_WORK = {1: 2e7, 2: 2e7, 3: 1e9}


def band_factorizes(d: int, n_vacant: int, bandwidth: int) -> bool:
    """Whether MaskedOperator factorizes n_vacant nodes of bandwidth at most
    bandwidth with the banded Cholesky; it depends on nothing else, so records
    stay deterministic."""
    return n_vacant * (bandwidth + 1) ** 2 <= BAND_MAX_WORK.get(d, 0)


@dataclass
class MaskedOperator:
    """-Laplacian + potential - shift, acting on vacant nodes only.

    apply_grid applies all of it; matrix() holds the unshifted SPD part,
    -Laplacian + potential, and solve inverts it on its factor (_factorize:
    banded Cholesky or SuperLU), held from the first solve until release().
    solves counts the LU solves, Cholesky ones included, one per right-hand
    side column, and factorizations the factors built.
    """

    mask: np.ndarray
    h: float
    potential: Optional[np.ndarray] = None
    diagonal_shift: float = 0.0

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.potential is not None:
            self.potential = np.asarray(self.potential, dtype=float)
            if self.potential.shape != self.mask.shape:
                raise ValueError("potential grid does not match the mask")
        if not np.any(self.mask):
            raise KacLabError("empty vacancy set")
        # row-major flat grid index of each vacant node: node i is sites[i]
        self.sites = np.flatnonzero(self.mask.ravel())
        self._factor, self.solves, self.factorizations = None, 0, 0

    @property
    def d(self) -> int:
        return self.mask.ndim

    @property
    def dims(self) -> tuple:
        return self.mask.shape

    @property
    def n_vacant(self) -> int:
        return self.sites.size

    def face_pairs(self):
        """Per axis, the face-adjacent vacant node pairs (a, b), b one step after a."""
        # the node index stays int64 (scipy stores int32 indices anyway): an
        # int32 one cost sparse_2d 5 MB of peak RSS
        idx = np.full(self.dims, -1)
        idx.flat[self.sites] = np.arange(self.n_vacant)
        for lo, hi in grids.face_slices(self.d):
            a, b = idx[hi].ravel(), idx[lo].ravel()
            ok = (a >= 0) & (b >= 0)
            yield a[ok], b[ok]

    def apply_grid(self, f: np.ndarray) -> np.ndarray:
        """Apply the operator, shift included, to a full-grid function (zero off the mask)."""
        h2 = self.h * self.h
        g = np.where(self.mask, f, 0.0)
        out = (2.0 * self.d / h2) * g
        for lo, hi in grids.face_slices(self.d):
            out[lo] -= g[hi] / h2
            out[hi] -= g[lo] / h2
        if self.potential is not None:
            out += self.potential * g
        if self.diagonal_shift != 0.0:
            out -= self.diagonal_shift * g
        out[~self.mask] = 0.0
        return out

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Scatter a compressed vector into a full grid."""
        g = np.zeros(self.mask.size, dtype=float)
        g[self.sites] = x
        return g.reshape(self.dims)

    def restrict(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f).ravel()[self.sites]

    @property
    def residual_floor(self) -> float:
        """Machine-precision floor of a residual: 64 eps times the Gershgorin bound on ||op||."""
        pot_max = float(self.potential.max()) if self.potential is not None else 0.0
        return 64.0 * np.finfo(float).eps * (4.0 * self.d / self.h**2 + pot_max
                                             + abs(self.diagonal_shift))

    def _diagonal(self) -> np.ndarray:
        diag = np.full(self.n_vacant, 2.0 * self.d / self.h**2)
        if self.potential is not None:
            diag = diag + self.potential.ravel()[self.sites]
        return diag

    def matrix(self) -> sp.csc_matrix:
        """Sparse symmetric -Lap + potential, no shift, in row-major vacant order."""
        # built on each call, not cached: an operator holding its matrix
        # (~5 MB at d=2 N=16384) fragmented the heap and raised sparse_2d
        # peak RSS 9%, 225.9 -> 246.6 MB (+5.3 MB with the malloc mmap
        # threshold pinned)
        n = self.n_vacant
        nodes = np.arange(n)
        rows, cols, vals = [nodes], [nodes], [self._diagonal()]
        off = -1.0 / (self.h * self.h)
        for a, b in self.face_pairs():
            rows += [a, b]
            cols += [b, a]
            vals += [np.full(2 * a.size, off)]
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

    @property
    def bandwidth_bound(self) -> int:
        """An upper bound on matrix()'s bandwidth: a face neighbour is at most one
        grid row stride (the product of all axes but the first) further on."""
        return min(math.prod(self.dims[1:]), self.n_vacant - 1)

    # LAPACK's banded Cholesky factorization and solve
    _pbtrf, _pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=float)

    def _factorize(self):
        """Factorize matrix() and return its solve, rhs -> matrix()^(-1) rhs.

        A narrow band (band_factorizes on bandwidth_bound, decided before
        any pair is built) gets LAPACK's banded Cholesky, assembled straight
        from face_pairs() in upper band storage, ab[w + i - j, j] = A[i, j]
        (its solves took ~half the time of lower storage's); a wide one
        SuperLU with SPD_LU_OPTIONS.  A pivot that is not positive means the
        matrix is not SPD, against Weyl's inequality (SPD_LU_OPTIONS), and
        raises SolverError, as does a SuperLU factorization that fails (a
        singular matrix, or fill that does not fit in memory).
        """
        if not band_factorizes(self.d, self.n_vacant, self.bandwidth_bound):
            matrix = self.matrix()
            try:
                return splu(matrix, **SPD_LU_OPTIONS).solve
            except (RuntimeError, MemoryError) as exc:
                raise SolverError(f"SuperLU factorization of {self.n_vacant} nodes "
                                  f"failed: {exc!r}") from exc
        pairs = list(self.face_pairs())
        width = max((int(np.max(b - a)) for a, b in pairs if a.size), default=0)
        ab = np.zeros((width + 1, self.n_vacant))
        ab[width] = self._diagonal()
        off = -1.0 / (self.h * self.h)
        for a, b in pairs:
            ab[width + a - b, b] = off
        chol, info = self._pbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded Cholesky of {self.n_vacant} nodes failed at pivot "
                              f"{info}: the matrix is not positive definite")
        pbtrs = self._pbtrs  # a closure over self would keep the operator in a cycle
        return lambda rhs: pbtrs(chol, rhs)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """matrix()^(-1) rhs for a compressed vector or a block of columns."""
        if self._factor is None:
            self._factor = self._factorize()
            self.factorizations += 1
        self.solves += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._factor(rhs)

    def release(self):
        """Drop the factor; the next solve factorizes again."""
        self._factor = None


@dataclass
class SpectralPair:
    """Two (or three) lowest eigenpairs of a masked operator, and that operator.

    Eigenvectors are full-grid functions with unit discrete L2 norm
    (sum phi^2 h^d = 1) and nonnegative grid sum.  residual_i is the
    discrete norm of A phi_i - lambda_i phi_i.  lambda2 is None when only
    one pair was asked for or the domain has one node.  The third
    pair is filled only when asked for (count=3): it bounds the rest of the
    spectrum from below, which certifies h_u's e1, e2 (hartree).  operator
    is the one solved, holding its factor when ARPACK built one, so a later
    solve with the same matrix (the Hartree flow's) reuses it.
    """

    lambda1: float
    lambda2: Optional[float]
    phi1: np.ndarray
    phi2: Optional[np.ndarray]
    residual1: float
    residual2: Optional[float]
    lambda3: Optional[float] = None
    phi3: Optional[np.ndarray] = None
    residual3: Optional[float] = None
    operator: Optional[MaskedOperator] = None

    @property
    def numerically_degenerate(self) -> bool:
        if self.lambda2 is None:
            return False
        return (self.lambda2 - self.lambda1) < DEGENERACY_RTOL * max(
            abs(self.lambda1), 1e-300
        )


def start_vector(n: int) -> np.ndarray:
    """ARPACK's fixed start, so every record depends only on the operator (np.ones
    is orthogonal to the antisymmetric phi2 of a mirror-symmetric domain)."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def check_residual(what: str, res: float, value: float, floor: float, tol: float = EIG_TOL):
    """Raise SolverError when res exceeds the contract tol |value| + floor."""
    if res > tol * max(abs(value), 1e-300) + floor:
        raise SolverError(f"{what} residual {res:.3e} exceeds contract "
                          f"tol*|value| = {tol * abs(value):.3e}", residuals=[res])


def assemble_laplacian(real) -> MaskedOperator:
    """Pure Dirichlet Laplacian on the realization's vacancy mask."""
    return MaskedOperator(mask=real.mask, h=real.h)


def lowest_eigenpairs(op: MaskedOperator, count: int = 2, tol: float = EIG_TOL) -> SpectralPair:
    """The count (1, 2 or 3) smallest eigenpairs of a masked operator.

    Small problems go through dense LAPACK; larger ones through ARPACK in
    shift-invert mode at sigma=0, which is safe because the unshifted
    operator -Laplacian + potential is positive definite (a caller that
    wants another shift-invert point folds it into the potential and the
    shift, as hartree.effective_spectrum does for h_u's own eigensolve).
    The constant diagonal shift is reapplied to the eigenvalues afterwards.
    Residuals are checked by check_residual against tol * lambda plus a
    machine-precision floor proportional to the operator norm.  ARPACK
    stops when its Ritz estimates reach tol / 10, not at machine precision,
    and each ARPACK run logs one DEBUG line with its size, LU solves and
    residuals.
    """
    if count not in (1, 2, 3):
        raise ValueError(f"count must be 1, 2 or 3 (lambda3 certifies h_u's spectrum), "
                         f"not {count!r}")
    n = op.n_vacant
    k = min(count, n)
    if n <= DENSE_CUTOFF:
        vals, vecs = scipy.linalg.eigh(op.matrix().toarray(), subset_by_index=(0, k - 1))
    else:
        try:
            v0 = start_vector(n)
            # a solve of no columns factorizes before ARPACK allocates its workspace:
            # a factor built inside its first solve raised sparse_2d peak RSS 162 -> 177 MB
            op.solve(np.empty((n, 0)))
            before = op.solves
            opinv = LinearOperator((n, n), op.solve, dtype=float)
            # shift-invert mode applies only OPinv; A gives shape and dtype.
            # ARPACK stops at a tenth of the contract checked below.  Its Ritz
            # estimates bound the residual of the inverse, not of op, so the
            # margin is measured: the checked residual came out at most
            # 0.097 tol * lambda on 400 d=2 N=64 sets (~300 nodes), 0.027 at
            # d=2 N=1024 and 0.003 at d=3 N=128.  Its default tol=0 iterates
            # on to machine precision, a third more solves.
            vals, vecs = eigsh(opinv, k=k, sigma=0.0, which="LM", v0=v0, OPinv=opinv,
                               tol=tol / 10)
        except ArpackNoConvergence as exc:  # ARPACK reports no residuals
            raise SolverError(f"eigensolver did not converge ({exc})") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    shift = op.diagonal_shift
    lams = [float(v) - shift for v in vals]
    phis, residuals = [], []
    floor = op.residual_floor
    for i in range(k):
        phi = grids.fix_sign(op.embed(vecs[:, i]) / op.h ** (op.d / 2.0))
        res = grids.norm(op.apply_grid(phi) - lams[i] * phi, op.h)
        check_residual(f"eigenpair {i + 1}", res, lams[i], floor, tol)
        phis.append(phi)
        residuals.append(res)
    if n > DENSE_CUTOFF:
        logger.debug("ARPACK shift-invert on %d nodes: %d LU solves, residuals %s",
                     n, op.solves - before, ", ".join(f"{r:.3e}" for r in residuals))

    def nth(values, i):
        return values[i] if i < k else None

    return SpectralPair(lams[0], nth(lams, 1), phis[0], nth(phis, 1), residuals[0],
                        nth(residuals, 1), lambda3=nth(lams, 2), phi3=nth(phis, 2),
                        residual3=nth(residuals, 2), operator=op)


@dataclass
class ComponentSelection:
    """Where the ground state lives: host component and leaked mass."""

    component: int
    mass_outside: float
    multiple: bool


def ground_state_component(real, pair: SpectralPair) -> ComponentSelection:
    """Component carrying the ground state, with a degeneracy guard.

    Returns the component with the largest L2 mass of phi1 and the mass left
    on all other components.  The selection is flagged "multiple" when that
    leaked mass exceeds 1% or when lambda1 and lambda2 coincide to solver
    precision: a ground state supported on several components forces an exact
    eigenvalue degeneracy, so either signal invalidates a unique host.
    """
    weights = pair.phi1**2 * real.h**real.d
    # all K masses in one pass over the grid; argmax takes the lowest k on a tie
    masses = np.bincount(real.labels.ravel(), weights=weights.ravel(),
                         minlength=real.K + 1)[1:]
    component = 1 + int(np.argmax(masses))
    total = float(np.sum(weights))
    mass_outside = max(total - float(masses[component - 1]), 0.0)
    multiple = mass_outside > 0.01 or pair.numerically_degenerate
    return ComponentSelection(component, mass_outside, multiple)
