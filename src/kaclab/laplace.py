"""Discrete Dirichlet Laplacian on the vacancy mask and its lowest eigenpairs.

The operator is the standard (2d+1)-point stencil restricted to vacant nodes:
diagonal 2d/h^2, off-diagonal -1/h^2 between face-adjacent vacant nodes, hard
zeros on blocked and boundary nodes.  An optional one-body potential, with
-Lap + potential positive definite, and a constant diagonal shift turn the
same machinery into the effective mean-field operator.  An operator has two
forms: apply_grid, the matrix-free product, and matrix(), the sparse matrix
of its unshifted SPD part, which the dense eigensolver reads and every
linear solve inverts: MaskedOperator.solve factorizes it on first use
(SuperLU in symmetric mode, minimum degree ordering of A + A^T, diagonal
pivots), counts its solves and holds the factor until release().  ARPACK's
shift-invert above DENSE_CUTOFF nodes and the Hartree flow's preconditioner
solve on the Laplacian's, one factor.  On large sets the pipeline asks for a
third eigenpair: lambda3 bounds the rest of the spectrum from below, which
lets hartree solve h_u on this same factor, certified, not on its own.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import grids
from .constants import supnorm_constant
from .errors import KacLabError, SolverError

# measured crossover on d=2 masks (one BLAS thread, medians of 30 calls),
# the Laplacian and h_u together: ~190 nodes with ARPACK at tol=0, where
# this was set; ~150 with ARPACK stopping at tol / 10, one row of the
# README sweep (Spectral solver), so it stays
DENSE_CUTOFF = 200
DEGENERACY_RTOL = 1e-10  # lambda2 - lambda1 below this (relative) is reported degenerate
# the solver contract: an eigenpair's residual is at most EIG_TOL |eigenvalue|
# plus a machine-precision floor (check_residual); every eig_tol defaults to it
EIG_TOL = 1e-9

logger = logging.getLogger(__name__)

# SuperLU options of MaskedOperator.solve, the only place kaclab factorizes.
# The matrix is -Lap_Dirichlet, or for the effective operator h_u
# -Lap + W - sigma: W >= 0 (kappa >= 0 and profiles that interaction.py
# validates nonnegative) and sigma is 0.9 lambda1 of the whole vacancy set,
# or 0 (hartree._spans_set states the rule), so by Weyl's inequality its least
# eigenvalue is at least lambda1 - sigma > 0.  It is symmetric positive
# definite and diagonal pivots are safe.  In symmetric mode SuperLU can then
# order A + A^T by minimum degree, which halves the fill of its default
# COLAMD ordering in 2D and cuts it ~2.2x in 3D.
SPD_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


@dataclass
class MaskedOperator:
    """-Laplacian + potential - shift, acting on vacant nodes only.

    apply_grid applies all of it; matrix() holds the unshifted SPD part,
    -Laplacian + potential, and solve inverts it on its factor, held from
    the first solve until release().  solves counts the LU solves, one per
    right-hand side column.
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
        self._lu, self.solves = None, 0

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

    def matrix(self) -> sp.csc_matrix:
        """Sparse symmetric -Lap + potential, no shift, in row-major vacant order."""
        # built on each call, not cached: an operator holding its matrix
        # (~5 MB at d=2 N=16384) fragmented the heap and raised sparse_2d
        # peak RSS 9%, 225.9 -> 246.6 MB (+5.3 MB with the malloc mmap
        # threshold pinned)
        n = self.n_vacant
        nodes = np.arange(n)
        diag = np.full(n, 2.0 * self.d / self.h**2)
        if self.potential is not None:
            diag = diag + self.potential.ravel()[self.sites]
        rows, cols, vals = [nodes], [nodes], [diag]
        off = -1.0 / (self.h * self.h)
        for a, b in self.face_pairs():
            rows += [a, b]
            cols += [b, a]
            vals += [np.full(2 * a.size, off)]
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """matrix()^(-1) rhs for a compressed vector or a block of columns."""
        if self._lu is None:
            self._lu = splu(self.matrix(), **SPD_LU_OPTIONS)
        self.solves += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._lu.solve(rhs)

    def release(self):
        """Drop the factor; the next solve factorizes again."""
        self._lu = None


@dataclass
class SpectralPair:
    """Two (or three) lowest eigenpairs of a masked operator, and that operator.

    Eigenvectors are full-grid functions with unit discrete L2 norm
    (sum phi^2 h^d = 1) and nonnegative grid sum.  residual_i is the
    discrete norm of A phi_i - lambda_i phi_i.  On a one-node domain only
    the single eigenvalue exists and degenerate_size is set.  The third
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
    degenerate_size: bool = False
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
    shift, as hartree does for h_u).  The constant diagonal shift is
    reapplied to the eigenvalues afterwards.
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
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge ({exc})",
                residuals=getattr(exc, "eigenvalues", None),
            ) from exc
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
                        nth(residuals, 1), degenerate_size=n == 1, lambda3=nth(lams, 2),
                        phi3=nth(phis, 2), residual3=nth(residuals, 2), operator=op)


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


@dataclass
class SupnormCheck:
    """Diagnostic sup-norm bound ||phi1||_inf^2 <= C^2 lambda1^(d/2).

    The constant is the continuum one; at fixed grid spacing the bound is a
    diagnostic, not a theorem, so downstream certificates flag rather than
    fail when it does not hold.
    """

    lhs: float
    rhs: float
    ok: bool
    skipped: bool = False


def supnorm_bound_check(pair: SpectralPair, d: int) -> SupnormCheck:
    if pair.degenerate_size:
        return SupnormCheck(lhs=0.0, rhs=0.0, ok=False, skipped=True)
    lhs = float(np.max(pair.phi1**2))
    rhs = supnorm_constant(d) ** 2 * pair.lambda1 ** (d / 2.0)
    return SupnormCheck(lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs))
