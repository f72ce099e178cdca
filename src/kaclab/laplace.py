"""Discrete Dirichlet Laplacian on the vacancy mask and its lowest eigenpairs.

The operator is the standard (2d+1)-point stencil restricted to vacant nodes:
diagonal 2d/h^2, off-diagonal -1/h^2 between face-adjacent vacant nodes, hard
zeros on blocked and boundary nodes.  An optional nonnegative one-body
potential and a constant diagonal shift turn the same machinery into the
effective mean-field operator.  An operator has two forms: apply_grid, the
matrix-free product, and matrix(), the sparse matrix of its unshifted SPD
part, which the dense eigensolver reads and MaskedOperator.factor factorizes
once, on first use (SuperLU in symmetric mode, minimum degree ordering of
A + A^T, diagonal pivots).  Above DENSE_CUTOFF nodes the eigensolver runs
shift-invert ARPACK on that factor, and the Hartree flow preconditions with
the Laplacian's factor, the same object.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import grids
from .constants import supnorm_constant
from .errors import SolverError

DENSE_CUTOFF = 400
DEGENERACY_RTOL = 1e-10  # lambda2 - lambda1 below this (relative) is reported degenerate

# SuperLU options of MaskedOperator.factor, the only place kaclab factorizes.
# The matrix is -Lap_Dirichlet, plus for the effective operator a nonnegative
# potential (built from profiles that interaction.py validates nonnegative),
# so it is symmetric positive definite and diagonal pivots are safe.  In
# symmetric mode SuperLU can then order A + A^T by minimum degree, which
# halves the fill of its default COLAMD ordering in 2D and cuts it ~2.2x in 3D.
SPD_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


@dataclass
class MaskedOperator:
    """-Laplacian + potential - shift, acting on vacant nodes only.

    apply_grid applies all of it; matrix() and factor hold the unshifted
    SPD part, -Laplacian + potential.
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
            raise ValueError("empty vacancy set: operator has no domain")
        self._vac = np.flatnonzero(self.mask.ravel())

    @property
    def d(self) -> int:
        return self.mask.ndim

    @property
    def dims(self) -> tuple:
        return self.mask.shape

    @property
    def n_vacant(self) -> int:
        return self._vac.size

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
        g[self._vac] = x
        return g.reshape(self.dims)

    def restrict(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f).ravel()[self._vac]

    def matrix(self) -> sp.csc_matrix:
        """Sparse symmetric -Lap + potential, no shift, in row-major vacant order."""
        # built on each call, not cached: an operator holding its matrix
        # (~5 MB at d=2 N=16384) fragmented the heap and raised sparse_2d
        # peak RSS 9%, 225.9 -> 246.6 MB (+5.3 MB with the malloc mmap
        # threshold pinned).  The node index stays int64 (scipy stores int32
        # indices anyway): an int32 one cost sparse_2d 5 MB of peak RSS.
        n = self.n_vacant
        nodes = np.arange(n)
        idx = np.full(self.dims, -1)
        idx.flat[self._vac] = nodes
        diag = np.full(n, 2.0 * self.d / self.h**2)
        if self.potential is not None:
            diag = diag + self.potential.ravel()[self._vac]
        rows, cols, vals = [nodes], [nodes], [diag]
        off = -1.0 / (self.h * self.h)
        for lo, hi in grids.face_slices(self.d):
            a, b = idx[hi].ravel(), idx[lo].ravel()
            ok = (a >= 0) & (b >= 0)
            a, b = a[ok], b[ok]
            rows += [a, b]
            cols += [b, a]
            vals += [np.full(2 * a.size, off)]
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

    @cached_property
    def factor(self):
        """SuperLU factor of matrix(), the unshifted operator, built on first use."""
        return splu(self.matrix(), **SPD_LU_OPTIONS)


@dataclass
class SpectralPair:
    """Two lowest eigenpairs of a masked operator.

    Eigenvectors are full-grid functions with unit discrete L2 norm
    (sum phi^2 h^d = 1) and nonnegative grid sum.  residual_i is the
    discrete norm of A phi_i - lambda_i phi_i.  On a one-node domain only
    the single eigenvalue exists and degenerate_size is set.
    """

    lambda1: float
    lambda2: Optional[float]
    phi1: np.ndarray
    phi2: Optional[np.ndarray]
    residual1: float
    residual2: Optional[float]
    component_of_phi1: Union[int, str, None] = None
    degenerate_size: bool = False

    @property
    def gap(self) -> Optional[float]:
        if self.lambda2 is None:
            return None
        return self.lambda2 - self.lambda1

    @property
    def numerically_degenerate(self) -> bool:
        if self.lambda2 is None:
            return False
        return (self.lambda2 - self.lambda1) < DEGENERACY_RTOL * max(
            abs(self.lambda1), 1e-300
        )


def assemble_laplacian(real) -> MaskedOperator:
    """Pure Dirichlet Laplacian on the realization's vacancy mask."""
    if real.n_vacant == 0:
        raise ValueError("realization has an empty vacancy set (K = 0)")
    return MaskedOperator(mask=real.mask, h=real.h)


def lowest_eigenpairs(op: MaskedOperator, count: int = 2, tol: float = 1e-9) -> SpectralPair:
    """Two smallest eigenpairs of a masked operator.

    Small problems go through dense LAPACK; larger ones through ARPACK in
    shift-invert mode at sigma=0, which is safe because the unshifted
    operator (-Laplacian + nonnegative potential) is positive definite.  The
    constant diagonal shift is reapplied to the eigenvalues afterwards.
    Residuals are checked against tol * lambda plus a machine-precision floor
    proportional to the operator norm; violations raise SolverError.
    """
    if count not in (1, 2):
        raise ValueError("count must be 1 or 2")
    n = op.n_vacant
    k = min(count, n)
    if n <= DENSE_CUTOFF:
        vals, vecs = scipy.linalg.eigh(op.matrix().toarray(), subset_by_index=(0, k - 1))
    else:
        try:
            # a fixed start vector makes ARPACK, and so every record, depend
            # only on the operator; np.ones would be orthogonal to the
            # antisymmetric phi2 of a mirror-symmetric domain
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
            opinv = LinearOperator((n, n), op.factor.solve, dtype=float)
            # shift-invert mode applies only OPinv; A gives shape and dtype
            vals, vecs = eigsh(opinv, k=k, sigma=0.0, which="LM", v0=v0, OPinv=opinv)
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge ({exc})",
                residuals=getattr(exc, "eigenvalues", None),
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    shift = op.diagonal_shift
    lams = [float(v) - shift for v in vals]
    phis = []
    residuals = []
    # machine-precision floor: 64 eps times the Gershgorin bound on ||op||
    pot_max = float(op.potential.max()) if op.potential is not None else 0.0
    floor = 64.0 * np.finfo(float).eps * (4.0 * op.d / op.h**2 + pot_max + abs(shift))
    for i in range(k):
        phi = grids.fix_sign(op.embed(vecs[:, i]) / op.h ** (op.d / 2.0))
        res = grids.norm(op.apply_grid(phi) - lams[i] * phi, op.h)
        if res > tol * max(abs(lams[i]), 1e-300) + floor:
            raise SolverError(
                f"eigenpair {i + 1} residual {res:.3e} exceeds contract "
                f"tol*lambda = {tol * abs(lams[i]):.3e}",
                residuals=[res],
            )
        phis.append(phi)
        residuals.append(res)

    if k == 1:
        return SpectralPair(lams[0], None, phis[0], None, residuals[0], None,
                            degenerate_size=n == 1)
    return SpectralPair(lams[0], lams[1], phis[0], phis[1], residuals[0], residuals[1])


@dataclass
class ComponentSelection:
    """Where the ground state lives: host component and leaked mass."""

    component: int
    mass_outside: float
    multiple: bool
    masses: dict = field(default_factory=dict)


def ground_state_component(real, pair: SpectralPair) -> ComponentSelection:
    """Component carrying the ground state, with a degeneracy guard.

    Returns the component with the largest L2 mass of phi1 and the mass left
    on all other components.  The selection is flagged "multiple" when that
    leaked mass exceeds 1% or when lambda1 and lambda2 coincide to solver
    precision: a ground state supported on several components forces an exact
    eigenvalue degeneracy, so either signal invalidates a unique host.
    """
    weights = pair.phi1**2 * real.h**real.d
    masses = {}
    for k in range(1, real.K + 1):
        masses[k] = float(np.sum(weights[real.labels == k]))
    component = max(masses, key=lambda k: (masses[k], -k))
    total = float(np.sum(weights))
    mass_outside = max(total - masses[component], 0.0)
    multiple = mass_outside > 0.01 or pair.numerically_degenerate
    sel = ComponentSelection(component, mass_outside, multiple, masses)
    pair.component_of_phi1 = "multiple" if multiple else component
    return sel


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
