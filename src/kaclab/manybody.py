"""Exact ground state of the bosonic N-particle problem on small vacancy grids.

The Hamiltonian sum_j (-Lap_j) + sum_{i<j} v(x_i - x_j) is assembled in the
occupation-number basis over the vacant sites: hopping -1/h^2 between
face-adjacent sites with the uniform 2d/h^2 diagonal (exactly the one-body
stencil), and the pair term as literal multiplication,

    (1/2) sum_{x,y} v(x - y) (n_x n_y - delta_xy n_x),

which for two particles on one node gives n(n-1)/2 * v(0).  With this literal
convention the mean-field energy and depletion bounds hold exactly at the
lattice level (the variational arguments transcribe verbatim when the sampled
potential has a nonnegative lattice Fourier transform), which is what makes
this module the truth source for the certificates.

Sites are numbered as laplace.MaskedOperator numbers the vacant nodes (in
row-major order) and particles hop along its face pairs; basis states are the
lexicographically ordered multisets of N site indices, and a state's row is
its rank in the combinatorial number system.  One creation table, the row of
c + a for every (N-1)-particle state c and site a, gives every hop and rho1
by lookup.  Intended for desk-scale instances (the basis dimension
C(M+N-1, N) is capped).

The ground state condenses: it overlaps the product state phi1^(x N) of the
one-body ground state by 0.999 and more on the benchmark's oracle sets.  So
ground_state finds it by a Lanczos run from the product of the build's
orbital, phi1 with a positive floor that reaches every particle-number sector
of a disconnected set, and product_state serves that start and the
certificate's overlap with the Hartree product state alike.  The run keeps
no more than LANCZOS_CAP basis vectors, restarts from its Ritz vector when
they are full, and needs no reorthogonalization for the one lowest pair; its
working set is LANCZOS_CAP + 3 vectors of the basis dimension, whatever the
basis size: a basis smaller than LANCZOS_CAP ends the run when its Krylov
space does.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dnrm2

from . import blas, grids
from .errors import BasisSizeError, GridMismatchError, SolverError
from .interaction import InteractionPotential
from .laplace import EIG_TOL, MaskedOperator, check_residual, lowest_eigenpairs

BASIS_CAP = 2_000_000
# Lanczos basis vectors: the kernel holds LANCZOS_CAP + 3 vectors of D
# doubles, ARPACK at ncv=10 held 26 (tracemalloc); at BASIS_CAP that is
# about 370 MB against 420 MB
LANCZOS_CAP = 20
# steps between Ritz checks of the tridiagonal (a check costs about a fifth
# of a product at the benchmark's sizes)
RITZ_EVERY = 4
# products with H before _lanczos gives up with a SolverError
PRODUCT_BUDGET = 20_000

logger = logging.getLogger(__name__)


def basis_dimension(M: int, N: int) -> int:
    return math.comb(M + N - 1, N)


def _lex_basis(M: int, N: int):
    """Sorted N-tuples over range(M) in lex order, and their rank function.

    The combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3), applied in
    colex order to the complement of the N-subset c_j = s_j + j of
    range(M + N - 1), gives top - rank(s) = sum_j w[j, s_j] for the lex rank
    rank(s) < C(M+N-1, N).  Unranking fixes one column at a time: s_j is the
    smallest site whose entry fits in what is left to place.
    """
    w = [math.comb(M + N - 2 - a - j, N - j) for j in range(N) for a in range(M)]
    w = np.array(w, dtype=np.int64).reshape(N, M)  # decreasing along each row
    top = int(w[:, 0].sum())
    states = np.empty((top + 1, N), dtype=np.int64)
    left = top - np.arange(top + 1)
    for j, row in enumerate(w):
        states[:, j] = np.searchsorted(-row, -left)
        left = left - row[states[:, j]]
    return states, lambda s: top - w[np.arange(N), s].sum(axis=1)


def _index_dtype(dim: int, nnz: int):
    """int32 sparse indices where the basis and the stored entries fit, else int64."""
    return np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64


def _diagonal_and_table(states, pair, v_at_zero, M, idx):
    """Each state's interaction, and the creation table (create, count).

    The interaction adds its terms over occupied sites in ascending order,
    each site's v(0) term before its pairs with later sites.  Entry (c, a) of
    the table comes from the slot holding the first copy of a in the one
    state c + a, so it is filled by assignment.
    """
    N = states.shape[1]
    first = np.ones(states.shape, dtype=bool)
    first[:, 1:] = states[:, 1:] != states[:, :-1]
    occ = (states[:, :, None] == states[:, None, :]).sum(axis=2)
    reduced = basis_dimension(M, N - 1)
    create, count = np.empty((reduced, M), dtype=idx), np.empty((reduced, M))
    rank = _lex_basis(M, N - 1)[1]
    inter = np.zeros(states.shape[0])
    for p in range(N):
        lead, na = first[:, p], occ[:, p]
        inter += np.where(lead & (na > 1), 0.5 * na * (na - 1) * v_at_zero, 0.0)
        for q in range(p + 1, N):
            w = pair[states[:, p], states[:, q]]
            inter += np.where(lead & first[:, q] & (w != 0.0), na * occ[:, q] * w, 0.0)
        i = np.flatnonzero(lead)
        c = rank(np.delete(states[i], p, axis=1))
        create[c, states[i, p]] = i
        count[c, states[i, p]] = na[i]
    return inter, create, count


@dataclass
class ManyBodyHamiltonian:
    """Assembled N-boson Hamiltonian with its basis bookkeeping."""

    matrix: sp.csr_matrix
    N: int
    sites: np.ndarray       # row-major flat indices of vacant nodes
    states: np.ndarray      # (D, N) sorted site tuples, lex order; row = rank
    create: np.ndarray      # (D', M) row of c + a per (N-1)-particle state c, site a
    count: np.ndarray       # (D', M) n_a in that state, as float; products stay exact
    orbital: np.ndarray     # (M,) unit, > 0 on every site: the Lanczos start is its product
    h: float
    d: int

    @property
    def site_count(self) -> int:
        return self.sites.size

    @property
    def basis_dim(self) -> int:
        return self.states.shape[0]


@dataclass
class ManyBodyGroundState:
    """Ground energy and state of an assembled Hamiltonian."""

    N: int
    site_count: int
    basis_dim: int
    E_qm: float
    psi: np.ndarray
    hamiltonian: ManyBodyHamiltonian


def build_manybody_hamiltonian(
    real, v: InteractionPotential, N: int, cap: int = BASIS_CAP
) -> ManyBodyHamiltonian:
    """Assemble the bosonic Hamiltonian on the realization's vacant sites.

    A hop a -> b is read off the creation table for all c at once, from row
    c + a to row c + b.  No two hops share a matrix entry and each diagonal
    entry adds its terms in one fixed order, so the matrix equals a per-state
    loop's bit for bit.  Indices are int32 unless the basis or nnz needs int64.
    """
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    # the Laplacian's site numbering and face pairs; it raises on an empty set
    op = MaskedOperator(real.mask, real.h)
    sites, M, d, h = op.sites, op.n_vacant, op.d, real.h
    dim = basis_dimension(M, N)
    if dim > cap:
        raise BasisSizeError(dim, cap)
    positions = np.stack(np.unravel_index(sites, op.dims), axis=1)
    h2 = h * h

    # literal pair values v(x_a - x_b), zero outside the stencil
    R = v.stencil_radius
    offsets = positions[:, None, :] - positions[None, :, :]
    inside = np.all(np.abs(offsets) <= R, axis=2)
    pair = np.zeros((M, M))
    pair[inside] = v.values[tuple((offsets[inside] + R).T)]

    states = _lex_basis(M, N)[0]
    # face pairs (a, b) of all axes: each gives every (N-1)-particle state c
    # two hop entries, c + a -> c + b and back, besides the dim diagonal ones
    a, b = (np.concatenate(ends) for ends in zip(*op.face_pairs()))
    hop = basis_dimension(M, N - 1) * a.size
    nnz = dim + 2 * hop
    idx = _index_dtype(dim, nnz)
    inter, create, count = _diagonal_and_table(states, pair, v.v_at_zero, M, idx)

    # triplets written in place: hops by table lookup, then their mirrors, then
    # the diagonal; no two share an entry, so one CSR conversion sums nothing
    rows, cols, vals = np.empty(nnz, idx), np.empty(nnz, idx), np.empty(nnz)
    fwd = vals[:hop].reshape(create.shape[0], a.size)
    # every index is in range; mode="clip" writes into out, "raise" buffers a copy
    np.take(create, b, axis=1, out=rows[:hop].reshape(fwd.shape), mode="clip")
    np.take(create, a, axis=1, out=cols[:hop].reshape(fwd.shape), mode="clip")
    np.take(count, a, axis=1, out=fwd, mode="clip")
    fwd *= count[:, b]
    np.sqrt(fwd, out=fwd)
    fwd /= -h2
    rows[hop:2 * hop], cols[hop:2 * hop], vals[hop:2 * hop] = cols[:hop], rows[:hop], vals[:hop]
    rows[2 * hop:] = cols[2 * hop:] = np.arange(dim)
    np.add(N * 2.0 * d / h2, inter, out=vals[2 * hop:])
    logger.debug("many-body build on %d states: %d stored entries, creation table %d x %d",
                 dim, nnz, *create.shape)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    # the Lanczos start's orbital.  H keeps the boson number of each
    # connected component, and each such sector has its own positive
    # (Perron) ground state, which a start with no weight there never
    # reaches.  phi1 vanishes off its component (|phi1|: a degenerate one may
    # mix components with either sign), so it gets a floor of a hundredth of
    # its maximum.  Measured with ARPACK on boxes of 8 and 9 sites at N=3
    # (969 states): with no floor it returned another sector's energy, 3.5%
    # high at kappa=5 and 47% at kappa=50; with the floor it matched dense
    # eigh to 2e-15 at kappa 1, 5 and 50.  On the benchmark's connected
    # oracle sets the floored start took ARPACK 51-76 products, the
    # unfloored 56-76.
    phi = np.abs(op.restrict(lowest_eigenpairs(op, count=1).phi1))
    orbital = phi + 0.01 * phi.max()
    orbital /= np.linalg.norm(orbital)
    return ManyBodyHamiltonian(matrix, N, sites, states, create, count, orbital, h, d)


def product_state(H: ManyBodyHamiltonian, w: np.ndarray) -> np.ndarray:
    """Unit vector of the symmetrised product state w^(x N) in H's basis.

    w is a one-body function on H's sites in their order.  State s gets
    sqrt(N! / prod_a n_a!) prod_j w(s_j), accumulated one slot at a time: in
    a sorted tuple the slot j that holds the r-th copy of its site brings the
    factor w(s_j) sqrt((j + 1) / r).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (H.site_count,):
        raise GridMismatchError(f"orbital of shape {w.shape} does not match "
                                f"the {H.site_count} sites of the basis")
    states = H.states
    coef = w[states[:, 0]]
    repeat = np.ones(H.basis_dim)
    for j in range(1, H.N):
        same = states[:, j] == states[:, j - 1]
        repeat = np.where(same, repeat + 1.0, 1.0)
        coef *= w[states[:, j]] * np.sqrt((j + 1) / repeat)
    return coef / np.linalg.norm(coef)


def _lanczos(A, v0: np.ndarray, tol: float, cap: int, budget: int):
    """Lowest eigenpair of the symmetric A by Lanczos without reorthogonalization.

    The three-term recurrence runs from the unit vector v0 in one (cap, D)
    basis array; a step allocates nothing but A's product.  Every RITZ_EVERY
    steps, on a full basis and on a small beta, the lowest Ritz pair (theta,
    s) of the tridiagonal is checked: it has converged when |beta_k s_k| <=
    tol |theta|.  Lost orthogonality only repeats Ritz values that have
    converged already; it leaves the lowest pair accurate (Paige, J. Inst.
    Maths Applics 18, 1976).  A full basis restarts from the normalized Ritz
    vector y, keeping the product it already holds: A y = theta y + beta_k
    s_k v_(k+1) makes alpha = theta and beta = |beta_k s_k| the new first
    coefficients (thick restart with one vector, Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000).  A beta of zero up to roundoff (an invariant
    subspace) passes the check at once.  Returns (theta, unit y, products,
    restarts); SolverError after budget products.
    """
    V = np.empty((cap, v0.size))
    alpha, beta = np.empty(cap), np.empty(cap)
    V[0] = v0
    k = products = restarts = 0   # k: the basis vector that A multiplies next
    estimate = math.inf
    while products < budget:
        w = A @ V[k]
        products += 1
        alpha[k] = ddot(V[k], w)
        daxpy(V[k], w, a=-alpha[k])
        if k:
            daxpy(V[k - 1], w, a=-beta[k - 1])
        b = beta[k] = dnrm2(w)
        k += 1
        if k % RITZ_EVERY == 0 or k == cap or b <= tol * abs(alpha[k - 1]):
            theta, s = scipy.linalg.eigh_tridiagonal(
                alpha[:k], beta[:k - 1], select="i", select_range=(0, 0), check_finite=False)
            theta, s = float(theta[0]), s[:, 0]
            estimate = abs(b * s[-1])
            if estimate <= tol * abs(theta) or k == cap:
                y = s @ V[:k]
                y /= dnrm2(y)
                if estimate <= tol * abs(theta):
                    return theta, y, products, restarts
                restarts += 1
                V[0] = y
                del y
                alpha[0], beta[0] = theta, estimate
                b = math.copysign(b, s[-1])
                k = 1
        # b != 0: a zero beta passes the check above.  After w's last use the
        # next step's product is the only live work vector
        np.multiply(w, 1.0 / b, out=V[k])
        del w
    raise SolverError(f"many-body eigensolver did not converge ({products} products, "
                      f"Ritz estimate {estimate:.3e} above {tol:.1e} |E|)")


@blas.one_thread()
def ground_state(H: ManyBodyHamiltonian) -> ManyBodyGroundState:
    """Lowest eigenpair of the assembled Hamiltonian, sign-fixed.

    _lanczos on every basis size, with LANCZOS_CAP basis vectors and at most
    PRODUCT_BUDGET products, from product_state(H, H.orbital), which is
    positive on every basis state and so reaches the ground state of every
    sector.  It stops when its Ritz estimate reaches EIG_TOL / 10 |E|, or
    when a basis smaller than LANCZOS_CAP runs out of Krylov directions
    (beta falls to roundoff).  The residual ||H psi - E psi|| of the
    unit vector psi is then held to the one-body solvers' contract,
    laplace.check_residual at EIG_TOL with a machine-precision floor
    proportional to a bound on ||H||.  Each Lanczos run logs one DEBUG line
    with the basis size, the products with H, the restarts, the residual and
    the start's overlap |<v0, psi>|; the run and the line depend on H alone.
    BLAS runs on one thread throughout (blas.one_thread).
    """
    dim = H.basis_dim
    v0 = product_state(H, H.orbital)
    # the estimate is H's own residual for the Ritz pair, so stopping at
    # EIG_TOL / 10 leaves a 10x margin on the check below
    E, psi, products, restarts = _lanczos(H.matrix, v0, EIG_TOL / 10, LANCZOS_CAP, PRODUCT_BUDGET)
    # ||H|| <= max diag(H) + N 2d/h^2: the kinetic part is at most N times the
    # one-body Gershgorin bound 4d/h^2, the interaction is diagonal and >= 0
    norm_bound = float(H.matrix.diagonal().max()) + H.N * 2.0 * H.d / H.h**2
    res = float(np.linalg.norm(H.matrix @ psi - E * psi))
    check_residual("many-body ground state", res, E, 64.0 * np.finfo(float).eps * norm_bound)
    logger.debug("Lanczos ground state on %d states: %d products, %d restarts, "
                 "residual %.3e, start overlap %.4f", dim, products, restarts, res, abs(v0 @ psi))
    return ManyBodyGroundState(
        N=H.N,
        site_count=H.site_count,
        basis_dim=dim,
        E_qm=E,
        psi=grids.fix_sign(psi),
        hamiltonian=H,
    )


def one_body_density_matrix(gs: ManyBodyGroundState) -> np.ndarray:
    """rho1[x, y] = <psi| a+_y a_x |psi> / N, trace-normalized to one.

    Built as B^T B / N where B maps (N-1)-particle reduced states c and sites
    a to sqrt(n_a(c) + 1) psi_{c + a}; positive semidefiniteness and the unit
    trace are then automatic.  B is read off the build's creation table.
    """
    H = gs.hamiltonian
    B = np.sqrt(H.count) * gs.psi[H.create]
    return B.T @ B / H.N


def condensate_occupation(rho1: np.ndarray, u: np.ndarray, real, N: int) -> float:
    """Occupation n = N <u, rho1 u> with the h^d-weighted inner product.

    u is a unit-norm grid function on the same realization grid; it is
    restricted to the vacant sites in their canonical (row-major) order.
    """
    if u.shape != real.mask.shape:
        raise GridMismatchError(
            f"state grid {u.shape} does not match realization grid {real.mask.shape}"
        )
    if rho1.shape[0] != real.n_vacant:
        raise GridMismatchError(
            f"density matrix is {rho1.shape[0]}x{rho1.shape[0]} but the "
            f"realization has {real.n_vacant} vacant sites"
        )
    u_sites = u[real.mask]
    return float(N * real.h**real.d * (u_sites @ rho1 @ u_sites))
