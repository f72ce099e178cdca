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
its rank in the combinatorial number system.  Intended for desk-scale
instances (the basis dimension C(M+N-1, N) is capped).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import grids
from .errors import BasisSizeError, GridMismatchError, SolverError
from .interaction import InteractionPotential
from .laplace import EIG_TOL, MaskedOperator, check_residual, start_vector

BASIS_CAP = 2_000_000
# measured crossover (one BLAS thread, N=2, medians of 30 calls): with eigsh
# at tol=0 eigh won up to D=231 and eigsh from D=253; stopping at
# EIG_TOL / 10, eigsh wins from D=210, one row lower (README), so it stays
DENSE_CUTOFF = 240

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


def _occupations(states: np.ndarray):
    """Per slot: whether it holds the first copy of its site, and that site's n."""
    first = np.ones(states.shape, dtype=bool)
    first[:, 1:] = states[:, 1:] != states[:, :-1]
    occ = (states[:, :, None] == states[:, None, :]).sum(axis=2)
    return first, occ


@dataclass
class ManyBodyHamiltonian:
    """Assembled N-boson Hamiltonian with its basis bookkeeping."""

    matrix: sp.csr_matrix
    N: int
    sites: np.ndarray       # row-major flat indices of vacant nodes
    states: np.ndarray      # (D, N) sorted site tuples, lex order; row = rank
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

    Each hop is applied to all basis states at once and its targets ranked.
    No two hops share a matrix entry and each diagonal entry adds its terms in
    one fixed order, so the matrix equals a per-state loop's bit for bit.
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

    # face-adjacency among vacant sites, padded with -1 to 2d per site
    neighbors = np.full((M, 2 * d), -1, dtype=np.int64)
    for ax, (a, b) in enumerate(op.face_pairs()):
        neighbors[a, 2 * ax] = b
        neighbors[b, 2 * ax + 1] = a

    # literal pair values v(x_a - x_b), zero outside the stencil
    R = v.stencil_radius
    offsets = positions[:, None, :] - positions[None, :, :]
    inside = np.all(np.abs(offsets) <= R, axis=2)
    pair = np.zeros((M, M))
    pair[inside] = v.values[tuple((offsets[inside] + R).T)]

    states, rank = _lex_basis(M, N)
    first, occ = _occupations(states)

    # interaction summed over occupied sites in ascending order, each site's
    # v(0) term before its pairs with later sites; hops as (row, col, value)
    inter = np.zeros(dim)
    hops = []
    for p in range(N):
        lead, na = first[:, p], occ[:, p]
        inter += np.where(lead & (na > 1), 0.5 * na * (na - 1) * v.v_at_zero, 0.0)
        for q in range(p + 1, N):
            w = pair[states[:, p], states[:, q]]
            inter += np.where(lead & first[:, q] & (w != 0.0), na * occ[:, q] * w, 0.0)
        # hopping: move one particle from a = states[:, p] to a vacant neighbor b
        src = np.flatnonzero(lead)
        for b in neighbors[states[src, p]].T:
            i, b = src[b >= 0], b[b >= 0]
            new = states[i]
            nb = (new == b[:, None]).sum(axis=1)
            new[:, p] = b
            new.sort(axis=1)
            hops.append((rank(new), i, -np.sqrt(occ[i, p] * (nb + 1)) / h2))
    each = np.arange(dim)
    hops.append((each, each, N * 2.0 * d / h2 + inter))

    # one conversion: no hop lands on the diagonal or on another hop's entry
    rows, cols, vals = map(np.concatenate, zip(*hops))
    return ManyBodyHamiltonian(
        matrix=sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr(),
        N=N,
        sites=sites,
        states=states,
        h=h,
        d=d,
    )


def ground_state(H: ManyBodyHamiltonian) -> ManyBodyGroundState:
    """Lowest eigenpair of the assembled Hamiltonian, sign-fixed.

    The residual ||H psi - E psi|| of the unit vector psi is held to the
    one-body solvers' contract, laplace.check_residual at EIG_TOL with a
    machine-precision floor proportional to a bound on ||H||.  ARPACK starts
    from laplace.start_vector and stops when its Ritz estimate, which in SA
    mode is H's own residual, reaches EIG_TOL / 10 |E|; each ARPACK run logs
    one DEBUG line with the basis size, the products with H and the residual.
    """
    dim = H.basis_dim
    if dim <= DENSE_CUTOFF:
        vals, vecs = scipy.linalg.eigh(H.matrix.toarray(), subset_by_index=(0, 0))
    else:
        try:
            matvecs = 0

            def matvec(x):
                nonlocal matvecs
                matvecs += 1
                return H.matrix @ x

            # in SA mode ARPACK's Ritz estimate is H's own residual, so
            # stopping at EIG_TOL / 10 leaves a 10x margin on the check
            # below; its default tol=0 iterates on to machine precision, a
            # third to a half more products
            h_op = LinearOperator((dim, dim), matvec, dtype=float)
            vals, vecs = eigsh(h_op, k=1, which="SA", v0=start_vector(dim), tol=EIG_TOL / 10)
        except ArpackNoConvergence as exc:
            raise SolverError(f"many-body eigensolver did not converge ({exc})") from exc
    E, psi = float(vals[0]), vecs[:, 0]
    # ||H|| <= max diag(H) + N 2d/h^2: the kinetic part is at most N times the
    # one-body Gershgorin bound 4d/h^2, the interaction is diagonal and >= 0
    norm_bound = float(H.matrix.diagonal().max()) + H.N * 2.0 * H.d / H.h**2
    res = float(np.linalg.norm(H.matrix @ psi - E * psi))
    check_residual("many-body ground state", res, E, 64.0 * np.finfo(float).eps * norm_bound)
    if dim > DENSE_CUTOFF:
        logger.debug("ARPACK ground state on %d states: %d products, residual %.3e",
                     dim, matvecs, res)
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
    trace are then automatic.  Each pair (c, a) comes from exactly one basis
    state, so B is filled by assignment.
    """
    H = gs.hamiltonian
    M, N = H.site_count, H.N
    rank = _lex_basis(M, N - 1)[1]
    first, occ = _occupations(H.states)
    B = np.zeros((basis_dimension(M, N - 1), M))
    for p in range(N):
        i = np.flatnonzero(first[:, p])
        rest = np.delete(H.states[i], p, axis=1)
        B[rank(rest), H.states[i, p]] = np.sqrt(occ[i, p]) * gs.psi[i]
    return B.T @ B / N


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
