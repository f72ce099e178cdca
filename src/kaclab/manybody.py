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

Sites are indexed by their row-major position among the vacant nodes; basis
states are the lexicographically ordered multisets of N site indices, indexed
through sorted integer keys.  Intended for desk-scale instances (the basis
dimension C(M+N-1, N) is capped).
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from . import grids
from .errors import BasisSizeError, GridMismatchError, SolverError
from .interaction import InteractionPotential

BASIS_CAP = 2_000_000
DENSE_CUTOFF = 2000


def basis_dimension(M: int, N: int) -> int:
    return math.comb(M + N - 1, N)


def _multiset_keys(states: np.ndarray, M: int) -> np.ndarray:
    """Monotone integer key for sorted site tuples (lex order preserved)."""
    N = states.shape[1]
    weights = M ** np.arange(N - 1, -1, -1, dtype=np.int64)
    return states @ weights


@dataclass
class ManyBodyHamiltonian:
    """Assembled N-boson Hamiltonian with its basis bookkeeping."""

    matrix: sp.csr_matrix
    N: int
    sites: np.ndarray       # row-major flat indices of vacant nodes
    positions: np.ndarray   # (M, d) integer node multi-indices
    states: np.ndarray      # (D, N) sorted site tuples, lex order
    keys: np.ndarray
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
    """Ground energy and state, with the reduced one-particle data."""

    N: int
    site_count: int
    basis_dim: int
    E_qm: float
    psi: np.ndarray
    hamiltonian: ManyBodyHamiltonian
    rho1: Optional[np.ndarray] = None
    n_condensate: Optional[float] = None


def build_manybody_hamiltonian(
    real, v: InteractionPotential, N: int, cap: int = BASIS_CAP
) -> ManyBodyHamiltonian:
    """Assemble the bosonic Hamiltonian on the realization's vacant sites."""
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    mask = real.mask
    sites = np.flatnonzero(mask.ravel())
    M = sites.size
    if M == 0:
        raise ValueError("empty vacancy set")
    dim = basis_dimension(M, N)
    if dim > cap:
        raise BasisSizeError(dim, cap)

    positions = np.argwhere(mask)  # row-major order matches flatnonzero
    d = mask.ndim
    h = real.h
    h2 = h * h

    # face-adjacency among vacant sites, as site-index pairs
    flat_to_site = np.full(mask.size, -1, dtype=np.int64)
    flat_to_site[sites] = np.arange(M)
    site_grid = flat_to_site.reshape(mask.shape)
    neighbors = [[] for _ in range(M)]
    for lo, hi in grids.face_slices(d):
        a = site_grid[hi].ravel()
        b = site_grid[lo].ravel()
        ok = (a >= 0) & (b >= 0)
        for x, y in zip(a[ok], b[ok]):
            neighbors[x].append(int(y))
            neighbors[y].append(int(x))

    def pair_value(a: int, b: int) -> float:
        return v.value_at_offset(positions[a] - positions[b])

    states = np.array(
        list(combinations_with_replacement(range(M), N)), dtype=np.int64
    ).reshape(dim, N)
    keys = _multiset_keys(states, M)

    rows, cols, vals = [], [], []
    diag = np.empty(dim)
    kinetic_diag = N * 2.0 * d / h2
    for i in range(dim):
        state = states[i]
        occupied, counts = np.unique(state, return_counts=True)
        # pair interaction over occupied sites (literal potential values)
        inter = 0.0
        for ia, a in enumerate(occupied):
            na = counts[ia]
            if na > 1:
                inter += 0.5 * na * (na - 1) * v.v_at_zero
            for ib in range(ia + 1, occupied.size):
                b = occupied[ib]
                w = pair_value(int(a), int(b))
                if w != 0.0:
                    inter += na * counts[ib] * w
        diag[i] = kinetic_diag + inter

        # hopping: move one particle from a to a vacant neighbor b
        for ia, a in enumerate(occupied):
            na = counts[ia]
            for b in neighbors[int(a)]:
                new = state.copy()
                pos = np.searchsorted(new, a)
                new[pos] = b
                new.sort()
                j = int(np.searchsorted(keys, int(_multiset_keys(new[None, :], M)[0])))
                nb = counts[np.searchsorted(occupied, b)] if b in occupied else 0
                amp = -math.sqrt(na * (nb + 1)) / h2
                rows.append(j)
                cols.append(i)
                vals.append(amp)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    mat = mat + sp.diags(diag)
    return ManyBodyHamiltonian(
        matrix=mat.tocsr(),
        N=N,
        sites=sites,
        positions=positions,
        states=states,
        keys=keys,
        h=h,
        d=d,
    )


def ground_state(H: ManyBodyHamiltonian) -> ManyBodyGroundState:
    """Lowest eigenpair of the assembled Hamiltonian, sign-fixed."""
    dim = H.basis_dim
    if dim == 1:
        E = float(H.matrix[0, 0])
        psi = np.ones(1)
    elif dim <= DENSE_CUTOFF:
        vals, vecs = scipy.linalg.eigh(H.matrix.toarray(), subset_by_index=(0, 0))
        E, psi = float(vals[0]), vecs[:, 0]
    else:
        try:
            vals, vecs = eigsh(H.matrix, k=1, which="SA")
        except ArpackNoConvergence as exc:
            raise SolverError(f"many-body eigensolver did not converge ({exc})") from exc
        E, psi = float(vals[0]), vecs[:, 0]
    if psi.sum() < 0:
        psi = -psi
    return ManyBodyGroundState(
        N=H.N,
        site_count=H.site_count,
        basis_dim=dim,
        E_qm=E,
        psi=psi,
        hamiltonian=H,
    )


def one_body_density_matrix(gs: ManyBodyGroundState) -> np.ndarray:
    """rho1[x, y] = <psi| a+_y a_x |psi> / N, trace-normalized to one.

    Built as B^T B / N where B maps (N-1)-particle reduced states c and sites
    a to sqrt(n_a(c) + 1) psi_{c + a}; positive semidefiniteness and the unit
    trace are then automatic.
    """
    H = gs.hamiltonian
    M, N = H.site_count, H.N
    if N == 1:
        rho = np.outer(gs.psi, gs.psi)
        gs.rho1 = rho
        return rho

    reduced = np.array(
        list(combinations_with_replacement(range(M), N - 1)), dtype=np.int64
    ).reshape(-1, N - 1)
    red_keys = _multiset_keys(reduced, M)  # sorted: lex order, monotone key

    B = np.zeros((reduced.shape[0], M))
    for i, state in enumerate(H.states):
        occupied, counts = np.unique(state, return_counts=True)
        amp = gs.psi[i]
        for a, na in zip(occupied, counts):
            rest = state.copy().tolist()
            rest.remove(a)
            key = int(_multiset_keys(np.array([rest], dtype=np.int64), M)[0])
            c = int(np.searchsorted(red_keys, key))
            # sqrt(n_a(c)+1) with n_a(c) = na - 1 on the reduced state
            B[c, a] += math.sqrt(na) * amp
    rho = B.T @ B / N
    gs.rho1 = rho
    return rho


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
    u_sites = u.ravel()[np.flatnonzero(real.mask.ravel())]
    return float(N * real.h**real.d * (u_sites @ rho1 @ u_sites))
