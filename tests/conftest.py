"""Shared fixtures and independent oracles for the test suite.

Oracles here are deliberately written from scratch (plain loops, BFS, dense
linear algebra) so they share no code path with the package implementations
they check.  The one exception is scf_minimizer, the Hartree flow's check:
it runs another algorithm (damped self-consistent field iteration) on the
package's eigensolver and convolution.
"""

import math
from collections import deque
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import next_fast_len
from scipy.sparse.linalg import ArpackNoConvergence

from kaclab import (
    DisorderConfig,
    DisorderRealization,
    EnsembleSpec,
    MaskedOperator,
    assemble_effective_operator,
    build_realization,
    convolve_density,
    lowest_eigenpairs,
    run_ensemble,
)
from kaclab import grids, laplace
from kaclab.hartree import EL_TOL, component_ground_state


def brute_force_mask(config, centers):
    """Node-by-node distance check, the slow reference for the vacancy mask."""
    L = config.box_side
    h = config.grid_spacing
    coords = [-L / 2.0 + h * (i + 1) for i in range(config.n_cells - 1)]
    dims = config.grid_dims
    mask = np.zeros(dims, dtype=bool)
    for idx in np.ndindex(dims):
        x = np.array([coords[i] for i in idx])
        vacant = True
        for c in np.atleast_2d(centers):
            if len(c) and np.sqrt(np.sum((x - c) ** 2)) <= config.r:
                vacant = False
                break
        mask[idx] = vacant
    return mask


def flood_fill_components(mask):
    """Independent BFS labeling over face-adjacent vacant nodes."""
    dims = mask.shape
    labels = np.zeros(dims, dtype=int)
    K = 0
    for start in np.ndindex(dims):
        if not mask[start] or labels[start]:
            continue
        K += 1
        queue = deque([start])
        labels[start] = K
        while queue:
            node = queue.popleft()
            for ax in range(len(dims)):
                for step in (-1, 1):
                    nb = list(node)
                    nb[ax] += step
                    if 0 <= nb[ax] < dims[ax]:
                        nb = tuple(nb)
                        if mask[nb] and not labels[nb]:
                            labels[nb] = K
                            queue.append(nb)
    return labels, K


def dense_laplacian(mask, h):
    """Dense stencil assembly by explicit loops, the eigenvalue oracle."""
    dims = mask.shape
    d = mask.ndim
    nodes = [idx for idx in np.ndindex(dims) if mask[idx]]
    index = {idx: i for i, idx in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for idx, i in index.items():
        A[i, i] = 2.0 * d / h**2
        for ax in range(d):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                nb = tuple(nb)
                if all(0 <= nb[k] < dims[k] for k in range(d)) and mask[nb]:
                    A[i, index[nb]] = -1.0 / h**2
    return A, nodes


def value_at_offset(v, offset):
    """v at an integer grid offset; zero outside the stencil."""
    R = v.stencil_radius
    if any(abs(int(o)) > R for o in offset):
        return 0.0
    return float(v.values[tuple(int(o) + R for o in offset)])


def brute_double_sum(u, v):
    """double-sum v(x-y) u(x)^2 u(y)^2 h^(2d) over every pair of grid nodes."""
    total = 0.0
    for x in np.ndindex(u.shape):
        for y in np.ndindex(u.shape):
            off = tuple(a - b for a, b in zip(x, y))
            total += u[x] ** 2 * u[y] ** 2 * value_at_offset(v, off)
    return total * v.h ** (2 * v.d)


def loop_hartree_energy(u, real, v, N):
    """E[u] = <u, -Lap u> + (N-1)/2 double-sum, by loops: the energy oracle.

    u is a unit-norm state on the vacancy set; the kinetic term comes from
    the dense stencil, the pair term from the double sum.
    """
    A, nodes = dense_laplacian(real.mask, real.h)
    x = np.array([u[idx] for idx in nodes])
    return float(x @ A @ x) * real.h**real.d + 0.5 * (N - 1) * brute_double_sum(u, v)


def scf_minimizer(real, component, v, N):
    """Damped self-consistent field solver, the flow's independent cross-check.

    From the component's Dirichlet ground state, iterates density -> ground
    state of -Lap + (N-1)(density * v) on the component (eigensolves at tol
    1e-10) -> density mixed at 0.4, until the Euler-Lagrange residual of
    u = sqrt(density) is below EL_TOL.  The minimizer is unique, so the flow
    must land on the same u.  Returns (u, energy, iterations).
    """
    comp_mask = real.labels == component
    dens = component_ground_state(real, component, 1e-10)[0] ** 2
    for it in range(1, 501):
        sub = MaskedOperator(mask=comp_mask, h=real.h,
                             potential=(N - 1) * convolve_density(dens, v))
        u = grids.normalize(np.sqrt(dens), real.h)
        g = sub.apply_grid(u)
        if grids.norm(g - grids.inner(u, g, real.h) * u, real.h) < EL_TOL:
            hop = assemble_effective_operator(u, real, v, N)
            return u, grids.inner(u, hop.apply_grid(u), real.h), it
        phi = np.clip(lowest_eigenpairs(sub, count=1, tol=1e-10).phi1, 0.0, None)
        dens = 0.6 * dens + 0.4 * grids.normalize(phi, real.h) ** 2
        dens /= float(np.sum(dens)) * real.h**real.d
    raise AssertionError("SCF did not reach EL_TOL in 500 iterations")


def _multiset_keys(states, M):
    """Monotone base-M integer key for sorted site tuples (lex order preserved)."""
    N = states.shape[1]
    return states @ (M ** np.arange(N - 1, -1, -1, dtype=np.int64))


def loop_manybody_hamiltonian(real, v, N):
    """Per-state loop assembly of the N-boson Hamiltonian: (csr matrix, states).

    The matrix oracle for kaclab.manybody: the same basis order and the same
    floating-point operations, one basis state at a time.  The base-M keys
    overflow int64 once M**N does, so keep M**N below 2**63.
    """
    mask = real.mask
    nodes = [idx for idx in np.ndindex(mask.shape) if mask[idx]]
    index = {idx: i for i, idx in enumerate(nodes)}
    M, d = len(nodes), mask.ndim
    h2 = real.h * real.h
    neighbors = [[] for _ in range(M)]
    for idx, i in index.items():
        for ax in range(d):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if tuple(nb) in index:
                    neighbors[i].append(index[tuple(nb)])

    states = np.array(
        list(combinations_with_replacement(range(M), N)), dtype=np.int64
    ).reshape(-1, N)
    keys = _multiset_keys(states, M)
    dim = states.shape[0]
    rows, cols, vals = [], [], []
    diag = np.empty(dim)
    kinetic_diag = N * 2.0 * d / h2
    for i in range(dim):
        state = states[i]
        occupied, counts = np.unique(state, return_counts=True)
        inter = 0.0
        for ia, a in enumerate(occupied):
            na = counts[ia]
            if na > 1:
                inter += 0.5 * na * (na - 1) * v.v_at_zero
            for ib in range(ia + 1, occupied.size):
                off = np.subtract(nodes[a], nodes[occupied[ib]])
                w = value_at_offset(v, off)
                if w != 0.0:
                    inter += na * counts[ib] * w
        diag[i] = kinetic_diag + inter
        for ia, a in enumerate(occupied):
            na = counts[ia]
            for b in neighbors[int(a)]:
                new = state.copy()
                new[np.searchsorted(new, a)] = b
                new.sort()
                j = int(np.searchsorted(keys, int(_multiset_keys(new[None, :], M)[0])))
                nb = counts[np.searchsorted(occupied, b)] if b in occupied else 0
                rows.append(j)
                cols.append(i)
                vals.append(-math.sqrt(na * (nb + 1)) / h2)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return (mat + sp.diags(diag)).tocsr(), states


def loop_density_matrix(states, psi, M):
    """Per-state loop rho1 = B^T B / N with B[c, a] += sqrt(n_a) psi[c + a]."""
    N = states.shape[1]
    if N == 1:
        return np.outer(psi, psi)
    reduced = np.array(
        list(combinations_with_replacement(range(M), N - 1)), dtype=np.int64
    ).reshape(-1, N - 1)
    red_keys = _multiset_keys(reduced, M)
    B = np.zeros((reduced.shape[0], M))
    for i, state in enumerate(states):
        occupied, counts = np.unique(state, return_counts=True)
        for a, na in zip(occupied, counts):
            rest = state.tolist()
            rest.remove(a)
            key = int(_multiset_keys(np.array([rest], dtype=np.int64), M)[0])
            B[int(np.searchsorted(red_keys, key)), a] += math.sqrt(na) * psi[i]
    return B.T @ B / N


def lattice_symbol(v):
    """Samples of the lattice symbol of v, and v(0) recovered from them.

    hat v(k) = (2 pi)^(-d/2) h^d sum_x v(x) e^(-ikx).  Zero-padding the
    stencil to at least four times its width samples this exact symbol on a
    fine frequency grid.  v is positive definite when every sample is
    nonnegative, and then v(0) = (2 pi)^(-d/2) ||hat v||_1, whose quadrature
    over the samples is the second value returned.
    """
    d, side, R = v.d, v.values.shape[0], v.stencil_radius
    pad = next_fast_len(max(4 * side, 64))
    arr = np.zeros((pad,) * d)
    arr[(slice(0, side),) * d] = v.values
    arr = np.roll(arr, -R, axis=tuple(range(d)))
    symbol = np.fft.fftn(arr).real * v.h**d * (2.0 * math.pi) ** (-d / 2.0)
    dk = 2.0 * math.pi / (pad * v.h)
    return symbol, (2.0 * math.pi) ** (-d / 2.0) * float(np.sum(np.abs(symbol)) * dk**d)


def positive_definite(v):
    """No symbol sample below -1e-10 times the symbol's maximum."""
    symbol, _ = lattice_symbol(v)
    return bool(symbol.min() >= -1e-10 * max(symbol.max(), 0.0))


class CountingFactor:
    """A factor's solve, as MaskedOperator holds it, that counts its solves, one
    per right-hand side column; op is the operator it factorizes."""

    def __init__(self, op, solve):
        self.op, self._solve, self.solves = op, solve, 0

    def __call__(self, rhs):
        self.solves += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._solve(rhs)


@pytest.fixture
def factors(monkeypatch):
    """Every factorization MaskedOperator makes, banded Cholesky or SuperLU, in
    order: each a CountingFactor, which the operator then holds."""
    made = []
    factorize = laplace.MaskedOperator._factorize

    def recording(op):
        made.append(CountingFactor(op, factorize(op)))
        return made[-1]

    monkeypatch.setattr(laplace.MaskedOperator, "_factorize", recording)
    return made


def arpack_no_convergence(*args, **kwargs):
    """Stands in for eigsh: ARPACK gives up, reporting two Ritz values."""
    raise ArpackNoConvergence("ARPACK error -1: No convergence", np.array([1.5, 2.5]),
                              np.zeros((1, 2)))


def box_eigenvalue(modes, h, L):
    """Closed-form eigenvalue of the discrete Dirichlet box, (4/h^2) sum sin^2."""
    return (4.0 / h**2) * sum(np.sin(np.pi * p * h / (2.0 * L)) ** 2 for p in modes)


def tiny_box_config(N=2, L=2.0, h=0.5, d=2, seed=0, nu=0.0, r=0.7):
    """Config whose box side is exactly L (rho adjusts to N)."""
    rho = N / L**d
    return DisorderConfig(d=d, rho=rho, N=N, nu=nu, r=r, h=h, seed=seed)


def free_box_realization(n_cells, L=1.0, d=2):
    """Obstacle-free box of side exactly L (rho adjusts) with h = L / n_cells."""
    N = 4
    config = DisorderConfig(d=d, rho=N / L**d, N=N, nu=0.0, r=2.0 * L, h=L / n_cells, seed=0)
    return build_realization(config, centers=np.zeros((0, d)))


@pytest.fixture
def free_3x3():
    """Obstacle-free 3x3-node fixture (L=2, h=0.5), the smallest workhorse."""
    return build_realization(tiny_box_config(N=2), centers=np.zeros((0, 2)))


@pytest.fixture
def corner_blocked_6():
    """Six-site fixture: one center at a box corner node blocks 3 nodes."""
    config = tiny_box_config(N=2)
    # center on the node at (-0.5, -0.5): blocks it and its two face neighbors
    centers = np.array([[-0.5, -0.5]])
    real = build_realization(config, centers=centers)
    assert real.n_vacant == 6 and real.K == 1
    return real


@pytest.fixture
def two_strip_5():
    """Two-component fixture: a 2-node strip and a 3-node strip (M=5)."""
    config = tiny_box_config(N=2)
    mask = np.array(
        [
            [False, True, True],
            [False, False, False],
            [True, True, True],
        ]
    )
    real = DisorderRealization.from_mask(config, mask)
    assert real.K == 2
    return real


@pytest.fixture(scope="session")
def criterion_56_records():
    """The 200 realizations of acceptance criteria 5 and 6, as (spec, records).

    sigma_ref = 6 puts the gap reference scale inside the ensemble's gaps, so
    the gap-above-reference event is hit by some realizations and not others.
    """
    spec = EnsembleSpec(
        base={"d": 2, "rho": 1.0, "N": 64, "nu": 0.15, "r": 0.5, "h": 0.4},
        potential={"kind": "gaussian", "kappa": 0.05, "width": 0.5},
        seeds=200, master_seed=2024, eig_tol=laplace.EIG_TOL, sigma_ref=6.0,
    )
    return spec, run_ensemble(spec)
