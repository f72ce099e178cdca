"""Component-wise Hartree minimization and the effective one-particle operator.

The energy of a unit-norm state u supported on one vacancy component is

    E[u] = <u, -Lap u> + (N-1)/2 * double-sum v(x-y) u(x)^2 u(y)^2,

with h^d quadrature throughout.  Its minimizer is found by projected gradient
descent on the unit sphere, preconditioned with the vacancy-set Laplacian's
factor (the spectrum's), with energy backtracking, which makes monotone
decrease of the energy trace an enforced invariant; a damped self-consistent
field solver is kept alongside as an independent cross-check of the (unique)
minimizer.  Linearizing at u gives the effective operator

    h_u = -Lap + (N-1)(u^2 * v) - shift,   shift = (N-1)/2 * double-sum,

whose ground energy on the host component equals E[u]; the shift is stored
separately so componentwise gaps are unaffected by it.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# the flow solves with MaskedOperator.factor; perfbench/tracer.py still reads
# this name (its SPLU_HOLDERS) when it installs, so it stays bound here
from scipy.sparse.linalg import splu  # noqa: F401

from . import grids
from .errors import SolverError
from .interaction import InteractionPotential, convolve_density
from .laplace import MaskedOperator, assemble_laplacian, lowest_eigenpairs

SUPPORT_TOL = 1e-12


@dataclass
class HartreeSolution:
    """Converged minimizer with the spectrum of its effective operator.

    u              : minimizer, unit discrete L2 norm, nonnegative, supported
                     on the host component
    energy         : value of the energy functional at u
    e1, e2         : two lowest eigenvalues of the effective operator on the
                     full vacancy set (all components)
    shift          : the subtracted interaction constant
    quadratic_form : <u, h_u u>, equal to energy by construction of the shift
    """

    u: np.ndarray
    component: int
    energy: float
    e1: float
    e2: Optional[float]
    shift: float
    iterations: int
    el_residual: float
    energy_trace: list = field(default_factory=list)
    quadratic_form: float = 0.0
    ground_mass_on_component: float = 0.0


def _check_support(u, real, component):
    off = np.where(real.labels == component, 0.0, u)
    mass_out = float(np.sum(off * off)) * real.h**real.d
    if mass_out > SUPPORT_TOL:
        raise ValueError(
            f"state carries mass {mass_out:.3e} outside component {component}"
        )


def kinetic_energy(u: np.ndarray, real) -> float:
    op = MaskedOperator(mask=real.mask, h=real.h)
    return grids.inner(u, op.apply_grid(u), real.h)


def interaction_double_sum(u: np.ndarray, v: InteractionPotential, real) -> float:
    """double-sum v(x-y) u(x)^2 u(y)^2 with h^d per integration variable."""
    dens = u * u
    return grids.inner(dens, convolve_density(dens, v), real.h)


def hartree_energy(u: np.ndarray, real, component: int, v: InteractionPotential, N: int) -> float:
    """Energy functional at a unit-norm state supported on one component."""
    _check_support(u, real, component)
    return kinetic_energy(u, real) + 0.5 * (N - 1) * interaction_double_sum(u, v, real)


def assemble_effective_operator(u: np.ndarray, real, v: InteractionPotential, N: int) -> MaskedOperator:
    """Effective operator at density u^2 on the full vacancy set.

    The potential term (N-1)(u^2 * v) lives on every component (the
    convolution reaches across obstacles even though u does not), and the
    constant shift is carried on the diagonal separately.
    """
    dens = u * u
    conv = convolve_density(dens, v)
    W = (N - 1) * conv
    shift = 0.5 * (N - 1) * grids.inner(dens, conv, real.h)
    return MaskedOperator(
        mask=real.mask, h=real.h, potential=W, diagonal_shift=shift
    )


def effective_spectrum(hop: MaskedOperator, tol: float = 1e-9):
    """Two lowest eigenvalues of the effective operator and its ground vector."""
    pair = lowest_eigenpairs(hop, count=2, tol=tol)
    return pair.lambda1, pair.lambda2, pair.phi1


def component_ground_state(real, component: int, eig_tol: float = 1e-9):
    """Dirichlet ground state of one component, unit norm, nonnegative."""
    sub = MaskedOperator(mask=real.labels == component, h=real.h)
    pair = lowest_eigenpairs(sub, count=1, tol=eig_tol)
    phi = np.clip(pair.phi1, 0.0, None)  # Perron ground state up to solver noise
    return grids.normalize(phi, real.h), pair.lambda1


def _initial_state(real, component, init, eig_tol):
    """Component mask and unit start state: init clipped to the component."""
    comp_mask = real.labels == component
    if not np.any(comp_mask):
        raise ValueError(f"component {component} is empty")
    if init is None:
        return comp_mask, component_ground_state(real, component, eig_tol)[0]
    u = np.clip(np.where(comp_mask, np.asarray(init, dtype=float), 0.0), 0.0, None)
    return comp_mask, grids.normalize(u, real.h)


def _finalize(u, real, component, v, N, iterations, residual, trace, energy, eig_tol):
    """Spectrum of the effective operator h_u at the converged state.

    Only the full-set spectrum is solved.  h_u is block-diagonal over the
    components, so its ground energy e1 is the least of the component ground
    energies, e1 <= e1_host; and u is a unit trial state on the host, so
    e1_host <= <u, h_u u> = energy.  A host-restricted solve would therefore
    sit between e1 and energy, and |energy - e1| already bounds its distance
    to the energy.
    """
    hop = assemble_effective_operator(u, real, v, N)
    e1, e2, gvec = effective_spectrum(hop, tol=eig_tol)
    comp_mask = real.labels == component
    gmass = float(np.sum(np.where(comp_mask, gvec, 0.0) ** 2)) * real.h**real.d
    return HartreeSolution(
        u=u,
        component=component,
        energy=energy,
        e1=e1,
        e2=e2,
        shift=hop.diagonal_shift,
        iterations=iterations,
        el_residual=residual,
        energy_trace=trace,
        quadratic_form=grids.inner(u, hop.apply_grid(u), real.h),
        ground_mass_on_component=gmass,
    )


def minimize_hartree(
    real,
    component: int,
    v: InteractionPotential,
    N: int,
    tol: float = 1e-8,
    max_iter: int = 5000,
    eig_tol: float = 1e-9,
    init: Optional[np.ndarray] = None,
    lap: Optional[MaskedOperator] = None,
) -> HartreeSolution:
    """Minimize the component Hartree energy by projected gradient descent.

    Starting from the component's Dirichlet ground state, or from a supplied
    positive initial state, each step moves against the sphere-projected
    gradient, clips negative parts and renormalizes; the step size backtracks
    until the energy decreases, so the energy trace is non-increasing by
    construction, whatever the step.  The raw gradient direction contracts
    like gap/||A|| per step, hopeless on fine grids, so the gradient is
    preconditioned by P = (-Lap)^(-1): P is positive definite, so the
    projected direction still descends, and the rate is grid-independent.
    The preconditioned Hessian is I plus (-Lap)^(-1) times the interaction
    terms, so tau = 1 is a good first step while the interaction is small
    against lambda1.  Convergence is declared when the Euler-Lagrange
    residual || h_u u - <u, h_u u> u || drops below tol.

    lap is the Dirichlet Laplacian of the whole vacancy set (built from real
    when not given); P solves with its factor, so the spectrum's factor is
    reused.  -Lap is block-diagonal over components and u and the residual
    live on the component, so its stencil and its factor act there exactly as
    the component's own.  For the same reason |phi1| of the whole vacancy
    set, restricted to the component, is already the component's ground state
    whenever that component attains lambda1 (also when phi1 is spread over
    several); passing it as init saves that eigensolve.
    """
    comp_mask, u = _initial_state(real, component, init, eig_tol)
    eps = np.finfo(float).eps
    if lap is None:
        lap = assemble_laplacian(real)

    def energy_and_potential(w):
        dens = w * w
        W = (N - 1) * convolve_density(dens, v)
        kin = grids.inner(w, lap.apply_grid(w), real.h)
        inter = 0.5 * grids.inner(dens, W, real.h)
        return kin + inter, W

    energy, W = energy_and_potential(u)
    trace = [energy]

    tau = 1.0
    tau_max = 1.0
    residual = np.inf

    for it in range(1, max_iter + 1):
        g = lap.apply_grid(u) + W * u
        rayleigh = grids.inner(u, g, real.h)
        resid = g - rayleigh * u
        residual = grids.norm(resid, real.h)
        if not np.isfinite(residual):
            raise SolverError("NaN in Hartree gradient", trace=trace)
        if residual < tol:
            return _finalize(u, real, component, v, N, it - 1, residual, trace,
                             energy, eig_tol)

        z = lap.embed(lap.factor.solve(lap.restrict(resid)))
        direction = z - grids.inner(u, z, real.h) * u

        accepted = False
        for _ in range(40):
            w = np.clip(u - tau * direction, 0.0, None)
            nw = grids.norm(w, real.h)
            if nw == 0.0:
                tau *= 0.5
                continue
            w /= nw
            new_energy, new_W = energy_and_potential(w)
            if new_energy <= energy + 8.0 * eps * max(1.0, abs(energy)):
                u, energy, W = w, new_energy, new_W
                trace.append(energy)
                tau = min(tau * 1.3, tau_max)
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            if residual < 100.0 * tol:
                # stuck in float noise near the minimum but residual is tiny
                return _finalize(u, real, component, v, N, it, residual, trace,
                                 energy, eig_tol)
            raise SolverError(
                f"backtracking stalled at iteration {it} "
                f"(residual {residual:.3e})",
                residuals=[residual],
                trace=trace,
            )

    raise SolverError(
        f"Hartree flow did not reach residual {tol:.1e} in {max_iter} "
        f"iterations (last residual {residual:.3e})",
        residuals=[residual],
        trace=trace,
    )


def minimize_hartree_scf(
    real,
    component: int,
    v: InteractionPotential,
    N: int,
    tol: float = 1e-8,
    max_iter: int = 500,
    mixing: float = 0.4,
    eig_tol: float = 1e-10,
    init: Optional[np.ndarray] = None,
) -> HartreeSolution:
    """Damped self-consistent field solver, the independent cross-check.

    Iterates density -> ground state of (-Lap + (N-1)(density * v)) on the
    component -> mixed density, until the Euler-Lagrange residual of
    u = sqrt(density) is below tol.  Algorithmically unrelated to the
    gradient flow; by uniqueness of the minimizer both must agree.
    """
    comp_mask, u = _initial_state(real, component, init, eig_tol)
    dens = u * u

    residual = np.inf
    trace = []
    for it in range(1, max_iter + 1):
        W = (N - 1) * convolve_density(dens, v)
        sub = MaskedOperator(mask=comp_mask, h=real.h, potential=W)
        pair = lowest_eigenpairs(sub, count=1, tol=eig_tol)
        phi = grids.normalize(np.clip(pair.phi1, 0.0, None), real.h)

        u = grids.normalize(np.sqrt(dens), real.h)
        g = sub.apply_grid(u)
        rayleigh = grids.inner(u, g, real.h)
        residual = grids.norm(g - rayleigh * u, real.h)
        trace.append(rayleigh)
        if residual < tol:
            energy = hartree_energy(u, real, component, v, N)
            return _finalize(u, real, component, v, N, it, residual, trace,
                             energy, eig_tol)

        dens = (1.0 - mixing) * dens + mixing * phi * phi
        dens /= float(np.sum(dens)) * real.h**real.d

    raise SolverError(
        f"SCF did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residuals=[residual],
        trace=trace,
    )
