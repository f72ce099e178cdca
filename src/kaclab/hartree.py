"""Component-wise Hartree minimization and the effective one-particle operator.

The energy of a unit-norm state u supported on one vacancy component is

    E[u] = <u, -Lap u> + (N-1)/2 * double-sum v(x-y) u(x)^2 u(y)^2,

with h^d quadrature throughout.  Its minimizer is found by projected gradient
descent on the unit sphere, preconditioned with the factor of a Laplacian
(the vacancy set's from the pipeline, else the component's) shifted on its
two lowest modes, with energy backtracking: a step is accepted only when
the new energy is at most old + 8 eps max(1, |old|), so the energy trace
never rises by more than that roundoff allowance; a damped self-consistent
field solver is kept alongside as an independent cross-check of the (unique)
minimizer.  Linearizing at u gives the effective operator

    h_u = -Lap + (N-1)(u^2 * v) - shift,   shift = (N-1)/2 * double-sum,

whose ground energy on the host component equals E[u]; the shift is stored
separately so componentwise gaps are unaffected by it.  Its two lowest
eigenvalues e1, e2 on the whole vacancy set come from the Laplacian's factor
(block LOBPCG, certified with lambda3) or from h_u's own; one rule,
_spans_set, picks the path and h_u's shift-invert point.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# unused here (MaskedOperator.solve factorizes); only perfbench/tracer.py
# keeps this name alive, reading it (its SPLU_HOLDERS) when it installs
from scipy.sparse.linalg import splu  # noqa: F401

from . import grids
from .errors import SolverError
from .interaction import InteractionPotential, convolve_density
from .laplace import EIG_TOL, MaskedOperator, SpectralPair, lowest_eigenpairs

SUPPORT_TOL = 1e-12
# the flow's contract: the Euler-Lagrange residual of a converged u is below
# EL_TOL (every el_tol defaults to it), reached within MAX_ITER steps
EL_TOL = 1e-8
MAX_ITER = 5000
# the preconditioners and h_u's shift-invert point (see _shifted_modes) sit
# at sigma = 0.9 lambda1: below lambda1, so all stay positive definite,
# with a 10% margin for FFT roundoff in W (and for kappa = 0, where W = 0).
# 0.99 lambda1 slowed the flow under strong interaction: mean iterations
# 31.5 -> 87.3 on 200 seeds at d=2, N=64, kappa=10.
SHIFT_FRACTION = 0.9
# h_u's spectrum comes from the Laplacian's factor (block LOBPCG, certified
# by Weyl's inequality with lambda3) on sets of at least this many vacant
# nodes, per dimension; elsewhere h_u is factorized and solved by ARPACK.
# The measured crossover (README, Spectral solver) sets it; it depends only
# on d and the node count, so records stay deterministic.
FACTOR_REUSE_MIN_NODES = {2: 4000, 3: 1000}
LOBPCG_MAX_ITER = 40
# the SCF cross-check's iteration cap, mixing, eigensolve tolerance (it stops at EL_TOL)
_SCF_MAX_ITER, _SCF_MIXING, _SCF_EIG_TOL = 500, 0.4, 1e-10

logger = logging.getLogger(__name__)
# one DEBUG line per effective-spectrum solve: its path, iterations, LU
# solves, certificate margin and the reason for any fallback
spectrum_logger = logger.getChild("spectrum")


def reuses_laplacian_factor(d: int, n_vacant: int) -> bool:
    """Whether the pipeline asks the Laplacian for lambda3, which selects the LOBPCG path."""
    return n_vacant >= FACTOR_REUSE_MIN_NODES.get(d, math.inf)


def _spans_set(pair: Optional[SpectralPair], n_vacant: int) -> bool:
    """The rule that steers h_u: pair's operator spans the vacancy set of n_vacant nodes.

    h_u is solved on the whole set.  Only a spanning pair's lambda1 bounds
    its SPD part -Lap + W - sigma from below (W >= 0, Weyl's inequality; a
    component's bounds only that component), and only a spanning pair's
    factor has h_u's size.  So h_u is shift-inverted at a spanning pair's
    sigma, else at 0, and solved on its factor when lambda3 can certify it
    (the path run_pipeline takes on the sets reuses_laplacian_factor
    selects), else on h_u's own factor.
    """
    return pair is not None and pair.operator.n_vacant == n_vacant


def _shifted_modes(pair: SpectralPair, count: int = 0):
    """sigma = SHIFT_FRACTION lambda1 of pair, and its count lowest modes.

    Each mode comes as (phi_k, 1/(lambda_k - sigma) - 1/lambda_k): added to
    (-Lap)^(-1), these make (-Lap - sigma)^(-1) on the modes' span.  Each
    coefficient is positive, since sigma < lambda1 <= lambda_k, so the sum
    stays positive definite.  The flow takes two modes, LOBPCG three.
    """
    sigma = SHIFT_FRACTION * pair.lambda1
    modes = list(zip((pair.phi1, pair.phi2, pair.phi3),
                     (pair.lambda1, pair.lambda2, pair.lambda3)))[:count]
    return sigma, [(phi, 1.0 / (lam - sigma) - 1.0 / lam) for phi, lam in modes
                   if phi is not None]


@dataclass
class HartreeSolution:
    """Converged minimizer with the spectrum of its effective operator.

    u              : minimizer, unit discrete L2 norm, nonnegative, supported
                     on the host component
    energy         : value of the energy functional at u
    e1, e2         : two lowest eigenvalues of the effective operator on the
                     full vacancy set (all components); e2 is not
                     stationary in u, so it and the depletion bound are
                     accurate only to about the flow's el_tol (6.7e-9
                     relative seen at the default), not to the eig_tol contract
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


def _mean_field(u: np.ndarray, v: InteractionPotential, N: int, h: float):
    """W = (N-1)(u^2 * v) and the interaction energy <u^2, W>/2, h_u's shift."""
    dens = u * u
    W = (N - 1) * convolve_density(dens, v)
    return W, 0.5 * grids.inner(dens, W, h)


def interaction_double_sum(u: np.ndarray, v: InteractionPotential, real) -> float:
    """double-sum v(x-y) u(x)^2 u(y)^2 with h^d per integration variable."""
    # at N = 2 the mean field's energy is half of it, exactly
    return 2.0 * _mean_field(u, v, 2, real.h)[1]


def hartree_energy(u: np.ndarray, real, component: int, v: InteractionPotential, N: int) -> float:
    """Energy functional at a unit-norm state supported on one component."""
    _check_support(u, real, component)
    kinetic = grids.inner(u, MaskedOperator(mask=real.mask, h=real.h).apply_grid(u), real.h)
    return kinetic + _mean_field(u, v, N, real.h)[1]


def assemble_effective_operator(u: np.ndarray, real, v: InteractionPotential, N: int) -> MaskedOperator:
    """Effective operator at density u^2 on the full vacancy set.

    The potential term (N-1)(u^2 * v) lives on every component (the
    convolution reaches across obstacles even though u does not), and the
    constant shift is carried on the diagonal separately.
    """
    W, shift = _mean_field(u, v, N, real.h)
    return MaskedOperator(mask=real.mask, h=real.h, potential=W, diagonal_shift=shift)


@dataclass
class FactorSpectrum:
    """h_u's two lowest eigenpairs from the Laplacian's factor, with their certificate.

    margin is lambda3 - residual3 + min(potential) - (theta2 + ||R||_2); the
    pair is certified (reason None) when it exceeds the residual floor and
    both residuals met the contract, and reason says why not otherwise.
    """

    e1: float
    e2: float
    phi1: np.ndarray
    iterations: int
    margin: float
    reason: Optional[str]

    @property
    def certified(self) -> bool:
        return self.reason is None


def laplacian_factor_spectrum(hop: MaskedOperator, pair: SpectralPair, start: np.ndarray,
                              tol: float = EIG_TOL) -> FactorSpectrum:
    """Block-2 LOBPCG for hop's two lowest eigenpairs, preconditioned by pair's factor.

    pair holds the three lowest eigenpairs of the Laplacian lap =
    pair.operator and hop is -Lap + potential - shift on lap's vacancy set.
    The start block is [start, phi2]; each step runs Rayleigh-Ritz on an
    orthonormal basis of [X, T R, P] (Knyazev, SIAM J. Sci. Comput. 23,
    2001) with the flow's preconditioner form on all three _shifted_modes,

        T r = (-Lap)^(-1) r + sum_{k=1,2,3} (1/(lambda_k - sigma) - 1/lambda_k)
              <phi_k, r> phi_k,

    not zeroed off any component, and stops when each residual is below
    tol/2 * |e|, half the contract lowest_eigenpairs checks.

    The block never leaves the components of start and phi2, since hop and
    T are block-diagonal over components, so convergence alone does not make
    theta1 <= theta2 (the Ritz values of -Lap + potential) the lowest two.
    The certificate does.  For orthonormal X with residual block R there are
    two eigenvalues of -Lap + potential within ||R||_2 of theta1 and theta2
    (Kahan; Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.2), and by
    Weyl's inequality the third one is at least lambda3 - residual3 +
    min(potential), taking lambda1..lambda3 as the Laplacian's three lowest,
    as the gap event does for lambda1, lambda2.  If that exceeds
    theta2 + ||R||_2, only the two found eigenvalues lie below it, so they
    are the global e1, e2.

    Ritz values only fall as the basis grows, so the certificate needs
    theta2 to fall below that bound.  Past the start block it fell by at
    most 3e-3 on the measured sets (README, Spectral solver), and no set
    whose start block sat at or above the bound was certified, so such a
    block is refused before any LU solve.  On the measured sets that
    happened only outside the mean-field regime, where the spread of the
    potential exceeds lambda3 - lambda2.
    """
    lap = pair.operator
    scale = hop.h ** (hop.d / 2.0)  # unit discrete norm <-> unit vector
    B = hop.matrix()
    shifted = _shifted_modes(pair, 3)[1]
    modes = np.stack([lap.restrict(phi) * scale for phi, _ in shifted], axis=1)
    coef = np.array([c for _, c in shifted])[:, None]

    def precondition(R):
        return lap.solve(R) + modes @ (coef * (modes.T @ R))

    def rayleigh_ritz(S):
        # S starts with X, so Q[:, 2:] is orthogonal to it and the new Ritz
        # vectors' part there is the next direction P, free of cancellation
        Q = np.linalg.qr(S)[0]
        BQ = B @ Q
        theta, Y = np.linalg.eigh(Q.T @ BQ)
        Y = Y[:, :2]
        return theta[:2], Q @ Y, BQ @ Y, Q[:, 2:] @ Y[2:]

    shift, floor = hop.diagonal_shift, hop.residual_floor
    min_potential = float(hop.restrict(hop.potential).min()) if hop.potential is not None else 0.0
    third_bound = pair.lambda3 - pair.residual3 + min_potential
    theta, X, BX, P = rayleigh_ritz(np.stack([lap.restrict(start), modes[:, 1]], axis=1))
    refused = not third_bound - theta[1] > floor
    for iterations in range(LOBPCG_MAX_ITER + 1):
        R = BX - X * theta
        done = np.linalg.norm(R, axis=0) <= tol / 2 * np.abs(theta - shift) + floor
        if done.all() or refused or iterations == LOBPCG_MAX_ITER:
            break
        # a converged column stays in X but gets no solve (soft locking):
        # u usually converges in 2 steps, so this halves the LU solves
        blocks = [X, precondition(R[:, ~done])] + ([P] if iterations else [])
        theta, X, BX, P = rayleigh_ritz(np.hstack(blocks))

    margin = third_bound - (theta[1] + np.linalg.norm(R, 2))
    reason = None
    if refused:
        reason = "start block's theta2 above the bound"
    elif not done.all():
        reason = f"no convergence in {LOBPCG_MAX_ITER} iterations"
    elif not margin > floor:
        reason = "not certified"
    return FactorSpectrum(
        e1=float(theta[0] - shift), e2=float(theta[1] - shift),
        phi1=grids.fix_sign(hop.embed(X[:, 0]) / scale), iterations=iterations,
        margin=float(margin), reason=reason,
    )


def effective_spectrum(hop: MaskedOperator, tol: float = EIG_TOL,
                       pair: Optional[SpectralPair] = None,
                       start: Optional[np.ndarray] = None):
    """Two lowest eigenvalues of the effective operator and its ground vector.

    pair is a Laplacian's spectrum, whose factor the flow solved with.  By
    _spans_set, laplacian_factor_spectrum may solve on that factor from
    [start, phi2] (start |phi1| by default), and its certified answer is
    taken.  Otherwise lowest_eigenpairs solves hop itself (on its own factor
    above DENSE_CUTOFF).  pair.operator's factor is released in between,
    after its last use: at most one factor is held at any time.
    """
    found = None
    if pair is None or pair.lambda3 is None:
        note = "no lambda3"
    elif not _spans_set(pair, hop.n_vacant):
        note = "pair off the vacancy set"
    else:
        before = pair.operator.solves
        found = laplacian_factor_spectrum(hop, pair, np.abs(pair.phi1) if start is None else start,
                                          tol)
        note = (f"{found.iterations} LOBPCG iterations, {pair.operator.solves - before} LU "
                f"solves, certificate margin {found.margin:.3e}")
    if pair is not None:
        pair.operator.release()
    if found is not None and found.certified:
        spectrum_logger.debug("effective spectrum on %d nodes: Laplacian's factor, %s",
                              hop.n_vacant, note)
        return found.e1, found.e2, found.phi1
    if found is not None:
        note = f"fallback after {note}: {found.reason}"
    own = lowest_eigenpairs(hop, count=2, tol=tol)
    spectrum_logger.debug("effective spectrum on %d nodes: own eigensolve (%s)",
                          hop.n_vacant, note)
    return own.lambda1, own.lambda2, own.phi1


def component_ground_state(real, component: int, eig_tol: float = EIG_TOL):
    """Dirichlet ground state of one component, unit norm, nonnegative."""
    sub = MaskedOperator(mask=real.labels == component, h=real.h)
    pair = lowest_eigenpairs(sub, count=1, tol=eig_tol)
    phi = np.clip(pair.phi1, 0.0, None)  # Perron ground state up to solver noise
    return grids.normalize(phi, real.h), pair.lambda1


def _component_mask(real, component):
    """The component's nodes; an empty component is a ValueError, before any solve."""
    comp_mask = real.labels == component
    if not np.any(comp_mask):
        raise ValueError(f"component {component} is empty")
    return comp_mask


def _initial_state(comp_mask, init, h):
    """Unit start state: init clipped to the component and to nonnegative values."""
    u = np.clip(np.where(comp_mask, np.asarray(init, dtype=float), 0.0), 0.0, None)
    return grids.normalize(u, h)


def _finalize(u, real, component, W, shift, iterations, residual, trace, energy,
              eig_tol, pair=None):
    """Spectrum of the effective operator h_u = -Lap + W - shift at the converged u.

    The caller passes the mean field W and shift it already holds, so nothing
    here convolves; pair sets the shift-invert point by _spans_set.  Only the
    full-set spectrum is solved: h_u is block-diagonal over the components
    and u is a unit trial state on the host, so e1 <= e1_host <= <u, h_u u>
    = energy, and |energy - e1| bounds a host-restricted solve's distance.
    """
    sigma = _shifted_modes(pair)[0] if _spans_set(pair, real.n_vacant) else 0.0
    hop = MaskedOperator(mask=real.mask, h=real.h, potential=W - sigma,
                         diagonal_shift=shift - sigma)
    e1, e2, gvec = effective_spectrum(hop, tol=eig_tol, pair=pair, start=u)
    comp_mask = real.labels == component
    gmass = float(np.sum(np.where(comp_mask, gvec, 0.0) ** 2)) * real.h**real.d
    return HartreeSolution(
        u=u, component=component, energy=energy, e1=e1, e2=e2, shift=shift,
        iterations=iterations, el_residual=residual, energy_trace=trace,
        quadratic_form=grids.inner(u, hop.apply_grid(u), real.h),
        ground_mass_on_component=gmass,
    )


def minimize_hartree(
    real,
    component: int,
    v: InteractionPotential,
    N: int,
    tol: float = EL_TOL,
    eig_tol: float = EIG_TOL,
    init: Optional[np.ndarray] = None,
    pair: Optional[SpectralPair] = None,
) -> HartreeSolution:
    """Minimize the component Hartree energy by projected gradient descent.

    Starting from |phi1| of pair, or from a supplied positive initial state,
    each step moves against the sphere-projected gradient, clips negative
    parts and renormalizes; the step size backtracks until the new energy is
    at most old + 8 eps max(1, |old|), so no step of the energy trace rises
    by more than that roundoff allowance.  The raw gradient contracts like
    gap/||A|| per step, hopeless on fine grids, so it is preconditioned by a
    positive definite P built on (-Lap)^(-1): the projected direction still
    descends, the rate is grid-independent, and tau = 1 is a good first step
    while the interaction is small against lambda1.  Convergence is declared
    when the Euler-Lagrange residual || h_u u - <u, h_u u> u || is below tol;
    a flow that has not converged in MAX_ITER steps raises SolverError.

    pair is the spectrum of lap = pair.operator, the Dirichlet Laplacian of
    the whole vacancy set (run_pipeline's) or, when pair is None, of the
    component alone, solved here.  P solves with lap's factor, which
    effective_spectrum releases.  -Lap is block-diagonal over components and
    u and the residual live on the component, so the whole set's stencil and
    factor act there as the component's own, and |phi1| of the whole set is
    the component's ground state whenever the component attains lambda1;
    either pair's |phi1| is the default init.

    With P = (-Lap)^(-1) the phi2 mode contracts only like lambda1/lambda2
    per step, slow on the clustered low spectra of vacancy sets.  So P adds
    the two lowest _shifted_modes, (-Lap - sigma)^(-1) on span{phi1, phi2},
    and is then zeroed off the component, where it stays positive definite,
    so the projected direction still descends.  The restriction is needed: on a
    fragmented set phi1 and phi2 may live on other components, and without
    it the correction moved mass off the host (at d=2, N=1024, nu=2,
    kappa=10, 3 of 40 flows ended with up to 45% of the mass off the host
    and the energy up to 2.3% above the minimum).  _finalize then solves
    h_u's spectrum on the whole vacancy set.
    """
    comp_mask = _component_mask(real, component)
    if pair is None:
        pair = lowest_eigenpairs(MaskedOperator(mask=comp_mask, h=real.h), count=2, tol=eig_tol)
    u = _initial_state(comp_mask, np.abs(pair.phi1) if init is None else init, real.h)
    eps = np.finfo(float).eps
    h = real.h
    # the spectrum's operator, and so its factor, serves the flow
    lap = pair.operator
    modes = _shifted_modes(pair, 2)[1]

    def precondition(r):
        z = lap.embed(lap.solve(lap.restrict(r)))
        for phi, coef in modes:
            z += (coef * grids.inner(phi, r, h)) * phi
        return np.where(comp_mask, z, 0.0)

    def energy_and_potential(w):
        # the stencil product and the mean field are returned too: the
        # gradient at an accepted state reuses the product, and h_u at the
        # converged one is built from its W and shift
        W, shift = _mean_field(w, v, N, h)
        Lw = lap.apply_grid(w)
        return grids.inner(w, Lw, h) + shift, W, shift, Lw

    energy, W, shift, Lu = energy_and_potential(u)
    trace = [energy]
    before = lap.solves

    tau = 1.0
    tau_max = 1.0
    residual = np.inf
    backtracks = 0

    for it in range(1, MAX_ITER + 1):
        g = Lu + W * u
        rayleigh = grids.inner(u, g, h)
        resid = g - rayleigh * u
        residual = grids.norm(resid, h)
        if not np.isfinite(residual):
            raise SolverError("NaN in Hartree gradient", trace=trace)
        if residual < tol:
            iterations = it - 1
            break

        z = precondition(resid)
        direction = z - grids.inner(u, z, h) * u

        accepted = False
        for _ in range(40):
            w = np.clip(u - tau * direction, 0.0, None)
            nw = grids.norm(w, h)
            if nw == 0.0:
                tau *= 0.5
                backtracks += 1
                continue
            w /= nw
            new_energy, new_W, new_shift, new_Lw = energy_and_potential(w)
            if new_energy <= energy + 8.0 * eps * max(1.0, abs(energy)):
                u, energy, W, shift, Lu = w, new_energy, new_W, new_shift, new_Lw
                trace.append(energy)
                tau = min(tau * 1.3, tau_max)
                accepted = True
                break
            tau *= 0.5
            backtracks += 1
        if not accepted:
            if residual < 100.0 * tol:
                # stuck in float noise near the minimum but residual is tiny
                iterations = it
                break
            raise SolverError(
                f"backtracking stalled at iteration {it} "
                f"(residual {residual:.3e})",
                residuals=[residual],
                trace=trace,
            )
    else:
        raise SolverError(
            f"Hartree flow did not reach residual {tol:.1e} in {MAX_ITER} "
            f"iterations (last residual {residual:.3e})",
            residuals=[residual],
            trace=trace,
        )
    logger.debug("Hartree flow converged: %d iterations, %d backtracks, %d LU solves, "
                 "residual %.3e", iterations, backtracks, lap.solves - before, residual)
    return _finalize(u, real, component, W, shift, iterations, residual, trace,
                     energy, eig_tol, pair)


def minimize_hartree_scf(real, component: int, v: InteractionPotential, N: int) -> HartreeSolution:
    """Damped self-consistent field solver, the independent cross-check.

    From the component's ground state, iterates density -> ground state of
    (-Lap + (N-1)(density * v)) on the component -> mixed density, until the
    Euler-Lagrange residual of u = sqrt(density) is below EL_TOL.
    Algorithmically unrelated to the gradient flow; by uniqueness of the
    minimizer both must agree.
    """
    comp_mask = _component_mask(real, component)
    u = _initial_state(comp_mask, component_ground_state(real, component, _SCF_EIG_TOL)[0],
                       real.h)
    dens = u * u

    residual = np.inf
    trace = []
    for it in range(1, _SCF_MAX_ITER + 1):
        W = (N - 1) * convolve_density(dens, v)
        sub = MaskedOperator(mask=comp_mask, h=real.h, potential=W)
        pair = lowest_eigenpairs(sub, count=1, tol=_SCF_EIG_TOL)
        phi = grids.normalize(np.clip(pair.phi1, 0.0, None), real.h)

        u = grids.normalize(np.sqrt(dens), real.h)
        g = sub.apply_grid(u)
        rayleigh = grids.inner(u, g, real.h)
        residual = grids.norm(g - rayleigh * u, real.h)
        trace.append(rayleigh)
        if residual < EL_TOL:
            energy = hartree_energy(u, real, component, v, N)
            W, shift = _mean_field(u, v, N, real.h)
            return _finalize(u, real, component, W, shift, it, residual, trace,
                             energy, _SCF_EIG_TOL)

        dens = (1.0 - _SCF_MIXING) * dens + _SCF_MIXING * phi * phi
        dens /= float(np.sum(dens)) * real.h**real.d

    raise SolverError(
        f"SCF did not reach residual {EL_TOL:.1e} in {_SCF_MAX_ITER} iterations "
        f"(last residual {residual:.3e})",
        residuals=[residual],
        trace=trace,
    )
