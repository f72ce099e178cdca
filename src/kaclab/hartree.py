"""Component-wise Hartree minimization and the effective one-particle operator.

The energy of a unit-norm state u supported on one vacancy component is

    E[u] = <u, -Lap u> + (N-1)/2 * double-sum v(x-y) u(x)^2 u(y)^2,

with h^d quadrature throughout.  Its minimizer is found by projected gradient
descent on the unit sphere with energy backtracking: a step is accepted only
when the new energy is at most old + 8 eps max(1, |old|), so the energy trace
never rises by more than that roundoff allowance, and the flow's one exit
that returns is an Euler-Lagrange residual below tol.  _shifted_inverse
owns the preconditioners and sigma: T ((-Lap - sigma)^(-1) on a Laplacian's
lowest modes, (-Lap)^(-1) off them, sigma = 0.9 lambda1) serves h_u's block
LOBPCG and the flow on sets whose host has a SuperLU factor, and P_W
((-Lap + W - sigma)^(-1) on the host, at a lagged mean field W, with sigma
up to 0.99 lambda1 where W is small) the flow on banded hosts; the flow
refreshes P_W only once W has left the factor's margin.  The
independent checks of the (unique) minimizer, a damped self-consistent field
solver and a loop evaluation of E[u], are test oracles (tests/conftest.py).
Linearizing at u gives the effective operator

    h_u = -Lap + (N-1)(u^2 * v) - shift,   shift = (N-1)/2 * double-sum,

whose ground energy on the host component equals E[u]; the shift is stored
separately so componentwise gaps are unaffected by it.  Its two lowest
eigenvalues e1, e2 on the whole vacancy set come from the Laplacian's factor
(block LOBPCG, certified with lambda3) or from h_u's own eigensolve, the one
place that shift-inverts h_u at sigma (effective_spectrum).
"""

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# unused here (MaskedOperator.solve factorizes); only perfbench/tracer.py
# keeps this name alive, reading it (its SPLU_HOLDERS) when it installs
from scipy.sparse.linalg import splu  # noqa: F401

from . import blas, grids
from .errors import SolverError
from .interaction import InteractionPotential, convolve_density
from .laplace import EIG_TOL, MaskedOperator, SpectralPair, band_factorizes, lowest_eigenpairs

# the flow's contract: the Euler-Lagrange residual of a converged u is below
# EL_TOL (every el_tol defaults to it), reached within MAX_ITER steps
EL_TOL = 1e-8
MAX_ITER = 5000
# no new energy minimum in this many steps: the flow sits at its roundoff
# floor, above tol.  Converged flows went at most 6 steps without one (README)
STALL_STEPS = 1000
# T, LOBPCG's T and h_u's own shift-invert point sit at sigma = 0.9 lambda1,
# and P_W never lower (see _shifted_inverse): below lambda1, so all stay
# positive definite.  Under T, 0.99 lambda1 slowed the flow at strong
# interaction (mean iterations 54.3 -> 141.0, 3 stalled, on
# derive_seeds(2024, 200) at d=2, N=64, nu=0.3, kappa=10), and h_u's own
# eigensolve took 21 LU solves on every ensemble_small set at either point.
SHIFT_FRACTION = 0.9
# P_W's sigma is max(0.9 lambda1, 0.99 lambda1 - max W on the host).  P_W
# leaves out the flow's nonlinear term, which is about the size of W, so
# where W is small sigma moves next to lambda1: ensemble_small's flows went
# from 6.50 to 3.23 mean iterations (max 43 -> 8).  Where W is large the
# 0.9 lambda1 floor binds; a plain 0.99 lambda1 took kappa = 20 and 30 from
# 27.1 and 54.9 to 32.4 and 60.1 (README, Library tour).
P_W_SHIFT_FRACTION = 0.99
# h_u's spectrum comes from the Laplacian's factor (block LOBPCG, certified
# by Weyl's inequality with lambda3) on sets of at least this many vacant
# nodes, per dimension; elsewhere h_u is factorized and solved by ARPACK.
# The measured crossover (README, Spectral solver) sets it; it depends only
# on d and the node count, so records stay deterministic.
FACTOR_REUSE_MIN_NODES = {2: 4000, 3: 1000}
LOBPCG_MAX_ITER = 40

logger = logging.getLogger(__name__)
# one DEBUG line per effective-spectrum solve: its path, iterations, LU
# solves, certificate margin and the reason for any fallback
spectrum_logger = logger.getChild("spectrum")


def reuses_laplacian_factor(d: int, n_vacant: int) -> bool:
    """Whether the pipeline asks the Laplacian for lambda3, which selects the LOBPCG path."""
    return n_vacant >= FACTOR_REUSE_MIN_NODES.get(d, math.inf)


def _shifted_inverse(pair: SpectralPair, count: int, host: Optional[MaskedOperator] = None,
                     W: Optional[np.ndarray] = None):
    """sigma below lambda1 of pair, a preconditioner and the operator it solves on.

    Without host, sigma = SHIFT_FRACTION lambda1 and T on pair's count
    lowest modes, which maps compressed columns of lap = pair.operator, a
    vector or a block,

        T r = (-Lap)^(-1) r + sum_k (1/(lambda_k - sigma) - 1/lambda_k) <phi_k, r> phi_k:

    (-Lap - sigma)^(-1) on the modes' span and (-Lap)^(-1) off it, positive
    definite since sigma < lambda1 <= lambda_k.  It solves on lap's factor.
    LOBPCG's preconditioner is T on three modes, and the flow's is T on two
    where it does not take P_W.

    With host, the bare operator of a component of lap's set, and the mean
    field W: P_W = (-Lap + W - sigma)^(-1) on host's nodes, solved on a new
    operator's own factor (count is unused), at

        sigma = max(SHIFT_FRACTION lambda1, P_W_SHIFT_FRACTION lambda1 - max W on host).

    It is (h_u + shift - sigma)^(-1) at the u that W was built from, so near
    the minimizer a flow step preconditioned by it is close to inverse
    iteration on h_u, up to the flow's nonlinear term, which P_W leaves out
    and which is about the size of W: so sigma nears lambda1 only where W
    is small.  Both candidates are below lambda1 <= the host's least
    eigenvalue and W >= 0, so P_W is positive definite, with a margin
    lambda1 - sigma of at least (1 - P_W_SHIFT_FRACTION) lambda1.
    """
    lap = pair.operator
    sigma = SHIFT_FRACTION * pair.lambda1
    if host is not None:
        sigma = max(sigma, P_W_SHIFT_FRACTION * pair.lambda1 - float(host.restrict(W).max()))
        op = replace(host, potential=W - sigma)
        return sigma, op.solve, op
    modes = [(phi, lam) for phi, lam in zip((pair.phi1, pair.phi2, pair.phi3)[:count],
                                            (pair.lambda1, pair.lambda2, pair.lambda3))
             if phi is not None]
    coef = np.array([1.0 / (lam - sigma) - 1.0 / lam for _, lam in modes])
    # one row per mode, scaled from unit discrete norm to unit 2-norm
    rows = np.array([lap.restrict(phi) for phi, _ in modes]) * lap.h ** (lap.d / 2.0)

    def apply(R):
        weight = coef if R.ndim == 1 else coef[:, None]
        return lap.solve(R) + rows.T @ (weight * (rows @ R))

    return sigma, apply, lap


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
    energy_trace: list
    quadratic_form: float


def _mean_field(u: np.ndarray, v: InteractionPotential, N: int, h: float):
    """W = (N-1)(u^2 * v) and the interaction energy <u^2, W>/2, h_u's shift."""
    dens = u * u
    W = (N - 1) * convolve_density(dens, v)
    return W, 0.5 * grids.inner(dens, W, h)


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
    """h_u's two lowest eigenvalues from the Laplacian's factor, with their certificate.

    margin is lambda3 - residual3 + min(potential) - (theta2 + ||R||_2); the
    pair is certified (reason None) when it exceeds the residual floor and
    both residuals met the contract, and reason says why not otherwise.
    """

    e1: float
    e2: float
    iterations: int
    margin: float
    reason: Optional[str]

    @property
    def certified(self) -> bool:
        return self.reason is None


def laplacian_factor_spectrum(hop: MaskedOperator, pair: SpectralPair, start: np.ndarray,
                              tol: float = EIG_TOL) -> FactorSpectrum:
    """Block-2 LOBPCG for hop's two lowest eigenvalues, preconditioned by pair's factor.

    pair holds the three lowest eigenpairs of the Laplacian lap =
    pair.operator and hop is -Lap + potential - shift on lap's vacancy set,
    as given: Rayleigh-Ritz does not depend on a shift.  The start block is
    [start, phi2]; each step runs Rayleigh-Ritz on an orthonormal basis of
    [X, T R, P] (Knyazev, SIAM J. Sci. Comput. 23, 2001), preconditioned by
    T of _shifted_inverse on all three modes, not zeroed off any
    component, and stops when each residual is below tol/2 * |e|, half the
    contract lowest_eigenpairs checks.

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
    B = hop.matrix()
    precondition = _shifted_inverse(pair, 3)[1]

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
    theta, X, BX, P = rayleigh_ritz(np.stack([lap.restrict(start), lap.restrict(pair.phi2)], 1))
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
    return FactorSpectrum(e1=float(theta[0] - shift), e2=float(theta[1] - shift),
                          iterations=iterations, margin=float(margin), reason=reason)


def effective_spectrum(hop: MaskedOperator, pair: SpectralPair, tol: float = EIG_TOL,
                       start: Optional[np.ndarray] = None):
    """(e1, e2), the two lowest eigenvalues of the effective operator on its whole set.

    hop is -Lap + potential - shift, potential >= 0 or None (h_u as
    assemble_effective_operator builds it).  pair is a Laplacian's spectrum,
    whose factor its eigensolve and a flow under T solved with; it spans
    hop's set when its operator has hop's mask.  If it spans and has
    lambda3, laplacian_factor_spectrum solves hop on that factor from
    [start, phi2] (start |phi1| by default), and its certified answer is
    taken.  Otherwise lowest_eigenpairs solves hop itself (on its own factor
    above laplace.DENSE_CUTOFF), shift-inverted at a spanning pair's sigma
    (only its lambda1 bounds -Lap + potential below, by Weyl), else at 0;
    only this solve sees sigma.  A pair on another set of as many nodes
    does not span: its lambda1 need not bound hop's set.  pair.operator's
    factor is released in between, after its last use: at most one factor
    is held here.
    """
    spans = np.array_equal(pair.operator.mask, hop.mask)
    found = None
    if pair.lambda3 is None:
        note = "no lambda3"
    elif not spans:
        note = "pair off the vacancy set"
    else:
        before = pair.operator.solves
        found = laplacian_factor_spectrum(hop, pair, np.abs(pair.phi1) if start is None else start,
                                          tol)
        note = (f"{found.iterations} LOBPCG iterations, {pair.operator.solves - before} LU "
                f"solves, certificate margin {found.margin:.3e}")
    pair.operator.release()
    if found is not None and found.certified:
        spectrum_logger.debug("effective spectrum on %d nodes: Laplacian's factor, %s",
                              hop.n_vacant, note)
        return found.e1, found.e2
    if found is not None:
        note = f"fallback after {note}: {found.reason}"
    if spans:
        sigma = _shifted_inverse(pair, 0)[0]
        potential = np.zeros(hop.dims) if hop.potential is None else hop.potential
        hop = replace(hop, potential=potential - sigma, diagonal_shift=hop.diagonal_shift - sigma)
    own = lowest_eigenpairs(hop, count=2, tol=tol)
    spectrum_logger.debug("effective spectrum on %d nodes: own eigensolve (%s)",
                          hop.n_vacant, note)
    return own.lambda1, own.lambda2


def component_ground_state(real, component: int, eig_tol: float = EIG_TOL):
    """Dirichlet ground state of one component, unit norm, nonnegative.

    The pipeline does not call it (the spectrum's |phi1| starts the flow);
    perfbench/tracer.py traces it by name, and tests read it.
    """
    sub = MaskedOperator(mask=real.labels == component, h=real.h)
    pair = lowest_eigenpairs(sub, count=1, tol=eig_tol)
    phi = np.clip(pair.phi1, 0.0, None)  # Perron ground state up to solver noise
    return grids.normalize(phi, real.h), pair.lambda1


@blas.one_thread()
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
    positive definite P, an approximate inverse of -Lap + W - sigma: the
    projected direction still descends, the rate is grid-independent, and
    tau = 1 is a good first step.  The one success exit is
    an Euler-Lagrange residual || h_u u - <u, h_u u> u || below tol; a step
    that no 40 halvings of tau make acceptable, STALL_STEPS steps without a
    new energy minimum, or MAX_ITER steps without that exit, raise
    SolverError with the trace and the last residual.

    pair is the spectrum of lap = pair.operator, the Dirichlet Laplacian of
    the whole vacancy set (run_pipeline's) or, when pair is None, of the
    component alone, solved here.  -Lap is block-diagonal over components
    and u and the residual live on the component, so the whole set's
    stencil and factor act there as the component's own, and |phi1| of the
    whole set is the component's ground state whenever the component
    attains lambda1; either pair's |phi1| is the default init.

    P is one of _shifted_inverse's two forms, by one rule: P_W where the
    component's factor is a banded Cholesky (laplace.band_factorizes), T
    elsewhere.  A SuperLU factor of the component does not pay for the
    steps it saves (README, Library tour), and T reuses lap's.

    - P_W = (-Lap + W - sigma)^(-1) on the component, the energy-adaptive
      Sobolev gradient of Henning and Peterseim (SIAM J. Numer. Anal. 58,
      2020): at W of the current u a step is close to inverse iteration on
      h_u, so it sees the mean field that T ignores.  Its sigma follows W
      (_shifted_inverse).  It is lagged: factored at the start state's W,
      and again at the current W only once W has moved, somewhere on the
      component, by more than the factor's margin lambda1 - sigma.  Up to
      that, -Lap + W - sigma at the current W lies between 0 and twice the
      factored matrix, so a fresh factor is never refactored, while one
      left behind by the flow is.  Contraction-based rules refactored on
      almost every step of a slowly contracting flow (README).  Its factor
      is released before the next one and before h_u's spectrum, so during
      the flow it and lap's factor are both held.
    - T on two modes, (-Lap - sigma)^(-1) on span{phi1, phi2} and
      (-Lap)^(-1) off it, on lap's factor, which effective_spectrum
      releases: with (-Lap)^(-1) alone the phi2 mode contracts only like
      lambda1/lambda2 per step, slow on the clustered low spectra of
      vacancy sets.  It is zeroed off the component, where it stays
      positive definite, so the projected direction still descends.  The
      restriction is needed: on a fragmented set phi1 and phi2 may live on
      other components, and without it the correction moved mass off the
      host (at d=2, N=1024, nu=2, kappa=10, 3 of 40 flows ended with up to
      45% of the mass off the host and the energy up to 2.3% above the
      minimum).

    effective_spectrum then solves h_u's spectrum on the whole vacancy set,
    at the converged u's mean field.  BLAS runs on one thread
    (blas.one_thread), also when it is called directly, outside run_pipeline.
    """
    comp_mask = real.labels == component
    if not np.any(comp_mask):  # before any solve
        raise ValueError(f"component {component} is empty")
    if pair is None:
        pair = lowest_eigenpairs(MaskedOperator(mask=comp_mask, h=real.h), count=2, tol=eig_tol)
    # the start state: init clipped to the component and to nonnegative values
    init = np.abs(pair.phi1) if init is None else np.asarray(init, dtype=float)
    u = grids.normalize(np.clip(np.where(comp_mask, init, 0.0), 0.0, None), real.h)
    eps = np.finfo(float).eps
    h = real.h
    lap = pair.operator
    # the host's bare operator where its factor is a banded Cholesky, for P_W
    host = MaskedOperator(mask=comp_mask, h=h)
    if not band_factorizes(host.d, host.n_vacant, host.bandwidth_bound):
        host = None

    def preconditioner(W):
        # P_W at the mean field W, or T, which does not depend on it: sigma,
        # the map and the operator whose compressed columns it maps
        return _shifted_inverse(pair, 2, *(() if host is None else (host, W)))

    def energy_and_potential(w):
        # the stencil product and the mean field are returned too: the
        # gradient at an accepted state reuses the product, and h_u at the
        # converged one is built from its W and shift
        W, shift = _mean_field(w, v, N, h)
        Lw = lap.apply_grid(w)
        return grids.inner(w, Lw, h) + shift, W, shift, Lw

    energy, W, shift, Lu = energy_and_potential(u)
    trace = [energy]
    sigma, precondition, pre = preconditioner(W)
    # the mean field on the host that P_W was factored at
    factored_at = None if host is None else host.restrict(W)
    # this flow's factorizations and LU solves: T's operator, lap, comes
    # with counts of its own, and a refreshed P_W adds those of the old one
    spent = -np.array([pre.factorizations, pre.solves])
    refreshes = 0

    tau = 1.0
    residual = np.inf
    backtracks = 0
    lowest, stalled = energy, 0

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
        if stalled >= STALL_STEPS:
            raise SolverError(f"Hartree flow stalled: no new energy minimum in {STALL_STEPS} "
                              f"steps (residual {residual:.3e})", residuals=[residual], trace=trace)
        # P_W is stale once W has moved by the margin lambda1 - sigma that
        # bounds its matrix below: up to that, the current -Lap + W - sigma
        # lies between 0 and twice the factored one
        if host is not None and (np.abs(host.restrict(W) - factored_at).max()
                                 > pair.lambda1 - sigma):
            spent += (pre.factorizations, pre.solves)
            pre.release()
            sigma, precondition, pre = preconditioner(W)
            factored_at = host.restrict(W)
            refreshes += 1

        z = np.where(comp_mask, pre.embed(precondition(pre.restrict(resid))), 0.0)
        direction = z - grids.inner(u, z, h) * u

        for _ in range(40):
            w = np.clip(u - tau * direction, 0.0, None)
            nw = grids.norm(w, h)
            if nw > 0.0:
                w /= nw
                new_energy, new_W, new_shift, new_Lw = energy_and_potential(w)
                if new_energy <= energy + 8.0 * eps * max(1.0, abs(energy)):
                    u, energy, W, shift, Lu = w, new_energy, new_W, new_shift, new_Lw
                    trace.append(energy)
                    stalled, lowest = (0, energy) if energy < lowest else (stalled + 1, lowest)
                    # tau carries over: restarting it at 1 each step left P_W flows
                    # as they are but took T's failures at kappa=20 from 13 to 46 of 200
                    tau = min(tau * 1.3, 1.0)
                    break
            tau *= 0.5
            backtracks += 1
        else:
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
    spent += (pre.factorizations, pre.solves)
    logger.debug("Hartree flow converged: %d iterations, %d backtracks, %s: %d factorizations, "
                 "%d LU solves, %d refreshes, sigma %.6g, residual %.3e", iterations, backtracks,
                 "T" if host is None else "P_W", *spent, refreshes, sigma, residual)
    if host is not None:
        pre.release()
    # T's mode rows would live on through h_u's LOBPCG (sparse_2d peak RSS
    # 160.2 -> 162.1 MB); rebuilt on each call, they cost ensemble_small 1.4%
    del precondition
    # h_u = -Lap + W - shift at the converged u, from the W and shift the flow
    # holds, so nothing convolves here.  Only its spectrum on the whole
    # vacancy set is solved: h_u is block-diagonal over the components and u
    # is a unit trial state on the host, so e1 <= e1_host <= <u, h_u u> =
    # energy, and |energy - e1| bounds a host-restricted solve's distance.
    hop = MaskedOperator(mask=real.mask, h=h, potential=W, diagonal_shift=shift)
    e1, e2 = effective_spectrum(hop, pair, tol=eig_tol, start=u)
    return HartreeSolution(
        u=u, component=component, energy=energy, e1=e1, e2=e2, shift=shift,
        iterations=iterations, el_residual=residual, energy_trace=trace,
        quadratic_form=grids.inner(u, hop.apply_grid(u), h),
    )
