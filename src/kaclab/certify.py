"""Quantitative certificates evaluated on a computed realization.

This module owns the paper's constants and inequalities.  Each one is
evaluated with explicit margins and built as the JSON block the certificate
stores:

  volume event    |fraction - exp(-nu omega_d r^d)| < eta
  sup-norm premise ||phi1||_inf^2 <= C^2 lambda1^(d/2)
  gap event       lambda2 - lambda1 > C^2 N ||v||_1 lambda1^(d/2),
                  with C = 2 (4 pi)^(-d/4) e recomputed from d
  gap transfer    e2 - e1 >= (lambda2 - lambda1) - C^2 N ||v||_1 lambda1^(d/2)
  energy bound    |E_qm / N - e1| <= v(0)/2            (oracle runs only)
  depletion bound 1 - n/N <= v(0) / (2 (e2 - e1))      (oracle runs only)

An oracle run also records, never asserts, the squared overlap
<u^(x N), psi>^2 of the exact ground state with the Hartree product state.

Strict inequalities between computed eigenvalues are meaningless without a
numerical budget, so every asserted check carries one: certificate_assertions
takes the run's absolute eigenvalue tolerance, which kaclab certify derives as
eig_tol max(|lambda2|, 1), and gives a gap statement twice it.  The continuum constants are used
verbatim; when the sup-norm premise fails on the lattice, the gap transfer is
recorded but not asserted.  The effective gap e2 - e1, and so the depletion
bound, is accurate only to about the Hartree flow's el_tol, not to the
eig_tol contract: e2 is not stationary in u (hartree.HartreeSolution).
"""

import math
from typing import Optional

import numpy as np

from .disorder import ETA, unit_ball_volume, volume_fraction
from .interaction import InteractionPotential


def supnorm_constant(d: int) -> float:
    """Constant 2 (4 pi)^(-d/4) e of the ground-state sup-norm bound.

    The bound reads ||phi||_inf^2 <= C^2 * lambda1^(d/2) for the normalized
    Dirichlet ground state at energy lambda1; always recomputed from d.
    """
    return 2.0 * (4.0 * math.pi) ** (-d / 4.0) * math.e


def supnorm_bound_check(pair, d: int) -> dict:
    """The sup-norm premise as the certificate's supnorm_diag block.

    Returns {lhs, rhs, ok} with lhs = max phi1^2 and rhs = C^2 lambda1^(d/2).
    The constant is the continuum one; at fixed grid spacing the bound is a
    diagnostic, not a theorem, so the gap transfer is asserted only where it
    holds.
    """
    lhs = float(np.max(pair.phi1**2))
    rhs = supnorm_constant(d) ** 2 * pair.lambda1 ** (d / 2.0)
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs)}


def check_gap_event(pair, v: InteractionPotential):
    """Spectral gap dominates the interaction scale: lhs > rhs with margin.

    Returns (ok, margin, lhs, rhs) where lhs = lambda2 - lambda1 and
    rhs = C^2 N ||v||_1 lambda1^(d/2), with N and d those of v.
    """
    if pair.lambda2 is None:
        return False, float("-inf"), 0.0, 0.0
    lhs = pair.lambda2 - pair.lambda1
    rhs = supnorm_constant(v.d) ** 2 * v.N * v.l1_norm * pair.lambda1 ** (v.d / 2.0)
    margin = lhs - rhs
    return bool(margin > 0.0), margin, lhs, rhs


def scaling_diagnostics(v: InteractionPotential, sigma_ref: Optional[float] = None) -> dict:
    """Normalized scaling ratios of the interaction, purely informational.

    With N and d those of v: s1 = ||v||_1 N (ln N)^(2/d) stays bounded under
    the mean-field scaling; s2 = v(0) (ln N)^(1+2/d) must vanish for complete
    condensation; gap_scale_ref is the reference gap scale
    sigma_ref (ln N)^-(1+2/d) when sigma_ref is given.
    """
    logN = math.log(v.N)
    return {
        "s1": v.l1_norm * v.N * logN ** (2.0 / v.d),
        "s2": v.v_at_zero * logN ** (1.0 + 2.0 / v.d),
        "gap_scale_ref": None if sigma_ref is None else sigma_ref * logN ** -(1.0 + 2.0 / v.d),
    }


def build_certificate(
    real,
    pair,
    v: InteractionPotential,
    hs,
    eta: float = ETA,
    sigma_ref: Optional[float] = None,
    oracle: Optional[dict] = None,
) -> dict:
    """Evaluate every certificate ingredient on one computed realization.

    Returns the certificate as the JSON-able dict that records and
    certificate.json store.  oracle, when given, is a dict with E_qm and
    n_condensate from the exact diagonalization, and optionally
    product_overlap, <u^(x N), psi>^2 (None when absent); only then does the
    certificate carry a product_overlap key, so ensemble records keep their
    schema.  The depletion bound needs a positive effective gap and is
    recorded as not applicable (None) otherwise.
    """
    fraction, in_vol, target = volume_fraction(real, eta)
    ok, margin, lhs, rhs = check_gap_event(pair, v)
    v0 = v.v_at_zero
    gap = None if hs.e2 is None else hs.e2 - hs.e1
    cert = {
        "volume_event": {"ok": in_vol, "fraction": fraction, "target": target,
                         "margin": eta - abs(fraction - target), "eta": eta},
        # the margin is also the lower bound on e2 - e1 that the gap transfer asserts
        "gap_event": {"ok": ok, "margin": margin, "lhs": lhs, "rhs": rhs},
        "gap_actual": gap,
        "energy_bound": 0.5 * v0,
        "energy_gap_observed": None if oracle is None else abs(oracle["E_qm"] / v.N - hs.e1),
        "depletion_bound": (0.5 * v0 / gap) if gap is not None and gap > 0 else None,
        "depletion_observed": None if oracle is None else 1.0 - oracle["n_condensate"] / v.N,
        "supnorm_diag": supnorm_bound_check(pair, real.d),
        "minimizer_consistency": {
            "energy_vs_quadratic_form": abs(hs.energy - hs.quadratic_form),
            "energy_vs_e1_full": abs(hs.energy - hs.e1),
            "el_residual": hs.el_residual,
        },
        "scaling": scaling_diagnostics(v, sigma_ref),
        "constants": {"supnorm_constant": supnorm_constant(real.d),
                      "unit_ball_volume": unit_ball_volume(real.d), "sigma_ref": sigma_ref},
    }
    if oracle is not None:
        cert["product_overlap"] = oracle.get("product_overlap")
    return cert


def certificate_assertions(cert: dict, eig_tol_abs: float = 0.0) -> list:
    """Asserted inequalities of a certificate dict as (name, ok, margin) triples.

    eig_tol_abs is the absolute eigenvalue tolerance budget of the run; gap
    statements get twice that (they subtract two eigenvalues).  Diagnostics
    that are merely reported (scaling ratios, a failed sup-norm premise, a
    negative transferred bound) never appear here.
    """
    checks = []
    budget = 2.0 * eig_tol_abs
    gap = cert["gap_actual"]

    if cert["gap_event"]["ok"] and gap is not None:
        checks.append(("positive_gap_under_gap_event", gap > -budget, gap))
    if cert["supnorm_diag"]["ok"] and gap is not None:
        slack = gap - cert["gap_event"]["margin"] + budget
        checks.append(("gap_transfer", slack >= 0.0, slack))
    if cert["energy_gap_observed"] is not None:
        slack = cert["energy_bound"] + 1e-7 + budget - cert["energy_gap_observed"]
        checks.append(("energy_certificate", slack >= 0.0, slack))
    if cert["depletion_observed"] is not None and cert["depletion_bound"] is not None:
        slack = cert["depletion_bound"] + 1e-7 + budget - cert["depletion_observed"]
        checks.append(("depletion_certificate", slack >= 0.0, slack))
    return checks
