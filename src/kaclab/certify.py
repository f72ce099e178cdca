"""Quantitative certificates evaluated on a computed realization.

Every inequality the pipeline can check is evaluated with explicit margins
and serialized deterministically:

  volume event    |fraction - exp(-nu omega_d r^d)| < eta
  gap event       lambda2 - lambda1 > C^2 N ||v||_1 lambda1^(d/2),
                  with C = 2 (4 pi)^(-d/4) e recomputed from d
  gap transfer    e2 - e1 >= (lambda2 - lambda1) - C^2 N ||v||_1 lambda1^(d/2)
  energy bound    |E_qm / N - e1| <= v(0)/2            (oracle runs only)
  depletion bound 1 - n/N <= v(0) / (2 (e2 - e1))      (oracle runs only)

Strict inequalities between computed eigenvalues are meaningless without a
numerical budget, so every asserted check carries one derived from the solver
residuals.  The continuum constants are used verbatim; when the discrete
sup-norm diagnostic fails, the gap transfer is recorded but not asserted.
The effective gap e2 - e1, and so the depletion bound, is accurate only to
about the Hartree flow's el_tol, not to the eig_tol contract: e2 is not
stationary in u (hartree.HartreeSolution).
"""

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .constants import supnorm_constant, unit_ball_volume
from .disorder import volume_fraction
from .interaction import InteractionPotential
from .laplace import supnorm_bound_check


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


@dataclass
class Certificate:
    """All evaluated inequalities for one realization, with margins."""

    volume_event: dict
    gap_event: dict
    gap_lower_bound: float
    gap_actual: Optional[float]
    energy_bound: float
    energy_gap_observed: Optional[float]
    depletion_bound: Optional[float]
    depletion_observed: Optional[float]
    supnorm_diag: dict
    minimizer_consistency: dict
    scaling: dict
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Deterministic serialization: identical inputs, identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def build_certificate(
    real,
    pair,
    v: InteractionPotential,
    hs,
    eta: float = 0.1,
    sigma_ref: Optional[float] = None,
    oracle: Optional[dict] = None,
) -> Certificate:
    """Evaluate every certificate ingredient on one computed realization.

    oracle, when given, is a dict with E_qm and n_condensate from the exact
    diagonalization.  The depletion bound needs a positive effective gap and
    is recorded as not applicable (None) otherwise.
    """
    fraction, in_vol, target = volume_fraction(real, eta)
    vol = {
        "ok": in_vol,
        "fraction": fraction,
        "target": target,
        "margin": eta - abs(fraction - target),
        "eta": eta,
    }

    ok, margin, lhs, rhs = check_gap_event(pair, v)
    gap_ev = {"ok": ok, "margin": margin, "lhs": lhs, "rhs": rhs}

    supnorm = supnorm_bound_check(pair, real.d)
    sup = {"lhs": supnorm.lhs, "rhs": supnorm.rhs, "ok": supnorm.ok,
           "skipped": supnorm.skipped}

    v0 = v.v_at_zero
    gap = None if hs.e2 is None else hs.e2 - hs.e1

    mini = {
        "energy_vs_quadratic_form": abs(hs.energy - hs.quadratic_form),
        "energy_vs_e1_full": abs(hs.energy - hs.e1),
        "el_residual": hs.el_residual,
    }

    return Certificate(
        volume_event=vol,
        gap_event=gap_ev,
        gap_lower_bound=margin,
        gap_actual=gap,
        energy_bound=0.5 * v0,
        energy_gap_observed=None if oracle is None else abs(oracle["E_qm"] / v.N - hs.e1),
        depletion_bound=(0.5 * v0 / gap) if gap is not None and gap > 0 else None,
        depletion_observed=None if oracle is None else 1.0 - oracle["n_condensate"] / v.N,
        supnorm_diag=sup,
        minimizer_consistency=mini,
        scaling=scaling_diagnostics(v, sigma_ref),
        constants={
            "supnorm_constant": supnorm_constant(real.d),
            "unit_ball_volume": unit_ball_volume(real.d),
            "eta": eta,
            "sigma_ref": sigma_ref,
        },
    )


def certificate_assertions(cert: Certificate, eig_tol_abs: float = 0.0) -> list:
    """Asserted inequalities as (name, ok, margin) triples.

    eig_tol_abs is the absolute eigenvalue tolerance budget of the run; gap
    statements get twice that (they subtract two eigenvalues).  Diagnostics
    that are merely reported (scaling ratios, a failed sup-norm premise, a
    negative transferred bound) never appear here.
    """
    checks = []
    budget = 2.0 * eig_tol_abs

    if cert.gap_event["ok"] and cert.gap_actual is not None:
        checks.append(
            ("positive_gap_under_gap_event", cert.gap_actual > -budget, cert.gap_actual)
        )
    if cert.supnorm_diag["ok"] and cert.gap_actual is not None:
        slack = cert.gap_actual - cert.gap_lower_bound + budget
        checks.append(("gap_transfer", slack >= 0.0, slack))
    if cert.energy_gap_observed is not None:
        slack = cert.energy_bound + 1e-7 + budget - cert.energy_gap_observed
        checks.append(("energy_certificate", slack >= 0.0, slack))
    if cert.depletion_observed is not None and cert.depletion_bound is not None:
        slack = cert.depletion_bound + 1e-7 + budget - cert.depletion_observed
        checks.append(("depletion_certificate", slack >= 0.0, slack))
    return checks
