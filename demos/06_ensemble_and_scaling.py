"""Disorder ensembles and N-scaling trends.

Estimates the event probabilities at fixed N with Wilson intervals, then
sweeps N to watch lambda1 and the spectral gap creep toward their slow
(ln N)-power laws; the obstacle-free control recovers its exact N^(-2/d)
instead.  All disordered trends are exploratory: the asymptotic regime sits
far beyond desk scale.
"""

from kaclab import EnsembleSpec
from kaclab.ensemble import estimate_event_probabilities, run_ensemble, scaling_sweep

spec = EnsembleSpec(
    base={"d": 2, "rho": 1.0, "N": 64, "nu": 0.15, "r": 0.5, "h": 0.4},
    potential={"kind": "gaussian", "kappa": 0.05, "width": 0.5},
    seeds=60,
    master_seed=5,
    sigma_ref=0.5,
)
summary = estimate_event_probabilities(run_ensemble(spec))
print(f"{summary['n_ok']} clean records, {summary['n_failed']} failures")
for event in ("volume_event", "gap_event", "gap_above_reference"):
    stats = summary[event]
    print(f"P({event}) = {stats['frequency']:.3f} "
          f"[{stats['lo']:.3f}, {stats['hi']:.3f}] (Wilson 95%)")

print("\nfree-box control sweep (no disorder):")
control = scaling_sweep(EnsembleSpec(
    base={"d": 2, "rho": 1.0, "N": 256, "nu": 0.0, "r": 0.6, "h": 0.5},
    potential={"kind": "gaussian", "kappa": 0.0},
    seeds=1,
    N_values=[2**k for k in range(8, 15)],
))
fit = control["fits"]["lambda1_vs_N"]
print(f"  lambda1 ~ N^{fit['slope']:.5f} (exact exponent -2/d = -1), "
      f"R^2 = {fit['r2']:.6f}")

print("\ndisordered sweep (exploratory):")
disordered = scaling_sweep(EnsembleSpec(
    base={"d": 2, "rho": 1.0, "N": 256, "nu": 0.15, "r": 0.5, "h": 0.4},
    potential={"kind": "gaussian", "kappa": 0.05, "width": 0.5},
    seeds=5,
    master_seed=17,
    N_values=[2**8, 2**10, 2**12],
))
for row in disordered["rows"]:
    print(f"  N = {row['N']:5d}: median lambda1 = {row['median_lambda1']:.5f}, "
          f"median gap = {row['median_gap']:.5f}")
print(f"  fits: {disordered['fits']}")
