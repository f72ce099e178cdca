"""Certificates on one realization.

Runs the whole pipeline and evaluates every quantitative inequality with its
margin: the typical-volume event, the spectral-gap event, the transferred
lower bound for the effective gap, and the mean-field energy/depletion bound
values that an exact oracle run would be checked against.
"""

import json

from kaclab import (
    DisorderConfig,
    PipelineResult,
    build_certificate,
    certificate_assertions,
    run_pipeline,
)

config = DisorderConfig(d=2, rho=1.0, N=96, nu=0.2, r=0.5, h=0.25, seed=21)
res = run_pipeline(PipelineResult(config), {"kind": "gaussian", "kappa": 0.3, "width": 0.5})
cert = build_certificate(res.real, res.pair, res.v, res.hartree, eta=0.1, sigma_ref=1.0)
print(json.dumps(cert, indent=2, sort_keys=True))

print("\nasserted inequalities:")
for name, ok, margin in certificate_assertions(cert, eig_tol_abs=1e-9):
    print(f"  {'PASS' if ok else 'FAIL'} {name:32s} margin = {margin:.3e}")
