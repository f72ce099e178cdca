"""Hartree minimization on the host component.

Runs the projected gradient flow, shows the energy trace (monotone up to the
flow's roundoff allowance) and the Euler-Lagrange residual at convergence,
and runs a second flow from a random positive start on the host (the
minimizer is unique, so both must land on the same state).
"""

import numpy as np

from kaclab import (
    DisorderConfig,
    PipelineResult,
    minimize_hartree,
    run_pipeline,
)
from kaclab import grids

config = DisorderConfig(d=2, rho=1.0, N=128, nu=0.2, r=0.5, h=0.25, seed=3)
res = run_pipeline(PipelineResult(config), {"kind": "gaussian", "kappa": 0.8, "width": 0.5})
real, pair, sel, v, hs = res.real, res.pair, res.selection, res.v, res.hartree
print(f"component {hs.component}: energy = {hs.energy:.8f} "
      f"(Dirichlet lambda1 = {pair.lambda1:.8f})")
print(f"converged in {hs.iterations} iterations, "
      f"EL residual {hs.el_residual:.2e}")
trace = hs.energy_trace
# the flow's promise: no step rises by more than 8 eps max(1, |old|)
eps = np.finfo(float).eps
monotone = all(new <= old + 8.0 * eps * max(1.0, abs(old)) for old, new in zip(trace, trace[1:]))
print(f"energy trace: {trace[0]:.8f} -> {trace[-1]:.8f}, "
      f"monotone up to 8 eps max(1, |E|) per step: {monotone}")

print(f"\neffective operator: e1 = {hs.e1:.8f}, e2 = {hs.e2:.8f}, "
      f"shift = {hs.shift:.3e}")
print(f"|energy - e1| = {abs(hs.energy - hs.e1):.2e} "
      "(the minimizer is the effective ground state)")

host = real.labels == sel.component
init = np.where(host, np.random.default_rng(0).random(real.dims) + 0.05, 0.0)
second = minimize_hartree(real, sel.component, v, config.N, init=init)
dist = grids.norm(hs.u - second.u, real.h)
print(f"\nsecond flow from a random positive start: {second.iterations} iterations, "
      f"L2 distance between minimizers = {dist:.2e}")

if real.K > 1:
    print("\nper-component Hartree minima (diagnostic):")
    for k in range(1, real.K + 1):
        energy = minimize_hartree(real, k, v, config.N).energy
        marker = " <- host" if k == sel.component else ""
        print(f"  component {k}: {energy:.6f}{marker}")
