"""Hartree minimization on the host component.

Runs the projected gradient flow, shows the monotone energy trace and the
Euler-Lagrange residual at convergence, and cross-checks the minimizer with
the independent damped self-consistent-field solver (the minimizer is unique,
so both must land on the same state).
"""

import numpy as np

from kaclab import (
    DisorderConfig,
    assemble_laplacian,
    build_interaction,
    build_realization,
    ground_state_component,
    lowest_eigenpairs,
    minimize_hartree,
    minimize_hartree_scf,
)
from kaclab import grids

config = DisorderConfig(d=2, rho=1.0, N=128, nu=0.2, r=0.5, h=0.25, seed=3)
real = build_realization(config)
pair = lowest_eigenpairs(assemble_laplacian(real))
sel = ground_state_component(real, pair)
v = build_interaction("gaussian", 0.8, config.N, 2, real.h, {"width": 0.5})

hs = minimize_hartree(real, sel.component, v, config.N)
print(f"component {hs.component}: energy = {hs.energy:.8f} "
      f"(Dirichlet lambda1 = {pair.lambda1:.8f})")
print(f"converged in {hs.iterations} iterations, "
      f"EL residual {hs.el_residual:.2e}")
trace = np.array(hs.energy_trace)
print(f"energy trace: {trace[0]:.8f} -> {trace[-1]:.8f}, "
      f"monotone: {bool(np.all(np.diff(trace) <= 1e-12))}")

print(f"\neffective operator: e1 = {hs.e1:.8f}, e2 = {hs.e2:.8f}, "
      f"shift = {hs.shift:.3e}")
print(f"|energy - e1| = {abs(hs.energy - hs.e1):.2e} "
      "(the minimizer is the effective ground state)")

scf = minimize_hartree_scf(real, sel.component, v, config.N)
dist = grids.norm(hs.u - scf.u, real.h)
print(f"\nSCF cross-check: {scf.iterations} iterations, "
      f"L2 distance between minimizers = {dist:.2e}")

if real.K > 1:
    print("\nper-component Hartree minima (diagnostic):")
    for k in range(1, real.K + 1):
        energy = minimize_hartree(real, k, v, config.N).energy
        marker = " <- host" if k == sel.component else ""
        print(f"  component {k}: {energy:.6f}{marker}")
