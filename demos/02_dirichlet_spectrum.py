"""Dirichlet spectrum on the vacancy set.

Computes the two lowest eigenpairs of the masked Laplacian, locates the
component that carries the ground state, and evaluates the spectral-gap event
lambda2 - lambda1 > C^2 N ||v||_1 lambda1^(d/2) that controls condensation.
"""

from kaclab import (
    DisorderConfig,
    assemble_laplacian,
    build_interaction,
    build_realization,
    check_gap_event,
    ground_state_component,
    lowest_eigenpairs,
    supnorm_bound_check,
)

config = DisorderConfig(d=2, rho=1.0, N=256, nu=0.25, r=0.5, h=0.25, seed=11)
real = build_realization(config)
print(f"grid {real.dims}, K = {real.K} components, "
      f"{real.n_vacant} vacant nodes")

pair = lowest_eigenpairs(assemble_laplacian(real))
print(f"lambda1 = {pair.lambda1:.6f}  (residual {pair.residual1:.1e})")
print(f"lambda2 = {pair.lambda2:.6f}  (residual {pair.residual2:.1e})")
print(f"spectral gap = {pair.lambda2 - pair.lambda1:.6f}")

sel = ground_state_component(real, pair)
print(f"\nground state lives on component {sel.component} "
      f"(mass outside: {sel.mass_outside:.2e}, ambiguous: {sel.multiple})")

# the sup-norm diagnostic backs the gap event's constant
check = supnorm_bound_check(pair, real.d)
print(f"sup-norm diagnostic: max|phi1|^2 = {check['lhs']:.4f} "
      f"<= C^2 lambda1^(d/2) = {check['rhs']:.4f} -> {check['ok']}")

# with the (ln N)-weakened mean-field interaction, does the gap dominate?
for kappa in (0.05, 0.5, 5.0):
    v = build_interaction("gaussian", kappa, config.N, 2, real.h, {"width": 0.5})
    ok, margin, lhs, rhs = check_gap_event(pair, v)
    print(f"kappa = {kappa:5.2f}: gap event {str(ok):5s} "
          f"(gap {lhs:.4f} vs interaction scale {rhs:.4f})")
