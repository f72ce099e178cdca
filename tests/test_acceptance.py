"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single [ACCEPTANCE n] PASS line with its headline numbers
(run pytest with -s or -rA to see them) and enforces both the stated
tolerance and the stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from kaclab import (
    DisorderConfig,
    EnsembleSpec,
    assemble_laplacian,
    build_interaction,
    build_manybody_hamiltonian,
    build_realization,
    condensate_occupation,
    ground_state,
    ground_state_component,
    lowest_eigenpairs,
    minimize_hartree,
    minimize_hartree_scf,
    one_body_density_matrix,
)
from kaclab import grids
from kaclab.constants import unit_ball_volume
from kaclab.ensemble import run_ensemble, scaling_sweep
from kaclab.hartree import component_ground_state

from conftest import dense_laplacian, tiny_box_config

EIG_TOL = 1e-9


def report(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def oracle_numbers(real, v, N, u):
    gs = ground_state(build_manybody_hamiltonian(real, v, N))
    rho1 = one_body_density_matrix(gs)
    return gs.E_qm, condensate_occupation(rho1, u, real, N)


def small_fixtures():
    from conftest import tiny_box_config
    from kaclab import DisorderRealization

    free = build_realization(tiny_box_config(N=2), centers=np.zeros((0, 2)))
    corner = build_realization(
        tiny_box_config(N=2), centers=np.array([[-0.5, -0.5]])
    )
    strips = DisorderRealization.from_mask(
        tiny_box_config(N=2),
        np.array([[False, True, True], [False, False, False], [True, True, True]]),
    )
    return {"free_3x3": free, "corner_6": corner, "strips_5": strips}


def solve_instance(real, N, kappa, width=0.5):
    """Hartree + exact diagonalization on one desk-scale instance."""
    v = build_interaction("gaussian", kappa, N, 2, real.h, {"width": width})
    pair = lowest_eigenpairs(assemble_laplacian(real), tol=EIG_TOL)
    sel = ground_state_component(real, pair)
    hs = minimize_hartree(real, sel.component, v, N, eig_tol=EIG_TOL)
    E_qm, n_cond = oracle_numbers(real, v, N, hs.u)
    budget = 1e-7 + 2.0 * (pair.residual1 + (pair.residual2 or 0.0)) + hs.el_residual
    return pair, v, hs, E_qm, n_cond, budget


@pytest.fixture(scope="module")
def regression_ensemble():
    """200-realization ensemble shared by criteria 5 and 6."""
    spec = EnsembleSpec(
        base={"d": 2, "rho": 1.0, "N": 64, "nu": 0.15, "r": 0.5, "h": 0.4},
        potential={"kind": "gaussian", "kappa": 0.05, "width": 0.5},
        seeds=200,
        master_seed=2024,
        eig_tol=EIG_TOL,
    )
    start = time.time()
    records = run_ensemble(spec)
    return records, time.time() - start


def test_criterion_1_noninteracting_reduction():
    start = time.time()
    worst = {"u_dist": 0.0, "energy": 0.0, "E_qm": 0.0, "occupation": 0.0}
    fixtures = small_fixtures()
    for name in ("free_3x3", "corner_6"):
        real = fixtures[name]
        assert real.n_vacant <= 10
        for N in (2, 3):
            v = build_interaction("gaussian", 0.0, N, 2, real.h, {"width": 0.5})
            phi, lam1 = component_ground_state(real, 1)
            hs = minimize_hartree(real, 1, v, N)
            E_qm, n_cond = oracle_numbers(real, v, N, hs.u)
            worst["u_dist"] = max(worst["u_dist"], grids.norm(hs.u - phi, real.h))
            worst["energy"] = max(worst["energy"], abs(hs.energy - lam1) / lam1)
            worst["E_qm"] = max(worst["E_qm"], abs(E_qm - N * lam1) / (N * lam1))
            worst["occupation"] = max(worst["occupation"], abs(n_cond - N) / N)
    elapsed = time.time() - start
    ok = (
        worst["u_dist"] < 1e-6
        and worst["energy"] < 1e-8
        and worst["E_qm"] < 1e-8
        and worst["occupation"] < 1e-8
        and elapsed < 10.0
    )
    report(1, ok,
           f"noninteracting reduction: |u-phi1|={worst['u_dist']:.2e}, "
           f"d(energy)={worst['energy']:.2e}, d(E_qm)={worst['E_qm']:.2e}, "
           f"d(n/N)={worst['occupation']:.2e}, {elapsed:.1f}s")


def test_criterion_2_free_box_convergence_order():
    start = time.time()
    errors = []
    for n_cells in (8, 16, 32):
        config = DisorderConfig(d=2, rho=4.0, N=4, nu=0.0, r=2.0,
                                h=1.0 / n_cells, seed=0)
        real = build_realization(config, centers=np.zeros((0, 2)))
        pair = lowest_eigenpairs(assemble_laplacian(real), tol=EIG_TOL)
        errors.append(abs(pair.lambda1 - 2.0 * math.pi**2))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.time() - start
    ok = all(order >= 1.9 for order in orders) and elapsed < 30.0
    report(2, ok,
           f"free box lambda1 -> 2 pi^2/L^2 with orders {orders[0]:.3f}, "
           f"{orders[1]:.3f} (errors {errors[0]:.2e} -> {errors[2]:.2e}), "
           f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def oracle_instances():
    """24 desk-scale instances: 3 fixtures x N in {2,3,4} x couplings."""
    fixtures = small_fixtures()
    instances = []
    for name in ("free_3x3", "corner_6"):
        for N in (2, 3, 4):
            for kappa in (0.2, 1.0, 4.0):
                instances.append((name, fixtures[name], N, kappa))
    # the two-component fixture needs the gap event, hence weak coupling
    for N in (2, 3, 4):
        for kappa in (0.005, 0.02):
            instances.append(("strips_5", fixtures["strips_5"], N, kappa))
    start = time.time()
    solved = [
        (name, real, N, kappa, *solve_instance(real, N, kappa))
        for name, real, N, kappa in instances
    ]
    return solved, time.time() - start


def test_criterion_3_energy_bound(oracle_instances):
    solved, elapsed = oracle_instances
    assert len(solved) >= 20
    worst = -np.inf
    for name, real, N, kappa, pair, v, hs, E_qm, n_cond, budget in solved:
        observed = abs(E_qm / N - hs.e1)
        margin = observed - (0.5 * v.v_at_zero + budget)
        worst = max(worst, margin)
        assert margin <= 0.0, (
            f"{name} N={N} kappa={kappa}: |E/N - e1| = {observed:.3e} "
            f"exceeds v(0)/2 = {0.5 * v.v_at_zero:.3e}"
        )
    ok = elapsed < 300.0
    report(3, ok,
           f"energy bound |E_qm/N - e1| <= v(0)/2 on {len(solved)} instances, "
           f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_depletion_bound(oracle_instances):
    solved, _ = oracle_instances
    checked = 0
    worst = -np.inf
    for name, real, N, kappa, pair, v, hs, E_qm, n_cond, budget in solved:
        gap = hs.e2 - hs.e1
        if gap <= 0.0:
            continue
        checked += 1
        depletion = 1.0 - n_cond / N
        bound = 0.5 * v.v_at_zero / gap
        margin = depletion - (bound + budget)
        worst = max(worst, margin)
        assert margin <= 0.0, (
            f"{name} N={N} kappa={kappa}: depletion {depletion:.3e} exceeds "
            f"bound {bound:.3e}"
        )
    report(4, checked >= 20,
           f"depletion bound on {checked} instances with positive gap, "
           f"worst margin {worst:.2e}")


def test_criterion_5_gap_transfer_and_positive_gap(regression_ensemble):
    records, elapsed = regression_ensemble
    clean = [r for r in records if r["error"] is None]
    assert len(clean) == 200, f"{len(records) - len(clean)} pipeline failures"

    transfer_checked = positive_checked = 0
    worst_slack = np.inf
    for rec in clean:
        cert = rec["certificate"]
        scale = max(1.0, abs(rec["lambda2"]), abs(rec["hartree"]["e2"]))
        budget = 2.0 * EIG_TOL * scale
        if cert["supnorm_diag"]["ok"]:
            transfer_checked += 1
            slack = cert["gap_actual"] - (cert["gap_lower_bound"] - budget)
            worst_slack = min(worst_slack, slack)
            assert slack >= 0.0, f"gap transfer violated at seed {rec['seed']}"
        if cert["gap_event"]["ok"]:
            positive_checked += 1
            assert cert["gap_actual"] > 0.0, (
                f"gap event holds but effective gap not positive "
                f"at seed {rec['seed']}"
            )
    ok = transfer_checked >= 150 and positive_checked >= 150 and elapsed < 600.0
    report(5, ok,
           f"gap transfer on {transfer_checked}/200 (supnorm ok), positive "
           f"gap on {positive_checked}/200 gap-event realizations, worst "
           f"transfer slack {worst_slack:.2e}, ensemble {elapsed:.0f}s")


def test_criterion_6_minimizer_consistency(regression_ensemble):
    records, _ = regression_ensemble
    clean = [r for r in records if r["error"] is None]
    eligible = [
        r for r in clean
        if r["certificate"]["gap_event"]["ok"] and not r["multiple_support"]
    ]
    assert len(eligible) >= 150
    worst_e1 = worst_el = 0.0
    for rec in eligible:
        mini = rec["certificate"]["minimizer_consistency"]
        consistency = mini["energy_vs_quadratic_form"] + mini["energy_vs_e1_full"]
        worst_e1 = max(worst_e1, consistency)
        worst_el = max(worst_el, mini["el_residual"])
        assert consistency < 1e-7, f"<u,hu> != e1 at seed {rec['seed']}"
        assert mini["el_residual"] < 1e-8
    report(6, True,
           f"minimizer consistency on {len(eligible)} fixtures: worst "
           f"|<u,hu> - e1| = {worst_e1:.2e}, worst EL residual {worst_el:.2e}")


def test_criterion_7_volume_fraction_law():
    from kaclab import volume_fraction

    start = time.time()
    results = []
    for nu, r in ((0.5, 0.6), (1.0, 0.4)):
        target = math.exp(-nu * unit_ball_volume(2) * r**2)
        fracs = []
        for seed in range(1000):
            config = DisorderConfig(d=2, rho=1.0, N=36, nu=nu, r=r, h=0.2,
                                    seed=seed)
            fracs.append(volume_fraction(build_realization(config))[0])
        mean = float(np.mean(fracs))
        se = float(np.std(fracs, ddof=1)) / math.sqrt(len(fracs))
        results.append((nu, r, mean, target, abs(mean - target) / se))
    elapsed = time.time() - start
    ok = all(z < 3.0 for *_, z in results) and elapsed < 120.0
    detail = "; ".join(
        f"nu={nu},r={r}: mean={m:.5f} vs {t:.5f} ({z:.2f} se)"
        for nu, r, m, t, z in results
    )
    report(7, ok, f"volume law, 1000 seeds each: {detail}; {elapsed:.0f}s")


def test_criterion_8_oracle_equivalence():
    fixtures = small_fixtures()
    # N=1 many-body spectrum == one-body operator spectrum
    real = fixtures["corner_6"]
    v = build_interaction("gaussian", 1.7, 3, 2, real.h, {"width": 0.5})
    H1 = build_manybody_hamiltonian(real, v, N=1)
    spec_many = np.linalg.eigvalsh(H1.matrix.toarray())
    spec_one = np.linalg.eigvalsh(assemble_laplacian(real).matrix().toarray())
    diff_spec = float(np.max(np.abs(spec_many - spec_one)))

    # N=2 density matrix == first-quantized brute force on M <= 6 sites
    real = fixtures["strips_5"]
    v = build_interaction("gaussian", 1.1, 2, 2, real.h, {"width": 0.5})
    gs = ground_state(build_manybody_hamiltonian(real, v, N=2))
    rho1 = one_body_density_matrix(gs)
    A, nodes = dense_laplacian(real.mask, real.h)
    M = len(nodes)
    H2 = np.kron(A, np.eye(M)) + np.kron(np.eye(M), A)
    pairpot = np.array(
        [[v.value_at_offset(tuple(a - b for a, b in zip(x, y))) for y in nodes]
         for x in nodes]
    )
    H2 += np.diag(pairpot.ravel())
    vals, vecs = np.linalg.eigh(H2)
    psi = vecs[:, 0].reshape(M, M)
    rho1_fq = psi @ psi.T
    diff_rho = float(np.max(np.abs(rho1 - rho1_fq)))
    diff_E = abs(gs.E_qm - vals[0])

    ok = diff_spec < 1e-10 and diff_rho < 1e-12 and diff_E < 1e-12
    report(8, ok,
           f"oracle equivalence: N=1 spectrum diff {diff_spec:.2e}, N=2 rho1 "
           f"diff {diff_rho:.2e}, energy diff {diff_E:.2e}")


def test_criterion_9_algorithm_independence():
    fixtures = small_fixtures()
    rng = np.random.default_rng(404)
    suite = []
    for kappa in (0.5, 2.0):
        suite.append((fixtures["free_3x3"], 1, kappa, 3))
        suite.append((fixtures["corner_6"], 1, kappa, 3))
    suite.append((fixtures["strips_5"], 2, 0.02, 2))
    config16 = DisorderConfig(d=2, rho=10 / 16.0, N=10, nu=0.0, r=0.5,
                              h=4.0 / 17, seed=0)
    suite.append((build_realization(config16, centers=np.zeros((0, 2))), 1, 1.5, 10))
    for seed in range(4):
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.15, r=0.5, h=0.4,
                                seed=seed)
        real = build_realization(config)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        sel = ground_state_component(real, pair)
        suite.append((real, sel.component, 0.05, 64))
    assert len(suite) >= 10

    worst = 0.0
    for real, component, kappa, N in suite:
        v = build_interaction("gaussian", kappa, N, 2, real.h, {"width": 0.5})
        init = np.where(real.labels == component, rng.random(real.dims) + 0.05, 0.0)
        flow = minimize_hartree(real, component, v, N, init=init)
        scf = minimize_hartree_scf(real, component, v, N)
        worst = max(worst, grids.norm(flow.u - scf.u, real.h))
    ok = worst < 1e-6
    report(9, ok,
           f"gradient flow vs SCF with randomized inits on {len(suite)} "
           f"fixtures: worst L2 distance {worst:.2e}")


def test_criterion_10_scaling_sweep_report():
    start = time.time()
    # asserted control: obstacle-free box recovers lambda1 ~ N^(-2/d)
    control = scaling_sweep(EnsembleSpec(
        base={"d": 2, "rho": 1.0, "N": 256, "nu": 0.0, "r": 0.6, "h": 0.5},
        potential={"kind": "gaussian", "kappa": 0.0},
        seeds=1,
        N_values=[2**k for k in range(8, 15)],
    ))
    slope = control["fits"]["lambda1_vs_N"]["slope"]
    control_ok = abs(slope - (-1.0)) < 1e-3

    # exploratory: disordered sweep, report-only
    disordered = scaling_sweep(EnsembleSpec(
        base={"d": 2, "rho": 1.0, "N": 256, "nu": 0.15, "r": 0.5, "h": 0.4},
        potential={"kind": "gaussian", "kappa": 0.05, "width": 0.5},
        seeds=5,
        master_seed=7,
        N_values=[2**8, 2**10, 2**12],
    ))
    elapsed = time.time() - start
    for row in disordered["rows"]:
        print(f"    [sweep] N={row['N']}: median lambda1="
              f"{row['median_lambda1']:.5f}, median gap={row['median_gap']:.5f}, "
              f"median depletion bound={row['median_depletion_bound']:.3e}")
    print(f"    [sweep] disordered fits (exploratory, not asserted): "
          f"{disordered['fits']}")
    report(10, control_ok,
           f"free-box control slope {slope:.6f} vs -1 (|err| < 1e-3); "
           f"disordered sweep logged over N=2^8..2^12, {elapsed:.0f}s")
