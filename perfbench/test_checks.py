"""The benchmark's correctness checks accept real outputs and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each case takes a real kaclab output, corrupts one quantity the way a broken
solver could, and expects the matching check to report it.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kaclab  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import EIG_TOL, EL_TOL, POTENTIAL  # noqa: E402


@pytest.fixture(scope="module")
def realization():
    """A clean d=2 N=64 record with its direct vacant count and ||v||_1."""
    config = kaclab.DisorderConfig(**workloads.EnsembleSmall.BASE, seed=7)
    rec = kaclab.run_realization(config, POTENTIAL, eig_tol=EIG_TOL, el_tol=EL_TOL)
    assert rec["error"] is None
    count = checks.direct_vacant_count(kaclab.sample_centers(config), config.box_side,
                                       config.grid_spacing, config.r, config.d)
    v_l1 = checks.gaussian_l1(POTENTIAL["kappa"], config.N, config.d,
                              config.grid_spacing, POTENTIAL["width"])
    return rec, count, v_l1


@pytest.fixture(scope="module")
def oracle():
    """A clean oracle instance: N=2 bosons on 22-24 connected sites."""
    config = workloads.oracle_configs(2.4, 2, 22, 24, 1)[0]
    item = workloads.oracle_item(config)
    count = checks.direct_vacant_count(kaclab.sample_centers(config), config.box_side,
                                       config.grid_spacing, config.r, config.d)
    return item, count


def problems_of(realization, mutate):
    """Problems found in a copy of the record changed by mutate(rec, box)."""
    rec, count, v_l1 = realization
    rec = copy.deepcopy(rec)
    h = checks.grid_spacing(rec["L"], rec["config"]["h"])
    mutate(rec, checks.box_eigenvalue(rec["config"]["d"], h, rec["L"]))
    return checks.check_realization(rec, count, v_l1, EIG_TOL, EL_TOL)


def test_direct_count_matches_kdtree_mask():
    for d, N, nu in ((2, 256, 0.3), (3, 128, 0.1)):
        config = kaclab.DisorderConfig(d=d, rho=1.0, N=N, nu=nu, r=0.5, h=0.4, seed=3)
        real = kaclab.build_realization(config)
        assert real.n_vacant < real.n_nodes
        assert checks.direct_vacant_count(real.centers, config.box_side, real.h,
                                          config.r, d) == real.n_vacant


def test_box_eigenvalue_is_free_box_lambda1():
    config = kaclab.DisorderConfig(d=2, rho=1.0, N=16, nu=0.0, r=0.5, h=0.4, seed=0)
    real = kaclab.build_realization(config)
    pair = kaclab.lowest_eigenpairs(kaclab.assemble_laplacian(real))
    box = checks.box_eigenvalue(2, real.h, config.box_side)
    assert pair.lambda1 == pytest.approx(box, rel=1e-10)


def test_gaussian_norms_match_built_potential():
    v = kaclab.build_interaction("gaussian", 0.05, 64, 2, 0.4, {"width": 0.5})
    assert checks.gaussian_l1(0.05, 64, 2, 0.4, 0.5) == pytest.approx(v.l1_norm, rel=1e-12)
    assert checks.gaussian_scale(0.05, 64, 2) == pytest.approx(v.v_at_zero, rel=1e-12)


def test_clean_outputs_pass(realization, oracle):
    assert checks.check_realization(*realization, EIG_TOL, EL_TOL) == []
    item, count = oracle
    assert checks.check_oracle(item, count, EIG_TOL, EL_TOL) == []


@pytest.mark.parametrize("mutate, message", [
    (lambda rec, box: rec.update(n_vacant=rec["n_vacant"] + 1), "direct recount"),
    (lambda rec, box: rec.update(lambda1=0.99 * box), "below free-box eigenvalue"),
    (lambda rec, box: rec.update(lambda2=rec["lambda1"]), "not below lambda2"),
    (lambda rec, box: rec["hartree"].update(energy=0.9 * rec["lambda1"]), "below lambda1"),
    (lambda rec, box: rec["hartree"].update(el_residual=EL_TOL), "Euler-Lagrange residual"),
    (lambda rec, box: rec["hartree"].update(e1=rec["hartree"]["energy"] + 1e-5),
     "above Hartree energy"),
    (lambda rec, box: rec["certificate"]["gap_event"].update(
        ok=not rec["certificate"]["gap_event"]["ok"]), "gap event recorded"),
])
def test_realization_faults_rejected(realization, mutate, message):
    found = problems_of(realization, mutate)
    assert any(message in p for p in found), found


def test_gap_faults_rejected(realization):
    rec, _, v_l1 = realization
    d, N = rec["config"]["d"], rec["config"]["N"]
    rhs = checks.supnorm_constant_sq(d) * N * v_l1 * rec["lambda1"] ** (d / 2.0)
    margin = rec["lambda2"] - rec["lambda1"] - rhs
    assert margin > 0.0, "fixture must satisfy the gap event"
    e1 = rec["hartree"]["e1"]

    def transfer_fault(rec, box):
        # effective gap far below the transferred bound, sup-norm premise on
        rec["hartree"]["e2"] = e1 + 0.5 * margin
        rec["certificate"]["supnorm_diag"]["lhs"] = 0.0

    found = problems_of(realization, transfer_fault)
    assert any("gap transfer violated" in p for p in found), found
    found = problems_of(realization, lambda rec, box: rec["hartree"].update(e2=e1))
    assert any("is not positive" in p for p in found), found
    found = problems_of(realization, lambda rec, box: rec["hartree"].update(
        energy=rec["hartree"]["energy"] + 1e-6))
    assert any("|energy - e1|" in p for p in found), found


@pytest.mark.parametrize("field, make, message", [
    ("n_condensate", lambda it, v0: it["N"] * (1.0 - 0.5 * v0 / (it["e2"] - it["e1"]) - 1e-3),
     "depletion certificate"),
    ("E_qm", lambda it, v0: it["N"] * (it["e1"] + 0.5 * v0) + 1e-3, "energy certificate"),
    ("E_qm", lambda it, v0: it["N"] * it["energy"] + 1e-6, "outside [N lambda1, N E_H]"),
    ("E_qm", lambda it, v0: it["N"] * it["lambda1"] - 1e-6, "outside [N lambda1, N E_H]"),
    ("trace_rho1", lambda it, v0: 1.0 + 1e-6, "tr rho1"),
])
def test_oracle_faults_rejected(oracle, field, make, message):
    item, count = oracle
    v0 = checks.gaussian_scale(item["kappa"], item["N"], item["d"])
    bad = dict(item, **{field: make(item, v0)})
    found = checks.check_oracle(bad, count, EIG_TOL, EL_TOL)
    assert any(message in p for p in found), found


def test_direct_count_sees_a_blocked_node():
    # one obstacle centered on a node blocks exactly the nodes within r
    L, h, r = 4.0, 0.4, 0.5
    center = np.array([[-L / 2 + 5 * h, -L / 2 + 5 * h]])
    n = int(round(L / h)) - 1
    within = sum(1 for i in range(-2, 3) for j in range(-2, 3)
                 if math.hypot(i * h, j * h) <= r)
    assert checks.direct_vacant_count(center, L, h, r, 2) == n * n - within
