"""Certificate evaluation: events, transferred gap bound, mean-field bounds."""

import ast
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kaclab import (
    DisorderConfig,
    DisorderRealization,
    assemble_laplacian,
    build_certificate,
    build_interaction,
    build_manybody_hamiltonian,
    certificate_assertions,
    check_gap_event,
    condensate_occupation,
    ground_state,
    build_realization,
    ground_state_component,
    lowest_eigenpairs,
    minimize_hartree,
    one_body_density_matrix,
    scaling_diagnostics,
    supnorm_bound_check,
    volume_fraction,
)
from kaclab import certify
from kaclab.certify import supnorm_constant

from conftest import free_box_realization, tiny_box_config


def compact(cert):
    """The bytes certificate.json holds: sorted keys, no spaces."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def fake_pair(lam1, lam2):
    return SimpleNamespace(lambda1=lam1, lambda2=lam2)


def fake_potential(l1, N, d=2):
    return SimpleNamespace(l1_norm=l1, N=N, d=d)


def pipeline(real, kappa, solve_oracle=False, oracle_N=None):
    cfg = real.config
    pair = lowest_eigenpairs(assemble_laplacian(real))
    sel = ground_state_component(real, pair)
    v = build_interaction("gaussian", kappa, cfg.N, cfg.d, real.h, {"width": 0.5})
    hs = minimize_hartree(real, sel.component, v, cfg.N)
    oracle = None
    if solve_oracle:
        N = oracle_N or cfg.N
        gs = ground_state(build_manybody_hamiltonian(real, v, N))
        rho1 = one_body_density_matrix(gs)
        n_cond = condensate_occupation(rho1, hs.u, real, N)
        oracle = {"E_qm": gs.E_qm, "n_condensate": n_cond}
    return pair, v, hs, oracle


class TestGapEvent:
    def test_zero_potential_margin_is_gap(self, free_3x3):
        pair = lowest_eigenpairs(assemble_laplacian(free_3x3))
        v = build_interaction("gaussian", 0.0, 2, 2, free_3x3.h, {"width": 0.5})
        ok, margin, lhs, rhs = check_gap_event(pair, v)
        assert ok
        assert rhs == 0.0
        assert margin == pytest.approx(pair.lambda2 - pair.lambda1, rel=1e-14)

    def test_degenerate_squares_fail_event(self):
        pair = fake_pair(3.0, 3.0)
        ok, margin, _, _ = check_gap_event(pair, fake_potential(0.1, N=5))
        assert not ok and margin <= 0.0

    def test_worked_arithmetic_example(self):
        # d=2: C^2 = 4 e^2 / (4 pi) = e^2 / pi = 2.3520598...
        c2 = supnorm_constant(2) ** 2
        assert c2 == pytest.approx(math.e**2 / math.pi, rel=1e-14)
        pair = fake_pair(0.5, 0.8)
        # N ||v||_1 = 0.02: rhs = C^2 * 0.02 * lambda1^(d/2), power 1 at d=2
        ok, margin, lhs, rhs = check_gap_event(pair, fake_potential(0.02, N=1))
        assert rhs == pytest.approx(c2 * 0.02 * 0.5, rel=1e-14)
        assert ok
        assert margin == pytest.approx(0.3 - rhs, rel=1e-12)

    def test_missing_lambda2_fails(self):
        ok, margin, _, _ = check_gap_event(fake_pair(1.0, None), fake_potential(0.1, N=2))
        assert not ok


class TestGapLowerBound:
    def test_zero_potential_bound_is_exact_gap(self, free_3x3):
        pair, v, hs, _ = pipeline(free_3x3, kappa=0.0)
        bound = check_gap_event(pair, v)[1]
        assert bound == pytest.approx(pair.lambda2 - pair.lambda1, rel=1e-14)
        assert hs.e2 - hs.e1 == pytest.approx(bound, abs=1e-9)

    def test_transfer_holds_on_fixture(self, corner_blocked_6):
        real = corner_blocked_6
        pair, v, hs, _ = pipeline(real, kappa=0.5)
        assert supnorm_bound_check(pair, 2)["ok"]
        bound = check_gap_event(pair, v)[1]
        assert hs.e2 - hs.e1 >= bound - 1e-9

    def test_bound_may_go_negative(self):
        bound = check_gap_event(fake_pair(2.0, 2.1), fake_potential(5.0, N=50))[1]
        assert bound < 0.0


class TestCertificate:
    def test_zero_coupling_certificate(self, free_3x3):
        pair, v, hs, oracle = pipeline(free_3x3, 0.0, solve_oracle=True)
        cert = build_certificate(free_3x3, pair, v, hs, oracle=oracle)
        assert cert["volume_event"]["ok"]
        assert cert["gap_event"]["ok"]
        assert cert["energy_bound"] == 0.0
        assert cert["depletion_bound"] == 0.0
        assert cert["energy_gap_observed"] <= 1e-11
        assert cert["depletion_observed"] <= 1e-10
        assert cert["gap_actual"] > 0.0
        checks = certificate_assertions(cert, eig_tol_abs=1e-9)
        assert checks and all(ok for _, ok, _ in checks)

    def test_oracle_instance_bounds_hold(self, corner_blocked_6):
        real = corner_blocked_6
        pair, v, hs, oracle = pipeline(real, kappa=1.0, solve_oracle=True)
        cert = build_certificate(real, pair, v, hs, oracle=oracle)
        assert cert["energy_gap_observed"] <= cert["energy_bound"] + 1e-9
        assert cert["depletion_observed"] <= cert["depletion_bound"] + 1e-9
        assert all(ok for _, ok, _ in certificate_assertions(cert, 1e-9))

    def test_constants_recomputed_per_dimension(self, free_3x3):
        pair, v, hs, _ = pipeline(free_3x3, 0.0)
        cert = build_certificate(free_3x3, pair, v, hs)
        assert cert["constants"]["supnorm_constant"] == pytest.approx(
            2.0 * (4.0 * math.pi) ** -0.5 * math.e, rel=1e-14
        )
        assert cert["constants"]["unit_ball_volume"] == pytest.approx(math.pi, rel=1e-14)

    def test_deterministic_bytes(self, corner_blocked_6):
        a = pipeline(corner_blocked_6, kappa=0.7, solve_oracle=True)
        b = pipeline(corner_blocked_6, kappa=0.7, solve_oracle=True)
        cert_a = build_certificate(corner_blocked_6, a[0], a[1], a[2], oracle=a[3])
        cert_b = build_certificate(corner_blocked_6, b[0], b[1], b[2], oracle=b[3])
        assert compact(cert_a).encode() == compact(cert_b).encode()

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_product_overlap_only_with_an_oracle(self, corner_blocked_6, with_oracle):
        # an ensemble certificate (no oracle) carries exactly the golden
        # schema's keys, an oracle one product_overlap besides; every value
        # is plain JSON, so the dict serializes as stored
        pair, v, hs, oracle = pipeline(corner_blocked_6, kappa=0.7, solve_oracle=with_oracle)
        cert = build_certificate(corner_blocked_6, pair, v, hs, oracle=oracle)
        golden = json.loads((Path(__file__).parent / "data" / "golden_record_schema.json")
                            .read_text())["certificate"]
        assert ("product_overlap" in cert) == with_oracle
        assert set(cert) - {"product_overlap"} == set(golden)
        assert json.loads(compact(cert)) == cert

    def test_minimizer_consistency_fields(self, corner_blocked_6):
        pair, v, hs, _ = pipeline(corner_blocked_6, kappa=0.9)
        cert = build_certificate(corner_blocked_6, pair, v, hs)
        assert cert["minimizer_consistency"]["energy_vs_quadratic_form"] < 1e-12
        assert cert["minimizer_consistency"]["energy_vs_e1_full"] < 1e-7
        assert cert["minimizer_consistency"]["el_residual"] < 1e-8

    def test_violated_inequality_detected(self, free_3x3):
        pair, v, hs, oracle = pipeline(free_3x3, 0.0, solve_oracle=True)
        cert = build_certificate(free_3x3, pair, v, hs, oracle=oracle)
        cert["energy_gap_observed"] = cert["energy_bound"] + 1.0  # corrupt on purpose
        checks = certificate_assertions(cert, 1e-12)
        failed = [name for name, ok, _ in checks if not ok]
        assert failed == ["energy_certificate"]


class TestScalingDiagnostics:
    def test_zero_potential(self, free_3x3):
        v = build_interaction("gaussian", 0.0, 2, 2, free_3x3.h, {"width": 0.5})
        diag = scaling_diagnostics(v, sigma_ref=1.0)
        assert diag["s1"] == 0.0 and diag["s2"] == 0.0
        assert diag["gap_scale_ref"] == pytest.approx(math.log(2) ** -2.0)

    def test_reference_scale_shrinks_with_N(self):
        v64 = build_interaction("gaussian", 1.0, 64, 2, 0.25, {"width": 0.5})
        d1 = scaling_diagnostics(v64, sigma_ref=0.5)
        v4096 = build_interaction("gaussian", 1.0, 4096, 2, 0.25, {"width": 0.5})
        d2 = scaling_diagnostics(v4096, sigma_ref=0.5)
        expected = (math.log(64) / math.log(4096)) ** 2.0
        assert d2["gap_scale_ref"] / d1["gap_scale_ref"] == pytest.approx(
            expected, rel=1e-12
        )


def test_volume_event_records_volume_fractions_target(criterion_56_records):
    # the event's ok, margin and target come from one float, volume_fraction's
    spec, records = criterion_56_records
    for rec in records:
        vol = rec["certificate"]["volume_event"]
        assert vol["ok"] == (vol["margin"] > 0)
        real = build_realization(DisorderConfig(**rec["config"], seed=rec["seed"]))
        fraction, in_event, target = volume_fraction(real, spec.eta)
        assert (vol["fraction"], vol["ok"]) == (fraction, in_event)
        assert np.float64(vol["target"]).tobytes() == np.float64(target).tobytes()


class TestSupnormCheck:
    def test_constant_value_d2(self):
        # 2 e (4 pi)^(-1/2) evaluated from the formula
        assert supnorm_constant(2) == pytest.approx(
            2.0 * math.e / math.sqrt(4.0 * math.pi), rel=1e-14
        )
        assert supnorm_constant(2) == pytest.approx(1.5336, abs=5e-5)

    def test_free_unit_box(self):
        real = free_box_realization(n_cells=32, L=1.0)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        check = supnorm_bound_check(pair, 2)
        # continuum phi = 2 sin(pi x) sin(pi y): sup |phi|^2 = 4
        assert check["lhs"] == pytest.approx(4.0, rel=0.02)
        expected_rhs = supnorm_constant(2) ** 2 * pair.lambda1
        assert check["rhs"] == pytest.approx(expected_rhs, rel=1e-12)
        assert check["ok"]

    def test_one_node_premise_is_computed(self):
        # one node: phi1^2 h^2 = 1 and lambda1 = 4 / h^2, as anywhere else
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        check = supnorm_bound_check(pair, 2)
        assert set(check) == {"lhs", "rhs", "ok"}
        assert check["lhs"] == pytest.approx(1.0 / real.h**2, rel=1e-14)
        assert check["rhs"] == pytest.approx(supnorm_constant(2) ** 2 * 4.0 / real.h**2,
                                             rel=1e-14)
        assert check["ok"]


def imported_names(tree):
    """Every module an import statement names, and each name it imports from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_certify_owns_the_papers_constants():
    # the numerics modules know nothing of the certificates, and the sup-norm
    # constant is named in certify alone; kaclab.constants is gone
    for path in sorted(Path(certify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem in ("laplace", "hartree", "manybody", "interaction"):
            assert not any("certify" in name.split(".") for name in imported_names(tree)), path
        if path.stem != "certify":
            names = {getattr(node, attr, None) for node in ast.walk(tree)
                     for attr in ("id", "attr", "name")}
            assert "supnorm_constant" not in names, path
    assert importlib.util.find_spec("kaclab.constants") is None
