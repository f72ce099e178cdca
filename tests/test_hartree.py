"""Hartree minimization, effective operator, and cross-solver agreement."""

import numpy as np
import pytest

from kaclab import (
    DisorderConfig,
    DisorderRealization,
    MaskedOperator,
    SolverError,
    assemble_effective_operator,
    assemble_laplacian,
    build_interaction,
    build_realization,
    effective_spectrum,
    ground_state_component,
    hartree_energy,
    lowest_eigenpairs,
    minimize_hartree,
    minimize_hartree_scf,
    run_pipeline,
)
from kaclab import PipelineResult, grids
from kaclab.constants import supnorm_constant
from kaclab.hartree import component_ground_state, interaction_double_sum

from conftest import dense_laplacian, tiny_box_config


def potential_for(real, kappa, width=0.5, truncation=8.0):
    cfg = real.config
    return build_interaction(
        "gaussian", kappa, cfg.N, cfg.d, real.h,
        {"width": width, "truncation": truncation},
    )


def host_effective_ground_energy(hs, real, v, N):
    """Ground energy of the effective operator restricted to the host (dense)."""
    hop = assemble_effective_operator(hs.u, real, v, N)
    host = MaskedOperator(
        mask=real.labels == hs.component, h=real.h,
        potential=hop.potential, diagonal_shift=hop.diagonal_shift,
    )
    return np.linalg.eigvalsh(host.matrix().toarray())[0] - host.diagonal_shift


def brute_double_sum(u, v):
    total = 0.0
    for x in np.ndindex(u.shape):
        for y in np.ndindex(u.shape):
            off = tuple(a - b for a, b in zip(x, y))
            total += u[x] ** 2 * u[y] ** 2 * v.value_at_offset(off)
    return total * v.h ** (2 * v.d)


class TestEnergyFunctional:
    def test_zero_coupling_is_rayleigh_quotient(self, free_3x3):
        v = potential_for(free_3x3, 0.0)
        phi, lam1 = component_ground_state(free_3x3, 1)
        energy = hartree_energy(phi, free_3x3, 1, v, N=free_3x3.config.N)
        assert energy == pytest.approx(lam1, rel=1e-12)

    def test_interaction_term_against_double_sum(self):
        real = build_realization(
            tiny_box_config(N=6, L=3.0, h=0.3, r=0.5), centers=np.zeros((0, 2))
        )
        v = potential_for(real, kappa=2.0)
        phi, lam1 = component_ground_state(real, 1)
        N = real.config.N
        energy = hartree_energy(phi, real, 1, v, N)
        expected = lam1 + 0.5 * (N - 1) * brute_double_sum(phi, v)
        assert energy == pytest.approx(expected, rel=1e-11)
        assert energy > lam1

    def test_invariant_under_sign_flip(self, free_3x3):
        v = potential_for(free_3x3, 1.0)
        phi, _ = component_ground_state(free_3x3, 1)
        e_plus = hartree_energy(phi, free_3x3, 1, v, 2)
        # the functional depends on |u|^2 only; bypass clipping via a raw call
        e_minus = hartree_energy(-phi, free_3x3, 1, v, 2)
        assert e_plus == pytest.approx(e_minus, rel=1e-14)

    def test_rejects_mass_outside_component(self, two_strip_5):
        v = potential_for(two_strip_5, 1.0)
        u = np.where(two_strip_5.mask, 1.0, 0.0)
        u = grids.normalize(u, two_strip_5.h)  # mass on both components
        with pytest.raises(ValueError, match="outside component"):
            hartree_energy(u, two_strip_5, 1, v, 2)


class TestMinimizer:
    def test_zero_coupling_recovers_dirichlet_ground_state(self, free_3x3):
        v = potential_for(free_3x3, 0.0)
        hs = minimize_hartree(free_3x3, 1, v, N=free_3x3.config.N)
        phi, lam1 = component_ground_state(free_3x3, 1)
        assert grids.norm(hs.u - phi, free_3x3.h) < 1e-6
        assert hs.energy == pytest.approx(lam1, rel=1e-8)
        assert hs.e1 == pytest.approx(lam1, rel=1e-9)

    def test_first_order_perturbation_richardson(self, free_3x3):
        # E(kappa) = lambda1 + c1 kappa + O(kappa^2); Richardson removes O(kappa)
        real = free_3x3
        N = 5
        phi, lam1 = component_ground_state(real, 1)
        v_unit = build_interaction("gaussian", 1.0, N, 2, real.h, {"width": 0.5})
        c1 = 0.5 * (N - 1) * interaction_double_sum(phi, v_unit, real)

        def slope(kappa):
            v = build_interaction("gaussian", kappa, N, 2, real.h, {"width": 0.5})
            hs = minimize_hartree(real, 1, v, N, tol=1e-11)
            return (hs.energy - lam1) / kappa

        k = 1e-3
        extrapolated = 2.0 * slope(k / 2) - slope(k)
        assert extrapolated == pytest.approx(c1, rel=1e-5)

    def test_gradient_flow_matches_scf_on_16x16_box(self):
        # independent algorithms agree on the unique minimizer
        L, N = 4.0, 10
        config = DisorderConfig(d=2, rho=N / L**2, N=N, nu=0.0, r=0.5,
                                h=L / 17, seed=0)
        real = build_realization(config, centers=np.zeros((0, 2)))
        assert real.dims == (16, 16)
        v = potential_for(real, kappa=1.5)
        hs_flow = minimize_hartree(real, 1, v, N)
        hs_scf = minimize_hartree_scf(real, 1, v, N)
        assert grids.norm(hs_flow.u - hs_scf.u, real.h) < 1e-6
        assert hs_flow.energy == pytest.approx(hs_scf.energy, abs=1e-10)

    def test_randomized_initializations_agree(self, corner_blocked_6):
        real = corner_blocked_6
        v = potential_for(real, kappa=2.0)
        rng = np.random.default_rng(11)
        reference = minimize_hartree(real, 1, v, real.config.N)
        for _ in range(3):
            init = np.where(real.mask, rng.random(real.dims) + 0.1, 0.0)
            hs = minimize_hartree(real, 1, v, real.config.N, init=init)
            assert grids.norm(hs.u - reference.u, real.h) < 1e-6

    def test_invariants_on_converged_solution(self):
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.4, r=0.4, seed=21)
        )
        pair = lowest_eigenpairs(assemble_laplacian(real))
        sel = ground_state_component(real, pair)
        v = potential_for(real, kappa=0.8)
        hs = minimize_hartree(real, sel.component, v, real.config.N)
        h = real.h
        # unit norm, positivity, support, monotone trace, EL residual
        assert grids.norm(hs.u, h) == pytest.approx(1.0, abs=1e-12)
        assert np.all(hs.u >= 0.0)
        assert np.all(hs.u[real.labels != sel.component] == 0.0)
        assert np.all(np.diff(hs.energy_trace) <= 1e-12 * max(1.0, abs(hs.energy)))
        assert hs.el_residual < 1e-8
        # ground energy of the component operator equals the minimum energy
        e1_host = host_effective_ground_energy(hs, real, v, real.config.N)
        assert e1_host == pytest.approx(hs.energy, abs=1e-9)

    def test_variational_ordering(self, corner_blocked_6):
        real = corner_blocked_6
        phi, lam1 = component_ground_state(real, 1)
        N = real.config.N
        for kappa in (0.0, 0.5, 3.0):
            v = potential_for(real, kappa)
            hs = minimize_hartree(real, 1, v, N)
            upper = lam1 + 0.5 * (N - 1) * interaction_double_sum(phi, v, real)
            assert lam1 - 1e-10 <= hs.energy <= upper + 1e-10

    def test_nonconvergence_raises_with_trace(self, corner_blocked_6):
        v = potential_for(corner_blocked_6, kappa=5.0)
        with pytest.raises(SolverError) as err:
            minimize_hartree(corner_blocked_6, 1, v, 2, tol=1e-14, max_iter=2)
        assert err.value.trace is not None


class TestEffectiveOperator:
    def test_zero_coupling_is_pure_laplacian(self, free_3x3):
        v = potential_for(free_3x3, 0.0)
        phi, _ = component_ground_state(free_3x3, 1)
        hop = assemble_effective_operator(phi, free_3x3, v, N=2)
        assert hop.diagonal_shift == 0.0
        lap = assemble_laplacian(free_3x3)
        f = np.random.default_rng(2).standard_normal(free_3x3.dims)
        np.testing.assert_allclose(hop.apply_grid(f), lap.apply_grid(f), atol=1e-13)

    def test_quadratic_form_equals_energy(self):
        real = build_realization(
            tiny_box_config(N=8, L=3.0, h=0.3, r=0.5), centers=np.zeros((0, 2))
        )
        v = potential_for(real, kappa=2.5)
        N = real.config.N
        hs = minimize_hartree(real, 1, v, N)
        hop = assemble_effective_operator(hs.u, real, v, N)
        quad = grids.inner(hs.u, hop.apply_grid(hs.u), real.h)
        assert quad == pytest.approx(hs.energy, abs=1e-12)

    def test_far_component_sees_shifted_laplacian(self, two_strip_5):
        # narrow potential cannot reach the other strip: there the effective
        # operator is the pure Laplacian minus the constant shift
        real = two_strip_5
        v = potential_for(real, kappa=3.0, width=0.1)
        hs = minimize_hartree(real, 2, v, N=2)  # host strip is component 2
        hop = assemble_effective_operator(hs.u, real, v, N=2)
        other = MaskedOperator(
            mask=real.labels == 1, h=real.h,
            potential=hop.potential, diagonal_shift=hop.diagonal_shift,
        )
        dense = other.matrix().toarray() - hop.diagonal_shift * np.eye(other.n_vacant)
        lap = MaskedOperator(mask=real.labels == 1, h=real.h).matrix().toarray()
        np.testing.assert_allclose(
            np.linalg.eigvalsh(dense),
            np.linalg.eigvalsh(lap) - hop.diagonal_shift,
            rtol=1e-12,
        )

    def test_one_node_domain(self):
        # h_u is 1x1: the general spectrum path gives e1 = energy, no e2
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(tiny_box_config(), mask)
        v = build_interaction("gaussian", 2.0, 3, 2, real.h, {"width": 0.5})
        hs = minimize_hartree(real, 1, v, N=3)
        assert hs.e2 is None
        assert hs.energy == hs.e1 == 16.60682615108455
        assert hs.ground_mass_on_component == 1.0

    def test_effective_spectrum_zero_coupling(self, two_strip_5):
        v = potential_for(two_strip_5, 0.0)
        phi, _ = component_ground_state(two_strip_5, 2)
        hop = assemble_effective_operator(phi, two_strip_5, v, N=2)
        pair = lowest_eigenpairs(assemble_laplacian(two_strip_5))
        e1, e2, _ = effective_spectrum(hop)
        assert e1 == pytest.approx(pair.lambda1, rel=1e-11)
        assert e2 == pytest.approx(pair.lambda2, rel=1e-11)

    def test_single_component_restriction_is_identity(self, corner_blocked_6):
        real = corner_blocked_6
        v = potential_for(real, kappa=1.0)
        hs = minimize_hartree(real, 1, v, N=2)
        e1_host = host_effective_ground_energy(hs, real, v, N=2)
        assert hs.e1 == pytest.approx(e1_host, abs=1e-10)
        assert hs.e1 == pytest.approx(hs.energy, abs=1e-9)

    def test_e2_is_global_when_it_sits_on_a_third_component(self):
        # 76 nodes, K=16, dense path: the host is component 10, phi2 lives on
        # component 3, and the effective operator's second eigenvalue on
        # component 1.  h_u and (-Lap)^(-1) are block-diagonal, so a block
        # eigensolver started from [u, phi2] never leaves components 10 and 3
        # and returns 9.41561: e2 - e1 2.1x too large, the depletion bound
        # 2.1x too small
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=2.0, r=0.5, h=0.4, seed=5)
        res = run_pipeline(
            PipelineResult(config), {"kind": "gaussian", "kappa": 10.0, "width": 0.5}
        )
        real, pair, hs = res.real, res.pair, res.hartree
        assert (real.n_vacant, real.K, hs.component) == (76, 16, 10)
        hop = assemble_effective_operator(hs.u, real, res.v, config.N)
        lap, nodes = dense_laplacian(real.mask, real.h)
        A = lap + np.diag(hop.potential[real.mask] - hs.shift)
        vals, vecs = np.linalg.eigh(A)
        assert hs.e2 == pytest.approx(vals[1], rel=1e-12)
        assert hs.e2 == pytest.approx(8.78822, abs=5e-6)

        labels = np.array([real.labels[x] for x in nodes])
        assert set(labels[np.abs(vecs[:, 1]) > 1e-8]) == {1}
        phi2_mass = pair.phi2[real.mask] ** 2
        assert set(labels[phi2_mass > 1e-16]) == {3}
        confined = np.isin(labels, [hs.component, 3])
        e2_confined = np.linalg.eigvalsh(A[np.ix_(confined, confined)])[1]
        assert e2_confined == pytest.approx(9.41561, abs=5e-6)
        assert (e2_confined - hs.e1) / (hs.e2 - hs.e1) > 2.1

    def test_gap_event_fixture_ground_vector_localized(self, two_strip_5):
        # weak coupling keeps the effective ground state on the host strip
        real = two_strip_5
        pair = lowest_eigenpairs(assemble_laplacian(real))
        sel = ground_state_component(real, pair)
        assert sel.component == 2
        v = potential_for(real, kappa=0.02)
        gap_rhs = (
            supnorm_constant(2) ** 2 * 2 * v.l1_norm * pair.lambda1
        )
        assert pair.lambda2 - pair.lambda1 > gap_rhs  # gap event holds
        hs = minimize_hartree(real, sel.component, v, N=2)
        assert hs.ground_mass_on_component > 0.99
        # the minimizer attains the full-domain ground energy
        hop = assemble_effective_operator(hs.u, real, v, N=2)
        dense_eigs = np.linalg.eigvalsh(hop.matrix().toarray()) - hop.diagonal_shift
        assert hs.e1 == pytest.approx(dense_eigs[0], rel=1e-10)
        assert hs.energy == pytest.approx(dense_eigs[0], abs=1e-8)
