"""Hartree minimization, effective operator, and cross-solver agreement."""

import ast
import logging
import re
from dataclasses import replace
from pathlib import Path

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
    lowest_eigenpairs,
    minimize_hartree,
    run_pipeline,
)
from kaclab import PipelineResult, grids, hartree, laplace
from kaclab.certify import supnorm_constant
from kaclab.hartree import (
    component_ground_state,
    laplacian_factor_spectrum,
    reuses_laplacian_factor,
)
from kaclab.laplace import DENSE_CUTOFF

from conftest import (brute_double_sum, dense_laplacian, loop_hartree_energy, scf_minimizer,
                      tiny_box_config)


def potential_for(real, kappa, width=0.5, truncation=8.0):
    cfg = real.config
    return build_interaction(
        "gaussian", kappa, cfg.N, cfg.d, real.h,
        {"width": width, "truncation": truncation},
    )


def within_roundoff_allowance(trace):
    """The flow's promise: no step rises by more than 8 eps max(1, |old|)."""
    eps = np.finfo(float).eps
    return all(new <= old + 8.0 * eps * max(1.0, abs(old)) for old, new in zip(trace, trace[1:]))


def host_effective_ground_energy(hs, real, v, N):
    """Ground energy of the effective operator restricted to the host (dense)."""
    hop = assemble_effective_operator(hs.u, real, v, N)
    host = MaskedOperator(
        mask=real.labels == hs.component, h=real.h,
        potential=hop.potential, diagonal_shift=hop.diagonal_shift,
    )
    return np.linalg.eigvalsh(host.matrix().toarray())[0] - host.diagonal_shift


def mass_on_component(hs, real, v, N):
    """Mass of h_u's ground vector on the host component (dense)."""
    hop = assemble_effective_operator(hs.u, real, v, N)
    gvec = np.linalg.eigh(hop.matrix().toarray())[1][:, 0]
    return float(np.sum(gvec[real.labels[real.mask] == hs.component] ** 2))


class TestEnergyFunctional:
    def test_zero_coupling_is_rayleigh_quotient(self, free_3x3):
        v = potential_for(free_3x3, 0.0)
        phi, lam1 = component_ground_state(free_3x3, 1)
        energy = loop_hartree_energy(phi, free_3x3, v, N=free_3x3.config.N)
        assert energy == pytest.approx(lam1, rel=1e-12)

    def test_interaction_term_against_double_sum(self):
        real = build_realization(
            tiny_box_config(N=6, L=3.0, h=0.3, r=0.5), centers=np.zeros((0, 2))
        )
        v = potential_for(real, kappa=2.0)
        _, lam1 = component_ground_state(real, 1)
        N = real.config.N
        # the flow's energy, by FFT convolution, is the loop functional at its u
        hs = minimize_hartree(real, 1, v, N)
        assert hs.energy == pytest.approx(loop_hartree_energy(hs.u, real, v, N), rel=1e-11)
        assert hs.energy > lam1


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
        c1 = 0.5 * (N - 1) * brute_double_sum(phi, v_unit)

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
        u_scf, energy_scf, _ = scf_minimizer(real, 1, v, N)
        assert grids.norm(hs_flow.u - u_scf, real.h) < 1e-6
        assert hs_flow.energy == pytest.approx(energy_scf, abs=1e-10)

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
        assert within_roundoff_allowance(hs.energy_trace)
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
            upper = lam1 + 0.5 * (N - 1) * brute_double_sum(phi, v)
            assert lam1 - 1e-10 <= hs.energy <= upper + 1e-10

    def test_nonconvergence_raises_with_trace(self, corner_blocked_6, monkeypatch):
        monkeypatch.setattr(hartree, "MAX_ITER", 2)
        v = potential_for(corner_blocked_6, kappa=5.0)
        with pytest.raises(SolverError, match="did not reach residual") as err:
            minimize_hartree(corner_blocked_6, 1, v, 2, tol=1e-14)
        # the start energy and one per step, and the last residual
        assert len(err.value.trace) == 3 and within_roundoff_allowance(err.value.trace)
        assert len(err.value.residuals) == 1 and err.value.residuals[0] >= 1e-14

    def test_stalled_backtracking_raises_even_near_tol(self, corner_blocked_6, monkeypatch):
        # every trial state's energy is made one unit higher, so no step is
        # accepted; a stall raises with the start energy and the residual,
        # also when that residual is within 100 tol (there is no second exit)
        mean_field, calls = hartree._mean_field, []

        def rising(u, v, N, h):
            W, shift = mean_field(u, v, N, h)
            calls.append(None)
            return W, shift + (len(calls) > 1)

        monkeypatch.setattr(hartree, "_mean_field", rising)
        real, v = corner_blocked_6, potential_for(corner_blocked_6, kappa=5.0)
        with pytest.raises(SolverError, match="backtracking stalled at iteration 1") as err:
            minimize_hartree(real, 1, v, real.config.N, tol=0.0)
        (residual,) = err.value.residuals
        assert residual > 0.0 and len(err.value.trace) == 1
        calls.clear()
        with pytest.raises(SolverError, match="backtracking stalled at iteration 1") as err:
            minimize_hartree(real, 1, v, real.config.N, tol=residual / 10.0)
        assert err.value.residuals == [residual]

    def test_nan_mean_field_raises_with_trace(self, corner_blocked_6, monkeypatch):
        def nan_field(u, v, N, h):
            return np.full(u.shape, np.nan), 0.0

        monkeypatch.setattr(hartree, "_mean_field", nan_field)
        real, v = corner_blocked_6, potential_for(corner_blocked_6, kappa=5.0)
        with pytest.raises(SolverError, match="NaN in Hartree gradient") as err:
            minimize_hartree(real, 1, v, real.config.N)
        assert len(err.value.trace) == 1  # the start energy

    def test_tol_below_the_roundoff_floor_stalls(self):
        # the residual's roundoff floor on this set is about 3e-15: tol=1e-14
        # converges, tol=1e-15 cannot, and the flow stops STALL_STEPS accepted
        # steps after its last new energy minimum, long before MAX_ITER
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.3, r=0.5, h=0.4, seed=1)
        real = build_realization(config)
        v = potential_for(real, kappa=1.0)
        assert minimize_hartree(real, 1, v, 64, tol=1e-14).iterations < 100
        with pytest.raises(SolverError, match="stalled: no new energy minimum in "
                                              f"{hartree.STALL_STEPS} steps") as err:
            minimize_hartree(real, 1, v, 64, tol=1e-15)
        trace = err.value.trace
        assert len(trace) - 1 - int(np.argmin(trace)) == hartree.STALL_STEPS
        assert within_roundoff_allowance(trace) and err.value.residuals[0] >= 1e-15

    def test_one_stencil_product_per_energy_evaluation(self, monkeypatch):
        # the gradient at an accepted state reuses the stencil product of its
        # energy evaluation, so until h_u's spectrum the flow applies lap
        # exactly as often as it convolves; h_u is built from the last
        # accepted W and shift, so nothing convolves from there on
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.4, r=0.4, seed=21)
        )
        lap = assemble_laplacian(real)
        pair = lowest_eigenpairs(lap)
        sel = ground_state_component(real, pair)
        v = potential_for(real, kappa=0.8)
        counts = {"apply_grid": 0, "convolve_density": 0}
        at_spectrum = {}
        apply_grid, convolve = lap.apply_grid, hartree.convolve_density
        spectrum = hartree.effective_spectrum

        def counting_apply_grid(f):
            counts["apply_grid"] += 1
            return apply_grid(f)

        def counting_convolve(dens, pot):
            counts["convolve_density"] += 1
            return convolve(dens, pot)

        def spy_spectrum(*args, **kwargs):
            at_spectrum.update(counts)
            return spectrum(*args, **kwargs)

        lap.apply_grid = counting_apply_grid
        monkeypatch.setattr(hartree, "convolve_density", counting_convolve)
        monkeypatch.setattr(hartree, "effective_spectrum", spy_spectrum)
        hs = minimize_hartree(real, sel.component, v, real.config.N, pair=pair)
        assert hs.iterations > 1
        assert at_spectrum["convolve_density"] >= hs.iterations + 1
        assert at_spectrum["apply_grid"] == at_spectrum["convolve_density"]
        assert counts["convolve_density"] == at_spectrum["convolve_density"]


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
        # the flow's h_u, from its own mean field, is this operator
        assert hs.shift == pytest.approx(hop.diagonal_shift, rel=1e-15)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        assert (hs.e1, hs.e2) == pytest.approx(effective_spectrum(hop, pair), rel=1e-12)

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
        assert mass_on_component(hs, real, v, 3) == 1.0

    def test_effective_spectrum_zero_coupling(self, two_strip_5):
        v = potential_for(two_strip_5, 0.0)
        phi, _ = component_ground_state(two_strip_5, 2)
        hop = assemble_effective_operator(phi, two_strip_5, v, N=2)
        pair = lowest_eigenpairs(assemble_laplacian(two_strip_5))
        e1, e2 = effective_spectrum(hop, pair)
        assert e1 == pytest.approx(pair.lambda1, rel=1e-11)
        assert e2 == pytest.approx(pair.lambda2, rel=1e-11)
        # a spanning pair's sigma is folded into a copy of an operator with no potential too
        bare = effective_spectrum(assemble_laplacian(two_strip_5), pair=pair)
        assert bare == pytest.approx((pair.lambda1, pair.lambda2), rel=1e-11)

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
        assert mass_on_component(hs, real, v, 2) > 0.99
        # the minimizer attains the full-domain ground energy
        hop = assemble_effective_operator(hs.u, real, v, N=2)
        dense_eigs = np.linalg.eigvalsh(hop.matrix().toarray()) - hop.diagonal_shift
        assert hs.e1 == pytest.approx(dense_eigs[0], rel=1e-10)
        assert hs.energy == pytest.approx(dense_eigs[0], abs=1e-8)


# d=2, N=1024, nu=2, kappa=10, the first 40 seeds of master seed 7: on these
# three, phi1 or phi2 reaches other components, and the two-mode correction
# not zeroed off the host moved up to 45% of u's mass there (energy up to
# 2.3% off the minimum)
FRAGMENTED = {"d": 2, "rho": 1.0, "N": 1024, "nu": 2.0, "r": 0.5, "h": 0.4}
LEAKING_SEEDS = (1723312680387767620, 3394594863205772940, 1756388568355844705)


class TestSpectrumSteeredFlow:
    def test_criterion_56_flow_iterations(self, criterion_56_records):
        # P = (-Lap)^(-1) alone took 31.3 iterations on average and 386 at
        # most, T 15.7 and 94, P_W at sigma = 0.9 lambda1 6.5 and 43; with
        # sigma following the mean field, 3.23 and 8
        _, records = criterion_56_records
        iterations = [r["hartree"]["iterations"] for r in records if r["error"] is None]
        assert len(iterations) == 200
        assert np.mean(iterations) <= 4 and max(iterations) <= 10

    @pytest.mark.parametrize("seed", LEAKING_SEEDS)
    def test_mode_correction_stays_on_the_host(self, seed):
        config = DisorderConfig(**FRAGMENTED, seed=seed)
        res = run_pipeline(
            PipelineResult(config), {"kind": "gaussian", "kappa": 10.0, "width": 0.5}
        )
        real, hs = res.real, res.hartree
        off_host = np.where(real.labels == hs.component, 0.0, hs.u)
        assert float(np.sum(off_host**2)) * real.h**real.d < 1e-12
        plain = minimize_hartree(real, hs.component, res.v, config.N,
                                 init=np.abs(res.pair.phi1))
        assert hs.energy == pytest.approx(plain.energy, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 10.0])
    def test_shifted_solves_match_dense_effective_operator(self, kappa):
        # 286 nodes on 3 components: h_u's ARPACK solve shift-inverts at
        # 0.9 lambda1, and at kappa = 0 h_u is -Lap itself
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.3, r=0.5, h=0.4, seed=0)
        real = build_realization(config)
        lap = assemble_laplacian(real)
        pair = lowest_eigenpairs(lap)
        sel = ground_state_component(real, pair)
        assert real.n_vacant > DENSE_CUTOFF and real.K > 1
        v = potential_for(real, kappa)
        hs = minimize_hartree(real, sel.component, v, config.N, pair=pair)
        assert within_roundoff_allowance(hs.energy_trace)
        hop = assemble_effective_operator(hs.u, real, v, config.N)
        A, _ = dense_laplacian(real.mask, real.h)
        vals = np.linalg.eigvalsh(A + np.diag(hop.potential[real.mask])) - hs.shift
        assert (hs.e1, hs.e2) == pytest.approx(vals[:2], rel=1e-12)
        if kappa == 0.0:
            assert (hs.e1, hs.e2) == pytest.approx((pair.lambda1, pair.lambda2), rel=1e-12)

    def test_component_pair_shift_inverts_h_u_below_the_set(self):
        # demo 03's set: 1,705 nodes, K=2, host 1.  Without pair the flow
        # solves component 2's own spectrum (2 nodes, lambda1 = 47.46), but
        # h_u lives on the whole set, whose lambda1 is 0.624: shift-inverted
        # at 0.9 * 47.46, its ARPACK solve returned e1 = 42.55, not 0.5468
        config = DisorderConfig(d=2, rho=1.0, N=128, nu=0.2, r=0.5, h=0.25, seed=3)
        real = build_realization(config)
        assert (real.n_vacant, real.K) == (1705, 2) and real.n_vacant > DENSE_CUTOFF
        assert np.count_nonzero(real.labels == 2) == 2
        v = potential_for(real, kappa=0.8)
        hs = minimize_hartree(real, 2, v, config.N)
        hop = assemble_effective_operator(hs.u, real, v, config.N)
        A, _ = dense_laplacian(real.mask, real.h)
        vals = np.linalg.eigvalsh(A + np.diag(hop.potential[real.mask])) - hs.shift
        assert (hs.e1, hs.e2) == pytest.approx(vals[:2], rel=1e-10)

    def test_empty_component_rejected_before_any_eigensolve(self, monkeypatch, two_strip_5):
        def eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the empty-component check")

        monkeypatch.setattr(hartree, "lowest_eigenpairs", eigensolve)
        real = two_strip_5
        v = potential_for(real, kappa=1.0)
        with pytest.raises(ValueError, match=f"component {real.K + 1} is empty"):
            minimize_hartree(real, real.K + 1, v, 2)

    def test_banded_host_flow_factors_p_w_not_the_laplacian(self, monkeypatch, caplog,
                                                             factors):
        # 2,834 nodes, a banded host: the flow solves on P_W's factors alone,
        # one at the start state's W and one per refresh, and releases each;
        # the spectrum's factor gets no solve, and the last factor is h_u's.
        # Each sigma is _shifted_inverse's, at the W it factors
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        config = DisorderConfig(d=2, rho=1.0, N=512, nu=0.15, r=0.5, h=0.4, seed=3)
        real = build_realization(config)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        (lap_factor,) = factors
        assert real.n_vacant == 2834 and lap_factor.op is pair.operator
        host = real.labels == 1
        op = MaskedOperator(mask=host, h=real.h)
        assert hartree.band_factorizes(op.d, op.n_vacant, op.bandwidth_bound)
        built = []
        shifted_inverse = hartree._shifted_inverse

        def recording(*args):
            built.append(shifted_inverse(*args))
            return built[-1]

        monkeypatch.setattr(hartree, "_shifted_inverse", recording)
        v = potential_for(real, 0.5)
        before = lap_factor.solves
        hs = minimize_hartree(real, 1, v, config.N, pair=pair)
        assert lap_factor.solves == before
        flow = factors[1:-1]
        p_w = [b for b in built if b[2] is not pair.operator]
        assert len(flow) == len(p_w) >= 1
        assert [f.op for f in flow] == [b[2] for b in p_w]
        assert sum(f.solves for f in flow) == hs.iterations
        assert all(np.array_equal(f.op.mask, host) and f.op._factor is None for f in flow)
        # the first is -Lap + W - sigma at the start state |phi1|
        start = grids.normalize(np.where(host, np.abs(pair.phi1), 0.0), real.h)
        W0 = assemble_effective_operator(start, real, v, config.N).potential
        sigma = shifted_inverse(pair, 2, op, W0)[0]
        assert p_w[0][0] == sigma < pair.lambda1
        assert (flow[0].op.matrix() != MaskedOperator(host, real.h, W0 - sigma).matrix()).nnz == 0
        (line,) = [r.getMessage() for r in caplog.records if r.name == "kaclab.hartree"]
        assert (f"P_W: {len(flow)} factorizations, {hs.iterations} LU solves, "
                f"{len(flow) - 1} refreshes, sigma {p_w[-1][0]:.6g}") in line
        # the last is h_u's SPD part -Lap + W - sigma, on the whole set, at
        # the sigma of T and of h_u's own eigensolve
        sigma = shifted_inverse(pair, 0)[0]
        W = assemble_effective_operator(hs.u, real, v, config.N).potential
        expected = MaskedOperator(real.mask, real.h, W - sigma).matrix()
        assert (factors[-1].op.matrix() != expected).nnz == 0

    # d=2 N=64: at nu=0.3 kappa=10 a flow whose residual contracts by about
    # 0.995 per step however fresh P_W is (a refresh whenever a step
    # contracted by less than 0.8 made 931 factorizations in 937 steps), and
    # at nu=0.6 kappa=30 a short flow that refreshes P_W four times
    @pytest.mark.parametrize("nu, kappa, seed", [(0.3, 10.0, 3758095861278844018),
                                                 (0.6, 30.0, 5542274469057483708)])
    def test_p_w_is_refreshed_only_once_w_leaves_its_margin(self, monkeypatch, caplog,
                                                            nu, kappa, seed):
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        built = []
        shifted_inverse = hartree._shifted_inverse

        def recording(pair, count, host=None, W=None):
            out = shifted_inverse(pair, count, host, W)
            built.append((out[0], None if host is None else host.restrict(W)))
            return out

        monkeypatch.setattr(hartree, "_shifted_inverse", recording)
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=nu, r=0.5, h=0.4, seed=seed)
        res = run_pipeline(PipelineResult(config), gaussian(kappa))
        hs = res.hartree
        (line,) = [r.getMessage() for r in caplog.records if r.name == "kaclab.hartree"]
        factorizations = int(re.search(r"P_W: (\d+) factorizations", line).group(1))
        assert factorizations <= hs.iterations / 2 + 1
        assert f"{factorizations - 1} refreshes" in line
        # each refresh factors a W that left the last factor's margin
        p_w = [(sigma, W) for sigma, W in built if W is not None]
        assert len(p_w) == factorizations
        assert hs.iterations > 500 if kappa == 10.0 else len(p_w) == 5
        for (sigma, old), (_, new) in zip(p_w, p_w[1:]):
            assert np.abs(new - old).max() > res.pair.lambda1 - sigma

    def test_p_w_and_t_find_the_same_minimizer(self, monkeypatch):
        # 324 nodes: the banded host takes P_W; with no band allowed, T on the
        # Laplacian's factor.  Both stop at el_tol on the unique minimizer
        results = []
        for band_max_work in (laplace.BAND_MAX_WORK, {}):
            monkeypatch.setattr(laplace, "BAND_MAX_WORK", band_max_work)
            real = build_realization(OWN_PATH_324)
            v = potential_for(real, 1.0)
            pair = lowest_eigenpairs(assemble_laplacian(real))
            component = ground_state_component(real, pair).component
            host = MaskedOperator(mask=real.labels == component, h=real.h)
            assert hartree.band_factorizes(host.d, host.n_vacant,
                                           host.bandwidth_bound) == bool(band_max_work)
            results.append(minimize_hartree(real, component, v, OWN_PATH_324.N, pair=pair))
        mean_field, plain = results
        assert mean_field.iterations < plain.iterations
        assert mean_field.energy == pytest.approx(plain.energy, rel=1e-13)
        assert mean_field.e1 == pytest.approx(plain.e1, rel=1e-11)

    @pytest.mark.parametrize("kappa, nu, seed", [
        (20.0, 0.3, 129391323648738835),
        (20.0, 0.3, 1863838724005211432),
        (20.0, 0.3, 13090600771037649262),
        (30.0, 0.6, 15007993948982913857),
        (30.0, 0.6, 8054818535886222723),
        (30.0, 0.6, 9190995425512964991),
    ])
    def test_strong_coupling_converges(self, kappa, nu, seed):
        # seeds of derive_seeds(2024, 200) at kappa 20 and derive_seeds(2024,
        # 60) at kappa 30 on which T stopped at its roundoff floor (the first
        # after MAX_ITER steps, the others stalled after STALL_STEPS); P_W
        # reaches the default el_tol in 11 to 107 steps
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=nu, r=0.5, h=0.4, seed=seed)
        hs = run_pipeline(PipelineResult(config), gaussian(kappa)).hartree
        assert hs.el_residual < hartree.EL_TOL and hs.iterations <= 120
        assert within_roundoff_allowance(hs.energy_trace)

    @pytest.mark.parametrize("kappa", [0.5, 10.0])
    def test_energy_trace_steps_within_roundoff_allowance(self, kappa, corner_blocked_6):
        # a step is accepted when new <= old + 8 eps max(1, |old|), the rule
        # the docstrings state; with and without the spectrum's pair
        traces = [minimize_hartree(corner_blocked_6, 1, potential_for(corner_blocked_6, kappa),
                                   corner_blocked_6.config.N).energy_trace]
        for seed in (0, 1):
            config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.3, r=0.5, h=0.4, seed=seed)
            res = run_pipeline(PipelineResult(config), gaussian(kappa))
            traces.append(res.hartree.energy_trace)
        for trace in traces:
            assert len(trace) > 2 and within_roundoff_allowance(trace)

    def test_one_debug_line_per_converged_flow(self, caplog, corner_blocked_6):
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        real = corner_blocked_6
        hs = minimize_hartree(real, 1, potential_for(real, kappa=2.0), real.config.N)
        (record,) = [r for r in caplog.records if r.name == "kaclab.hartree"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"{hs.iterations} iterations" in message and "backtracks" in message
        # one preconditioner solve per step taken, on P_W's factors (the
        # host is banded)
        assert re.search(rf"P_W: [1-9]\d* factorizations, {hs.iterations} LU solves", message)
        assert f"residual {hs.el_residual:.3e}" in message


# d=3, N=128: 1,664 nodes, above the 1,000-node crossover in 3D, so the
# pipeline asks for lambda3 and takes h_u's spectrum from the Laplacian's
# factor; certified at kappa 0 (no iteration) and at kappa 10 (20 iterations)
D3_ABOVE_CROSSOVER = DisorderConfig(d=3, rho=1.0, N=128, nu=0.05, r=0.5, h=0.4,
                                    seed=7778828159576237216)
# d=2, N=64: 324 nodes, below the crossover and above DENSE_CUTOFF, so h_u's
# own ARPACK eigensolve, shift-inverted at the pipeline pair's sigma
OWN_PATH_324 = DisorderConfig(d=2, rho=1.0, N=64, nu=0.15, r=0.5, h=0.4, seed=1)
# the dense-path instance of test_e2_is_global_when_it_sits_on_a_third_component
THIRD_COMPONENT_76 = DisorderConfig(d=2, rho=1.0, N=64, nu=2.0, r=0.5, h=0.4, seed=5)


def gaussian(kappa):
    return {"kind": "gaussian", "kappa": kappa, "width": 0.5}


def fallback_setup(config, kappa):
    """The flow given the Laplacian's three lowest pairs, and the parts of h_u."""
    real = build_realization(config)
    v = potential_for(real, kappa)
    pair = lowest_eigenpairs(assemble_laplacian(real), count=3)
    sel = ground_state_component(real, pair)
    hs = minimize_hartree(real, sel.component, v, config.N, pair=pair)
    hop = assemble_effective_operator(hs.u, real, v, config.N)
    return real, pair, hs, hop


def spectrum_lines(caplog):
    lines = [r for r in caplog.records if r.name == "kaclab.hartree.spectrum"]
    caplog.clear()
    return lines


class TestLaplacianFactorSpectrum:
    @pytest.mark.parametrize("kappa", [0.0, 10.0])
    def test_one_factorization_matches_dense(self, factors, kappa):
        res = run_pipeline(PipelineResult(D3_ABOVE_CROSSOVER), gaussian(kappa))
        real, pair, hs = res.real, res.pair, res.hartree
        assert reuses_laplacian_factor(3, real.n_vacant) and pair.lambda3 is not None
        # the Laplacian's, then the flow's P_W ones on the banded host, if it
        # steps (at kappa 0 |phi1| is the minimizer): h_u is not factorized
        lap_factor, *flow = factors
        assert lap_factor.op is pair.operator
        assert len(flow) == (kappa > 0.0)
        host = real.labels == hs.component
        assert all(np.array_equal(f.op.mask, host) for f in flow)
        hop = assemble_effective_operator(hs.u, real, res.v, D3_ABOVE_CROSSOVER.N)
        A, _ = dense_laplacian(real.mask, real.h)
        vals = np.linalg.eigvalsh(A + np.diag(hop.potential[real.mask])) - hs.shift
        assert (hs.e1, hs.e2) == pytest.approx(vals[:2], rel=1e-12)
        if kappa == 0.0:
            assert (hs.e1, hs.e2) == pytest.approx((pair.lambda1, pair.lambda2), rel=1e-12)

    def test_the_operator_counts_every_lu_solve(self, caplog, factors):
        # the Laplacian's factor serves ARPACK and LOBPCG on this set, and
        # the flow's P_W factors the flow: the Laplacian's count is its
        # factor's, split by two DEBUG lines, and the flow's line counts P_W's
        caplog.set_level(logging.DEBUG, logger="kaclab")
        res = run_pipeline(PipelineResult(D3_ABOVE_CROSSOVER), gaussian(10.0))
        lu, *flow = factors
        assert res.pair.operator.solves == lu.solves > 0 and flow
        lines = [(r.name, m.group(1), int(m.group(2))) for r in caplog.records
                 for m in [re.search(r"(?:(\d+) factorizations, )?(\d+) LU solves",
                                     r.getMessage())] if m]
        assert [name for name, _, _ in lines] == ["kaclab.laplace", "kaclab.hartree",
                                                  "kaclab.hartree.spectrum"]
        assert lines[0][2] + lines[2][2] == lu.solves
        assert lines[1][1:] == (str(len(flow)), sum(f.solves for f in flow))
        assert lines[1][2] == res.hartree.iterations

    def test_crossover_depends_on_dimension_and_size_only(self):
        # the benchmark sizes: ensemble_small (~320 nodes, d=2) and the
        # sparse_3d warm-up below 2D's 4,000-node crossover keep h_u's factor
        assert not reuses_laplacian_factor(2, 320)
        assert not reuses_laplacian_factor(2, 3999) and reuses_laplacian_factor(2, 4000)
        assert not reuses_laplacian_factor(3, 999) and reuses_laplacian_factor(3, 1000)
        assert reuses_laplacian_factor(2, 90_815) and reuses_laplacian_factor(3, 13_514)
        assert not reuses_laplacian_factor(1, 10**6)

    def test_third_component_is_not_certified_on_76_nodes(self):
        # the block [u, phi2] never leaves components 10 and 3, where theta2
        # is the confined 9.41561 from the start; lambda3 cannot certify it,
        # so it is refused before any LU solve, and minimize_hartree falls
        # back to h_u's own eigensolve
        real, pair, hs, hop = fallback_setup(THIRD_COMPONENT_76, 10.0)
        assert (real.n_vacant, hs.component) == (76, 10)
        assert hs.e2 == pytest.approx(8.78822, abs=5e-6)
        before = pair.operator.solves
        found = laplacian_factor_spectrum(hop, pair, hs.u)
        assert found.reason == "start block's theta2 above the bound"
        assert (found.iterations, pair.operator.solves - before) == (0, 0)
        assert found.margin < 0.0
        assert found.e2 == pytest.approx(9.41561, abs=5e-6)

    def test_iteration_cap(self, monkeypatch):
        # this set is certified at kappa = 10 (test_one_factorization_matches_dense)
        _, pair, hs, hop = fallback_setup(D3_ABOVE_CROSSOVER, 10.0)
        monkeypatch.setattr(hartree, "LOBPCG_MAX_ITER", 0)
        before = pair.operator.solves
        capped = laplacian_factor_spectrum(hop, pair, hs.u)
        assert capped.reason == "no convergence in 0 iterations"
        assert pair.operator.solves == before

    def test_sparse_e2_on_a_third_component_falls_back(self):
        # above DENSE_CUTOFF (1,278 nodes, K=318): the host is component 269,
        # phi2 lives on 78 and h_u's second eigenvector on 59, so the block
        # started from [u, phi2] misses e2; the certificate refuses it and the
        # global eigensolve returns the true e2
        config = DisorderConfig(**FRAGMENTED, seed=LEAKING_SEEDS[0])
        real, pair, hs, hop = fallback_setup(config, 10.0)
        assert real.n_vacant > DENSE_CUTOFF
        A, nodes = dense_laplacian(real.mask, real.h)
        vals, vecs = np.linalg.eigh(A + np.diag(hop.potential[real.mask]))
        vals -= hs.shift
        assert (hs.e1, hs.e2) == pytest.approx(vals[:2], rel=1e-12)
        labels = np.array([real.labels[x] for x in nodes])
        (e2_component,) = set(labels[np.abs(vecs[:, 1]) > 1e-8])
        phi2_components = set(labels[np.abs(pair.phi2[real.mask]) > 1e-8])
        assert e2_component not in phi2_components | {hs.component}
        found = laplacian_factor_spectrum(hop, pair, hs.u)
        assert found.reason == "start block's theta2 above the bound"
        assert found.e2 > hs.e2 + 1e-3

    def test_one_debug_line_per_effective_spectrum(self, caplog):
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        number = r"(-?[0-9.]+(?:e[+-][0-9]+)?)"

        res = run_pipeline(PipelineResult(D3_ABOVE_CROSSOVER), gaussian(10.0))
        (line,) = spectrum_lines(caplog)
        message = line.getMessage()
        assert line.levelno == logging.DEBUG
        assert message.startswith(f"effective spectrum on {res.real.n_vacant} nodes: "
                                  "Laplacian's factor")
        iterations, solves, margin = map(float, re.search(
            rf"{number} LOBPCG iterations, {number} LU solves, "
            rf"certificate margin {number}$", message).groups())
        # u converges at once, so after the first steps only e2's column is solved
        assert iterations <= solves <= 2 * iterations and margin > 0.0

        fallback_setup(THIRD_COMPONENT_76, 10.0)
        (line,) = spectrum_lines(caplog)
        message = line.getMessage()
        assert "own eigensolve (fallback after" in message
        assert message.endswith(": start block's theta2 above the bound)")
        assert float(re.search(rf"certificate margin {number}:", message).group(1)) < 0.0

        real = build_realization(THIRD_COMPONENT_76)
        minimize_hartree(real, 10, potential_for(real, 10.0), THIRD_COMPONENT_76.N)
        (line,) = spectrum_lines(caplog)
        assert line.getMessage() == "effective spectrum on 76 nodes: own eigensolve (no lambda3)"

    def test_component_pair_with_lambda3_takes_the_own_eigensolve(self, caplog):
        # d=2 N=256 nu=0.4 seed 5: K=3 on 1,111 nodes, the host has 1,102.
        # A pair of the host alone cannot solve h_u on the whole set (its
        # factor has 1,102 rows), so only the flow uses it: e1 and e2 are
        # those of the flow without pair, and its factor is released too
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        config = DisorderConfig(d=2, rho=1.0, N=256, nu=0.4, r=0.5, h=0.4, seed=5)
        real = build_realization(config)
        sel = ground_state_component(real, lowest_eigenpairs(assemble_laplacian(real)))
        host = real.labels == sel.component
        assert (real.K, real.n_vacant, int(host.sum())) == (3, 1111, 1102)
        v = potential_for(real, 1.0)
        plain = minimize_hartree(real, sel.component, v, config.N)
        pair = lowest_eigenpairs(MaskedOperator(mask=host, h=real.h), count=3)
        spectrum_lines(caplog)
        hs = minimize_hartree(real, sel.component, v, config.N, pair=pair)
        assert (hs.e1, hs.e2) == pytest.approx((plain.e1, plain.e2), rel=1e-12)
        assert pair.operator._factor is None
        (line,) = spectrum_lines(caplog)
        assert line.getMessage() == ("effective spectrum on 1111 nodes: "
                                     "own eigensolve (pair off the vacancy set)")

    def test_pair_of_as_many_nodes_elsewhere_does_not_span(self, caplog):
        # two 120-node sets of one 19 x 19 grid: the first rows, and the
        # nodes nearest the centre.  The rows' sigma = 0.9 lambda1 = 1.20
        # lies above the centre's lambda1 = 0.845, so shift-inverting the
        # centre's operator at it fails to factor: only a pair on hop's own
        # mask spans, and this one is solved at no shift
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.0, r=0.5, h=0.4, seed=0)
        rows, centre = (np.zeros(config.grid_dims, dtype=bool) for _ in range(2))
        rows.flat[:120] = True
        i, j = np.indices(config.grid_dims)
        centre.flat[np.argsort(((i - 9) ** 2 + (j - 9) ** 2).ravel(), kind="stable")[:120]] = True
        pair = lowest_eigenpairs(assemble_laplacian(DisorderRealization.from_mask(config, rows)),
                                 count=3)
        hop = assemble_laplacian(DisorderRealization.from_mask(config, centre))
        own = lowest_eigenpairs(hop)
        assert config.grid_dims == (19, 19) and own.lambda1 < 0.9 * pair.lambda1
        spectrum_lines(caplog)
        assert effective_spectrum(hop, pair) == pytest.approx((own.lambda1, own.lambda2),
                                                              rel=1e-12)
        (line,) = spectrum_lines(caplog)
        assert line.getMessage() == ("effective spectrum on 120 nodes: "
                                     "own eigensolve (pair off the vacancy set)")

    def test_effective_spectrum_starts_from_phi1_by_default(self, caplog):
        # without start, the block starts from |phi1| of the Laplacian's pair
        # and is certified on this set (kappa 10, as in the tests above)
        caplog.set_level(logging.DEBUG, logger="kaclab.hartree")
        real, pair, hs, hop = fallback_setup(D3_ABOVE_CROSSOVER, 10.0)
        spectrum_lines(caplog)
        e1, e2 = effective_spectrum(hop, pair=pair)
        (line,) = spectrum_lines(caplog)
        assert "Laplacian's factor" in line.getMessage()
        assert pair.operator._factor is None
        own = effective_spectrum(hop, replace(pair, lambda3=None))
        assert "own eigensolve (no lambda3)" in spectrum_lines(caplog)[0].getMessage()
        assert (e1, e2) == pytest.approx(own, rel=1e-12)
        assert (e1, e2) == pytest.approx((hs.e1, hs.e2), rel=1e-12)

    @pytest.mark.parametrize("config", [OWN_PATH_324, D3_ABOVE_CROSSOVER], ids=["own", "lobpcg"])
    def test_public_operator_reproduces_the_pipeline(self, config):
        # the pipeline solves the unshifted operator assemble_effective_operator
        # builds, so the public API gives its e1, e2 bit for bit on either path
        res = run_pipeline(PipelineResult(config), gaussian(10.0))
        hs = res.hartree
        assert res.real.n_vacant > DENSE_CUTOFF
        assert (res.pair.lambda3 is None) == (config is OWN_PATH_324)
        hop = assemble_effective_operator(hs.u, res.real, res.v, config.N)
        assert effective_spectrum(hop, pair=res.pair, start=hs.u) == (hs.e1, hs.e2)


class TestShiftedInverse:
    def test_shift_inverts_the_laplacian_on_its_modes_only(self):
        # 286 nodes on 3 components: T (A - sigma) v = v on the count lowest
        # eigenvectors of A = -Lap, T A v = v on the next ones, for a column
        # and a block alike
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.3, r=0.5, h=0.4, seed=0)
        pair = lowest_eigenpairs(assemble_laplacian(build_realization(config)), count=3)
        A = pair.operator.matrix().toarray()
        vals, vecs = np.linalg.eigh(A)
        before = pair.operator.solves
        for count in (2, 3):
            sigma, precondition, operator = hartree._shifted_inverse(pair, count)
            assert sigma == hartree.SHIFT_FRACTION * pair.lambda1 and operator is pair.operator
            shifted = np.where(np.arange(count + 3) < count, vals[:count + 3] - sigma,
                               vals[:count + 3])
            V = vecs[:, :count + 3]
            block = precondition(V * shifted)
            assert np.abs(block - V).max() < 1e-12
            for j in range(count + 3):
                assert np.allclose(precondition(V[:, j] * shifted[j]), block[:, j],
                                   rtol=0, atol=1e-14)
        # one LU solve per column, on the pair's factor
        assert pair.operator.solves - before == 2 * (5 + 6)

    def test_p_w_sigma_follows_the_mean_field(self):
        # sigma = max(0.9 lambda1, 0.99 lambda1 - max W on the host): next to
        # lambda1 where W = 0 on the host (kappa = 0, or W only off it), between
        # the two under a weak W, at the floor under a strong one, and below
        # lambda1 always, so -Lap + W - sigma is positive definite and factors
        config = DisorderConfig(d=2, rho=1.0, N=64, nu=0.3, r=0.5, h=0.4, seed=0)
        real = build_realization(config)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        component = ground_state_component(real, pair).component
        host = MaskedOperator(mask=real.labels == component, h=real.h)
        lam1 = pair.lambda1
        u = grids.normalize(np.where(host.mask, np.abs(pair.phi1), 0.0), real.h)
        mean_field = {kappa: assemble_effective_operator(u, real, potential_for(real, kappa),
                                                         config.N).potential
                      for kappa in (0.0, 0.05, 30.0)}
        assert not mean_field[0.0].any()
        cases = [(mean_field[0.0], hartree.P_W_SHIFT_FRACTION * lam1),
                 (np.where(host.mask, 0.0, 10.0 * lam1), hartree.P_W_SHIFT_FRACTION * lam1),
                 (mean_field[0.05], hartree.P_W_SHIFT_FRACTION * lam1
                  - host.restrict(mean_field[0.05]).max()),
                 (mean_field[30.0], hartree.SHIFT_FRACTION * lam1)]
        assert hartree.SHIFT_FRACTION * lam1 < cases[2][1] < hartree.P_W_SHIFT_FRACTION * lam1
        for W, expected in cases:
            sigma, precondition, operator = hartree._shifted_inverse(pair, 2, host, W)
            assert sigma == expected < lam1
            A = operator.matrix().toarray()
            assert (A == host.matrix().toarray() + np.diag(host.restrict(W) - sigma)).all()
            # lam1 - sigma bounds A below, up to the eigensolve's tolerance
            assert np.linalg.eigvalsh(A)[0] >= lam1 - sigma - 1e-8 * lam1
            x = np.linspace(1.0, 2.0, host.n_vacant)
            assert np.allclose(precondition(A @ x), x, rtol=1e-10, atol=0)
            operator.release()

    def test_one_owner_of_the_shifted_inverse(self):
        # in hartree only _shifted_inverse solves, computes 1/(lambda - sigma)
        # or reads a shift constant (SHIFT_FRACTION, P_W_SHIFT_FRACTION): the
        # flow's P (T or P_W) and LOBPCG's T are its, and sigma everywhere is
        # its sigma
        text = Path(hartree.__file__).read_text()
        assert "_shifted_modes" not in text and "_spans_set" not in text
        tree = ast.parse(text)
        shift_constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                           for target in node.targets
                           if isinstance(target, ast.Name) and "SHIFT" in target.id}
        assert shift_constants == {"SHIFT_FRACTION", "P_W_SHIFT_FRACTION"}
        # h_u is built once, unshifted: no MaskedOperator is built from sigma,
        # which is folded into an operator only in effective_spectrum's own
        # eigensolve (and into P_W's, inside _shifted_inverse)
        built = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "MaskedOperator"]
        assert len(built) >= 3
        assert not any(isinstance(node, ast.Name) and node.id == "sigma"
                       for call in built for node in ast.walk(call))
        owner = {id(node) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_shifted_inverse"
                 for node in ast.walk(fn)}
        assert owner
        for node in ast.walk(tree):
            if id(node) in owner:
                continue
            where = f"hartree.py:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "solve"), where
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                        and isinstance(node.right, ast.BinOp)
                        and isinstance(node.right.op, ast.Sub)), where
            assert not (isinstance(node, ast.Name) and node.id in shift_constants
                        and isinstance(node.ctx, ast.Load)), where
