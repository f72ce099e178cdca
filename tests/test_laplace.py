"""Masked Dirichlet Laplacian: stencil, eigenpairs, component selection."""

import math
import time

import numpy as np
import pytest

from scipy.sparse.linalg import splu

from kaclab import (
    DisorderConfig,
    DisorderRealization,
    MaskedOperator,
    PipelineResult,
    assemble_laplacian,
    build_realization,
    ground_state_component,
    lowest_eigenpairs,
    run_pipeline,
    supnorm_bound_check,
)
from kaclab import ensemble, grids, laplace
from kaclab.constants import supnorm_constant
from kaclab.laplace import DENSE_CUTOFF, SPD_LU_OPTIONS

from conftest import box_eigenvalue, dense_laplacian, tiny_box_config


def free_box_realization(n_cells, L=1.0, d=2):
    # rho adjusts so the box side is exactly L; h = L / n_cells
    N = 4
    rho = N / L**d
    from kaclab import DisorderConfig

    config = DisorderConfig(d=d, rho=rho, N=N, nu=0.0, r=2.0 * L, h=L / n_cells, seed=0)
    return build_realization(config, centers=np.zeros((0, d)))


class TestOperator:
    def test_one_node_domain_is_scalar(self):
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(config, mask)
        op = assemble_laplacian(real)
        assert op.matrix().toarray().tolist() == [[4.0 / real.h**2]]
        out = op.restrict(op.apply_grid(op.embed(np.array([1.0]))))
        assert out[0] == pytest.approx(4.0 / real.h**2, rel=1e-15)

    def test_matvec_symmetry_random_vectors(self):
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.5, r=0.4, seed=3)
        )
        op = assemble_laplacian(real)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(real.dims)
            y = rng.standard_normal(real.dims)
            xay = np.sum(x * op.apply_grid(y))
            axy = np.sum(op.apply_grid(x) * y)
            worst = max(worst, abs(xay - axy) / max(abs(xay), 1e-300))
        assert worst < 1e-12

    def test_matrix_is_the_loop_stencil(self):
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.5, r=0.4, seed=4)
        )
        assert 0 < real.n_vacant < real.mask.size  # disordered
        op = assemble_laplacian(real)
        assert np.array_equal(op.matrix().toarray(), dense_laplacian(real.mask, real.h)[0])

    def test_apply_grid_is_matrix_minus_shift(self):
        # the two forms of an effective operator: the matrix-free product of
        # the whole operator and the sparse matrix of its unshifted part
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.5, r=0.4, seed=4)
        )
        rng = np.random.default_rng(1)
        op = MaskedOperator(
            mask=real.mask, h=real.h,
            potential=rng.uniform(0.0, 5.0, real.dims), diagonal_shift=3.7,
        )
        x = rng.standard_normal(op.n_vacant)
        np.testing.assert_allclose(
            op.restrict(op.apply_grid(op.embed(x))),
            op.matrix() @ x - op.diagonal_shift * x,
            rtol=0.0, atol=1e-12,
        )

    def test_free_box_dense_oracle_full_spectrum(self):
        # 8x8 interior grid: all 64 eigenvalues have the sine closed form
        real = free_box_realization(n_cells=9, L=9.0)
        h, L = real.h, 9.0
        A, _ = dense_laplacian(real.mask, h)
        computed = np.sort(np.linalg.eigvalsh(A))
        expected = np.sort(
            [box_eigenvalue((p, q), h, L) for p in range(1, 9) for q in range(1, 9)]
        )
        np.testing.assert_allclose(computed, expected, rtol=1e-10)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        assert pair.lambda1 == pytest.approx(expected[0], rel=1e-10)
        assert pair.lambda2 == pytest.approx(expected[1], rel=1e-10)


class TestEigenpairs:
    def test_free_box_converges_to_continuum(self):
        # lambda1 -> 2 pi^2, lambda2 -> 5 pi^2, with O(h^2) error
        errors1, errors2 = [], []
        for n in (8, 16, 32):
            pair = lowest_eigenpairs(assemble_laplacian(free_box_realization(n)))
            errors1.append(abs(pair.lambda1 - 2.0 * math.pi**2))
            errors2.append(abs(pair.lambda2 - 5.0 * math.pi**2))
        for errs in (errors1, errors2):
            for a, b in zip(errs, errs[1:]):
                assert 3.3 < a / b < 4.7  # error quarters per h halving

    def test_unit_norm_orthogonal_rayleigh(self):
        real = build_realization(
            tiny_box_config(N=16, L=4.0, h=0.25, nu=0.4, r=0.4, seed=5)
        )
        op = assemble_laplacian(real)
        pair = lowest_eigenpairs(op)
        h = real.h
        assert grids.norm(pair.phi1, h) == pytest.approx(1.0, abs=1e-12)
        assert grids.norm(pair.phi2, h) == pytest.approx(1.0, abs=1e-12)
        assert abs(grids.inner(pair.phi1, pair.phi2, h)) < 1e-10
        ray = grids.inner(pair.phi1, op.apply_grid(pair.phi1), h)
        assert ray == pytest.approx(pair.lambda1, rel=1e-11)
        assert 0.0 < pair.lambda1 <= pair.lambda2
        assert pair.residual1 <= 1e-9 * pair.lambda1 + 1e-9
        assert float(pair.phi1.sum()) >= 0.0

    def test_iterative_path_matches_dense_oracle(self):
        # 44x44 interior nodes exceeds the dense cutoff, forcing ARPACK
        real = free_box_realization(n_cells=45, L=1.0)
        assert real.n_vacant > DENSE_CUTOFF
        pair = lowest_eigenpairs(assemble_laplacian(real))
        expected1 = box_eigenvalue((1, 1), real.h, 1.0)
        expected2 = box_eigenvalue((1, 2), real.h, 1.0)
        assert pair.lambda1 == pytest.approx(expected1, rel=1e-10)
        assert pair.lambda2 == pytest.approx(expected2, rel=1e-10)

    def test_disordered_mask_matches_dense_oracle(self):
        # independent loop-based assembly + LAPACK on a grid below 40x40
        real = build_realization(
            tiny_box_config(N=64, L=8.0, h=0.4, nu=0.2, r=0.5, seed=17)
        )
        assert max(real.dims) <= 40 and real.K >= 1
        pair = lowest_eigenpairs(assemble_laplacian(real))
        A, _ = dense_laplacian(real.mask, real.h)
        expected = np.linalg.eigvalsh(A)
        assert pair.lambda1 == pytest.approx(expected[0], rel=1e-8)
        assert pair.lambda2 == pytest.approx(expected[1], rel=1e-8)

    @pytest.mark.parametrize(
        "d, N, h, nu", [(2, 64, 0.25, 0.15), (3, 64, 0.4, 0.1)], ids=["d2", "d3"]
    )
    def test_sparse_path_matches_dense_oracle_above_cutoff(self, d, N, h, nu):
        # 400-1200 vacant nodes: dense LAPACK below 1200 before the cutoff
        # moved, ARPACK on the symmetric-mode factor now
        real = build_realization(DisorderConfig(d=d, rho=1.0, N=N, nu=nu, r=0.5, h=h, seed=3))
        assert DENSE_CUTOFF < real.n_vacant <= 1200
        assert real.n_vacant < np.prod(real.dims)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        A, _ = dense_laplacian(real.mask, real.h)
        expected = np.linalg.eigvalsh(A)
        assert pair.lambda1 == pytest.approx(expected[0], rel=1e-10)
        assert pair.lambda2 == pytest.approx(expected[1], rel=1e-10)

    def test_identical_squares_are_degenerate(self):
        config = tiny_box_config()
        mask = np.array(
            [[True, False, True], [True, False, True], [False, False, False]]
        )
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        assert pair.lambda2 == pytest.approx(pair.lambda1, rel=1e-12)
        assert pair.numerically_degenerate

    def test_one_node_degenerate_size(self):
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 2] = True
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        assert pair.degenerate_size
        assert pair.lambda2 is None
        assert pair.lambda1 == pytest.approx(4.0 / real.h**2)

    def test_domain_monotonicity(self):
        # removing vacant nodes never decreases lambda1 (Dirichlet bracketing)
        rng = np.random.default_rng(7)
        config = tiny_box_config(N=16, L=4.0, h=0.25)
        mask = np.ones(config.grid_dims, dtype=bool)
        lam_prev = None
        for _ in range(4):
            real = DisorderRealization.from_mask(config, mask)
            if real.K != 1:
                break
            lam = lowest_eigenpairs(assemble_laplacian(real)).lambda1
            if lam_prev is not None:
                assert lam >= lam_prev - 1e-10
            lam_prev = lam
            vac = np.argwhere(mask)
            drop = vac[rng.choice(len(vac), size=8, replace=False)]
            mask = mask.copy()
            mask[tuple(drop.T)] = False

    def test_global_spectrum_is_min_over_components(self, two_strip_5):
        pair = lowest_eigenpairs(assemble_laplacian(two_strip_5))
        per_component = []
        for k in (1, 2):
            sub = MaskedOperator(mask=two_strip_5.labels == k, h=two_strip_5.h)
            per_component.append(lowest_eigenpairs(sub, count=1).lambda1)
        assert pair.lambda1 == pytest.approx(min(per_component), rel=1e-11)


class TestSparseFactorization:
    def test_every_factorization_is_symmetric_mode(self, monkeypatch):
        # the Laplacian's factor (spectrum and flow preconditioner) and the
        # effective spectrum's of one ARPACK-size d=3 realization (1,678
        # nodes); a factorization without the minimum-degree ordering
        # (SuperLU's default COLAMD) fills ~2x more
        factors = []

        def recording_splu(mat, **kwargs):
            lu = splu(mat, **kwargs)
            factors.append((mat, lu))
            return lu

        monkeypatch.setattr(laplace, "splu", recording_splu)
        config = DisorderConfig(d=3, rho=1.0, N=128, nu=0.05, r=0.5, h=0.4, seed=2024)
        res = run_pipeline(
            PipelineResult(config), {"kind": "gaussian", "kappa": 0.5, "width": 0.5}
        )
        assert res.real.n_vacant > DENSE_CUTOFF
        assert len(factors) == 2
        for mat, lu in factors:
            default = splu(mat)
            fill = lu.L.nnz + lu.U.nnz
            assert fill <= 0.6 * (default.L.nnz + default.U.nnz)

    def test_flow_solves_with_the_spectrum_factor(self, monkeypatch):
        # d=2 N=1024 (about 5,500 nodes, ARPACK path): the factor built for
        # the spectrum is the one the Hartree flow solves with
        factors = []

        class CountingLU:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, rhs):
                self.solves += 1
                return self.lu.solve(rhs)

        def recording_splu(mat, **kwargs):
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        flow = {}
        minimize_hartree = ensemble.minimize_hartree

        def spy_minimize_hartree(*args, lap, **kwargs):
            flow["lap"], flow["before"] = lap, factors[0].solves
            hs = minimize_hartree(*args, lap=lap, **kwargs)
            flow["after"] = factors[0].solves
            return hs

        monkeypatch.setattr(laplace, "splu", recording_splu)
        monkeypatch.setattr(ensemble, "minimize_hartree", spy_minimize_hartree)
        config = DisorderConfig(d=2, rho=1.0, N=1024, nu=0.15, r=0.5, h=0.4, seed=1)
        res = run_pipeline(
            PipelineResult(config), {"kind": "gaussian", "kappa": 1.0, "width": 0.5}
        )
        assert res.real.n_vacant > DENSE_CUTOFF
        spectrum_factor = factors[0]
        assert flow["lap"].factor is spectrum_factor
        assert flow["before"] > 0  # ARPACK solved with it first
        assert flow["after"] - flow["before"] >= res.hartree.iterations
        # the only other factor is the effective operator's, for e1 and e2
        assert len(factors) == 2

    def test_full_set_factor_solve_is_the_host_solve(self):
        # -Lap is block-diagonal over components: solving with the whole
        # vacancy set's factor on a host-supported right-hand side gives
        # exact zeros off the host and the host-only factor's solution on it
        config = tiny_box_config(N=16, L=6.0, h=0.4)
        mask = np.ones((14, 14), dtype=bool)
        mask[:, 5] = False                 # a wall: components 5 wide and 8 wide
        mask[3, 1:3] = mask[9:12, 8] = False
        real = DisorderRealization.from_mask(config, mask)
        assert real.K == 2
        host = real.labels == 1 + int(np.argmax(real.component_volumes))
        rng = np.random.default_rng(3)
        rhs = np.where(host, rng.uniform(-1.0, 1.0, mask.shape), 0.0)

        lap = assemble_laplacian(real)
        full = lap.embed(lap.factor.solve(lap.restrict(rhs)))
        assert np.all(full[~host] == 0.0)
        host_op = MaskedOperator(mask=host, h=real.h)
        own = host_op.embed(host_op.factor.solve(host_op.restrict(rhs)))
        assert np.max(np.abs(full - own)) <= 1e-13 * np.max(np.abs(own))
        assert np.allclose(lap.apply_grid(full), rhs, rtol=0.0, atol=1e-10)

    def test_symmetric_mode_factorizes_faster_than_default(self):
        # the fill cannot show a dropped SymmetricMode: the minimum-degree
        # factor keeps its fill but takes ~2.5x longer than SuperLU's default
        # on these 6,640 nodes, where symmetric mode takes ~3x less
        config = DisorderConfig(d=3, rho=1.0, N=512, nu=0.05, r=0.5, h=0.4, seed=2024)
        mat = assemble_laplacian(build_realization(config)).matrix()
        best = {"spd": np.inf, "default": np.inf}
        for _ in range(3):
            for name, kwargs in (("spd", SPD_LU_OPTIONS), ("default", {})):
                start = time.perf_counter()
                splu(mat, **kwargs)
                best[name] = min(best[name], time.perf_counter() - start)
        assert best["spd"] < best["default"]


class TestGroundStateComponent:
    def test_single_component(self, free_3x3):
        pair = lowest_eigenpairs(assemble_laplacian(free_3x3))
        sel = ground_state_component(free_3x3, pair)
        assert sel.component == 1
        assert sel.mass_outside < 1e-10
        assert not sel.multiple
        assert pair.component_of_phi1 == 1

    def test_small_and_large_square_pick_larger(self):
        config = tiny_box_config(N=16, L=4.0, h=0.5)
        mask = np.zeros((7, 7), dtype=bool)
        mask[0:2, 0:2] = True   # 2x2 square, component 1
        mask[4:7, 4:7] = True   # 3x3 square, component 2 (lower ground energy)
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        h = real.h
        lam_small = 2.0 * box_eigenvalue((1,), h, 3 * h)  # 2-node chain per axis
        lam_large = 2.0 * box_eigenvalue((1,), h, 4 * h)  # 3-node chain per axis
        assert lam_large < lam_small
        assert pair.lambda1 == pytest.approx(lam_large, rel=1e-11)
        sel = ground_state_component(real, pair)
        assert sel.component == 2
        assert sel.mass_outside < 1e-10
        assert not sel.multiple

    def test_identical_squares_flagged_multiple(self):
        config = tiny_box_config()
        mask = np.array(
            [[True, False, True], [True, False, True], [False, False, False]]
        )
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        sel = ground_state_component(real, pair)
        assert sel.multiple
        assert pair.component_of_phi1 == "multiple"


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
        assert check.lhs == pytest.approx(4.0, rel=0.02)
        expected_rhs = supnorm_constant(2) ** 2 * pair.lambda1
        assert check.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert check.ok and not check.skipped

    def test_one_node_skipped(self):
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        check = supnorm_bound_check(pair, 2)
        assert check.skipped
