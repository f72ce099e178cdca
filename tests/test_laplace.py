"""Masked Dirichlet Laplacian: stencil, eigenpairs, component selection."""

import ast
import logging
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from scipy.sparse.linalg import splu

from kaclab import (
    DisorderConfig,
    DisorderRealization,
    KacLabError,
    MaskedOperator,
    PipelineResult,
    assemble_laplacian,
    build_interaction,
    build_manybody_hamiltonian,
    build_realization,
    ground_state_component,
    lowest_eigenpairs,
    run_pipeline,
    supnorm_bound_check,
)
from kaclab import ensemble, grids, hartree, laplace
from kaclab.ensemble import derive_seeds
from kaclab.constants import supnorm_constant
from kaclab.laplace import DENSE_CUTOFF, SPD_LU_OPTIONS

from conftest import CountingLU, box_eigenvalue, dense_laplacian, tiny_box_config


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

    def test_empty_mask_is_one_error(self):
        # one check, in MaskedOperator, also stops the exact oracle's build
        real = DisorderRealization.from_mask(tiny_box_config(), np.zeros((3, 3), dtype=bool))
        v = build_interaction("gaussian", 1.0, 2, 2, real.h, {"width": 0.5})
        for build in (lambda: MaskedOperator(mask=real.mask, h=real.h),
                      lambda: assemble_laplacian(real),
                      lambda: build_manybody_hamiltonian(real, v, 2)):
            with pytest.raises(KacLabError, match="^empty vacancy set$"):
                build()

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
        "d, N, h, nu",
        [(2, 64, 0.25, 0.15), (3, 64, 0.4, 0.1), (2, 64, 0.4, 0.15)],
        ids=["d2", "d3", "d2_ensemble_size"],
    )
    def test_sparse_path_matches_dense_oracle_above_cutoff(self, d, N, h, nu):
        # 200-1200 vacant nodes, which dense LAPACK solved before the cutoff
        # moved (below 1200, then below 400): ARPACK on the symmetric-mode
        # factor now; d2_ensemble_size is a criterion-5/6 realization
        real = build_realization(DisorderConfig(d=d, rho=1.0, N=N, nu=nu, r=0.5, h=h, seed=3))
        assert DENSE_CUTOFF < real.n_vacant <= 1200
        assert real.n_vacant < np.prod(real.dims)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        A, _ = dense_laplacian(real.mask, real.h)
        expected = np.linalg.eigvalsh(A)
        assert pair.lambda1 == pytest.approx(expected[0], rel=1e-10)
        assert pair.lambda2 == pytest.approx(expected[1], rel=1e-10)

    @pytest.mark.parametrize("N", [16, 64], ids=["dense", "arpack"])
    def test_third_pair_matches_dense_oracle(self, N):
        # count=3 adds lambda3, phi3 and residual3 on both paths; the first
        # two pairs are the count=2 ones
        real = build_realization(DisorderConfig(d=2, rho=1.0, N=N, nu=0.15, r=0.5, h=0.4,
                                                seed=3))
        lap = assemble_laplacian(real)
        pair, pair2 = lowest_eigenpairs(lap, count=3), lowest_eigenpairs(lap)
        assert (real.n_vacant > DENSE_CUTOFF) == (N == 64)
        A, _ = dense_laplacian(real.mask, real.h)
        expected = np.linalg.eigvalsh(A)[:3]
        lams = (pair.lambda1, pair.lambda2, pair.lambda3)
        assert lams == pytest.approx(expected, rel=1e-10)
        assert (pair.lambda1, pair.lambda2) == pytest.approx(
            (pair2.lambda1, pair2.lambda2), rel=1e-12)
        assert grids.norm(pair.phi3, real.h) == pytest.approx(1.0, abs=1e-12)
        res = grids.norm(lap.apply_grid(pair.phi3) - pair.lambda3 * pair.phi3, real.h)
        assert pair.residual3 == pytest.approx(res, rel=1e-12)
        assert pair2.lambda3 is pair2.phi3 is pair2.residual3 is None

    def test_count_outside_one_to_three_is_refused(self):
        op = MaskedOperator(mask=np.ones((4, 4), dtype=bool), h=0.5)
        with pytest.raises(ValueError, match="count must be 1, 2 or 3"):
            lowest_eigenpairs(op, count=4)

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
        # nodes), on the path that factorizes h_u (pinned: this size reuses
        # the Laplacian's factor); a factorization without the minimum-degree
        # ordering (SuperLU's default COLAMD) fills ~2x more
        monkeypatch.setattr(hartree, "FACTOR_REUSE_MIN_NODES", {})
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
        # the spectrum is the one the Hartree flow solves with, and on the
        # path that factorizes h_u (pinned: this size reuses the Laplacian's
        # factor) it is dropped before the effective operator is factorized
        monkeypatch.setattr(hartree, "FACTOR_REUSE_MIN_NODES", {})
        factors = []
        flow = {}

        def recording_splu(mat, **kwargs):
            if factors:
                flow["held_at_second"] = flow["lap"]._lu is not None
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        minimize_hartree = ensemble.minimize_hartree

        def spy_minimize_hartree(*args, pair, **kwargs):
            lap = pair.operator
            flow["lap"], flow["before"] = lap, factors[0].solves
            flow["shared"] = lap._lu is factors[0]
            hs = minimize_hartree(*args, pair=pair, **kwargs)
            flow["after"] = factors[0].solves
            return hs

        monkeypatch.setattr(laplace, "splu", recording_splu)
        monkeypatch.setattr(ensemble, "minimize_hartree", spy_minimize_hartree)
        config = DisorderConfig(d=2, rho=1.0, N=1024, nu=0.15, r=0.5, h=0.4, seed=1)
        res = run_pipeline(
            PipelineResult(config), {"kind": "gaussian", "kappa": 1.0, "width": 0.5}
        )
        assert res.real.n_vacant > DENSE_CUTOFF
        assert flow["shared"]
        assert flow["before"] > 0  # ARPACK solved with it first
        assert flow["after"] - flow["before"] >= res.hartree.iterations
        # the only other factor is the effective operator's, for e1 and e2
        assert len(factors) == 2
        assert not flow["held_at_second"]

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
        full = lap.embed(lap.solve(lap.restrict(rhs)))
        assert np.all(full[~host] == 0.0)
        host_op = MaskedOperator(mask=host, h=real.h)
        own = host_op.embed(host_op.solve(host_op.restrict(rhs)))
        assert np.max(np.abs(full - own)) <= 1e-13 * np.max(np.abs(own))
        assert np.allclose(lap.apply_grid(full), rhs, rtol=0.0, atol=1e-10)

    def test_release_drops_the_factor_and_the_next_solve_rebuilds_it(self, monkeypatch):
        factors = []

        def recording_splu(mat, **kwargs):
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        monkeypatch.setattr(laplace, "splu", recording_splu)
        op = assemble_laplacian(build_realization(
            DisorderConfig(d=2, rho=1.0, N=64, nu=0.15, r=0.5, h=0.4, seed=3)))
        rhs = np.random.default_rng(5).uniform(-1.0, 1.0, op.n_vacant)
        first = op.solve(rhs)
        assert len(factors) == 1 and op.solves == 1
        op.release()
        assert op._lu is None
        second = op.solve(rhs)
        assert len(factors) == 2 and np.array_equal(first, second)
        # a block counts one solve per column, a block of none factorizes only
        op.solve(np.stack([rhs, rhs, rhs], axis=1))
        op.release()
        op.solve(np.empty((op.n_vacant, 0)))
        assert len(factors) == 3 and op._lu is factors[2]
        assert op.solves == 5 == sum(f.solves for f in factors)

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


def test_masked_operator_owns_every_linear_solve():
    # MaskedOperator alone factorizes, solves, counts and releases: nowhere
    # else in kaclab is a factor read, splu called, or a solve count kept
    for path in sorted(Path(laplace.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"nonlocal solves|\.pop\(\s*[\"']factor", text), path.name
        tree = ast.parse(text)
        owner = {id(node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name == "MaskedOperator"
                 for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if id(node) in owner:
                continue
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Attribute) and node.attr in ("factor", "_lu")), where
            assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "splu"), where


class TestArpackStopping:
    """ARPACK stops at a tenth of the residual contract, not at machine precision.

    LU solves summed over the seeds of derive_seeds(7, count), Laplacian
    and h_u, at ARPACK's default tol=0 and at tol / 10:

    | d | N | count | Laplacian | h_u |
    | --- | --- | --- | --- | --- |
    | 2 | 64 | 20 | 780 -> 454 | 488 -> 420 |
    | 2 | 1024 | 5 | 317 -> 228 | 156 -> 122 |
    | 3 | 128 | 5 | 245 -> 190 | 190 -> 105 |
    """

    @pytest.mark.parametrize("d, N, count, max_lap, max_hu", [
        (2, 64, 20, 500, 440),
        (2, 1024, 5, 240, 130),
        (3, 128, 5, 200, 110),
    ])
    def test_solves_and_residual_margin(self, monkeypatch, d, N, count, max_lap, max_hu):
        factors, lap_solves, pairs = [], [], []

        def recording_splu(mat, **kwargs):
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        def spy_minimize_hartree(*args, **kwargs):
            lap_solves.append(factors[-1].solves)  # the spectrum's ARPACK run
            return minimize_hartree(*args, **kwargs)

        def recording_eigenpairs(op, **kwargs):
            pairs.append((lowest_eigenpairs(op, **kwargs), kwargs["tol"]))
            return pairs[-1][0]

        minimize_hartree = ensemble.minimize_hartree
        # h_u's own ARPACK run: pinned to the path that factorizes h_u, which
        # the pipeline leaves for the Laplacian's factor at these sizes
        monkeypatch.setattr(hartree, "FACTOR_REUSE_MIN_NODES", {})
        monkeypatch.setattr(laplace, "splu", recording_splu)
        monkeypatch.setattr(ensemble, "minimize_hartree", spy_minimize_hartree)
        monkeypatch.setattr(ensemble, "lowest_eigenpairs", recording_eigenpairs)
        monkeypatch.setattr(hartree, "lowest_eigenpairs", recording_eigenpairs)
        hu_solves = []
        for seed in derive_seeds(7, count):
            config = DisorderConfig(d=d, rho=1.0, N=N, nu=0.15 if d == 2 else 0.05,
                                    r=0.5, h=0.4, seed=seed)
            res = run_pipeline(PipelineResult(config),
                               {"kind": "gaussian", "kappa": 0.05, "width": 0.5})
            assert res.real.n_vacant > DENSE_CUTOFF
            hu_solves.append(factors[-1].solves)  # h_u's ARPACK run
        assert sum(lap_solves) <= max_lap
        assert sum(hu_solves) <= max_hu
        if d == 3:
            assert max(hu_solves) <= 25  # 21 = ncv + 1, ARPACK's floor
        # every Laplacian and h_u pair sits at least 5x inside the contract
        # (measured: at most 0.097 tol * lambda, on 400 d=2 N=64 seeds)
        assert len(pairs) == 2 * count
        for pair, tol in pairs:
            for lam, res in ((pair.lambda1, pair.residual1), (pair.lambda2, pair.residual2)):
                assert res <= 0.2 * tol * abs(lam)

    @pytest.mark.parametrize("d, N, count, max_lap, max_lobpcg", [
        (2, 1024, 5, 250, 25),
        (3, 128, 5, 200, 20),
    ])
    def test_factor_reuse_solves_and_residual_margin(self, monkeypatch, d, N, count,
                                                      max_lap, max_lobpcg):
        # the unpinned pipeline at the sizes above, which ask for lambda3 and
        # solve h_u on the Laplacian's factor (measured: Laplacian solves 235
        # and 185 for count=3, LOBPCG solves per item at most 19 and 16, every
        # residual at most 0.01 tol * lambda, lambda3's included)
        factors, lap_solves, pairs, found, lobpcg_solves = [], [], [], [], []

        def recording_splu(mat, **kwargs):
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        def spy_minimize_hartree(*args, **kwargs):
            lap_solves.append(factors[-1].solves)  # the spectrum's ARPACK run
            return minimize_hartree(*args, **kwargs)

        def recording_eigenpairs(op, **kwargs):
            pairs.append((lowest_eigenpairs(op, **kwargs), kwargs["tol"]))
            return pairs[-1][0]

        def recording_factor_spectrum(hop, pair, *args, **kwargs):
            before = pair.operator.solves
            found.append(factor_spectrum(hop, pair, *args, **kwargs))
            lobpcg_solves.append(pair.operator.solves - before)
            return found[-1]

        minimize_hartree = ensemble.minimize_hartree
        factor_spectrum = hartree.laplacian_factor_spectrum
        monkeypatch.setattr(laplace, "splu", recording_splu)
        monkeypatch.setattr(ensemble, "minimize_hartree", spy_minimize_hartree)
        monkeypatch.setattr(ensemble, "lowest_eigenpairs", recording_eigenpairs)
        monkeypatch.setattr(hartree, "laplacian_factor_spectrum", recording_factor_spectrum)
        for seed in derive_seeds(7, count):
            config = DisorderConfig(d=d, rho=1.0, N=N, nu=0.15 if d == 2 else 0.05,
                                    r=0.5, h=0.4, seed=seed)
            run_pipeline(PipelineResult(config),
                         {"kind": "gaussian", "kappa": 0.05, "width": 0.5})
        assert len(factors) == count  # the Laplacian's, one per item
        assert all(f.certified for f in found) and len(found) == count
        assert sum(lap_solves) <= max_lap
        assert max(lobpcg_solves) <= max_lobpcg
        # a breach of lambda3's contract raises SolverError like the others
        assert len(pairs) == count
        for pair, tol in pairs:
            for lam, res in ((pair.lambda1, pair.residual1), (pair.lambda2, pair.residual2),
                             (pair.lambda3, pair.residual3)):
                assert res <= 0.2 * tol * abs(lam)

    def test_one_debug_line_per_arpack_run(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="kaclab.laplace")
        factors = []

        def recording_splu(mat, **kwargs):
            factors.append(CountingLU(splu(mat, **kwargs)))
            return factors[-1]

        monkeypatch.setattr(laplace, "splu", recording_splu)
        lowest_eigenpairs(MaskedOperator(mask=np.ones((8, 8), dtype=bool), h=0.5))
        assert not caplog.records  # 64 nodes: dense eigh, no ARPACK run
        real = build_realization(DisorderConfig(d=2, rho=1.0, N=64, nu=0.15, r=0.5,
                                                h=0.4, seed=3))
        assert real.n_vacant > DENSE_CUTOFF
        pair = lowest_eigenpairs(assemble_laplacian(real))
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"on {real.n_vacant} nodes" in message
        assert f"{factors[0].solves} LU solves" in message
        assert f"residuals {pair.residual1:.3e}, {pair.residual2:.3e}" in message


class TestGroundStateComponent:
    def test_single_component(self, free_3x3):
        pair = lowest_eigenpairs(assemble_laplacian(free_3x3))
        sel = ground_state_component(free_3x3, pair)
        assert sel.component == 1
        assert sel.mass_outside < 1e-10
        assert not sel.multiple
        assert ("multiple" if sel.multiple else sel.component) == 1

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

    def test_masses_match_a_per_component_loop(self):
        # a fragmented set (nu = 2): one bincount pass gives the same host,
        # flag and leaked mass as summing phi1^2 h^d over each label's mask
        config = DisorderConfig(d=2, rho=1.0, N=1024, nu=2.0, r=0.5, h=0.4, seed=1)
        real = build_realization(config)
        assert real.K > 100
        pair = lowest_eigenpairs(assemble_laplacian(real))
        weights = pair.phi1**2 * real.h**real.d
        masses = [float(np.sum(weights[real.labels == k])) for k in range(1, real.K + 1)]
        component = max(range(1, real.K + 1), key=lambda k: (masses[k - 1], -k))
        outside = max(float(np.sum(weights)) - masses[component - 1], 0.0)
        sel = ground_state_component(real, pair)
        assert sel.component == component
        assert sel.multiple == (outside > 0.01 or pair.numerically_degenerate)
        assert sel.mass_outside == pytest.approx(outside, abs=1e-15)

    def test_equal_masses_pick_the_lowest_label(self):
        config = tiny_box_config()
        mask = np.array(
            [[True, False, True], [True, False, True], [False, False, False]]
        )
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        pair.phi1 = grids.normalize(mask.astype(float), real.h)  # half on each square
        sel = ground_state_component(real, pair)
        assert sel.component == 1
        assert sel.mass_outside == pytest.approx(0.5, rel=1e-15)
        assert sel.multiple

    def test_identical_squares_flagged_multiple(self):
        config = tiny_box_config()
        mask = np.array(
            [[True, False, True], [True, False, True], [False, False, False]]
        )
        real = DisorderRealization.from_mask(config, mask)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        sel = ground_state_component(real, pair)
        assert sel.multiple
        assert ("multiple" if sel.multiple else sel.component) == "multiple"


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
