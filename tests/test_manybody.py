"""Exact few-boson diagonalization against independent first-quantized oracles."""

import ast
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import eigsh

from itertools import combinations_with_replacement

from kaclab import (
    BasisSizeError,
    DisorderConfig,
    DisorderRealization,
    GridMismatchError,
    MaskedOperator,
    SolverError,
    assemble_laplacian,
    build_interaction,
    build_manybody_hamiltonian,
    build_realization,
    condensate_occupation,
    ground_state,
    lowest_eigenpairs,
    minimize_hartree,
    one_body_density_matrix,
    product_state,
)
from kaclab import laplace, manybody
from kaclab.manybody import (
    ManyBodyGroundState,
    _lex_basis,
    basis_dimension,
)

from conftest import (
    dense_laplacian,
    free_box_realization,
    loop_density_matrix,
    loop_manybody_hamiltonian,
    tiny_box_config,
    value_at_offset,
)


def potential_for(real, kappa, N, width=0.5):
    return build_interaction(
        "gaussian", kappa, N, real.config.d, real.h, {"width": width}
    )


def three_site_strip():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, :] = True
    return DisorderRealization.from_mask(tiny_box_config(), mask)


def small_3d_set():
    """3x3x3 box with five nodes blocked (M=22, one component)."""
    mask = np.ones((3, 3, 3), dtype=bool)
    for node in [(0, 0, 0), (1, 1, 1), (2, 0, 1), (0, 2, 2), (2, 2, 0)]:
        mask[node] = False
    return DisorderRealization.from_mask(tiny_box_config(d=3), mask)


def two_box_set():
    """Two disjoint boxes of 2x4 and 3x3 sites (M=17, K=2): N=3 gives 969 states."""
    config = tiny_box_config(N=3, L=4.0)
    mask = np.zeros(config.grid_dims, dtype=bool)
    mask[0:2, 0:4] = True
    mask[3:6, 0:3] = True
    real = DisorderRealization.from_mask(config, mask)
    assert real.n_vacant == 17 and real.K == 2
    return real


def disordered_2d_set(N=3, L=2.4, seed=7):
    """A sampled d=2 vacancy set on a 5x5 grid with some nodes blocked."""
    config = DisorderConfig(d=2, rho=N / L**2, N=N, nu=0.15, r=0.5, h=0.4, seed=seed)
    real = build_realization(config)
    assert 0 < real.n_vacant < real.n_nodes
    return real


def first_quantized_two_boson(real, v):
    """Dense two-particle Hamiltonian on the full tensor grid, the oracle."""
    A, nodes = dense_laplacian(real.mask, real.h)
    M = len(nodes)
    eye = np.eye(M)
    H2 = np.kron(A, eye) + np.kron(eye, A)
    pair = np.zeros((M, M))
    for i, xi in enumerate(nodes):
        for j, xj in enumerate(nodes):
            off = tuple(a - b for a, b in zip(xi, xj))
            pair[i, j] = value_at_offset(v, off)
    H2 += np.diag(pair.ravel())
    vals, vecs = np.linalg.eigh(H2)
    psi = vecs[:, 0].reshape(M, M)
    psi *= np.sign(psi.sum()) or 1.0
    rho1 = psi @ psi.T  # trace one because psi is normalized
    return float(vals[0]), psi, rho1


class TestHamiltonian:
    def test_N1_reproduces_one_body_spectrum(self, corner_blocked_6):
        real = corner_blocked_6
        v = potential_for(real, kappa=1.3, N=2)
        H = build_manybody_hamiltonian(real, v, N=1)
        assert H.basis_dim == real.n_vacant
        one_body = assemble_laplacian(real).matrix().toarray()
        np.testing.assert_allclose(
            np.linalg.eigvalsh(H.matrix.toarray()),
            np.linalg.eigvalsh(one_body),
            atol=1e-10,
        )

    def test_N1_matrix_is_the_laplacian_entry_for_entry(self, corner_blocked_6, two_strip_5):
        # one owner of the site numbering and the face pairs: with one
        # particle the many-body matrix is the one-body stencil's, bit for bit
        for real in (corner_blocked_6, two_strip_5, small_3d_set(), disordered_2d_set()):
            H = build_manybody_hamiltonian(real, potential_for(real, 1.3, N=2), N=1)
            one_body = MaskedOperator(real.mask, real.h).matrix().tocsr()
            assert H.matrix.shape == one_body.shape
            assert (H.matrix != one_body).nnz == 0
            assert np.array_equal(H.matrix.toarray(), one_body.toarray())

    def test_two_sites_two_bosons_noninteracting(self):
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 0] = mask[1, 1] = True
        real = DisorderRealization.from_mask(config, mask)
        v = potential_for(real, kappa=0.0, N=2)
        H = build_manybody_hamiltonian(real, v, N=2)
        assert H.basis_dim == 3
        gs = ground_state(H)
        h2 = real.h**2
        one_body_ground = (4.0 - 1.0) / h2  # 2x2 stencil block, lower eigenvalue
        assert gs.E_qm == pytest.approx(2.0 * one_body_ground, rel=1e-13)

    def test_one_site_two_bosons_closed_form(self):
        # single configuration: energy = 2 * diagonal + v(0)
        config = tiny_box_config()
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(config, mask)
        v = potential_for(real, kappa=2.0, N=2)
        gs = ground_state(build_manybody_hamiltonian(real, v, N=2))
        expected = 2.0 * (4.0 / real.h**2) + v.v_at_zero
        assert gs.E_qm == pytest.approx(expected, rel=1e-14)

    def test_matrix_symmetric(self, two_strip_5):
        v = potential_for(two_strip_5, kappa=1.0, N=3)
        H = build_manybody_hamiltonian(two_strip_5, v, N=3).matrix
        asym = abs(H - H.T)
        assert asym.max() < 1e-12

    def test_basis_cap_refused_with_dimension(self, free_3x3):
        v = potential_for(free_3x3, kappa=0.0, N=3)
        dim = basis_dimension(9, 3)
        with pytest.raises(BasisSizeError, match=str(dim)):
            build_manybody_hamiltonian(free_3x3, v, N=3, cap=dim - 1)

    def test_no_particles_rejected(self, free_3x3):
        v = potential_for(free_3x3, kappa=1.0, N=2)
        with pytest.raises(ValueError, match="N=0 must be >= 1"):
            build_manybody_hamiltonian(free_3x3, v, N=0)


class TestGroundState:
    @pytest.mark.parametrize("N", [2, 3])
    def test_noninteracting_condensation(self, free_3x3, N):
        real = free_3x3
        v = potential_for(real, kappa=0.0, N=N)
        lam1 = lowest_eigenpairs(assemble_laplacian(real)).lambda1
        gs = ground_state(build_manybody_hamiltonian(real, v, N=N))
        assert gs.E_qm == pytest.approx(N * lam1, rel=1e-12)
        rho1 = one_body_density_matrix(gs)
        hs = minimize_hartree(real, 1, v, N)
        n_cond = condensate_occupation(rho1, hs.u, real, N)
        assert 1.0 - n_cond / N < 1e-10

    def test_one_site_is_the_diagonal_entry(self):
        # a 1x1 Hamiltonian goes through _lanczos like any other: the entry exactly
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        real = DisorderRealization.from_mask(tiny_box_config(), mask)
        H = build_manybody_hamiltonian(real, potential_for(real, kappa=2.0, N=3), N=3)
        gs = ground_state(H)
        assert gs.E_qm == H.matrix[0, 0]
        assert np.array_equal(gs.psi, [1.0])
        # rho1 = sqrt(3)^2 / 3, one rounding off 1
        rho1 = one_body_density_matrix(gs)
        assert rho1.shape == (1, 1)
        assert rho1[0, 0] == pytest.approx(1.0, rel=0, abs=4 * np.finfo(float).eps)

    def test_product_state_upper_bound(self, corner_blocked_6):
        # E_qm <= N e1 with the Hartree product trial state, every instance
        real = corner_blocked_6
        for N in (2, 3, 4):
            for kappa in (0.5, 2.0):
                v = potential_for(real, kappa, N)
                hs = minimize_hartree(real, 1, v, N)
                gs = ground_state(build_manybody_hamiltonian(real, v, N))
                assert gs.E_qm <= N * hs.e1 + 1e-10


class TestDensityMatrix:
    def test_product_state_rank_one(self, free_3x3):
        real = free_3x3
        v = potential_for(real, kappa=0.0, N=3)
        gs = ground_state(build_manybody_hamiltonian(real, v, N=3))
        rho1 = one_body_density_matrix(gs)
        phi = lowest_eigenpairs(assemble_laplacian(real)).phi1
        u_sites = phi.ravel()[np.flatnonzero(real.mask.ravel())]
        u_sites = u_sites * real.h  # h^(d/2) per axis: plain l2-normalized
        np.testing.assert_allclose(rho1, np.outer(u_sites, u_sites), atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 0.8, 3.0])
    def test_matches_first_quantized_oracle(self, kappa, two_strip_5):
        real = two_strip_5
        assert real.n_vacant <= 6
        v = potential_for(real, kappa, N=2)
        H = build_manybody_hamiltonian(real, v, N=2)
        gs = ground_state(H)
        rho1 = one_body_density_matrix(gs)
        E_fq, _, rho1_fq = first_quantized_two_boson(real, v)
        assert gs.E_qm == pytest.approx(E_fq, abs=1e-12 * max(1.0, abs(E_fq)))
        np.testing.assert_allclose(rho1, rho1_fq, atol=1e-12)

    def test_psd_and_trace(self, corner_blocked_6):
        v = potential_for(corner_blocked_6, kappa=1.5, N=3)
        gs = ground_state(build_manybody_hamiltonian(corner_blocked_6, v, N=3))
        rho1 = one_body_density_matrix(gs)
        assert np.trace(rho1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho1).min() >= -1e-12
        np.testing.assert_allclose(rho1, rho1.T, atol=1e-14)


class TestOccupation:
    def test_occupation_identities(self, free_3x3):
        real = free_3x3
        v = potential_for(real, kappa=0.0, N=2)
        gs = ground_state(build_manybody_hamiltonian(real, v, N=2))
        rho1 = one_body_density_matrix(gs)
        pair = lowest_eigenpairs(assemble_laplacian(real))
        # rho1 = |phi1><phi1|: occupation of phi1 is N, of phi2 is 0
        assert condensate_occupation(rho1, pair.phi1, real, 2) == pytest.approx(
            2.0, abs=1e-10
        )
        assert condensate_occupation(rho1, pair.phi2, real, 2) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_depletion_inside_certificate_window(self, corner_blocked_6):
        real = corner_blocked_6
        N = 3
        v = potential_for(real, kappa=0.4, N=N)
        hs = minimize_hartree(real, 1, v, N)
        gs = ground_state(build_manybody_hamiltonian(real, v, N))
        rho1 = one_body_density_matrix(gs)
        n_cond = condensate_occupation(rho1, hs.u, real, N)
        gap = hs.e2 - hs.e1
        assert gap > 0
        depletion = 1.0 - n_cond / N
        assert -1e-12 <= depletion <= v.v_at_zero / (2.0 * gap) + 1e-10

    def test_grid_mismatch_rejected(self, free_3x3, corner_blocked_6):
        v = potential_for(free_3x3, kappa=0.0, N=2)
        gs = ground_state(build_manybody_hamiltonian(free_3x3, v, N=2))
        rho1 = one_body_density_matrix(gs)
        with pytest.raises(GridMismatchError):
            condensate_occupation(rho1, np.ones((4, 4)), free_3x3, 2)
        with pytest.raises(GridMismatchError):
            condensate_occupation(rho1[:5, :5], np.ones((3, 3)), free_3x3, 2)


class TestBasisRanking:
    @pytest.mark.parametrize("M", [1, 2, 5, 9])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5])
    def test_lex_basis_and_ranks_are_row_indices(self, M, N):
        states, rank = _lex_basis(M, N)
        dim = basis_dimension(M, N)
        expected = np.array(list(combinations_with_replacement(range(M), N)))
        assert np.array_equal(states, expected.reshape(dim, N))
        assert np.array_equal(rank(states), np.arange(dim))

    def test_ranks_stay_exact_where_base_M_keys_overflow(self):
        # 3**40 > 2**63: a base-M key would wrap, the rank stays below C(42, 40)
        states, rank = _lex_basis(3, 40)
        assert states.shape == (861, 40)
        assert np.array_equal(rank(states), np.arange(861))


class TestCreationTable:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("fixture", ["free_3x3", "two_strip_5", "small_3d_set"])
    def test_every_entry_is_c_plus_a(self, request, fixture, N):
        if fixture == "small_3d_set":
            real = small_3d_set()
        else:
            real = request.getfixturevalue(fixture)
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 2), N)
        M = H.site_count
        reduced = list(combinations_with_replacement(range(M), N - 1))
        assert H.create.shape == H.count.shape == (len(reduced), M)
        for c, rest in enumerate(reduced):
            for a in range(M):
                state = tuple(sorted(rest + (a,)))
                assert tuple(H.states[H.create[c, a]]) == state
                assert H.count[c, a] == state.count(a)

    def test_index_dtype_switches_above_int32(self):
        top = np.iinfo(np.int32).max
        assert top == 2**31 - 1
        assert manybody._index_dtype(top, top) is np.int32
        assert manybody._index_dtype(top + 1, top) is np.int64
        assert manybody._index_dtype(top, top + 1) is np.int64

    def test_small_build_stores_int32_indices(self, free_3x3):
        H = build_manybody_hamiltonian(free_3x3, potential_for(free_3x3, 1.0, 3), 3)
        assert H.create.dtype == H.matrix.indices.dtype == H.matrix.indptr.dtype == np.int32

    def test_build_peak_traced_bytes_per_entry(self):
        # numpy's allocations are traced deterministically: the build that
        # copied, sorted and ranked the basis per hop peaked at 78 bytes per
        # stored entry here, the creation table's in-place triplets at 36
        real = disordered_2d_set(N=4, L=2.4, seed=7)
        assert real.n_vacant == 22 and real.K == 1
        v = potential_for(real, 1.0, 4)
        tracemalloc.start()
        try:
            H = build_manybody_hamiltonian(real, v, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.basis_dim == 12650
        assert peak / H.matrix.nnz < 48

    def test_build_logs_one_debug_line(self, caplog, free_3x3):
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        H = build_manybody_hamiltonian(free_3x3, potential_for(free_3x3, 1.0, 3), 3)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "kaclab.manybody"
        assert record.getMessage() == (f"many-body build on 165 states: {H.matrix.nnz} "
                                       f"stored entries, creation table 45 x 9")


def assert_matches_loop_oracle(real, kappa, N, seed=0):
    """Matrix, basis and rho1 bit-identical to the per-state loop oracle."""
    v = potential_for(real, kappa, max(N, 2))  # the kappa scaling needs N >= 2
    H = build_manybody_hamiltonian(real, v, N)
    ref, ref_states = loop_manybody_hamiltonian(real, v, N)
    A = H.matrix
    assert np.array_equal(H.states, ref_states)
    assert (A != ref).nnz == 0
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name
        assert getattr(A, name).tobytes() == getattr(ref, name).tobytes(), name
    # rho1 is a fixed map of psi, so any unit vector exercises it
    psi = np.random.default_rng(seed).standard_normal(H.basis_dim)
    psi /= np.linalg.norm(psi)
    gs = ManyBodyGroundState(N, H.site_count, H.basis_dim, 0.0, psi, H)
    rho1 = one_body_density_matrix(gs)
    assert np.array_equal(rho1, loop_density_matrix(H.states, psi, H.site_count))


class TestLoopOracle:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("fixture", ["free_3x3", "corner_blocked_6", "two_strip_5"])
    def test_fixtures_bit_identical(self, request, fixture, N):
        assert_matches_loop_oracle(request.getfixturevalue(fixture), 1.3, N, seed=N)

    @pytest.mark.parametrize("N", [2, 3])
    def test_d3_mask_bit_identical(self, N):
        assert_matches_loop_oracle(small_3d_set(), 0.8, N)

    def test_disordered_d2_set_bit_identical(self):
        assert_matches_loop_oracle(disordered_2d_set(), 1.0, 3)

    def test_noninteracting_bit_identical(self, two_strip_5):
        assert_matches_loop_oracle(two_strip_5, 0.0, 3)


class TestReach:
    @pytest.mark.parametrize("N", [40, 60])
    def test_many_bosons_on_three_sites(self, N):
        # a base-3 key of 40 sites reaches 3**40 - 1 > 2**63 and wraps in
        # int64; ranks stay below C(N+2, N)
        real = three_site_strip()
        v = potential_for(real, 0.0, N)
        lam1 = lowest_eigenpairs(assemble_laplacian(real)).lambda1
        gs = ground_state(build_manybody_hamiltonian(real, v, N))
        assert gs.basis_dim == basis_dimension(3, N)
        assert gs.E_qm == pytest.approx(N * lam1, rel=1e-12)
        assert np.trace(one_body_density_matrix(gs)) == pytest.approx(1.0, abs=1e-12)

    def test_arpack_ground_state_independent_of_call_history(self, caplog):
        # A, then B, then A again on the Lanczos path: the start is a function
        # of H alone, so A's energy, state and DEBUG line repeat byte for
        # byte.  At kappa=0 psi is phi1^(x N) and the floored start overlaps
        # it by 0.9999
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        real_a = build_realization(tiny_box_config(N=2, L=3.0), centers=np.zeros((0, 2)))
        real_b = build_realization(tiny_box_config(N=2, L=3.0),
                                   centers=np.array([[-1.0, -1.0]]))
        for kappa, products in ((1.0, "27 products, 1 restarts"), (0.0, "12 products, 0 restarts")):
            caplog.clear()
            H_a = build_manybody_hamiltonian(real_a, potential_for(real_a, kappa, 3), 3)
            H_b = build_manybody_hamiltonian(real_b, potential_for(real_b, kappa, 3), 3)
            first = ground_state(H_a)
            ground_state(H_b)
            again = ground_state(H_a)
            assert np.float64(first.E_qm).tobytes() == np.float64(again.E_qm).tobytes()
            assert first.psi.tobytes() == again.psi.tobytes()
            lines = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("Lanczos")]
            assert len(lines) == 3 and lines[0] == lines[2]
            assert f"on {H_a.basis_dim} states: {products}, residual" in lines[0]

    def test_exact_eigenvector_start_breaks_down_at_once(self, caplog):
        # the unfloored phi1^(x N) is H's ground state at kappa=0: the first
        # Lanczos step finds an invariant subspace, beta is roundoff, and the
        # Ritz check stops it after one product (ARPACK took 11)
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        real = build_realization(tiny_box_config(N=2, L=3.0), centers=np.zeros((0, 2)))
        H = build_manybody_hamiltonian(real, potential_for(real, 0.0, 3), 3)
        pair = lowest_eigenpairs(assemble_laplacian(real), count=1)
        phi = pair.phi1[real.mask]
        H.orbital = phi / np.linalg.norm(phi)
        for _ in range(2):
            assert ground_state(H).E_qm == pytest.approx(3 * pair.lambda1, rel=1e-13)
        first, again = (r.getMessage() for r in caplog.records
                        if r.getMessage().startswith("Lanczos"))
        assert first == again
        assert f"on {H.basis_dim} states: 1 products, 0 restarts" in first
        assert first.endswith("start overlap 1.0000")


class TestGroundStateResidual:
    @pytest.mark.parametrize("N, dim", [(2, 136), (3, 816)], ids=["dense", "arpack"])
    def test_perturbed_solver_vector_raises(self, monkeypatch, N, dim):
        # a solver whose unit vector is 1e-6 off its eigenvector: the
        # residual (~1e-5) is far above 1e-9 |E| plus the floor (~1e-12);
        # 16 sites give bases of 136 (N=2) and 816 (N=3) states, the sizes
        # the ids name after the solver each size once ran
        real = build_realization(tiny_box_config(N=2, L=2.5), centers=np.zeros((0, 2)))
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, N), N)
        assert H.basis_dim == dim
        solver = manybody._lanczos

        def perturbed(*args, **kwargs):
            E, psi, products, restarts = solver(*args, **kwargs)
            psi = psi + 1e-6 * np.random.default_rng(1).standard_normal(psi.shape[0])
            return E, psi / np.linalg.norm(psi), products, restarts

        assert ground_state(H).E_qm > 0.0
        monkeypatch.setattr(manybody, "_lanczos", perturbed)
        with pytest.raises(SolverError, match="residual") as err:
            ground_state(H)
        assert err.value.residuals[0] > 1e-7


class TestProductStart:
    """The Lanczos run starts from the product of a floored, positive one-body orbital."""

    @pytest.mark.parametrize("kappa", [1.0, 5.0, 50.0])
    def test_two_components_reach_the_ground_sector(self, kappa):
        # H keeps each box's boson number.  phi1 lives on the 3x3 box, so
        # without the floor the start has no weight on the sectors with bosons
        # in the 2x4 box, and at kappa 5 and 50 ARPACK returned the all-in-3x3
        # sector's energy, 3.5% and 47% high
        real = two_box_set()
        H = build_manybody_hamiltonian(real, potential_for(real, kappa, 3), 3)
        assert H.basis_dim == 969
        exact = scipy.linalg.eigh(H.matrix.toarray(), eigvals_only=True,
                                  subset_by_index=(0, 0))[0]
        assert ground_state(H).E_qm == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("make", [two_box_set, disordered_2d_set, small_3d_set])
    def test_start_positive_on_every_state(self, make):
        real = make()
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 3), 3)
        assert H.orbital.shape == (real.n_vacant,) and np.all(H.orbital > 0)
        assert np.linalg.norm(H.orbital) == pytest.approx(1.0, rel=1e-14)
        start = product_state(H, H.orbital)
        assert np.all(start > 0)
        assert np.linalg.norm(start) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_coefficients_match_the_multinomial_formula(self, corner_blocked_6, N):
        real = corner_blocked_6
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 2), N)
        w = np.random.default_rng(N).uniform(-1.0, 1.0, H.site_count)
        expected = np.empty(H.basis_dim)
        for row, state in enumerate(H.states):
            n = np.bincount(state, minlength=H.site_count)
            weight = math.factorial(N) / np.prod([math.factorial(k) for k in n])
            expected[row] = math.sqrt(weight) * np.prod(w[state])
        got = product_state(H, w)
        np.testing.assert_allclose(got, expected / np.linalg.norm(expected),
                                   rtol=1e-13, atol=1e-15)

    def test_noninteracting_ground_state_is_the_phi1_product(self, free_3x3):
        H = build_manybody_hamiltonian(free_3x3, potential_for(free_3x3, 0.0, 3), 3)
        phi = lowest_eigenpairs(assemble_laplacian(free_3x3), count=1).phi1[free_3x3.mask]
        assert abs(product_state(H, phi) @ ground_state(H).psi) == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(GridMismatchError):
            product_state(H, phi[:-1])


class TestArpackStopping:
    """The Lanczos run stops at EIG_TOL / 10, not at machine precision."""

    # the first three connected 22-24-site d=2 sets of derive_seeds(2024, ...)
    # at L=2.4: N=3 bases of 2,024-2,300 states
    SEEDS = (11069854644879971893, 1093408664070836919, 10952088214607132430)

    def test_fewer_products_same_energy(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        counts = []
        solver = manybody._lanczos

        class Counting:
            """H's matrix, counting its products."""

            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, x):
                counts[-1] += 1
                return self.matrix @ x

        def counting_lanczos(A, *args, **kwargs):
            counts.append(0)
            return solver(Counting(A), *args, **kwargs)

        monkeypatch.setattr(manybody, "_lanczos", counting_lanczos)
        for seed in self.SEEDS:
            real = disordered_2d_set(N=3, L=2.4, seed=seed)
            assert 22 <= real.n_vacant <= 24 and real.K == 1
            H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 3), 3)
            gs = ground_state(H)
            exact = scipy.linalg.eigh(H.matrix.toarray(), eigvals_only=True,
                                      subset_by_index=(0, 0))[0]
            assert gs.E_qm == pytest.approx(exact, rel=1e-13)
            # 50, 46 and 46 products from the product start with 20 Lanczos
            # vectors; ARPACK with 10 took 46 each, from a random start with
            # 20, 61, and at its default tol=0, 81-91
            assert counts[-1] <= 50
            record = caplog.records[-1]
            assert record.levelno == logging.DEBUG
            message = record.getMessage()
            assert f"on {H.basis_dim} states: {counts[-1]} products" in message
            overlap = float(message.rsplit("start overlap ", 1)[1])
            assert overlap == pytest.approx(abs(product_state(H, H.orbital) @ gs.psi),
                                            abs=5e-5)
        # one Lanczos line per solve, besides each build's own line
        lines = [r for r in caplog.records if r.getMessage().startswith("Lanczos")]
        assert len(counts) == len(lines) == 3


class TestLanczos:
    """The kernel's restarts, working set and imports."""

    @pytest.mark.parametrize("cap", [manybody.LANCZOS_CAP, 8])
    def test_restarted_basis_matches_dense_eigh(self, monkeypatch, caplog, cap):
        # the N=3 set of 22 sites needs more products than either cap holds,
        # so the run restarts from its Ritz vector and still lands on eigh's pair
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        monkeypatch.setattr(manybody, "LANCZOS_CAP", cap)
        real = disordered_2d_set(N=3, L=2.4, seed=TestArpackStopping.SEEDS[0])
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 3), 3)
        gs = ground_state(H)
        vals, vecs = scipy.linalg.eigh(H.matrix.toarray(), subset_by_index=(0, 1))
        assert gs.E_qm == pytest.approx(vals[0], rel=1e-13)
        assert abs(vecs[:, 0] @ gs.psi) == pytest.approx(1.0, abs=1e-9)
        message = caplog.records[-1].getMessage()
        products, restarts = (int(part.split()[0]) for part in
                              message.split(": ", 1)[1].split(", ")[:2])
        assert products > cap and restarts >= products // cap

    @pytest.mark.parametrize("sites, N", [((1, 1), 3), ((1, 2), 2), ((2, 4), 2), ((4, 4), 2)],
                             ids=["D=1", "D=3", "D=36", "D=136"])
    def test_small_bases_match_dense_eigh(self, sites, N):
        # bases of one state and more take the same run; below LANCZOS_CAP
        # states the Krylov space runs out before the basis fills: beta falls
        # to roundoff and the Ritz check stops the run there
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:1 + sites[0], 1:1 + sites[1]] = True
        real = DisorderRealization.from_mask(tiny_box_config(L=3.0), mask)
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, N), N)
        gs = ground_state(H)
        vals, vecs = scipy.linalg.eigh(H.matrix.toarray())
        assert gs.basis_dim == len(vals) == math.comb(int(mask.sum()) + N - 1, N)
        assert gs.E_qm == pytest.approx(vals[0], rel=laplace.EIG_TOL)
        assert abs(vecs[:, 0] @ gs.psi) == pytest.approx(1.0, abs=laplace.EIG_TOL)

    def test_working_set_within_arpack(self):
        # the basis and the work vectors: cap + 3 vectors of D doubles, where
        # ARPACK at ncv=10 from the same start held 26
        real = disordered_2d_set(N=3, L=2.4, seed=TestArpackStopping.SEEDS[0])
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 3), 3)
        v0 = product_state(H, H.orbital)
        peaks = []
        for solve in (lambda: ground_state(H),
                      lambda: eigsh(H.matrix, k=1, which="SA", v0=v0, ncv=10,
                                    tol=laplace.EIG_TOL / 10)):
            solve()
            tracemalloc.start()
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        ours, arpack = peaks
        assert ours <= arpack
        assert ours <= (manybody.LANCZOS_CAP + 4) * 8 * H.basis_dim

    def test_manybody_imports_nothing_from_sparse_linalg(self):
        # ARPACK and scipy's other iterative solvers stay in laplace: the
        # many-body ground state is _lanczos's, and no name of
        # scipy.sparse.linalg is imported or read in manybody
        path = Path(manybody.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy.sparse.linalg"), where
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("scipy.sparse.linalg")
                               for alias in node.names), where
            elif isinstance(node, ast.Attribute):
                assert not ast.unparse(node).startswith(("sp.linalg", "scipy.sparse.linalg")), where
            elif isinstance(node, ast.Name):
                assert node.id not in ("eigsh", "LinearOperator", "ArpackNoConvergence"), where


def test_arpack_no_convergence_is_a_solver_error(monkeypatch):
    # a product budget too small for the basis: the kernel gives up
    monkeypatch.setattr(manybody, "PRODUCT_BUDGET", 3)
    real = free_box_realization(8)
    H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 2), 2)
    with pytest.raises(SolverError, match="many-body eigensolver did not converge") as info:
        ground_state(H)
    assert "3 products" in str(info.value) and info.value.residuals is None


class TestDisorderedCertificates:
    """Energy and depletion certificates on sampled sets, beyond the fixtures.

    Connected d=2 sets from build_realization with 43-76 vacant sites; the
    N=4 instance has a basis of 163,185 states.
    """

    @pytest.mark.parametrize("L, N, seed, M", [
        (4.0, 3, 1, 66),
        (4.0, 3, 3, 76),
        (3.2, 4, 18, 43),
    ])
    def test_certificates_hold(self, L, N, seed, M):
        real = disordered_2d_set(N=N, L=L, seed=seed)
        assert real.n_vacant == M and real.K == 1
        v = potential_for(real, 1.0, N)
        pair = lowest_eigenpairs(assemble_laplacian(real), tol=laplace.EIG_TOL)
        hs = minimize_hartree(real, 1, v, N, eig_tol=laplace.EIG_TOL)
        gs = ground_state(build_manybody_hamiltonian(real, v, N))
        rho1 = one_body_density_matrix(gs)
        n_cond = condensate_occupation(rho1, hs.u, real, N)
        budget = 1e-7 + 2.0 * (pair.residual1 + pair.residual2) + hs.el_residual
        assert abs(gs.E_qm / N - hs.e1) <= 0.5 * v.v_at_zero + budget
        gap = hs.e2 - hs.e1
        assert gap > 0.0
        assert 1.0 - n_cond / N <= 0.5 * v.v_at_zero / gap + budget
        slack = 1e-9 * max(1.0, abs(N * hs.energy))
        assert N * pair.lambda1 - slack <= gs.E_qm <= N * hs.energy + slack
        assert np.trace(rho1) == pytest.approx(1.0, abs=1e-12)
