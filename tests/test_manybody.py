"""Exact few-boson diagonalization against independent first-quantized oracles."""

import logging

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator

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
)
from kaclab import manybody
from kaclab.manybody import (
    DENSE_CUTOFF,
    ManyBodyGroundState,
    _lex_basis,
    basis_dimension,
)

from conftest import (
    dense_laplacian,
    loop_density_matrix,
    loop_manybody_hamiltonian,
    tiny_box_config,
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
            pair[i, j] = v.value_at_offset(off)
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
        # a 1x1 Hamiltonian goes through eigh like any other: the entry exactly
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

    def test_arpack_ground_state_independent_of_call_history(self):
        # A, then B, then A again on the ARPACK path: the start vector is
        # fixed, so A's energy and state repeat byte for byte
        real_a = build_realization(tiny_box_config(N=2, L=3.0), centers=np.zeros((0, 2)))
        real_b = build_realization(tiny_box_config(N=2, L=3.0),
                                   centers=np.array([[-1.0, -1.0]]))
        H_a = build_manybody_hamiltonian(real_a, potential_for(real_a, 1.0, 3), 3)
        H_b = build_manybody_hamiltonian(real_b, potential_for(real_b, 1.0, 3), 3)
        assert H_a.basis_dim > DENSE_CUTOFF and H_b.basis_dim > DENSE_CUTOFF
        first = ground_state(H_a)
        ground_state(H_b)
        again = ground_state(H_a)
        assert np.float64(first.E_qm).tobytes() == np.float64(again.E_qm).tobytes()
        assert first.psi.tobytes() == again.psi.tobytes()


class TestGroundStateResidual:
    @pytest.mark.parametrize("N", [2, 3], ids=["dense", "arpack"])
    def test_perturbed_solver_vector_raises(self, monkeypatch, N):
        # a solver whose unit vector is 1e-6 off its eigenvector: the
        # residual (~1e-5) is far above 1e-9 |E| plus the floor (~1e-12);
        # 16 sites give bases of 136 (N=2, eigh) and 816 (N=3, eigsh) states
        real = build_realization(tiny_box_config(N=2, L=2.5), centers=np.zeros((0, 2)))
        H = build_manybody_hamiltonian(real, potential_for(real, 1.0, N), N)
        assert (H.basis_dim > DENSE_CUTOFF) == (N == 3)
        module, name = (manybody, "eigsh") if N == 3 else (scipy.linalg, "eigh")
        solver = getattr(module, name)

        def perturbed(*args, **kwargs):
            vals, vecs = solver(*args, **kwargs)
            vecs[:, 0] += 1e-6 * np.random.default_rng(1).standard_normal(vecs.shape[0])
            vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
            return vals, vecs

        assert ground_state(H).E_qm > 0.0
        monkeypatch.setattr(module, name, perturbed)
        with pytest.raises(SolverError, match="residual") as err:
            ground_state(H)
        assert err.value.residuals[0] > 1e-7


class TestArpackStopping:
    """ARPACK's SA run stops at EIG_TOL / 10, not at machine precision."""

    # the first three connected 22-24-site d=2 sets of derive_seeds(2024, ...)
    # at L=2.4: N=3 bases of 2,024-2,300 states
    SEEDS = (11069854644879971893, 1093408664070836919, 10952088214607132430)

    def test_fewer_products_same_energy(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="kaclab.manybody")
        counts = []
        solver = manybody.eigsh

        def counting_eigsh(A, *args, **kwargs):
            op = aslinearoperator(A)
            counts.append(0)

            def matvec(x):
                counts[-1] += 1
                return op.matvec(x)

            return solver(LinearOperator(op.shape, matvec, dtype=float), *args, **kwargs)

        monkeypatch.setattr(manybody, "eigsh", counting_eigsh)
        for seed in self.SEEDS:
            real = disordered_2d_set(N=3, L=2.4, seed=seed)
            assert 22 <= real.n_vacant <= 24 and real.K == 1
            H = build_manybody_hamiltonian(real, potential_for(real, 1.0, 3), 3)
            gs = ground_state(H)
            exact = scipy.linalg.eigh(H.matrix.toarray(), eigvals_only=True,
                                      subset_by_index=(0, 0))[0]
            assert gs.E_qm == pytest.approx(exact, rel=1e-13)
            # 61 products each; ARPACK's default tol=0 took 81-91
            assert counts[-1] <= 70
            record = caplog.records[-1]
            assert record.levelno == logging.DEBUG
            message = record.getMessage()
            assert f"on {H.basis_dim} states: {counts[-1]} products" in message
        assert len(counts) == len(caplog.records) == 3


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
        pair = lowest_eigenpairs(assemble_laplacian(real), tol=1e-9)
        hs = minimize_hartree(real, 1, v, N, eig_tol=1e-9)
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
