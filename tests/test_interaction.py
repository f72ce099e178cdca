"""Pair potentials: scaling, standing assumptions, convolution."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import fftconvolve

import kaclab
from kaclab import ConfigError, build_interaction, convolve_density, minimize_hartree
from kaclab import interaction
from kaclab.certify import scaling_diagnostics

from conftest import lattice_symbol, positive_definite, tiny_box_config


def gaussian(kappa=1.0, N=64, d=2, h=0.25, **params):
    return build_interaction("gaussian", kappa, N, d, h, base_params=params)


def assumptions_hold(v):
    """The standing assumptions: v >= 0, even, positive definite, integrable."""
    rev = v.values[tuple(slice(None, None, -1) for _ in range(v.d))]
    return (bool(np.all(v.values >= 0)) and np.array_equal(v.values, rev)
            and positive_definite(v) and bool(np.isfinite(v.l1_norm)))


def brute_convolution(density, v):
    """O(n^2) double loop, the convolution oracle."""
    dims = density.shape
    out = np.zeros(dims)
    for x in np.ndindex(dims):
        acc = 0.0
        for y in np.ndindex(dims):
            off = tuple(a - b for a, b in zip(x, y))
            acc += density[y] * v.value_at_offset(off)
        out[x] = acc * v.h ** v.d
    return out


class TestBuild:
    def test_zero_coupling_identically_zero(self):
        v = gaussian(kappa=0.0)
        assert np.all(v.values == 0.0)
        assert v.l1_norm == 0.0
        assert v.v_at_zero == 0.0
        assert positive_definite(v)

    def test_gaussian_l1_closed_form(self):
        # integral of exp(-|x|^2/2) over the plane is 2 pi
        kappa, N = 0.7, 50
        v = gaussian(kappa=kappa, N=N, width=1.0)
        expected = 2.0 * math.pi * kappa / (N * math.log(N))
        assert v.l1_norm == pytest.approx(expected, rel=1e-12)

    def test_l1_scaling_with_doubled_N(self):
        kappa = 0.3
        v1 = gaussian(kappa=kappa, N=100)
        v2 = gaussian(kappa=kappa, N=200)
        expected_ratio = (100 * math.log(100)) / (200 * math.log(200))
        assert v2.l1_norm / v1.l1_norm == pytest.approx(expected_ratio, rel=1e-12)

    def test_v_at_zero_is_center_sample(self):
        v = gaussian(kappa=2.0, N=10)
        assert v.v_at_zero == pytest.approx(
            2.0 / (10 * math.log(10)), rel=1e-14
        )

    def test_even_and_nonnegative(self):
        v = gaussian(kappa=1.0)
        rev = v.values[::-1, ::-1]
        assert np.array_equal(v.values, rev)
        assert np.all(v.values >= 0.0)

    def test_gaussian_positive_definite(self):
        assert positive_definite(gaussian())
        assert positive_definite(gaussian(d=3, h=0.4, width=0.5))

    def test_fourier_v0_consistency(self):
        # v(0) = (2 pi)^(-d/2) ||hat v||_1, both sides computed independently
        for d, h, w in [(2, 0.25, 1.0), (2, 0.5, 0.5), (3, 0.4, 0.5)]:
            v = build_interaction("gaussian", 1.3, 40, d, h, {"width": w})
            assert lattice_symbol(v)[1] == pytest.approx(v.v_at_zero, rel=1e-8)

    def test_top_hat_requires_override(self):
        with pytest.raises(ConfigError, match="positive definite"):
            build_interaction("top_hat", 1.0, 10, 2, 0.25, {"radius": 1.0})

    def test_top_hat_not_positive_definite(self):
        v = build_interaction(
            "top_hat", 1.0, 10, 2, 0.25, {"radius": 1.0, "allow_non_posdef": True}
        )
        assert not positive_definite(v)
        symbol, _ = lattice_symbol(v)
        assert symbol.min() < -1e-3 * symbol.max()

    def test_custom_table(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0.0 1.0\n0.5 0.5\n1.0 0.0\n")
        v = build_interaction("custom_table", 1.0, 10, 2, 0.25, {"table_path": str(path)})
        scale = 1.0 / (10 * math.log(10))
        assert v.v_at_zero == pytest.approx(scale)
        # radial linear interpolation between the rows, zero from the last radius on
        assert v.value_at_offset((1, 0)) == pytest.approx(0.75 * scale)
        assert v.value_at_offset((2, 0)) == pytest.approx(0.5 * scale)
        assert v.value_at_offset((4, 0)) == 0.0

    def test_negative_table_rejected(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0.0 1.0\n1.0 -0.2\n")
        with pytest.raises(ConfigError, match="nonnegative"):
            build_interaction("custom_table", 1.0, 10, 2, 0.25, {"table_path": str(path)})

    def test_N_below_two_rejected(self):
        with pytest.raises(ConfigError):
            gaussian(N=1)

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ConfigError):
            build_interaction("yukawa", 1.0, 10, 2, 0.25)
        with pytest.raises(ConfigError):
            gaussian(bogus=1.0)
        # a table comes only from table_path
        with pytest.raises(ConfigError, match=r"\['table'\]"):
            build_interaction("custom_table", 1.0, 10, 2, 0.25, {"table": [[0.0, 1.0]]})


class TestAssumptionReport:
    def test_gaussian_report(self):
        v = gaussian(kappa=0.9, N=64)
        assert assumptions_hold(v)
        # s1 = ||v||_1 N ln N recovers kappa ||V||_1, constant in N
        s1 = scaling_diagnostics(v)["s1"]
        assert s1 == pytest.approx(0.9 * 2.0 * math.pi, rel=1e-12)

    def test_s1_constant_under_N(self):
        reps = [scaling_diagnostics(gaussian(kappa=0.4, N=N))["s1"] for N in (16, 256)]
        assert reps[0] == pytest.approx(reps[1], rel=1e-12)

    def test_s2_shrinks_analytically(self):
        v1, v2 = gaussian(kappa=1.0, N=100), gaussian(kappa=1.0, N=200)
        r1 = scaling_diagnostics(v1)["s2"]
        r2 = scaling_diagnostics(v2)["s2"]
        expected = (
            (math.log(200) ** 2 / (200 * math.log(200)))
            / (math.log(100) ** 2 / (100 * math.log(100)))
        )
        assert r2 / r1 == pytest.approx(expected, rel=1e-12)

    def test_zero_potential_report(self):
        v = gaussian(kappa=0.0)
        assert assumptions_hold(v)
        rep = scaling_diagnostics(v)
        assert rep["s1"] == 0.0 and rep["s2"] == 0.0


class TestConvolution:
    def test_zero_potential_zero_field(self):
        v = gaussian(kappa=0.0)
        rng = np.random.default_rng(0)
        dens = rng.random((9, 9))
        assert np.all(convolve_density(dens, v) == 0.0)

    def test_delta_reproduces_translated_potential(self):
        v = gaussian(kappa=1.5, N=30, h=0.5, width=0.5)
        dens = np.zeros((11, 11))
        x0 = (5, 6)
        dens[x0] = 1.0 / v.h**2
        out = convolve_density(dens, v)
        R = v.stencil_radius
        for off in np.ndindex(v.values.shape):
            node = (x0[0] + off[0] - R, x0[1] + off[1] - R)
            if 0 <= node[0] < 11 and 0 <= node[1] < 11:
                assert out[node] == pytest.approx(v.values[off], abs=1e-14)

    @pytest.mark.parametrize(
        "shape, kappa, N, d, h, width, seed",
        [
            ((12, 12), 2.0, 12, 2, 0.5, 0.6, 3),
            # stencil radius 16: the stencil is wider than the grid
            ((17, 17), 1.0, 20, 2, 0.25, 0.5, 4),
            ((5, 5, 5), 2.0, 16, 3, 0.5, 0.6, 8),
        ],
        ids=["d2_12x12", "d2_17x17_wide_stencil", "d3_5x5x5"],
    )
    def test_random_density_matches_bruteforce(self, shape, kappa, N, d, h, width, seed):
        v = gaussian(kappa=kappa, N=N, d=d, h=h, width=width)
        assert len(shape) == v.d
        dens = np.random.default_rng(seed).random(shape)
        out = convolve_density(dens, v)
        np.testing.assert_allclose(out, brute_convolution(dens, v), atol=1e-12)

    def test_linearity(self):
        v = gaussian(kappa=1.0, N=20, h=0.5, width=0.5)
        rng = np.random.default_rng(5)
        f, g = rng.random((8, 8)), rng.random((8, 8))
        lhs = convolve_density(2.0 * f + 3.0 * g, v)
        rhs = 2.0 * convolve_density(f, v) + 3.0 * convolve_density(g, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_translation_equivariance_interior(self):
        v = gaussian(kappa=1.0, N=20, h=0.5, width=0.25)
        dens = np.zeros((15, 15))
        dens[7, 7] = 1.0
        shifted = np.roll(dens, (1, 2), axis=(0, 1))
        out = convolve_density(dens, v)
        out_shifted = convolve_density(shifted, v)
        R = v.stencil_radius
        inner = slice(R + 2, 15 - R - 2)
        np.testing.assert_allclose(
            np.roll(out, (1, 2), axis=(0, 1))[inner, inner],
            out_shifted[inner, inner],
            atol=1e-14,
        )

    def test_youngs_inequality(self):
        v = gaussian(kappa=1.7, N=25, h=0.5, width=0.7)
        rng = np.random.default_rng(6)
        for _ in range(5):
            dens = rng.random((10, 10))
            out = convolve_density(dens, v)
            assert out.max() <= dens.max() * v.l1_norm * (1.0 + 1e-12)

    def test_interaction_energy_symmetry(self):
        # double-sum v(x-y) f(x) f(y) equals <f, f*v> h^d
        v = gaussian(kappa=1.0, N=15, h=0.5, width=0.6)
        rng = np.random.default_rng(7)
        f = rng.random((8, 8))
        double_sum = 0.0
        for x in np.ndindex(f.shape):
            for y in np.ndindex(f.shape):
                off = tuple(a - b for a, b in zip(x, y))
                double_sum += f[x] * f[y] * v.value_at_offset(off)
        double_sum *= v.h**4
        inner = float(np.sum(f * convolve_density(f, v))) * v.h**2
        assert inner == pytest.approx(double_sum, rel=1e-12)

    @pytest.mark.parametrize(
        "shape, d, h, width",
        [
            ((19, 19), 2, 0.25, 1.0),
            ((20, 31), 2, 0.25, 1.0),
            ((319, 319), 2, 0.4, 0.5),
            # a 161x161 stencil over a 12x12 grid
            ((12, 12), 2, 0.1, 1.0),
            ((23, 23, 23), 3, 0.4, 0.5),
            ((5, 6, 7), 3, 0.4, 0.5),
        ],
    )
    def test_bitwise_fftconvolve(self, shape, d, h, width):
        v = gaussian(kappa=1.3, N=64, d=d, h=h, width=width)
        dens = np.random.default_rng(1).random(shape)
        expected = fftconvolve(dens, v.values, mode="same") * h**d
        assert np.array_equal(convolve_density(dens, v), expected)
        # again from the cached kernel spectrum
        assert np.array_equal(convolve_density(dens, v), expected)

    @pytest.mark.parametrize("shape, d", [((1, 9), 2), ((4, 1, 5), 3)])
    def test_one_wide_axis_matches_fftconvolve(self, shape, d):
        # fftconvolve leaves a 1-wide axis out of its FFT, so the sums round
        # differently (3.3e-19 apart where measured)
        v = gaussian(kappa=1.3, N=64, d=d, h=0.4, width=0.5)
        dens = np.random.default_rng(2).random(shape)
        expected = fftconvolve(dens, v.values, mode="same") * v.h**d
        np.testing.assert_allclose(convolve_density(dens, v), expected, rtol=0.0, atol=1e-15)

    def test_one_kernel_transform_per_hartree_run(self, monkeypatch):
        real = kaclab.build_realization(tiny_box_config(N=16, L=4.0, h=0.25, nu=0.5, seed=3))
        v = gaussian(kappa=2.0, N=16, h=real.h, width=0.5)
        seen = []
        rfftn = interaction.rfftn

        def spy_rfftn(x, *args, **kwargs):
            seen.append(x is v.values)
            return rfftn(x, *args, **kwargs)

        monkeypatch.setattr(interaction, "rfftn", spy_rfftn)
        component = 1 + int(np.argmax(real.component_volumes))
        hs = minimize_hartree(real, component, v, N=16)
        assert hs.iterations > 1
        # one density transform per convolution, the kernel transform once
        assert seen.count(True) == 1
        assert seen.count(False) > hs.iterations


def test_import_does_not_load_scipy_signal():
    src = os.path.dirname(os.path.dirname(kaclab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c",
         "import kaclab, sys; assert 'scipy.signal' not in sys.modules"],
        env=env, check=True,
    )
