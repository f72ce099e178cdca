"""Scaled pair potentials and grid convolution.

The pair potential is kappa * V(x) / (N (ln N)^(2/d)) sampled on a centered
stencil of integer offsets; the (ln N)-weakened mean-field scaling keeps the
potential energy per particle comparable to the spectral gap of the disordered
Laplacian.  Admissible profiles are nonnegative, even and positive definite
(nonnegative lattice Fourier transform); the built-in Gaussian satisfies all
three, the top-hat deliberately fails positive definiteness and is only
available behind an override flag for stress tests.

Quadrature conventions: integrals carry h^d per integration variable, so
||v||_1 = sum(values) h^d and (f * v)(x) = sum_y f(y) v(x-y) h^d.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import gammaincc

from .errors import ConfigError

POSDEF_RTOL = 1e-10


@dataclass
class InteractionPotential:
    """Sampled pair potential with norms and Fourier diagnostics.

    values is the (2R+1)^d stencil of v at offsets (-R..R) * h; entries beyond
    the truncation radius are zero.  Immutable after construction; safe for
    concurrent reads.
    """

    kind: str
    kappa: float
    N: int
    d: int
    h: float
    values: np.ndarray
    stencil_radius: int
    l1_norm: float
    v_at_zero: float
    scaling_tag: str
    pos_def: bool
    fourier_min: float
    fourier_max: float
    fourier_l1: float
    v0_from_fourier: float
    truncation_mass_fraction: float

    def value_at_offset(self, offset) -> float:
        """v at an integer grid offset; zero outside the stencil."""
        R = self.stencil_radius
        if any(abs(int(o)) > R for o in offset):
            return 0.0
        return float(self.values[tuple(int(o) + R for o in offset)])


def _offset_radii(R: int, d: int, h: float) -> np.ndarray:
    axes = np.arange(-R, R + 1) * h
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


def _fourier_diagnostics(values: np.ndarray, h: float):
    """Sample the lattice symbol hat v(k) = (2 pi)^(-d/2) h^d sum v(x) e^(-ikx).

    Zero-padding the FFT samples the exact symbol of the sampled potential on
    a finer frequency grid; the L1 quadrature of |hat v| then reproduces v(0)
    up to the (tiny) mass of any sign-changing part, which is the consistency
    check v(0) = (2 pi)^(-d/2) ||hat v||_1.
    """
    d = values.ndim
    side = values.shape[0]
    R = (side - 1) // 2
    pad = next_fast_len(max(4 * side, 64))
    arr = np.zeros((pad,) * d)
    arr[tuple(slice(0, side) for _ in range(d))] = values
    arr = np.roll(arr, -R, axis=tuple(range(d)))
    symbol = np.fft.fftn(arr).real * h**d * (2.0 * math.pi) ** (-d / 2.0)
    dk = 2.0 * math.pi / (pad * h)
    fourier_l1 = float(np.sum(np.abs(symbol)) * dk**d)
    return float(symbol.min()), float(symbol.max()), fourier_l1


def build_interaction(
    kind: str,
    kappa: float,
    N: int,
    d: int,
    h: float,
    base_params: Optional[dict] = None,
) -> InteractionPotential:
    """Sample v = kappa V / (N (ln N)^(2/d)) on its grid stencil.

    base_params by kind:
      gaussian     : width (default 1.0), truncation in widths (default 8.0)
      top_hat      : radius, allow_non_posdef (must be True; the profile is
                     not positive definite)
      custom_table : table, an (n, 2) array of radius/value rows, or
                     table_path to a text file with one "radius value" pair
                     per line; radial linear interpolation, zero beyond the
                     last radius
    """
    params = dict(base_params or {})
    if N < 2:
        raise ConfigError(f"N={N} must be >= 2 (the scaling divides by ln N)")
    if kappa < 0:
        raise ConfigError(f"kappa={kappa} must be nonnegative")
    if d not in (2, 3):
        raise ConfigError(f"d={d} unsupported")
    if h <= 0:
        raise ConfigError(f"h={h} must be positive")

    scale = kappa / (N * math.log(N) ** (2.0 / d))
    truncation_fraction = 0.0

    if kind == "gaussian":
        width = float(params.pop("width", 1.0))
        truncation = float(params.pop("truncation", 8.0))
        if width <= 0 or truncation <= 0:
            raise ConfigError("gaussian width and truncation must be positive")
        R = max(int(math.ceil(truncation * width / h)), 1)
        rr = _offset_radii(R, d, h)
        base = np.exp(-(rr**2) / (2.0 * width**2))
        base[rr > truncation * width] = 0.0
        truncation_fraction = float(gammaincc(d / 2.0, truncation**2 / 2.0))
    elif kind == "top_hat":
        radius = float(params.pop("radius", 1.0))
        allow = bool(params.pop("allow_non_posdef", False))
        if not allow:
            raise ConfigError(
                "top_hat is not positive definite; pass "
                "allow_non_posdef=True to build it for stress tests"
            )
        if radius <= 0:
            raise ConfigError("top_hat radius must be positive")
        R = max(int(math.ceil(radius / h)), 1)
        rr = _offset_radii(R, d, h)
        base = (rr <= radius).astype(float)
    elif kind == "custom_table":
        if "table" in params:
            table = np.asarray(params.pop("table"), dtype=float)
        elif "table_path" in params:
            table = np.loadtxt(params.pop("table_path"), ndmin=2)
        else:
            raise ConfigError("custom_table needs 'table' or 'table_path'")
        if table.ndim != 2 or table.shape[1] != 2:
            raise ConfigError("table must have rows of (radius, value)")
        radii, vals = table[:, 0], table[:, 1]
        if np.any(np.diff(radii) <= 0) or radii[0] < 0:
            raise ConfigError("table radii must be nonnegative and increasing")
        if np.any(vals < 0):
            raise ConfigError("profile values must be nonnegative")
        R = max(int(math.ceil(radii[-1] / h)), 1)
        rr = _offset_radii(R, d, h)
        base = np.interp(rr, radii, vals, left=vals[0], right=0.0)
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")

    if params:
        raise ConfigError(f"unknown potential parameters {sorted(params)}")
    if np.any(base < 0):
        raise ConfigError("profile is not nonnegative")
    if not np.allclose(base, base[tuple(slice(None, None, -1) for _ in range(d))]):
        raise ConfigError("profile is not even")

    values = scale * base
    l1 = float(values.sum() * h**d)
    v0 = float(values[(R,) * d])
    fmin, fmax, fl1 = _fourier_diagnostics(values, h)
    pos_def = bool(fmin >= -POSDEF_RTOL * max(fmax, 0.0))

    return InteractionPotential(
        kind=kind,
        kappa=kappa,
        N=N,
        d=d,
        h=h,
        values=values,
        stencil_radius=R,
        l1_norm=l1,
        v_at_zero=v0,
        scaling_tag=f"kappa*V/(N (ln N)^(2/{d}))",
        pos_def=pos_def,
        fourier_min=fmin,
        fourier_max=fmax,
        fourier_l1=fl1,
        v0_from_fourier=(2.0 * math.pi) ** (-d / 2.0) * fl1,
        truncation_mass_fraction=truncation_fraction,
    )


_KIND_PARAMS = {
    "gaussian": ("width", "truncation"),
    "top_hat": ("radius", "allow_non_posdef"),
    "custom_table": ("table", "table_path"),
}


def potential_from_spec(spec: dict, N: int, d: int, h: float) -> InteractionPotential:
    """Build the potential a flat config spec {kind, kappa, ...} describes.

    Drops entries that are None or irrelevant to the kind, so one config
    schema can describe any built-in potential.
    """
    spec = dict(spec)
    kind = spec.pop("kind", "gaussian")
    kappa = spec.pop("kappa", 0.0)
    if kind not in _KIND_PARAMS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    params = {
        key: spec[key]
        for key in _KIND_PARAMS[kind]
        if spec.get(key) is not None
    }
    leftovers = {
        key for key, val in spec.items()
        if val is not None and key not in _KIND_PARAMS[kind]
        and not any(key in allowed for allowed in _KIND_PARAMS.values())
    }
    if leftovers:
        raise ConfigError(f"unknown potential parameters {sorted(leftovers)}")
    return build_interaction(kind, kappa, N, d, h, base_params=params)


def scaling_ratios(v: InteractionPotential, N: int, d: int) -> dict:
    """The two normalized scaling diagnostics of the interaction.

    s1 = ||v||_1 N (ln N)^(2/d) stays bounded under the mean-field scaling;
    s2 = v(0) (ln N)^(1+2/d) must vanish for complete condensation.
    """
    logN = math.log(N)
    return {
        "s1": v.l1_norm * N * logN ** (2.0 / d),
        "s2": v.v_at_zero * logN ** (1.0 + 2.0 / d),
    }


def convolve_density(density: np.ndarray, v: InteractionPotential) -> np.ndarray:
    """(density * v)(x) = sum_y density(y) v(x - y) h^d on the full grid.

    By FFT, exact to roundoff.  The sum runs over the full stencil including
    blocked nodes: densities vanish there, and the output is meaningful on
    every vacant node.
    """
    density = np.asarray(density, dtype=float)
    if density.ndim != v.d:
        raise ValueError("density dimensionality does not match the potential")
    return fftconvolve(density, v.values, mode="same") * v.h**v.d
