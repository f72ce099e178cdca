"""Scaled pair potentials and grid convolution.

The pair potential is kappa * V(x) / (N (ln N)^(2/d)) sampled on a centered
stencil of integer offsets; the (ln N)-weakened mean-field scaling keeps the
potential energy per particle comparable to the spectral gap of the disordered
Laplacian.  Admissible profiles are nonnegative, even and positive definite
(nonnegative lattice Fourier transform).  Nonnegativity is checked; every
kind is a function of the offset radius, so bitwise even.  The Gaussian
satisfies all three; the top-hat deliberately fails positive definiteness
and is only available behind an override flag for stress tests.

Quadrature conventions: integrals carry h^d per integration variable, so
||v||_1 = sum(values) h^d and (f * v)(x) = sum_y f(y) v(x-y) h^d.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .errors import ConfigError, check_number


@dataclass
class InteractionPotential:
    """Sampled pair potential and its norms.

    values is the (2R+1)^d stencil of v at offsets (-R..R) * h; entries beyond
    the truncation radius are zero.  N, d and h are those it was built for,
    and the certificates read N and d from here.  The fields are not changed
    after construction.  The one mutable part is the spectrum cache that
    convolve_density fills: a dict from padded FFT shape to the rfftn of
    values at that shape, computed on first use and stored read-only.
    Concurrent reads stay safe: an entry is inserted whole under the GIL, and
    two callers that race on a missing shape compute equal arrays, so either
    one may win.
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
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _offset_radii(R: int, d: int, h: float) -> np.ndarray:
    axes = np.arange(-R, R + 1) * h
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


# each kind's parameters and their defaults, None where there is none; the
# config's potential section takes its keys from here
POTENTIAL_PARAMS = {
    "gaussian": {"width": 1.0, "truncation": 8.0},
    "top_hat": {"radius": 1.0, "allow_non_posdef": False},
    "custom_table": {"table_path": None},
}


def potential_params(kind, kappa, params: Optional[dict] = None) -> dict:
    """kind's defaults in POTENTIAL_PARAMS overridden by params, with kappa
    and every value checked: kappa >= 0; width, truncation and radius
    positive numbers; allow_non_posdef a bool; table_path a string naming a
    text file of (radius, value) rows, radii nonnegative and increasing and
    values nonnegative, returned read as "table".  Given that "table" beside
    its table_path, the file is not read again; the table is checked all the
    same.  An unknown kind, a parameter of another kind or of none, or a bad
    value is a ConfigError."""
    if not isinstance(kind, str) or kind not in POTENTIAL_PARAMS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    params = params or {}
    # "table" is a table_path's rows as an earlier call read them, never alone
    read = {"table"} if "table_path" in params else set()
    foreign = sorted(set(params) - set(POTENTIAL_PARAMS[kind]) - read)
    if foreign:
        raise ConfigError(f"potential parameters {foreign} do not apply to kind {kind!r}")
    check_number("kappa", kappa, 0)
    out = {**POTENTIAL_PARAMS[kind], **params}
    for key in ("width", "truncation", "radius"):
        if key in out:
            check_number(key, out[key], 0, above=True)
    if "allow_non_posdef" in out and not isinstance(out["allow_non_posdef"], bool):
        raise ConfigError(f"allow_non_posdef={out['allow_non_posdef']!r} must be true or false")
    if kind == "custom_table":
        path = out["table_path"]
        if not isinstance(path, str):
            raise ConfigError(f"custom_table needs 'table_path', a string, not {path!r}")
        table = out.get("table")
        if table is None:
            try:
                with warnings.catch_warnings():
                    # numpy warns on a file with no rows; the check below says so in one line
                    warnings.simplefilter("ignore", UserWarning)
                    table = out["table"] = np.loadtxt(path, ndmin=2)
            except (OSError, ValueError) as exc:  # the path is user input
                raise ConfigError(f"cannot read table_path {path!r}: {exc}")
        if table.size == 0:
            raise ConfigError(f"table_path {path!r} holds no rows")
        if table.shape[1] != 2:
            raise ConfigError("table must have rows of (radius, value)")
        radii, vals = table.T
        if not (np.all(np.diff(radii) > 0) and radii[0] >= 0):
            raise ConfigError("table radii must be nonnegative and increasing")
        if not np.all(vals >= 0):
            raise ConfigError("profile values must be nonnegative")
    return out


def build_interaction(
    kind: str,
    kappa: float,
    N: int,
    d: int,
    h: float,
    base_params: Optional[dict] = None,
) -> InteractionPotential:
    """Sample v = kappa V / (N (ln N)^(2/d)) on its grid stencil.

    base_params by kind, resolved and checked by potential_params:
      gaussian     : width (default 1.0), truncation in widths (default 8.0)
      top_hat      : radius (default 1.0), allow_non_posdef (must be True;
                     the profile is not positive definite)
      custom_table : table_path, a text file with one "radius value" pair
                     per line; radial linear interpolation, zero beyond the
                     last radius
    """
    params = potential_params(kind, kappa, base_params)
    check_number("N", N, 2, integer=True)  # the scaling divides by ln N
    if d not in (2, 3):
        raise ConfigError(f"d={d} unsupported")
    check_number("h", h, 0, above=True)

    scale = kappa / (N * math.log(N) ** (2.0 / d))

    if kind == "gaussian":
        width, truncation = params["width"], params["truncation"]
        R = max(int(math.ceil(truncation * width / h)), 1)
        rr = _offset_radii(R, d, h)
        base = np.exp(-(rr**2) / (2.0 * width**2))
        base[rr > truncation * width] = 0.0
    elif kind == "top_hat":
        if not params["allow_non_posdef"]:
            raise ConfigError(
                "top_hat is not positive definite; pass "
                "allow_non_posdef=True to build it for stress tests"
            )
        radius = params["radius"]
        R = max(int(math.ceil(radius / h)), 1)
        rr = _offset_radii(R, d, h)
        base = (rr <= radius).astype(float)
    elif kind == "custom_table":
        radii, vals = params["table"].T
        R = max(int(math.ceil(radii[-1] / h)), 1)
        rr = _offset_radii(R, d, h)
        base = np.interp(rr, radii, vals, left=vals[0], right=0.0)

    values = scale * base
    l1 = float(values.sum() * h**d)
    v0 = float(values[(R,) * d])

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
    )


def potential_from_spec(spec: dict, N: int, d: int, h: float) -> InteractionPotential:
    """Build the potential a flat config spec {kind, kappa, ...} describes.

    kind and kappa are taken as given: a missing one is a ConfigError that
    names it.  Parameters that are None are unset, so one config schema,
    which holds every kind's parameters, can describe any built-in potential.
    """
    missing = [key for key in ("kind", "kappa") if key not in spec]
    if missing:
        raise ConfigError(f"potential spec has no {' or '.join(map(repr, missing))}")
    params = {key: val for key, val in spec.items()
              if key not in ("kind", "kappa") and val is not None}
    return build_interaction(spec["kind"], spec["kappa"], N, d, h, base_params=params)


def convolve_density(density: np.ndarray, v: InteractionPotential) -> np.ndarray:
    """(density * v)(x) = sum_y density(y) v(x - y) h^d on the full grid.

    By FFT, exact to roundoff.  The sum runs over the full stencil including
    blocked nodes: densities vanish there, and the output is meaningful on
    every vacant node.  Both factors are zero-padded to the fast real-FFT
    length of the full linear convolution, and the centered grid-sized block
    is kept, which is what scipy.signal.fftconvolve(mode="same") computes bit
    for bit when every grid axis has two or more nodes.  The kernel's
    spectrum at that padded shape is computed once per potential.
    """
    density = np.asarray(density, dtype=float)
    if density.ndim != v.d:
        raise ValueError("density dimensionality does not match the potential")
    full = [s + k - 1 for s, k in zip(density.shape, v.values.shape)]
    fshape = tuple(next_fast_len(n, real=True) for n in full)
    kernel = v._spectra.get(fshape)
    if kernel is None:
        kernel = rfftn(v.values, fshape)
        kernel.flags.writeable = False
        v._spectra[fshape] = kernel
    conv = irfftn(rfftn(density, fshape) * kernel, fshape)
    same = tuple(slice((n - s) // 2, (n - s) // 2 + s) for n, s in zip(full, density.shape))
    return conv[same] * v.h**v.d
