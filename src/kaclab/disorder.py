"""Vacancy geometry of the Poisson hard-ball obstacle model.

Obstacles are closed balls of radius r centered at Poisson points; the part of
the box (-L/2, L/2)^d they leave uncovered is the vacancy set.  The box side
grows with the particle number as L = rho^(-1/d) N^(1/d), so N -> infinity is
a thermodynamic limit at fixed density rho.

The vacancy set is discretized on the interior nodes of a uniform grid and
decomposed into face-connected components.  Everything is a pure function of
(config, seed): identical inputs give bit-identical realizations.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .constants import unit_ball_volume
from .errors import ConfigError


@dataclass(frozen=True)
class DisorderConfig:
    """Parameters of one disorder realization.

    d     : spatial dimension, 2 or 3
    rho   : particle density > 0 (fixes the box side together with N)
    N     : particle number >= 1
    nu    : Poisson intensity >= 0 (obstacle centers per unit volume)
    r     : obstacle radius > 0
    h     : requested grid spacing, must satisfy h < r so an obstacle spans
            at least one grid cell; the actual spacing snaps to L / round(L/h)
            because L is in general irrational
    seed  : 64-bit RNG seed
    """

    d: int
    rho: float
    N: int
    nu: float
    r: float
    h: float
    seed: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ConfigError(f"d={self.d} unsupported, need d in {{2, 3}}")
        if not self.rho > 0:
            raise ConfigError(f"rho={self.rho} must be positive")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ConfigError(f"N={self.N} must be an integer >= 1")
        if self.nu < 0:
            raise ConfigError(f"nu={self.nu} must be nonnegative")
        if not self.r > 0:
            raise ConfigError(f"r={self.r} must be positive")
        if not self.h > 0:
            raise ConfigError(f"h={self.h} must be positive")
        if self.h >= self.r:
            raise ConfigError(
                f"grid spacing h={self.h} must be smaller than the obstacle "
                f"radius r={self.r}"
            )
        if self.n_cells < 2:
            raise ConfigError(
                f"h={self.h} leaves fewer than 2 cells across the box "
                f"(L={self.box_side:.6g})"
            )

    @property
    def box_side(self) -> float:
        """Box side L = rho^(-1/d) N^(1/d); always recomputed, never stored."""
        return self.rho ** (-1.0 / self.d) * float(self.N) ** (1.0 / self.d)

    @property
    def n_cells(self) -> int:
        return max(int(round(self.box_side / self.h)), 1)

    @property
    def grid_spacing(self) -> float:
        """Actual spacing L / n_cells; equal to h whenever L/h is an integer."""
        return self.box_side / self.n_cells

    @property
    def grid_dims(self) -> tuple:
        """Interior nodes per axis (boundary nodes are Dirichlet zeros)."""
        return (self.n_cells - 1,) * self.d


@dataclass
class DisorderRealization:
    """One sampled vacancy set on the grid.

    mask   : boolean grid over the interior nodes, True = vacant
    labels : integer grid, component id (1..K) per vacant node, 0 elsewhere;
             ids are canonical: components ordered by their first vacant node
             in row-major order
    component_volumes : cell count * h^d per component, index k-1
    """

    config: DisorderConfig
    centers: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    K: int
    component_volumes: list = field(default_factory=list)

    @property
    def h(self) -> float:
        return self.config.grid_spacing

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def dims(self) -> tuple:
        return self.mask.shape

    @property
    def n_vacant(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def n_nodes(self) -> int:
        return int(self.mask.size)

    @classmethod
    def from_mask(cls, config: DisorderConfig, mask: np.ndarray):
        """Build a realization from an explicit vacancy mask.

        Intended for hand-built fixtures and diagnostics; such masks need not
        be realizable by any center set, so the distance invariant is not
        checked.  Labels and volumes are computed exactly as for sampled
        realizations.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != config.grid_dims:
            raise ConfigError(
                f"mask shape {mask.shape} does not match grid {config.grid_dims}"
            )
        labels, K, volumes = _label_components(mask, config.grid_spacing, config.d)
        centers = np.zeros((0, config.d))
        return cls(config, centers, mask, labels, K, volumes)


def sample_centers(config: DisorderConfig) -> np.ndarray:
    """Sample Poisson obstacle centers in the r-dilated box.

    The number of centers is Poisson(nu * (L + 2r)^d) and positions are
    uniform on [-L/2 - r, L/2 + r]^d.  The dilation matters: obstacles
    centered just outside the box still intrude into it, exactly as the
    potential's sum over all centers requires.  Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    L = config.box_side
    half = L / 2.0 + config.r
    volume = (2.0 * half) ** config.d
    count = rng.poisson(config.nu * volume) if config.nu > 0 else 0
    return rng.uniform(-half, half, size=(int(count), config.d))


def build_realization(config: DisorderConfig, centers=None) -> DisorderRealization:
    """Discretize the vacancy set for the given centers and label components.

    A node is vacant iff its Euclidean distance to every center exceeds r
    (exact distances, no rasterized stencil).  Components are face-connected
    sets of vacant nodes, labeled canonically.
    """
    if centers is None:
        centers = sample_centers(config)
    centers = np.asarray(centers, dtype=float).reshape(-1, config.d)

    dims = config.grid_dims
    if len(centers) == 0:
        mask = np.ones(dims, dtype=bool)
    else:
        coords = -config.box_side / 2.0 + config.grid_spacing * np.arange(
            1, config.n_cells
        )
        grids = np.meshgrid(*([coords] * config.d), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        dist, _ = cKDTree(centers).query(nodes, k=1)
        mask = (dist > config.r).reshape(dims)

    labels, K, volumes = _label_components(mask, config.grid_spacing, config.d)
    return DisorderRealization(config, centers, mask, labels, K, volumes)


def _label_components(mask, h, d):
    """Label face-connected components; canonical order by first vacant node."""
    structure = ndimage.generate_binary_structure(d, 1)  # face adjacency only
    raw, K = ndimage.label(mask, structure=structure)
    raw = raw.astype(np.int32)
    if K == 0:
        return raw, 0, []

    flat = raw.ravel()
    vacant_pos = np.flatnonzero(flat)
    present, first_occ = np.unique(flat[vacant_pos], return_index=True)
    order = np.argsort(vacant_pos[first_occ])  # raster position of first node
    lut = np.zeros(K + 1, dtype=np.int32)
    lut[present[order]] = np.arange(1, K + 1, dtype=np.int32)
    labels = lut[raw]

    counts = np.bincount(labels.ravel(), minlength=K + 1)[1:]
    volumes = [float(c) * h**d for c in counts]
    return labels, int(K), volumes


def volume_fraction(real: DisorderRealization, eta: float = 0.1):
    """Vacant volume fraction and the typical-volume event.

    The fraction is measured with the node quadrature on both sides (vacant
    nodes over interior nodes), so an obstacle-free realization gives exactly
    one; it converges to the continuum |vacancy| / L^d at rate O(h).  The
    event holds when the fraction is within eta of exp(-nu * omega_d * r^d),
    the almost-sure limiting fraction (omega_d = unit-ball volume).

    Returns (fraction, in_event, eta).
    """
    cfg = real.config
    fraction = real.n_vacant / real.n_nodes
    target = float(np.exp(-cfg.nu * unit_ball_volume(cfg.d) * cfg.r**cfg.d))
    in_event = bool(abs(fraction - target) < eta)
    return fraction, in_event, eta
