"""Self-describing binary dumps with JSON sidecars.

Two little-endian containers:

  KLVAC1  realization: magic, uint32 d, uint32 dims[d], float64 h,
          mask as packed bits, labels as int32, row-major
  KLEIG1  grid field:  magic, uint32 d, uint32 dims[d], float64 h,
          float64 values, row-major

Each dump gets a sidecar <path>.json carrying the config and summary stats
(realizations) or eigenvalues/residuals/component id (fields).
"""

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .disorder import DisorderConfig, DisorderRealization, volume_fraction
from .errors import check_number

MAGIC_VAC = b"KLVAC1"
MAGIC_EIG = b"KLEIG1"


def _write_header(f, magic: bytes, d: int, dims, h: float):
    f.write(magic)
    f.write(np.uint32(d).tobytes())
    f.write(np.asarray(dims, dtype="<u4").tobytes())
    f.write(np.float64(h).tobytes())


def _parse_header(data: bytes, magic: bytes, payload, d_expected=None):
    """(d, dims, h, payload offset) of a dump whose n-node payload is payload(n) bytes.

    Raises ValueError naming the fault: wrong magic, a d other than
    d_expected (when given), or a file length other than header + payload.
    """
    head = len(magic)
    if data[:head] != magic:
        raise ValueError(f"bad magic {data[:head]!r}, expected {magic!r}")
    d = int.from_bytes(data[head:head + 4], "little")  # a file cut here fails below
    start = head + 4 * (1 + d) + 8
    if len(data) < start:
        raise ValueError(f"dump is {len(data)} bytes, too short for a d={d} header")
    if d_expected is not None and d != d_expected:
        raise ValueError(f"dump header has d={d}, the sidecar config d={d_expected}")
    dims = tuple(int(x) for x in np.frombuffer(data, "<u4", count=d, offset=head + 4))
    size = start + payload(math.prod(dims))
    if len(data) != size:
        raise ValueError(f"dump is {len(data)} bytes, its header's grid {dims} needs {size}")
    return d, dims, float(np.frombuffer(data, "<f8", count=1, offset=start - 8)[0]), start


def save_realization(real: DisorderRealization, path) -> Path:
    path = Path(path)
    with open(path, "wb") as f:
        _write_header(f, MAGIC_VAC, real.d, real.dims, real.h)
        f.write(np.packbits(real.mask.ravel().astype(np.uint8)).tobytes())
        f.write(real.labels.astype("<i4").ravel().tobytes())
    sidecar = {
        "format": "KLVAC1",
        "config": asdict(real.config),
        "summary": {
            "K": real.K,
            "n_vacant": real.n_vacant,
            "n_nodes": real.n_nodes,
            "volume_fraction": volume_fraction(real)[0],
            "component_volumes": real.component_volumes,
            "n_centers": int(real.centers.shape[0]),
        },
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def _sidecar_config(sidecar) -> DisorderConfig:
    """The DisorderConfig a KLVAC1 sidecar carries; ValueError names its fault."""
    config = sidecar.get("config") if isinstance(sidecar, dict) else None
    if not isinstance(config, dict):
        raise ValueError("sidecar is not an object with a 'config' object")
    names = {f.name for f in fields(DisorderConfig)}
    if set(config) != names:
        raise ValueError(f"sidecar config has unknown keys {sorted(set(config) - names)} "
                         f"and lacks {sorted(names - set(config))}")
    return DisorderConfig(**config)  # a bad value is a ConfigError, a ValueError


def load_realization(path) -> DisorderRealization:
    """Load a KLVAC1 dump, checked against its sidecar and against itself.

    Raises ValueError naming the fault: a sidecar that is not an object with
    a config of exactly DisorderConfig's fields and an integer summary.K >= 0,
    wrong magic or file length, a header d, dims or h that differ from the
    sidecar config, labels other than 0 on a blocked node, labels outside
    1..K on a vacant one, or a K or labels other than those of the mask's
    face-connected components.  The realization returned is from_mask's.
    """
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    config = _sidecar_config(sidecar)
    data = path.read_bytes()
    _, dims, h, start = _parse_header(data, MAGIC_VAC, lambda n: (n + 7) // 8 + 4 * n, config.d)
    if dims != config.grid_dims:
        raise ValueError("dump dims do not match the sidecar config")
    if h != config.grid_spacing:
        raise ValueError(f"dump header has h={h!r}, the sidecar grid spacing "
                         f"{config.grid_spacing!r}")
    n = math.prod(dims)
    bits = np.frombuffer(data, np.uint8, count=(n + 7) // 8, offset=start)
    mask = np.unpackbits(bits)[:n].astype(bool).reshape(dims)
    labels = np.frombuffer(data, "<i4", offset=start + (n + 7) // 8).reshape(dims)
    summary = sidecar.get("summary")
    K = check_number("sidecar summary.K", summary.get("K") if isinstance(summary, dict) else None,
                     0, integer=True)
    if np.any(labels[~mask] != 0):
        raise ValueError("dump labels a blocked node (labels must be 0 exactly there)")
    if np.any((labels[mask] < 1) | (labels[mask] > K)):
        raise ValueError(f"dump labels a vacant node outside 1..K = 1..{K}")
    real = DisorderRealization.from_mask(config, mask)
    if K != real.K:
        raise ValueError(f"sidecar summary.K = {K}, but the mask has {real.K} components")
    if not np.array_equal(labels, real.labels):
        raise ValueError("dump labels are not the mask's face-connected components")
    return real


def save_field(grid: np.ndarray, h: float, path, meta: dict | None = None) -> Path:
    path = Path(path)
    with open(path, "wb") as f:
        _write_header(f, MAGIC_EIG, grid.ndim, grid.shape, h)
        f.write(np.asarray(grid, dtype="<f8").ravel().tobytes())
    sidecar = {"format": "KLEIG1"}
    sidecar.update(meta or {})
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def load_field(path):
    """Load a KLEIG1 dump: (grid, h, sidecar); ValueError names a fault."""
    path = Path(path)
    data = path.read_bytes()
    _, dims, h, start = _parse_header(data, MAGIC_EIG, lambda n: 8 * n)
    grid = np.frombuffer(data, "<f8", offset=start)
    meta = json.loads(Path(str(path) + ".json").read_text())
    return grid.reshape(dims).copy(), h, meta
