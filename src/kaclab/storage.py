"""Self-describing binary dumps with JSON sidecars.

Two little-endian containers:

  KLVAC2  realization: magic, uint32 d, uint32 dims[d], float64 h,
          mask as packed bits, row-major
  KLEIG1  grid field:  magic, uint32 d, uint32 dims[d], float64 h,
          float64 values, row-major

Each dump gets a sidecar <path>.json with the dump's sha256, checked on load
after the header.  A realization's also carries its config; the labels are
not stored, since the loader rebuilds the components from the mask, and any
other sidecar key (the summary that older sidecars hold) is not read.  A
field's carries eigenvalues/residuals/component id.
"""

import hashlib
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .disorder import DisorderConfig, DisorderRealization

MAGIC_VAC = b"KLVAC2"
MAGIC_EIG = b"KLEIG1"


def _header(magic: bytes, d: int, dims, h: float) -> bytes:
    return (magic + np.asarray([d, *dims], dtype="<u4").tobytes()
            + np.asarray(h, dtype="<f8").tobytes())


def _parse_header(data: bytes, magic: bytes, payload, d_expected=None):
    """(dims, h, payload offset) of a dump whose n-node payload is payload(n) bytes.

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
    return dims, float(np.frombuffer(data, "<f8", count=1, offset=start - 8)[0]), start


def _check_sha256(data: bytes, sidecar) -> None:
    """ValueError unless sidecar is an object holding data's sha256."""
    if not isinstance(sidecar, dict):
        raise ValueError("sidecar is not an object")
    digest = hashlib.sha256(data).hexdigest()
    if sidecar.get("sha256") != digest:
        raise ValueError(f"dump sha256 is {digest}, the sidecar's {sidecar.get('sha256')!r}")


def save_realization(real: DisorderRealization, path) -> Path:
    path = Path(path)
    data = _header(MAGIC_VAC, real.d, real.dims, real.h) + np.packbits(real.mask.ravel()).tobytes()
    path.write_bytes(data)
    sidecar = {"format": "KLVAC2", "sha256": hashlib.sha256(data).hexdigest(),
               "config": asdict(real.config)}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def _sidecar_config(sidecar) -> DisorderConfig:
    """The DisorderConfig a KLVAC2 sidecar carries; ValueError names its fault."""
    config = sidecar.get("config") if isinstance(sidecar, dict) else None
    if not isinstance(config, dict):
        raise ValueError("sidecar is not an object with a 'config' object")
    names = {f.name for f in fields(DisorderConfig)}
    if set(config) != names:
        raise ValueError(f"sidecar config has unknown keys {sorted(set(config) - names)} "
                         f"and lacks {sorted(names - set(config))}")
    return DisorderConfig(**config)  # a bad value is a ConfigError, a ValueError


def load_realization(path) -> DisorderRealization:
    """Load a KLVAC2 dump, checked against its sidecar.

    Raises ValueError naming the fault, checked in this order: a sidecar
    that is not an object with a config of exactly DisorderConfig's fields,
    wrong magic or file length, a header d, dims or h that differ from the
    sidecar config, and a dump whose sha256 is not the sidecar's, so any
    changed byte fails.  No other sidecar key is read.  The realization
    returned is from_mask's: the labels are the mask's components.
    """
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    config = _sidecar_config(sidecar)
    data = path.read_bytes()
    dims, h, start = _parse_header(data, MAGIC_VAC, lambda n: (n + 7) // 8, config.d)
    if dims != config.grid_dims:
        raise ValueError("dump dims do not match the sidecar config")
    if h != config.grid_spacing:
        raise ValueError(f"dump header has h={h!r}, the sidecar grid spacing "
                         f"{config.grid_spacing!r}")
    _check_sha256(data, sidecar)
    mask = np.unpackbits(np.frombuffer(data, np.uint8, offset=start))[:math.prod(dims)]
    return DisorderRealization.from_mask(config, mask.astype(bool).reshape(dims))


def save_field(grid: np.ndarray, h: float, path, meta: dict | None = None) -> Path:
    path = Path(path)
    data = _header(MAGIC_EIG, grid.ndim, grid.shape, h) + np.asarray(grid, dtype="<f8").tobytes()
    path.write_bytes(data)
    # format and sha256 come after meta, which cannot overwrite them
    sidecar = {**(meta or {}), "format": "KLEIG1", "sha256": hashlib.sha256(data).hexdigest()}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def load_field(path):
    """Load a KLEIG1 dump: (grid, h, sidecar).  ValueError names a fault: wrong
    magic or length, then a sidecar that is not an object with the dump's sha256."""
    path = Path(path)
    data = path.read_bytes()
    dims, h, start = _parse_header(data, MAGIC_EIG, lambda n: 8 * n)
    meta = json.loads(Path(str(path) + ".json").read_text())
    _check_sha256(data, meta)
    return np.frombuffer(data, "<f8", offset=start).reshape(dims).copy(), h, meta
