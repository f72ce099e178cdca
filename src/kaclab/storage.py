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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .disorder import DisorderConfig, DisorderRealization

MAGIC_VAC = b"KLVAC1"
MAGIC_EIG = b"KLEIG1"


def _write_header(f, magic: bytes, d: int, dims, h: float):
    f.write(magic)
    f.write(np.uint32(d).tobytes())
    f.write(np.asarray(dims, dtype="<u4").tobytes())
    f.write(np.float64(h).tobytes())


def _read_header(f, magic: bytes):
    got = f.read(len(magic))
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    d = int(np.frombuffer(f.read(4), dtype="<u4")[0])
    dims = tuple(int(x) for x in np.frombuffer(f.read(4 * d), dtype="<u4"))
    h = float(np.frombuffer(f.read(8), dtype="<f8")[0])
    return d, dims, h


def save_realization(real: DisorderRealization, path) -> Path:
    path = Path(path)
    with open(path, "wb") as f:
        _write_header(f, MAGIC_VAC, real.d, real.dims, real.h)
        f.write(np.packbits(real.mask.ravel().astype(np.uint8)).tobytes())
        f.write(real.labels.astype("<i4").ravel().tobytes())

    from .disorder import volume_fraction

    fraction, _, _ = volume_fraction(real)
    sidecar = {
        "format": "KLVAC1",
        "config": asdict(real.config),
        "summary": {
            "K": real.K,
            "n_vacant": real.n_vacant,
            "n_nodes": real.n_nodes,
            "volume_fraction": fraction,
            "component_volumes": real.component_volumes,
            "n_centers": int(real.centers.shape[0]),
        },
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def load_realization(path) -> DisorderRealization:
    """Load a KLVAC1 dump, checked against its sidecar and against itself.

    Raises ValueError naming the fault: wrong magic or file length, a header
    d, dims or h that differ from the sidecar config, labels other than 0 on
    a blocked node, or labels outside 1..K (K from the sidecar) on a vacant one.
    """
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    config = DisorderConfig(**sidecar["config"])
    data = path.read_bytes()
    head = len(MAGIC_VAC)
    if data[:head] != MAGIC_VAC:
        raise ValueError(f"bad magic {data[:head]!r}, expected {MAGIC_VAC!r}")
    n = int(np.prod(config.grid_dims))
    nbytes = (n + 7) // 8
    size = head + 4 * (1 + config.d) + 8 + nbytes + 4 * n
    if len(data) != size:
        raise ValueError(f"dump is {len(data)} bytes, the sidecar's grid "
                         f"{config.grid_dims} needs {size}")
    d = int(np.frombuffer(data, "<u4", count=1, offset=head)[0])
    if d != config.d:
        raise ValueError(f"dump header has d={d}, the sidecar config d={config.d}")
    dims = tuple(int(x) for x in np.frombuffer(data, "<u4", count=d, offset=head + 4))
    if dims != config.grid_dims:
        raise ValueError("dump dims do not match the sidecar config")
    h = float(np.frombuffer(data, "<f8", count=1, offset=head + 4 + 4 * d)[0])
    if h != config.grid_spacing:
        raise ValueError(f"dump header has h={h!r}, the sidecar grid spacing "
                         f"{config.grid_spacing!r}")
    bits = np.frombuffer(data, np.uint8, count=nbytes, offset=size - 4 * n - nbytes)
    mask = np.unpackbits(bits)[:n].astype(bool).reshape(dims)
    labels = np.frombuffer(data, "<i4", offset=size - 4 * n).reshape(dims).copy()
    K = int(sidecar["summary"]["K"])
    if np.any(labels[~mask] != 0):
        raise ValueError("dump labels a blocked node (labels must be 0 exactly there)")
    if np.any((labels[mask] < 1) | (labels[mask] > K)):
        raise ValueError(f"dump labels a vacant node outside 1..K = 1..{K}")
    counts = np.bincount(labels.ravel(), minlength=K + 1)[1:]
    volumes = [float(c) * h**d for c in counts]
    return DisorderRealization(config, np.zeros((0, d)), mask, labels, K, volumes)


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
    path = Path(path)
    with open(path, "rb") as f:
        d, dims, h = _read_header(f, MAGIC_EIG)
        n = int(np.prod(dims))
        grid = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(dims).copy()
    meta = json.loads(Path(str(path) + ".json").read_text())
    return grid, h, meta
