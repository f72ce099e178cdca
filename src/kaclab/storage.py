"""Binary dumps: numpy .npy arrays, each with a JSON sidecar <path>.json that
names FORMAT and holds a sha256 over the array file's bytes followed by the
canonical JSON of every other sidecar key, checked before numpy parses
anything.  A realization is its np.packbits'd mask (uint8, 1-D) and its
config; a field is its grid as <f8, h and the caller's metadata.
"""

import hashlib
import io
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .disorder import DisorderConfig, DisorderRealization

FORMAT = "npy-sha256"


def _digest(data: bytes, sidecar: dict) -> str:
    """sha256 of data followed by the canonical JSON of sidecar's keys but sha256."""
    rest = {key: value for key, value in sidecar.items() if key != "sha256"}
    canonical = json.dumps(rest, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data + canonical).hexdigest()


def save_array(array: np.ndarray, path, meta: dict | None = None) -> Path:
    """Write array to path as .npy with its sidecar; meta cannot overwrite format or sha256."""
    buffer = io.BytesIO()  # np.save would add .npy to a path that lacks it
    np.save(buffer, array, allow_pickle=False)
    data = buffer.getvalue()
    sidecar = {**(meta or {}), "format": FORMAT}
    sidecar["sha256"] = _digest(data, sidecar)
    Path(path).write_bytes(data)
    Path(f"{path}.json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return Path(path)


def load_array(path):
    """(array, sidecar) of a dump.  ValueError names the first fault: a sidecar not
    an object, another format (an older dump), another sha256, a file not .npy."""
    sidecar = json.loads(Path(f"{path}.json").read_text())
    if not isinstance(sidecar, dict):
        raise ValueError("sidecar is not an object")
    if sidecar.get("format") != FORMAT:
        raise ValueError(f"dump format is {sidecar.get('format')!r}, not {FORMAT!r}: dump it "
                         "again (kaclab sample rebuilds a realization from its config)")
    data = Path(path).read_bytes()
    digest = _digest(data, sidecar)
    if sidecar.get("sha256") != digest:
        raise ValueError(f"dump is {len(data)} bytes; sha256 of it and its sidecar is "
                         f"{digest}, the sidecar's {sidecar.get('sha256')!r}")
    try:
        return np.load(io.BytesIO(data), allow_pickle=False), sidecar
    except EOFError as exc:  # an empty file
        raise ValueError(f"dump is not an .npy array: {exc}") from None


def save_realization(real: DisorderRealization, path) -> Path:
    return save_array(np.packbits(real.mask.ravel()), path, {"config": asdict(real.config)})


def load_realization(path) -> DisorderRealization:
    """Load a realization dump; from_mask rebuilds its labels.  Raises ValueError
    for a fault of load_array's, then a sidecar config whose keys are not
    DisorderConfig's fields, then an array not the config grid's packed mask."""
    packed, sidecar = load_array(path)
    config, names = sidecar.get("config"), {f.name for f in fields(DisorderConfig)}
    keys = set(config) if isinstance(config, dict) else set()
    if keys != names:
        raise ValueError(f"sidecar config has unknown keys {sorted(keys - names)} "
                         f"and lacks {sorted(names - keys)}")
    config = DisorderConfig(**config)  # a bad value is a ConfigError, a ValueError
    n = math.prod(config.grid_dims)
    if packed.dtype != np.uint8 or packed.shape != ((n + 7) // 8,):
        raise ValueError(f"dump holds {packed.dtype} {packed.shape}, the config's grid "
                         f"{config.grid_dims} packs to uint8 ({(n + 7) // 8},)")
    mask = np.unpackbits(packed, count=n).astype(bool).reshape(config.grid_dims)
    return DisorderRealization.from_mask(config, mask)


def save_field(grid: np.ndarray, h: float, path, meta: dict | None = None) -> Path:
    # h, format and sha256 come after meta, which cannot overwrite them
    return save_array(np.asarray(grid, dtype="<f8"), path, {**(meta or {}), "h": float(h)})


def load_field(path):
    """(grid, h, sidecar) of a field dump.  Raises ValueError for a fault of
    load_array's, or a dump that is not a float64 grid with an h."""
    grid, sidecar = load_array(path)
    if grid.dtype != np.float64 or not isinstance(sidecar.get("h"), float):
        raise ValueError("dump is not a float64 grid with a sidecar h")
    return grid, sidecar["h"], sidecar
