""".npy dumps, their digest-checked sidecars, and round-trips."""

import ast
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kaclab import DisorderRealization, build_realization, storage
from kaclab.storage import (FORMAT, load_array, load_field, load_realization, save_array,
                            save_field, save_realization)

from conftest import tiny_box_config

DATA = Path(__file__).parent / "data"


def sidecar_digest(path):
    """The sha256 over path's bytes and the canonical JSON of its sidecar but sha256."""
    sidecar = json.loads(Path(f"{path}.json").read_text())
    del sidecar["sha256"]
    canonical = json.dumps(sidecar, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(path.read_bytes() + canonical).hexdigest()


def test_realization_roundtrip(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.npy")
    loaded = load_realization(path)
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.config == real.config
    assert loaded.component_volumes == pytest.approx(real.component_volumes)


def test_realization_sidecar_contents(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.npy")
    sidecar = json.loads((tmp_path / "real.npy.json").read_text())
    assert sidecar["format"] == FORMAT
    assert sidecar["sha256"] == sidecar_digest(path)
    # the config and the digest only: K, labels and volumes come from the mask
    assert set(sidecar) == {"format", "sha256", "config"}
    assert sidecar["config"]["seed"] == 9


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((5, 7))
    path = save_field(grid, 0.25, tmp_path / "phi.npy", {"eigenvalues": [1.5, 2.5]})
    loaded, h, meta = load_field(path)
    assert np.array_equal(loaded, grid)
    assert h == 0.25
    assert meta["format"] == FORMAT
    assert meta["eigenvalues"] == [1.5, 2.5]
    # a field dump is a plain .npy of the grid
    assert np.array_equal(np.load(path, allow_pickle=False), grid)


def saved_dump(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.npy")
    return real, path, bytearray(path.read_bytes())


def test_dump_is_header_and_packed_mask(tmp_path):
    # numpy's own .npy container: its header, then the mask packed by np.packbits
    real, path, data = saved_dump(tmp_path)
    n = real.mask.size
    assert n == 49
    packed = np.load(path, allow_pickle=False)
    assert packed.dtype == np.uint8 and packed.shape == ((n + 7) // 8,)
    assert np.array_equal(np.unpackbits(packed, count=n).reshape(real.mask.shape), real.mask)
    assert data.startswith(b"\x93NUMPY") and data.endswith(packed.tobytes())


def test_every_single_bit_flip_rejected(tmp_path):
    # the last mask byte carries 7 padding bits, which the mask alone cannot guard
    _, path, data = saved_dump(tmp_path)
    loaded = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            load_realization(path)
            loaded.append(bit)
        except ValueError:
            pass
    assert loaded == []


def test_golden_dump_reproduced_byte_for_byte(tmp_path):
    # numpy writes the .npy header, so the bytes are those of the installed numpy
    real, _, data = saved_dump(tmp_path)
    assert bytes(data) == (DATA / "golden_realization.npy").read_bytes()
    assert ((tmp_path / "real.npy.json").read_text()
            == (DATA / "golden_realization.npy.json").read_text())
    loaded = load_realization(DATA / "golden_realization.npy")
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.component_volumes == real.component_volumes


def edit_sidecar(path, edit):
    sidecar_path = Path(f"{path}.json")
    sidecar = json.loads(sidecar_path.read_text())
    edit(sidecar)
    sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1))


@pytest.mark.parametrize("key", ["d", "rho", "N", "nu", "r", "h", "seed"])
def test_changed_config_value_rejected(tmp_path, key):
    # nu, r and seed fix no byte of the array, so only the digest guards them
    _, path, _ = saved_dump(tmp_path)
    edit_sidecar(path, lambda sidecar: sidecar["config"].update({key: sidecar["config"][key] + 1}))
    with pytest.raises(ValueError, match="sha256"):
        load_realization(path)


@pytest.mark.parametrize("key, value", [("h", 0.25), ("index", 2), ("eigenvalues", [1.5, 2.0])])
def test_changed_field_sidecar_value_rejected(tmp_path, key, value):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.npy",
                      {"index": 1, "eigenvalues": [1.5, 2.5]})
    edit_sidecar(path, lambda sidecar: sidecar.update({key: value}))
    with pytest.raises(ValueError, match="sha256"):
        load_field(path)


def test_sidecar_digest_is_over_canonical_json(tmp_path):
    # key order and whitespace are not part of the digest: a re-indented sidecar loads
    real, path, _ = saved_dump(tmp_path)
    sidecar_path = Path(f"{path}.json")
    sidecar_path.write_text(json.dumps(json.loads(sidecar_path.read_text())))
    assert np.array_equal(load_realization(path).mask, real.mask)


# the KLVAC2 dump of saved_dump's realization and a KLEIG1 field, in the
# formats that stored d, dims and h in a header of their own
OLD_DUMPS = {
    "KLVAC2": bytes.fromhex("4b4c56414332020000000700000007000000"
                            "000000000000e03ff9e387ef9cb980"),
    "KLEIG1": (b"KLEIG1" + np.asarray([1, 3], "<u4").tobytes()
               + np.asarray([0.5, 0.0, 1.0, 2.0], "<f8").tobytes()),
}


@pytest.mark.parametrize("fmt", sorted(OLD_DUMPS))
def test_old_format_refused_with_one_line(tmp_path, fmt):
    path = tmp_path / "old.dump"
    path.write_bytes(OLD_DUMPS[fmt])
    sidecar = {"format": fmt, "sha256": hashlib.sha256(OLD_DUMPS[fmt]).hexdigest()}
    if fmt == "KLVAC2":
        sidecar["config"] = {"N": 16, "d": 2, "h": 0.5, "nu": 0.4, "r": 0.6, "rho": 1.0,
                             "seed": 9}
    Path(f"{path}.json").write_text(json.dumps(sidecar))
    load = load_realization if fmt == "KLVAC2" else load_field
    with pytest.raises(ValueError, match=f"dump format is '{fmt}'.*dump it again") as info:
        load(path)
    assert "\n" not in str(info.value)


def test_empty_dump_is_a_value_error(tmp_path):
    # numpy raises EOFError on an empty file; only a sidecar that digests the
    # empty file reaches it
    path = tmp_path / "empty.npy"
    path.write_bytes(b"")
    Path(f"{path}.json").write_text(json.dumps({"format": FORMAT, "sha256": None}))
    Path(f"{path}.json").write_text(json.dumps({"format": FORMAT, "sha256": sidecar_digest(path)}))
    with pytest.raises(ValueError, match="not an .npy array"):
        load_array(path)


@pytest.mark.parametrize("array", [np.zeros(6, np.uint8), np.zeros(7, np.int8),
                                   np.zeros((1, 7), np.uint8)], ids=["short", "int8", "2d"])
def test_array_other_than_the_configs_packed_mask_rejected(tmp_path, array):
    # the config's 7 x 7 grid packs to 7 bytes
    config = asdict(tiny_box_config(N=16, L=4.0, h=0.5))
    path = save_array(array, tmp_path / "other.npy", {"config": config})
    with pytest.raises(ValueError, match=r"packs to uint8 \(7,\)"):
        load_realization(path)


def test_realization_is_not_a_field(tmp_path):
    _, path, _ = saved_dump(tmp_path)
    with pytest.raises(ValueError, match="not a float64 grid with a sidecar h"):
        load_field(path)


def test_storage_owns_every_dump():
    # kaclab.storage alone writes binary files and digests them: nowhere else
    # in kaclab is np.save or np.savez called, .write_bytes called, or
    # hashlib imported
    writers = {"save", "savez", "savez_compressed", "write_bytes"}
    for path in sorted(Path(storage.__file__).parent.glob("*.py")):
        if path.name == "storage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in writers, where
            if isinstance(node, ast.Import):
                assert "hashlib" not in {alias.name for alias in node.names}, where
            if isinstance(node, ast.ImportFrom):
                assert node.module != "hashlib", where
                assert not writers & {alias.name for alias in node.names}, where


masks = st.integers(2, 5).flatmap(
    lambda side: arrays(bool, (side - 1, side - 1), elements=st.booleans())
)


def from_mask(mask):
    side = mask.shape[0] + 1
    return DisorderRealization.from_mask(tiny_box_config(L=0.5 * side), mask)


@settings(max_examples=40, deadline=None)
@given(mask=masks)
def test_roundtrip_property(tmp_path_factory, mask):
    real = from_mask(mask)
    path = save_realization(real, tmp_path_factory.mktemp("rt") / "real.npy")
    loaded = load_realization(path)
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.config == real.config
    assert loaded.component_volumes == real.component_volumes


@settings(max_examples=40, deadline=None)
@given(mask=masks, extend=st.booleans(), byte=st.integers(0, 255))
def test_single_byte_truncation_or_extension_rejected(tmp_path_factory, mask, extend, byte):
    path = save_realization(from_mask(mask), tmp_path_factory.mktemp("cut") / "real.npy")
    data = path.read_bytes()
    path.write_bytes(data + bytes([byte]) if extend else data[:-1])
    with pytest.raises(ValueError, match="bytes"):
        load_realization(path)


@pytest.mark.parametrize("change", [1, 8, -1, -8], ids=["plus1", "plus8", "cut1", "cut8"])
def test_field_with_appended_or_cut_bytes_rejected(tmp_path, change):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.npy")
    data = path.read_bytes()
    path.write_bytes(data + b"\x00" * change if change > 0 else data[:change])
    with pytest.raises(ValueError, match=f"dump is {len(data) + change} bytes"):
        load_field(path)


def test_every_single_bit_flip_of_a_field_rejected(tmp_path):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.npy")
    data = path.read_bytes()
    loaded = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            load_field(path)
            loaded.append(bit)
        except ValueError:
            pass
    assert loaded == []


@pytest.mark.parametrize("sidecar", [{"format": FORMAT, "h": 0.5}, [FORMAT]],
                         ids=["without_sha256", "not_an_object"])
def test_field_sidecar_without_digest_rejected(tmp_path, sidecar):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.npy")
    (tmp_path / "phi.npy.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="sidecar"):
        load_field(path)


def test_field_meta_cannot_overwrite_format_or_digest(tmp_path):
    path = save_field(np.zeros(3), 0.5, tmp_path / "phi.npy",
                      {"format": "x", "sha256": "y", "h": 2.0})
    grid, h, meta = load_field(path)
    assert meta["format"] == FORMAT and h == 0.5
    assert meta["sha256"] == sidecar_digest(path)


fields = st.integers(1, 3).flatmap(
    lambda d: arrays(float, st.tuples(*[st.integers(1, 5)] * d),
                     elements=st.floats(allow_nan=False))
)


@settings(max_examples=40, deadline=None)
@given(grid=fields, h=st.floats(1e-3, 10.0))
def test_field_roundtrip_property(tmp_path_factory, grid, h):
    path = save_field(grid, h, tmp_path_factory.mktemp("rt") / "phi.npy", {"k": 1})
    loaded, h_loaded, meta = load_field(path)
    assert np.array_equal(loaded, grid) and loaded.shape == grid.shape
    assert h_loaded == h and meta == {"format": FORMAT, "h": h, "k": 1,
                                      "sha256": sidecar_digest(path)}


@settings(max_examples=40, deadline=None)
@given(grid=fields, extend=st.booleans(), byte=st.integers(0, 255))
def test_field_single_byte_truncation_or_extension_rejected(tmp_path_factory, grid, extend, byte):
    path = save_field(grid, 0.5, tmp_path_factory.mktemp("cut") / "phi.npy")
    data = path.read_bytes()
    path.write_bytes(data + bytes([byte]) if extend else data[:-1])
    with pytest.raises(ValueError, match="bytes"):
        load_field(path)
