"""Binary container round-trips and sidecars."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kaclab import DisorderRealization, build_realization
from kaclab.storage import load_field, load_realization, save_field, save_realization

from conftest import tiny_box_config

DATA = Path(__file__).parent / "data"


def test_realization_roundtrip(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.klvac")
    loaded = load_realization(path)
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.config == real.config
    assert loaded.component_volumes == pytest.approx(real.component_volumes)


def test_realization_sidecar_contents(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.klvac")
    sidecar = json.loads((tmp_path / "real.klvac.json").read_text())
    assert sidecar["format"] == "KLVAC2"
    assert sidecar["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    # the config and the digest only: K, labels and volumes come from the mask
    assert set(sidecar) == {"format", "sha256", "config"}
    assert sidecar["config"]["seed"] == 9


def test_magic_bytes(tmp_path):
    real = build_realization(tiny_box_config())
    path = save_realization(real, tmp_path / "real.klvac")
    assert path.read_bytes()[:6] == b"KLVAC2"


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((5, 7))
    path = save_field(grid, 0.25, tmp_path / "phi.kleig", {"eigenvalues": [1.5, 2.5]})
    loaded, h, meta = load_field(path)
    assert np.array_equal(loaded, grid)
    assert h == 0.25
    assert meta["format"] == "KLEIG1"
    assert meta["eigenvalues"] == [1.5, 2.5]
    assert path.read_bytes()[:6] == b"KLEIG1"


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.klvac"
    path.write_bytes(b"WRONG!" + b"\x00" * 64)
    (tmp_path / "bad.klvac.json").write_text(
        json.dumps({"config": {"d": 2, "rho": 1.0, "N": 4, "nu": 0.0, "r": 0.7,
                               "h": 0.5, "seed": 0}})
    )
    with pytest.raises(ValueError, match="magic"):
        load_realization(path)


def saved_dump(tmp_path):
    real = build_realization(tiny_box_config(N=16, L=4.0, h=0.5, nu=0.4, r=0.6, seed=9))
    path = save_realization(real, tmp_path / "real.klvac")
    return real, path, bytearray(path.read_bytes())


def test_header_d_must_match_sidecar(tmp_path):
    _, path, data = saved_dump(tmp_path)
    data[6:10] = np.uint32(3).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="d=3.*d=2"):
        load_realization(path)


def test_header_h_must_match_sidecar(tmp_path):
    real, path, data = saved_dump(tmp_path)
    offset = 6 + 4 * (1 + real.d)
    data[offset:offset + 8] = np.float64(2 * real.h).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="h=1.0"):
        load_realization(path)


def test_changed_summary_is_not_read(tmp_path):
    # an older sidecar that holds a summary still loads, and the summary is
    # not read: K and labels come from the mask
    real, path, _ = saved_dump(tmp_path)
    sidecar_path = tmp_path / "real.klvac.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["summary"] = {"K": real.K + 1, "n_vacant": real.n_vacant + 1}
    sidecar_path.write_text(json.dumps(sidecar))
    loaded = load_realization(path)
    assert loaded.K == real.K
    assert np.array_equal(loaded.labels, real.labels)


def test_dump_is_header_and_packed_mask(tmp_path):
    real, _, data = saved_dump(tmp_path)
    n = real.mask.size
    assert n == 49
    assert len(data) == 6 + 4 * (1 + real.d) + 8 + (n + 7) // 8


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
    real, _, data = saved_dump(tmp_path)
    assert bytes(data) == (DATA / "golden_realization.klvac").read_bytes()
    assert ((tmp_path / "real.klvac.json").read_text()
            == (DATA / "golden_realization.klvac.json").read_text())
    loaded = load_realization(DATA / "golden_realization.klvac")
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.component_volumes == real.component_volumes


def test_header_dims_other_than_the_configs_rejected(tmp_path):
    # (1, 49) has the node count of the config's (7, 7), so the length check passes
    data = bytearray((DATA / "golden_realization.klvac").read_bytes())
    data[10:18] = np.asarray([1, 49], dtype="<u4").tobytes()
    path = tmp_path / "real.klvac"
    path.write_bytes(bytes(data))
    (tmp_path / "real.klvac.json").write_text((DATA / "golden_realization.klvac.json").read_text())
    with pytest.raises(ValueError, match="dims do not match"):
        load_realization(path)


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
    path = save_realization(real, tmp_path_factory.mktemp("rt") / "real.klvac")
    loaded = load_realization(path)
    assert np.array_equal(loaded.mask, real.mask)
    assert np.array_equal(loaded.labels, real.labels)
    assert loaded.K == real.K
    assert loaded.config == real.config
    assert loaded.component_volumes == real.component_volumes


@settings(max_examples=40, deadline=None)
@given(mask=masks, extend=st.booleans(), byte=st.integers(0, 255))
def test_single_byte_truncation_or_extension_rejected(tmp_path_factory, mask, extend, byte):
    path = save_realization(from_mask(mask), tmp_path_factory.mktemp("cut") / "real.klvac")
    data = path.read_bytes()
    path.write_bytes(data + bytes([byte]) if extend else data[:-1])
    with pytest.raises(ValueError, match="bytes"):
        load_realization(path)


@pytest.mark.parametrize("change", [1, 8, -1, -8], ids=["plus1", "plus8", "cut1", "cut8"])
def test_field_with_appended_or_cut_bytes_rejected(tmp_path, change):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.kleig")
    data = path.read_bytes()
    path.write_bytes(data + b"\x00" * change if change > 0 else data[:change])
    with pytest.raises(ValueError, match=f"dump is {len(data) + change} bytes"):
        load_field(path)


def test_every_single_bit_flip_of_a_field_rejected(tmp_path):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.kleig")
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


@pytest.mark.parametrize("sidecar", [{"format": "KLEIG1"}, ["KLEIG1"]],
                         ids=["without_sha256", "not_an_object"])
def test_field_sidecar_without_digest_rejected(tmp_path, sidecar):
    path = save_field(np.arange(12.0).reshape(3, 4), 0.5, tmp_path / "phi.kleig")
    (tmp_path / "phi.kleig.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="sidecar"):
        load_field(path)


def test_field_meta_cannot_overwrite_format_or_digest(tmp_path):
    path = save_field(np.zeros(3), 0.5, tmp_path / "phi.kleig", {"format": "x", "sha256": "y"})
    meta = load_field(path)[2]
    assert meta["format"] == "KLEIG1"
    assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


fields = st.integers(1, 3).flatmap(
    lambda d: arrays(float, st.tuples(*[st.integers(1, 5)] * d),
                     elements=st.floats(allow_nan=False))
)


@settings(max_examples=40, deadline=None)
@given(grid=fields, h=st.floats(1e-3, 10.0))
def test_field_roundtrip_property(tmp_path_factory, grid, h):
    path = save_field(grid, h, tmp_path_factory.mktemp("rt") / "phi.kleig", {"k": 1})
    loaded, h_loaded, meta = load_field(path)
    assert np.array_equal(loaded, grid) and loaded.shape == grid.shape
    assert h_loaded == h and meta == {"format": "KLEIG1", "k": 1,
                                      "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


@settings(max_examples=40, deadline=None)
@given(grid=fields, extend=st.booleans(), byte=st.integers(0, 255))
def test_field_single_byte_truncation_or_extension_rejected(tmp_path_factory, grid, extend, byte):
    path = save_field(grid, 0.5, tmp_path_factory.mktemp("cut") / "phi.kleig")
    data = path.read_bytes()
    path.write_bytes(data + bytes([byte]) if extend else data[:-1])
    with pytest.raises(ValueError, match="bytes"):
        load_field(path)
