"""Binary container round-trips and sidecars."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kaclab import DisorderRealization, build_realization
from kaclab.storage import load_field, load_realization, save_field, save_realization

from conftest import tiny_box_config


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
    assert sidecar["format"] == "KLVAC1"
    assert sidecar["summary"]["K"] == real.K
    assert sidecar["summary"]["n_vacant"] == real.n_vacant
    assert sidecar["config"]["seed"] == 9


def test_magic_bytes(tmp_path):
    real = build_realization(tiny_box_config())
    path = save_realization(real, tmp_path / "real.klvac")
    assert path.read_bytes()[:6] == b"KLVAC1"


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


def test_label_on_blocked_node_rejected(tmp_path):
    real, path, data = saved_dump(tmp_path)
    labels = real.labels.copy()
    labels[np.unravel_index(np.flatnonzero(~real.mask.ravel())[0], real.dims)] = 1
    data[len(data) - labels.size * 4:] = labels.astype("<i4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="blocked node"):
        load_realization(path)


@pytest.mark.parametrize("bad_label", [0, -1, "K+1"])
def test_vacant_label_outside_components_rejected(tmp_path, bad_label):
    real, path, data = saved_dump(tmp_path)
    labels = real.labels.copy()
    vacant = np.unravel_index(np.flatnonzero(real.mask.ravel())[0], real.dims)
    labels[vacant] = real.K + 1 if bad_label == "K+1" else bad_label
    data[len(data) - labels.size * 4:] = labels.astype("<i4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="vacant node outside 1..K"):
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
    assert h_loaded == h and meta == {"format": "KLEIG1", "k": 1}


@settings(max_examples=40, deadline=None)
@given(grid=fields, extend=st.booleans(), byte=st.integers(0, 255))
def test_field_single_byte_truncation_or_extension_rejected(tmp_path_factory, grid, extend, byte):
    path = save_field(grid, 0.5, tmp_path_factory.mktemp("cut") / "phi.kleig")
    data = path.read_bytes()
    path.write_bytes(data + bytes([byte]) if extend else data[:-1])
    with pytest.raises(ValueError, match="bytes"):
        load_field(path)
