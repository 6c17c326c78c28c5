"""Checkpoint round trips and format validation."""

import struct

import numpy as np
import pytest

from mhcr.checkpoint import load_checkpoint, save_checkpoint
from mhcr.errors import DataError, NumericError
from mhcr.training import build_views, init_parameters

from conftest import micro_config, micro_dataset


def make_params():
    ds, feats = micro_dataset()
    cfg = micro_config()
    views = build_views(ds, feats, cfg)
    return init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)


def test_round_trip_preserves_structure_and_f32_values(tmp_path):
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.num_users == params.num_users
    assert loaded.num_items == params.num_items
    assert loaded.d == params.d
    assert loaded.k_hyper == params.k_hyper
    assert loaded.modality_tags == params.modality_tags
    for (name, original), restored in zip(params.tensors().items(), loaded.tensors().values()):
        assert np.array_equal(restored.data, original.data.astype(np.float32).astype(np.float64)), name
        assert restored.requires_grad


def test_save_is_deterministic(tmp_path):
    params = make_params()
    save_checkpoint(params, tmp_path / "a.bin")
    save_checkpoint(params, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_corrupt_magic(tmp_path):
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"BADMAGIC"
    (tmp_path / "bad.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(tmp_path / "bad.bin")


def test_truncated_file(tmp_path):
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(tmp_path / "cut.bin")


def test_dims_whose_product_wraps_in_int64_are_truncation(tmp_path):
    # 2^33 * 2^33 * 4 bytes wraps to 0 in int64 arithmetic
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    dims_at = raw.index(b"\x02\x00E0\x02") + 5  # name_len, name, ndim of E0
    raw[dims_at:dims_at + 16] = struct.pack("<2Q", 2**33, 2**33)
    (tmp_path / "huge.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(tmp_path / "huge.bin")


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "nope.bin")


def test_value_beyond_f32_is_refused_before_writing(tmp_path):
    params = make_params()
    params.e0.data[0, 0] = 1e39
    path = tmp_path / "ckpt.bin"
    with pytest.raises(NumericError, match="E0"):
        save_checkpoint(params, path)
    assert not path.exists()


def test_non_finite_tensor_is_rejected_on_load(tmp_path):
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last entry of the last tensor
    (tmp_path / "nan.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="non-finite"):
        load_checkpoint(tmp_path / "nan.bin")
