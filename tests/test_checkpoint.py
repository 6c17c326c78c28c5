"""Checkpoint round trips and format validation."""

import json
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from mhcr.checkpoint import load_checkpoint, save_checkpoint
from mhcr.errors import DataError, NumericError
from mhcr.training import build_views, init_parameters

from conftest import micro_config, micro_dataset, train_configs, with_checkpoint_config


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
    assert loaded.config == params.config
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


@given(cfg=train_configs)
@settings(max_examples=50, deadline=None)
def test_every_valid_config_round_trips(cfg):
    params = init_parameters(cfg, 3, 2, {"image": 2, "text": 1})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert list(loaded.named) == list(params.named)
    for name, original in params.named.items():
        f32 = original.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.named[name].data, f32), name


def _version_1_bytes(params) -> bytes:
    """`params` in the version-1 layout: sizes and modality dims in the
    header, no config, then the tensor records of version 2."""
    raw = bytearray()
    dims = {tag: params.named[f"W_{tag}"].shape[0] for tag in params.modality_tags}
    raw += struct.pack("<8sIIQQII", b"MHCRCKPT", 1, params.d, params.num_users,
                       params.num_items, params.config.k_hyper, len(dims))
    for tag, d_m in dims.items():
        raw += struct.pack("<BI", ("image", "video", "text").index(tag), d_m)
    for name, tensor in params.named.items():
        data = tensor.data.astype("<f4")
        raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
        raw += struct.pack(f"<{data.ndim}Q", *data.shape) + data.tobytes()
    return bytes(raw)


def test_version_1_is_rejected_with_a_retrain_hint(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(_version_1_bytes(make_params()))
    with pytest.raises(DataError, match="version 1 .*retrain"):
        load_checkpoint(path)


def _config_json(**changes) -> bytes:
    values = {**asdict(micro_config()), **changes}
    return json.dumps({k: v for k, v in values.items() if v is not None}).encode()


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"\xff", "not UTF-8 JSON"),
        (b"{", "not UTF-8 JSON"),
        (b"[" * 100_000, "not UTF-8 JSON"),
        (b"[]", "fields"),
        (_config_json(tau_hc=0.2), "fields"),
        (_config_json(seed=None), "fields"),
        (_config_json(d="8"), "d='8'"),
        (_config_json(d=8.0), "d=8.0"),
        (_config_json(layers=True), "layers=True"),
        (_config_json(use_hem=1), "use_hem=1"),
        (_config_json(tau=0.0), "invalid"),
        (_config_json(learning_rate=float("nan")), "invalid"),
        (_config_json(d=16), "E0"),
        (_config_json(k_hyper=4), "V_image"),
    ],
    ids=["not-utf8", "bad-json", "deep-json", "no-object", "unknown-field", "missing-field", "str-int",
         "float-int", "bool-int", "int-bool", "tau-0", "lr-nan", "d-vs-tensors",
         "k_hyper-vs-tensors"],
)
def test_bad_config_is_a_data_error(tmp_path, blob, message):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(make_params(), path)
    path.write_bytes(with_checkpoint_config(path.read_bytes(), blob))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_an_int_serves_a_float_field(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(make_params(), path)
    path.write_bytes(with_checkpoint_config(path.read_bytes(), _config_json(learning_rate=1)))
    assert load_checkpoint(path).config.learning_rate == 1.0
