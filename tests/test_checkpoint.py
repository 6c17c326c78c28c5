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
from mhcr.training import build_views, fit, init_parameters, parameter_shapes

from conftest import in_float64, micro_config, micro_dataset, train_configs, with_checkpoint_meta


def make_params():
    ds, feats = micro_dataset()
    cfg = micro_config()
    views = build_views(ds, feats, cfg)
    return init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)


def saved(tmp_path, params=None) -> Path:
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params or make_params(), path)
    return path


def test_round_trip_preserves_structure_and_f32_values(tmp_path):
    params = make_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.num_users == params.num_users
    assert loaded.num_items == params.num_items
    assert loaded.config == params.config
    assert loaded.modality_dims == params.modality_dims
    assert list(loaded.named) == list(parameter_shapes(
        params.num_users, params.num_items, params.e0.shape[1], params.config.k_hyper,
        params.modality_dims))
    for (name, original), restored in zip(params.tensors().items(), loaded.tensors().values()):
        assert restored.data.dtype == np.float32
        assert np.array_equal(restored.data, original.data), name
        assert restored.requires_grad


def test_trained_parameters_round_trip_bit_for_bit(tmp_path):
    ds, feats = micro_dataset()
    params = fit(ds, feats, micro_config(max_epochs=2)).params
    loaded = load_checkpoint(saved(tmp_path, params))
    for name, original in params.named.items():
        restored = loaded.named[name].data
        assert original.data.dtype == restored.dtype == np.float32, name
        assert restored.tobytes() == original.data.tobytes(), name


def test_a_file_of_float64_parameters_loads_its_stored_values(tmp_path):
    # float64 parameters, as every model held before float32 storage, are
    # rounded to the same version-3 file; float32 init is that rounding
    ds, feats = micro_dataset()
    cfg = micro_config()
    views = build_views(ds, feats, cfg)
    wide = in_float64(init_parameters, cfg, ds.num_users, ds.num_items, views.modality_dims)
    raw = saved(tmp_path, wide).read_bytes()
    assert struct.unpack_from("<I", raw, 8) == (3,)
    assert raw == saved(tmp_path, make_params()).read_bytes()
    loaded = load_checkpoint(tmp_path / "ckpt.bin")
    for name, original in wide.named.items():
        assert np.array_equal(loaded.named[name].data, original.data.astype(np.float32)), name


def test_body_is_the_f32_values_in_parameter_shapes_order(tmp_path):
    params = make_params()
    raw = saved(tmp_path, params).read_bytes()
    body = b"".join(t.data.astype("<f4").tobytes() for t in params.named.values())
    assert raw.endswith(body)
    (meta_len,) = struct.unpack_from("<I", raw, 28)
    assert len(raw) == 32 + meta_len + len(body)
    meta = json.loads(raw[32:32 + meta_len])
    assert meta == {"config": asdict(params.config), "modality_dims": {"image": 5, "text": 3}}


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
    path = saved(tmp_path)
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataError, match="body has"):
        load_checkpoint(tmp_path / "cut.bin")


def test_lengthened_file(tmp_path):
    path = saved(tmp_path)
    (tmp_path / "long.bin").write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(DataError, match="body has"):
        load_checkpoint(tmp_path / "long.bin")


@pytest.mark.parametrize("cut", [10, 40])
def test_truncated_header(tmp_path, cut):
    (tmp_path / "cut.bin").write_bytes(saved(tmp_path).read_bytes()[:cut])
    with pytest.raises(DataError, match="truncated checkpoint header"):
        load_checkpoint(tmp_path / "cut.bin")


def test_dims_whose_product_wraps_in_int64_are_truncation(tmp_path, monkeypatch):
    # 2^59 more users add 2^59 x d = 8 x 4 = 2^64 bytes to E0, which wraps to
    # the true body length in 64-bit arithmetic
    params = make_params()
    raw = bytearray(saved(tmp_path, params).read_bytes())
    raw[12:20] = struct.pack("<Q", params.num_users + 2**59)
    (tmp_path / "huge.bin").write_bytes(bytes(raw))
    monkeypatch.setattr(np, "frombuffer", None)  # fails the test if anything is allocated
    with pytest.raises(DataError, match="body has"):
        load_checkpoint(tmp_path / "huge.bin")


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "nope.bin")
    with pytest.raises(DataError, match="not a file"):
        load_checkpoint(tmp_path)


def test_value_beyond_f32_is_refused_before_writing(tmp_path):
    params = in_float64(make_params)  # float32 parameters cannot hold one
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
    with pytest.raises(DataError, match="V_text contains non-finite"):
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
        assert np.array_equal(loaded.named[name].data, original.data), name


def _records(params) -> bytes:
    """The per-tensor records of versions 1 and 2: name_len u16, name,
    ndim u8, dims u64 each, then the f32 values."""
    raw = bytearray()
    for name, tensor in params.named.items():
        data = tensor.data.astype("<f4")
        raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
        raw += struct.pack(f"<{data.ndim}Q", *data.shape) + data.tobytes()
    return bytes(raw)


def _version_1_bytes(params) -> bytes:
    """`params` in the version-1 layout: sizes and modality dims in the
    header, no config, then the tensor records."""
    dims = params.modality_dims
    raw = struct.pack("<8sIIQQII", b"MHCRCKPT", 1, params.e0.shape[1], params.num_users,
                      params.num_items, params.config.k_hyper, len(dims))
    for tag, d_m in dims.items():
        raw += struct.pack("<BI", ("image", "video", "text").index(tag), d_m)
    return raw + _records(params)


def _version_2_bytes(params) -> bytes:
    """`params` in the version-2 layout, which every writer before the
    bounded hypergraph view used too: users and the config in the header,
    then the tensor records."""
    config = json.dumps(asdict(params.config), sort_keys=True).encode()
    return (struct.pack("<8sIQI", b"MHCRCKPT", 2, params.num_users, len(config)) + config
            + _records(params))


def test_version_1_is_rejected_with_a_retrain_hint(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(_version_1_bytes(make_params()))
    with pytest.raises(DataError, match="version 1 .*retrain"):
        load_checkpoint(path)


def test_version_2_is_rejected_with_a_retrain_hint(tmp_path):
    # a version-2 file cannot say which incidence its V_m were trained for
    path = tmp_path / "v2.bin"
    path.write_bytes(_version_2_bytes(make_params()))
    with pytest.raises(DataError, match="version 2 .*retrain"):
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
        (_config_json(d=16), "body has"),
        (_config_json(k_hyper=4), "body has"),
    ],
    ids=["not-utf8", "bad-json", "deep-json", "no-object", "unknown-field", "missing-field", "str-int",
         "float-int", "bool-int", "int-bool", "tau-0", "lr-nan", "d-vs-tensors",
         "k_hyper-vs-tensors"],
)
def test_bad_config_is_a_data_error(tmp_path, blob, message):
    path = saved(tmp_path)
    path.write_bytes(with_checkpoint_meta(path.read_bytes(), config=blob))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "widths, message",
    [
        (b"{}", "modality_dims"),
        (b"[5, 3]", "modality_dims"),
        (b'{"image": 5, "audio": 3}', "modality_dims"),
        (b'{"image": 5, "text": 0}', "modality_dims"),
        (b'{"image": 5, "text": 3.0}', "modality_dims"),
        (b'{"image": 5, "text": true}', "modality_dims"),
        (b'{"image": 5, "text": 4}', "body has"),
        (b'{"image": 5}', "body has"),
    ],
    ids=["empty", "list", "unknown-tag", "zero", "float", "bool", "wider", "fewer"],
)
def test_bad_widths_are_a_data_error(tmp_path, widths, message):
    path = saved(tmp_path)
    path.write_bytes(with_checkpoint_meta(path.read_bytes(), widths=widths))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [b"[]", b'{"config": {}}', b'{"config": {}, "modality_dims": {}, '
                                  b'"split": null}'], ids=["list", "no-widths", "extra-key"])
def test_bad_meta_is_a_data_error(tmp_path, meta):
    raw = saved(tmp_path).read_bytes()
    (length,) = struct.unpack_from("<I", raw, 28)
    (tmp_path / "bad.bin").write_bytes(
        raw[:28] + struct.pack("<I", len(meta)) + meta + raw[32 + length:])
    with pytest.raises(DataError, match="meta"):
        load_checkpoint(tmp_path / "bad.bin")


def test_an_int_serves_a_float_field(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(with_checkpoint_meta(path.read_bytes(), config=_config_json(learning_rate=1)))
    assert load_checkpoint(path).config.learning_rate == 1.0
