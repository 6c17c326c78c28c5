"""Binary checkpoint format, version 3: a header that fixes every tensor
shape, followed by the tensors' little-endian f32 values. Layout:

    magic "MHCRCKPT" (8s) | version u32 | num_users u64 | num_items u64 |
    meta_len u32 | meta: UTF-8 JSON with sorted keys,
        {"config": <the TrainConfig>, "modality_dims": {tag: width}}
    body: the f32 values of every tensor, in `training.parameter_shapes` order

`parameter_shapes` of the header's sizes, the config's `d` and `k_hyper`
and the widths is the only description of the body: it holds exactly
those values, all finite, and nothing else. The model's parameters are
float32 (`training.STATE_DTYPE`), so a save stores them exactly and a
load gives them back bit for bit, as float32.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .dataio import MODALITIES
from .errors import ConfigError, DataError, NumericError
from .training import STATE_DTYPE, ModelParameters, TrainConfig, parameter_shapes

_MAGIC = b"MHCRCKPT"
_VERSION = 3
_HEADER = struct.Struct("<8sIQQI")  # magic, version, num_users, num_items, meta_len


def save_checkpoint(params: ModelParameters, path: str | Path) -> None:
    """Write `params` and `params.config`; raises NumericError, before the
    file is opened, if a value is not finite once rounded to f32 (float64
    parameters are rounded, float32 ones stored as they are)."""
    cfg, widths = params.config, params.modality_dims
    shapes = parameter_shapes(params.num_users, params.num_items, cfg.d, cfg.k_hyper, widths)
    with np.errstate(over="ignore"):
        stored = {n: np.ascontiguousarray(params.named[n].data, dtype="<f4") for n in shapes}
    for name, data in stored.items():
        if not np.isfinite(data).all():
            raise NumericError(f"parameter {name} has values that are not finite in f32")
    meta = json.dumps({"config": asdict(cfg), "modality_dims": widths}, sort_keys=True)
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, params.num_users, params.num_items, len(meta)))
        fh.write(meta.encode("utf-8"))
        for data in stored.values():
            fh.write(data.tobytes())


def _config_from_json(values: object, path: Path) -> TrainConfig:
    """The valid TrainConfig of a JSON object holding every field once, each
    with a value of the field's type (an int serves a float field)."""
    kinds = typing.get_type_hints(TrainConfig)
    if not isinstance(values, dict) or set(values) != set(kinds):
        found = sorted(values) if isinstance(values, dict) else type(values).__name__
        raise DataError(f"{path}: checkpoint config has fields {found}, expected {sorted(kinds)}")
    for name, value in values.items():
        if type(value) is not kinds[name] and (kinds[name], type(value)) != (float, int):
            raise DataError(f"{path}: checkpoint config {name}={value!r} is no {kinds[name].__name__}")
    try:
        return TrainConfig(**values)
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint config is invalid: {exc}") from None


def _widths_from_json(widths: object, path: Path) -> dict[str, int]:
    if (not isinstance(widths, dict) or not widths or not set(widths) <= set(MODALITIES)
            or any(type(w) is not int or w < 1 for w in widths.values())):
        raise DataError(f"{path}: checkpoint modality_dims {widths!r} is not a non-empty map "
                        f"of tags of {', '.join(MODALITIES)} to widths >= 1")
    return widths


def load_checkpoint(path: str | Path) -> ModelParameters:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found or not a file: {path}")
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated checkpoint header")
    magic, version, num_users, num_items, meta_len = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise DataError(
            f"{path}: checkpoint version {version} is not readable; this program reads version "
            f"{_VERSION}, written since the hypergraph view was bounded: retrain to write one"
        )
    start = _HEADER.size + meta_len
    if len(raw) < start:
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        meta = json.loads(raw[_HEADER.size:start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
        raise DataError(f"{path}: checkpoint config is not UTF-8 JSON: {exc}") from None
    if not isinstance(meta, dict) or set(meta) != {"config", "modality_dims"}:
        raise DataError(f"{path}: checkpoint meta is not a config and modality_dims object")
    cfg = _config_from_json(meta["config"], path)
    widths = _widths_from_json(meta["modality_dims"], path)

    # Python ints, so a corrupt size cannot wrap, and checked before any allocation
    shapes = parameter_shapes(num_users, num_items, cfg.d, cfg.k_hyper, widths)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(raw) - start != 4 * sum(sizes):
        raise DataError(f"{path}: checkpoint body has {len(raw) - start} bytes; its header "
                        f"gives {4 * sum(sizes)} for {num_users} users, {num_items} items")
    named, offset = {}, start
    for (name, shape), size in zip(shapes.items(), sizes):
        data = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
        if not np.isfinite(data).all():
            raise DataError(f"{path}: {name} contains non-finite values")
        named[name] = ad.Tensor(data.reshape(shape).astype(STATE_DTYPE), requires_grad=True)
        offset += 4 * size
    return ModelParameters(num_users, named, cfg)
