"""Binary checkpoint format, version 2: a header with the training config,
followed by named little-endian f32 tensors. Layout:

    magic "MHCRCKPT" (8s) | version u32 | num_users u64 |
    config_len u32 | config: the TrainConfig as UTF-8 JSON, sorted keys
    per tensor:  name_len u16 | name utf-8 | ndim u8 | dims u64... | f32 data

The header holds only what the tensors cannot give. On load `d` and
`k_hyper` come from the config, the item count and modality dims from the
tensors, and `training.parameter_shapes` fixes the tensors the file must
hold, all finite.
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
from .errors import ConfigError, DataError, NumericError
from .training import ModelParameters, TrainConfig, parameter_shapes

_MAGIC = b"MHCRCKPT"
_VERSION = 2
_HEADER = struct.Struct("<8sIQI")  # magic, version, num_users, config_len


def save_checkpoint(params: ModelParameters, path: str | Path) -> None:
    """Write `params` and `params.config`; raises NumericError, before the
    file is opened, if a value is not finite once rounded to f32."""
    with np.errstate(over="ignore"):
        stored = {n: np.ascontiguousarray(t.data, dtype="<f4") for n, t in params.named.items()}
    for name, data in stored.items():
        if not np.isfinite(data).all():
            raise NumericError(f"parameter {name} has values that are not finite in f32")
    config = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, params.num_users, len(config)))
        fh.write(config)
        for name, data in stored.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


class _Reader:
    def __init__(self, raw: bytes, path: Path):
        self.raw = raw
        self.path = path
        self.offset = 0

    def take(self, fmt: struct.Struct | str):
        fmt = struct.Struct(fmt) if isinstance(fmt, str) else fmt
        return fmt.unpack(self.take_bytes(fmt.size))

    def take_bytes(self, n: int) -> bytes:
        if self.offset + n > len(self.raw):
            raise DataError(f"{self.path}: truncated checkpoint")
        chunk = self.raw[self.offset:self.offset + n]
        self.offset += n
        return chunk


def _config_from_json(blob: bytes, path: Path) -> TrainConfig:
    """The valid TrainConfig of a JSON object holding every field once, each
    with a value of the field's type (an int serves a float field)."""
    try:
        values = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
        raise DataError(f"{path}: checkpoint config is not UTF-8 JSON: {exc}") from None
    kinds = typing.get_type_hints(TrainConfig)
    if not isinstance(values, dict) or set(values) != set(kinds):
        found = sorted(values) if isinstance(values, dict) else type(values).__name__
        raise DataError(f"{path}: checkpoint config has fields {found}, expected {sorted(kinds)}")
    for name, value in values.items():
        if type(value) is not kinds[name] and (kinds[name], type(value)) != (float, int):
            raise DataError(f"{path}: checkpoint config {name}={value!r} is no {kinds[name].__name__}")
    cfg = TrainConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint config is invalid: {exc}") from None
    return cfg


def load_checkpoint(path: str | Path) -> ModelParameters:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    reader = _Reader(path.read_bytes(), path)
    magic, version, num_users, config_len = reader.take(_HEADER)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise DataError(
            f"{path}: checkpoint version {version} is not readable; this program reads "
            f"version {_VERSION}, which stores the training config: retrain to write one"
        )
    cfg = _config_from_json(reader.take_bytes(config_len), path)

    tensors: dict[str, np.ndarray] = {}
    while reader.offset < len(reader.raw):
        (name_len,) = reader.take("<H")
        name = reader.take_bytes(name_len).decode("utf-8", "replace")  # bad names fail below
        (ndim,) = reader.take("<B")
        dims = reader.take(f"<{ndim}Q")
        data = reader.take_bytes(math.prod(dims) * 4)  # exact, so corrupt dims cannot wrap
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).astype(np.float64)

    # sizes the tensors give; a wrong one fails the shape check below
    e0 = tensors.get("E0")
    num_items = max(e0.shape[0] - num_users, 0) if e0 is not None and e0.ndim else 0
    modality_dims = {n[2:]: t.shape[0] for n, t in tensors.items() if n[:2] == "W_" and t.ndim}
    if not modality_dims:
        raise DataError(f"{path}: checkpoint has no modalities")
    expected = parameter_shapes(num_users, num_items, cfg.d, cfg.k_hyper, modality_dims)
    if set(tensors) != set(expected):
        raise DataError(
            f"{path}: checkpoint tensor set mismatch; found {sorted(tensors)}, "
            f"expected {sorted(expected)}"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise DataError(
                f"{path}: checkpoint tensor {name} has shape {tensors[name].shape}, "
                f"its config and sizes give {shape}"
            )
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: {name} contains non-finite values")
    return ModelParameters(
        num_users,
        {name: ad.Tensor(tensors[name], requires_grad=True) for name in expected},
        cfg,
    )
