"""Binary checkpoint format: a fixed header followed by named little-endian
f32 tensors. Layout:

    magic "MHCRCKPT" (8s) | version u32 | d u32 | num_users u64 |
    num_items u64 | k_hyper u32 | num_modalities u32
    per modality: tag u8 | d_m u32
    per tensor:  name_len u16 | name utf-8 | ndim u8 | dims u64... | f32 data

The header's sizes are read off the tensors. On load they fix, through
`training.parameter_shapes`, the tensors the file must hold, all finite.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .dataio import MODALITIES
from .errors import DataError, NumericError
from .training import ModelParameters, parameter_shapes

_MAGIC = b"MHCRCKPT"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQQII")
_MODALITY = struct.Struct("<BI")


def save_checkpoint(params: ModelParameters, path: str | Path) -> None:
    """Write `params`; raises NumericError, before the file is opened, if a
    value is not finite once rounded to f32."""
    with np.errstate(over="ignore"):
        stored = {n: np.ascontiguousarray(t.data, dtype="<f4") for n, t in params.named.items()}
    for name, data in stored.items():
        if not np.isfinite(data).all():
            raise NumericError(f"parameter {name} has values that are not finite in f32")
    with Path(path).open("wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                params.d,
                params.num_users,
                params.num_items,
                params.k_hyper,
                len(params.modality_dims),
            )
        )
        for tag, d_m in params.modality_dims.items():
            fh.write(_MODALITY.pack(MODALITIES.index(tag), d_m))
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
        if self.offset + fmt.size > len(self.raw):
            raise DataError(f"{self.path}: truncated checkpoint")
        values = fmt.unpack_from(self.raw, self.offset)
        self.offset += fmt.size
        return values

    def take_bytes(self, n: int) -> bytes:
        if self.offset + n > len(self.raw):
            raise DataError(f"{self.path}: truncated checkpoint")
        chunk = self.raw[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def exhausted(self) -> bool:
        return self.offset >= len(self.raw)


def load_checkpoint(path: str | Path) -> ModelParameters:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    reader = _Reader(path.read_bytes(), path)
    magic, version, d, num_users, num_items, k_hyper, n_mod = reader.take(_HEADER)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")

    if not n_mod:
        raise DataError(f"{path}: checkpoint has no modalities")
    modality_dims: dict[str, int] = {}
    for _ in range(n_mod):
        tag_id, d_m = reader.take(_MODALITY)
        if tag_id >= len(MODALITIES):
            raise DataError(f"{path}: unknown modality tag {tag_id}")
        modality_dims[MODALITIES[tag_id]] = d_m

    tensors: dict[str, np.ndarray] = {}
    while not reader.exhausted():
        (name_len,) = reader.take("<H")
        name = reader.take_bytes(name_len).decode("utf-8")
        (ndim,) = reader.take("<B")
        dims = reader.take(f"<{ndim}Q")
        data = reader.take_bytes(math.prod(dims) * 4)  # exact, so corrupt dims cannot wrap
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).astype(np.float64)

    expected = parameter_shapes(num_users, num_items, d, k_hyper, modality_dims)
    if set(tensors) != set(expected):
        raise DataError(
            f"{path}: tensor set mismatch; found {sorted(tensors)}, "
            f"expected {sorted(expected)}"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise DataError(f"{path}: {name} has shape {tensors[name].shape}, expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: {name} contains non-finite values")
    return ModelParameters(
        num_users, {name: ad.Tensor(tensors[name], requires_grad=True) for name in expected}
    )
