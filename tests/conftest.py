"""Shared fixtures: finite-difference helpers, a float64 build of the
model for references at float64 tolerances, the pinned micro-instance
(4 users, 6 items, 2 modalities) used for gradient checks, a strategy over
valid training configs and a checkpoint meta rewriter."""

from __future__ import annotations

import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from mhcr import dataio, training
from mhcr.dataio import InteractionDataset, ModalityFeatures


def finite_difference(fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. every entry."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = fn()
        flat[idx] = orig - h
        down = fn()
        flat[idx] = orig
        out[idx] = (up - down) / (2.0 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, name: str = "") -> None:
    """Relative tolerance 1e-4, absolute 1e-6 where the gradient is tiny."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    tiny = np.abs(numeric) < 1e-3
    bad_tiny = tiny & (diff > 1e-6)
    bad_rel = ~tiny & (diff > 1e-4 * np.abs(numeric))
    bad = bad_tiny | bad_rel
    if bad.any():
        where = np.argwhere(bad)[0]
        raise AssertionError(
            f"gradient mismatch{' for ' + name if name else ''} at {tuple(where)}: "
            f"analytic={analytic[tuple(where)]!r} numeric={numeric[tuple(where)]!r}"
        )


def in_float64(build, *args, **kwargs):
    """`build(*args, **kwargs)` with the model's storage type set to float64:
    `build_views` and `init_parameters` then return the float64 views and
    parameters that finite differences and float64 references compare
    against at float64 tolerances. Every op keeps its inputs' type, so the
    steps that read them run in float64 too."""
    with mock.patch.object(training, "STATE_DTYPE", np.float64):
        return build(*args, **kwargs)


def micro_dataset() -> tuple[InteractionDataset, list[ModalityFeatures]]:
    """4 users, 6 items, 2 modalities, hand-pinned split."""
    users = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3, 3])
    items = np.array([0, 1, 2, 1, 3, 0, 4, 5, 2, 5])
    #                 t  t  v  t  s  t  t  s  t  s   (t=train, v=val, s=test)
    split = np.array([0, 0, 1, 0, 2, 0, 0, 2, 0, 2])
    ds = InteractionDataset(4, 6, users, items, split=split)
    rng = np.random.default_rng(99)
    feats = [
        ModalityFeatures("image", rng.normal(size=(6, 5))),
        ModalityFeatures("text", rng.normal(size=(6, 3))),
    ]
    return ds, feats


def micro_config(**overrides) -> training.TrainConfig:
    base = dict(
        d=8,
        layers=2,
        k_knn=2,
        k_hyper=3,
        hyper_steps=1,
        drop_rate=0.5,
        tau=0.2,
        lambda_hc=1e-5,
        lambda_ghc=0.01,
        lambda_reg=1e-4,
        learning_rate=1e-3,
        batch_size=4,
        max_epochs=3,
        patience=2,
        seed=11,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


def micro_batch() -> training.Batch:
    return training.Batch(
        users=np.array([0, 1, 2, 3]),
        pos_items=np.array([0, 1, 4, 2]),
        neg_items=np.array([3, 5, 1, 0]),
    )


@pytest.fixture
def micro():
    ds, feats = micro_dataset()
    cfg = micro_config()
    views = training.build_views(ds, feats, cfg)
    return ds, feats, cfg, views


_positive = st.floats(1e-6, 1e3)
_weight = st.floats(0.0, 10.0)
# valid TrainConfigs at ordinary magnitudes; the fields are drawn and
# filtered first, since a config with no view raises as it is built
train_configs = st.fixed_dictionaries(dict(
    d=st.integers(1, 512),
    layers=st.integers(0, 8),
    k_knn=st.integers(1, 64),
    k_hyper=st.integers(1, 128),
    hyper_steps=st.integers(1, 4),
    drop_rate=st.floats(0.0, 1.0, exclude_max=True),
    tau=_positive,
    lambda_hc=_weight,
    lambda_ghc=_weight,
    lambda_reg=_weight,
    learning_rate=st.floats(0.0, 1.0),
    batch_size=st.integers(1, 8192),
    max_epochs=st.integers(1, 1000),
    patience=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
    use_ui=st.booleans(),
    use_ii=st.booleans(),
    use_hem=st.booleans(),
)).filter(lambda f: f["use_ui"] or f["use_ii"] or f["use_hem"]).map(
    lambda f: training.TrainConfig(**f))


def with_checkpoint_meta(raw: bytes, config: bytes | None = None,
                         widths: bytes | None = None) -> bytes:
    """A version-3 checkpoint's bytes with the JSON text of its meta's
    config or modality widths replaced by the given bytes, which need not
    be JSON; the meta's length is the u32 at offset 28, after magic,
    version, num_users and num_items."""
    (length,) = struct.unpack_from("<I", raw, 28)
    meta = json.loads(raw[32:32 + length])
    config = json.dumps(meta["config"]).encode() if config is None else config
    widths = json.dumps(meta["modality_dims"]).encode() if widths is None else widths
    blob = b'{"config": ' + config + b', "modality_dims": ' + widths + b"}"
    return raw[:28] + struct.pack("<I", len(blob)) + blob + raw[32 + length:]
