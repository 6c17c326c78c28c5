"""The benchmark harness under perfbench/ drives the program from outside:
its tracer patches program functions by name, and its runner calls a few
of them with fixed arguments. These checks fail fast when the program
renames or reshapes any of them."""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mhcr import checkpoint, dataio, evaluation, training

from conftest import micro_batch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_target(spans):
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, _), original in zip(spans.TARGETS, originals):
            patched = owner.__dict__[attr]
            assert patched is not original and patched.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(spans.TARGETS, originals):
        assert owner.__dict__[attr] is original, attr


def test_runner_calls_bind_to_the_program_signatures():
    def bind(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    params, views, cfg, batch, ds, users, rng = (object(),) * 7
    feats, total, optimizer, emb, path = (object(),) * 5
    bind(training.forward, params, views, cfg, batch=batch, mode="train", rng=rng)
    train_keys = np.array([1, 5], dtype=np.int64)  # sorted pair keys, as train_item_sets gives
    bind(training.sample_negatives, ds, users, rng, train_keys)
    bind(training.train_item_sets, ds)
    bind(training.init_parameters, cfg, 4, 3, {"image": 2})
    bind(training.Adam, {}, 1e-3)
    bind(training.fit, ds, feats, cfg)
    bind(training.build_views, ds, feats, cfg)
    bind(training.compute_embeddings, params, views, cfg)
    bind(training.backward_and_step, total, params, optimizer)
    bind(training.Batch, users=users, pos_items=users, neg_items=users)
    bind(checkpoint.save_checkpoint, params, path)
    bind(checkpoint.load_checkpoint, path)
    bind(dataio.load_split, ds, path)
    bind(dataio.split_dataset, ds, seed=0)
    bind(evaluation.evaluate, emb, emb, ds, slice_name="all", cold_threshold=3)


def test_mean_recall_keeps_the_argument_names_the_runner_reads():
    # the runner binds each call's arguments and reads them by name
    names = inspect.signature(evaluation.mean_recall).parameters
    assert {"user_emb", "item_emb", "ds", "target_split", "k"} <= set(names)


def test_tracer_reads_the_forward_mode_at_its_position(spans):
    # the span name of a forward call given `mode` positionally
    assert list(inspect.signature(training.forward).parameters).index("mode") == 4
    args = (None,) * 4
    assert spans._forward_name(args + ("eval",), {}) == "training.forward_eval"
    assert spans._forward_name(args, {"mode": "train"}) == "training.forward"


def test_a_train_forward_has_the_fields_the_probe_reads(micro):
    # the training probe steps on `total` and records the breakdown's parts
    # as JSON, as `fit` does
    ds, _, cfg, views = micro
    params = training.init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    result = training.forward(params, views, cfg, batch=micro_batch(), mode="train", rng=0)
    training.backward_and_step(result.total, params,
                               training.Adam(params.tensors(), cfg.learning_rate))
    b = result.breakdown
    row = [b.l_bpr, b.l_hc, b.l_ghc, b.l_reg, b.total]
    assert np.isfinite(row).all() and json.loads(json.dumps(row)) == row
