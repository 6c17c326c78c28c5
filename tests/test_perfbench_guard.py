"""The benchmark harness under perfbench/ drives the program from outside:
its tracer patches program functions by name, and its runner calls a few
of them with fixed arguments. These checks fail fast when the program
renames or reshapes any of them."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from mhcr import training

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
    bind(training.forward, params, views, cfg, batch=batch, mode="train", rng=rng)
    bind(training.sample_negatives, ds, users, rng, [frozenset()])
    bind(training.train_item_sets, ds)
    bind(training.init_parameters, cfg, 4, 3, {"image": 2})
    bind(training.Adam, {}, 1e-3)


def test_tracer_reads_the_forward_mode_at_its_position(spans):
    # the span name of a forward call given `mode` positionally
    assert list(inspect.signature(training.forward).parameters).index("mode") == 4
    args = (None,) * 4
    assert spans._forward_name(args + ("eval",), {}) == "training.forward_eval"
    assert spans._forward_name(args, {"mode": "train"}) == "training.forward"
