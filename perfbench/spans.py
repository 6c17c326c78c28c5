"""Span tracing from outside the program, and the per-layer metrics built from it.

`Tracer.install` replaces each public function in `TARGETS` with a wrapper,
at the place its callers look it up (a module attribute or a class method),
that records one span: name, start, end and the index of the enclosing span.
Spans stay in memory until `write` is called at the end of a run. Nothing
inside the program changes; uninstalling restores the original objects.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from mhcr import autodiff, checkpoint, dataio, evaluation, training

# (owner, attribute, span name). `training.forward` is named by its mode below.
TARGETS = (
    (dataio, "load_interactions", "dataio.load_interactions"),
    (dataio, "load_features", "dataio.load_features"),
    (dataio, "split_dataset", "dataio.split_dataset"),
    (dataio, "load_split", "dataio.load_split"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (training, "fit", "training.fit"),
    (training, "build_views", "training.build_views"),
    (training, "build_norm_adjacency", "ui_graph.build"),
    (training, "build_affinity_graph", "item_graph.build"),
    (training, "forward", None),
    (training, "propagate_ui", "ui_graph.propagate"),
    (training, "propagate_items", "item_graph.propagate"),
    (training, "build_incidence", "hypergraph.incidence"),
    (training, "hypergraph_pass", "hypergraph.pass"),
    (training, "bpr_loss", "objectives.bpr"),
    (training, "hyper_contrastive_loss", "objectives.hc"),
    (training, "graph_hyper_contrastive_loss", "objectives.ghc"),
    (training, "embedding_l2", "objectives.reg"),
    (training, "sample_negatives", "training.negatives"),
    (training, "backward_and_step", "training.backward_and_step"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (training.Adam, "step", "training.adam"),
    (training, "compute_embeddings", "training.compute_embeddings"),
    (evaluation, "mean_recall", "evaluation.mean_recall"),
    (evaluation, "evaluate", "evaluation.evaluate"),
)


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
    return "training.forward" if mode == "train" else "training.forward_eval"


class Tracer:
    """Records nested spans as [name, start_ns, end_ns, parent_index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if name is not None else _forward_name(args, kwargs)
            idx = len(spans)
            spans.append([label, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run a block with the original functions in place (no spans)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of recording one span, from a wrapped no-op."""
        probe = Tracer()._wrap("noop", lambda: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            probe()
        return (time.perf_counter() - t0) / calls

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unit": "ns", "fields": ["name", "start", "end", "parent"],
                                    "spans": rows}), encoding="utf-8")


class SpanIndex:
    """Queries over a finished span list: totals, counts and self time,
    optionally restricted to spans inside (or outside) a named ancestor."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                self.children_ns[parent] += end - start

    def _inside(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str, inside: str | None = None, outside: str | None = None) -> list[int]:
        return [
            i for i, span in enumerate(self.spans)
            if span[0] == name
            and (inside is None or self._inside(i, inside))
            and (outside is None or not self._inside(i, outside))
        ]

    def seconds(self, idxs: list[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in idxs) / 1e9

    def self_seconds(self, idxs: list[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] - self.children_ns[i] for i in idxs) / 1e9

    def step_ms(self) -> list[float]:
        """Training step durations: each negative-sampling call to the end of
        the `backward_and_step` that follows it."""
        starts = [self.spans[i][1] for i in self.select("training.negatives")]
        ends = [self.spans[i][2] for i in self.select("training.backward_and_step")]
        return [(e - s) / 1e6 for s, e in zip(starts, ends)]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the table in perfbench/README.md. `_ms` values are
    milliseconds per training step; `_s` values are seconds per call of the
    named public function unless stated."""
    ix = SpanIndex(spans)
    sel, sec = ix.select, ix.seconds
    steps = len(sel("training.backward_and_step"))
    views = len(sel("training.build_views"))
    loads = sel("dataio.load_interactions")
    val_calls = sel("evaluation.mean_recall", inside="training.fit")
    test_embeds = sel("training.compute_embeddings", outside="training.fit")

    def per_step_ms(name: str, inside: str | None = None) -> float:
        return 1e3 * _per(sec(sel(name, inside=inside)), steps)

    def mean_s(name: str) -> float:
        idxs = sel(name)
        return _per(sec(idxs), len(idxs))

    step_ms = ix.step_ms()
    p90 = statistics.quantiles(step_ms, n=10, method="inclusive")[8] if len(step_ms) > 1 else 0.0
    metrics = {
        "dataio.load_s": (_per(sec(loads) + sec(sel("dataio.load_features")), len(loads)), "s"),
        "dataio.split_s": (mean_s("dataio.split_dataset"), "s"),
        "dataio.load_split_s": (mean_s("dataio.load_split"), "s"),
        "ui_graph.build_s": (_per(sec(sel("ui_graph.build")), views), "s"),
        "item_graph.build_s": (_per(sec(sel("item_graph.build")), views), "s"),
        "training.build_views_s": (mean_s("training.build_views"), "s"),
        "ui_graph.propagate_ms": (per_step_ms("ui_graph.propagate", "training.forward"), "ms"),
        "item_graph.propagate_ms": (per_step_ms("item_graph.propagate", "training.forward"), "ms"),
        "hypergraph.incidence_ms": (per_step_ms("hypergraph.incidence", "training.forward"), "ms"),
        "hypergraph.pass_ms": (per_step_ms("hypergraph.pass", "training.forward"), "ms"),
        "objectives.bpr_ms": (per_step_ms("objectives.bpr"), "ms"),
        "objectives.hc_ms": (per_step_ms("objectives.hc"), "ms"),
        "objectives.ghc_ms": (per_step_ms("objectives.ghc"), "ms"),
        "objectives.reg_ms": (per_step_ms("objectives.reg"), "ms"),
        "autodiff.backward_ms": (per_step_ms("autodiff.backward"), "ms"),
        "training.adam_ms": (per_step_ms("training.adam"), "ms"),
        "training.forward_self_ms": (
            1e3 * _per(ix.self_seconds(sel("training.forward")), steps), "ms"
        ),
        "training.negatives_ms": (per_step_ms("training.negatives"), "ms"),
        "training.step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "training.step_ms_p90": (p90, "ms"),
        "training.steps": (float(steps), "count"),
        "training.val_eval_s": (
            _per(sec(val_calls) + sec(sel("training.compute_embeddings", inside="training.fit")),
                 len(val_calls)),
            "s",
        ),
        "evaluation.embed_s": (_per(sec(test_embeds), len(test_embeds)), "s"),
        "evaluation.rank_s": (
            _per(sec(sel("evaluation.evaluate", outside="training.fit")), len(test_embeds)), "s"
        ),
        "checkpoint.save_s": (mean_s("checkpoint.save"), "s"),
        "checkpoint.load_s": (mean_s("checkpoint.load"), "s"),
        "trace.spans": (float(len(spans)), "count"),
    }
    return metrics
