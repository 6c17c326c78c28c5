"""mhcr benchmark: one workload run in one process, single-threaded BLAS.

    python3 perfbench/run.py --workload train-wide --seed 0 --seconds 10 --trace 0

The run generates its inputs from --seed with `generate_synthetic`, writes them
in the CLI's file formats, and then drives the calls the CLI makes on those
files only. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run. Every reported
Recall@K/NDCG@K is checked against a brute-force ranking, and checkpoint and
loss digests are compared with earlier runs of the same code and seed.
The line before the result is a JSON record of the environment and digests.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import functools
import hashlib
import inspect
import json
import logging
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

if not (SRC / "mhcr" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source {SRC / 'mhcr'} not found")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mhcr  # noqa: E402
from mhcr import checkpoint, dataio, evaluation, training  # noqa: E402
from mhcr.errors import MhcrError  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

if not Path(mhcr.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported mhcr from {mhcr.__file__}, not from {SRC}")

MODALITY_DIMS = {"image": 24, "video": 24, "text": 16}
# Generator and train settings of the acceptance suite's learning-signal gate.
ACCEPT_DATA = dict(
    num_users=2000, num_items=500, num_clusters=10, mean_interactions=5.0, degree_exponent=0.7,
    modality_dims=MODALITY_DIMS, within_cluster_prob=0.85, noise_std=0.25,
)
TRAIN_CFG = dict(d=32, k_hyper=32, k_knn=10, batch_size=256, learning_rate=3e-3)
COLD_THRESHOLD = 3
EVAL_MIN_SECONDS = 12.0  # train workloads time test evaluation passes for this long, in two halves
PROBE_STEPS = 32  # training steps the evaluate workload times for train_samples_per_s
WARNING_SOURCES = (
    ("neg_sampling_fallback", "negative sampling fell back"),
    ("zero_norm_rows", "zero-norm"),
    ("clamped_k", "clamping"),
)


@dataclass(frozen=True)
class Workload:
    data: dict  # SyntheticConfig fields other than the seed
    epochs: int  # epochs per `fit`; 0 marks the evaluate workload
    setup_reps: int


# train-accept is not listed in BENCHMARK.json: its interpreter-bound timings
# spread across runs beyond any allowed bound (see README.md). It stays
# runnable by hand for per-layer numbers at the acceptance scale.
WORKLOADS = {
    "train-accept": Workload(ACCEPT_DATA, epochs=4, setup_reps=5),
    "train-wide": Workload(
        {**ACCEPT_DATA, "num_users": 20000, "num_items": 2000, "mean_interactions": 3.0},
        epochs=1, setup_reps=5,
    ),
    "evaluate-20k": Workload(
        {**ACCEPT_DATA, "num_users": 20000, "num_items": 2000, "mean_interactions": 10.0},
        epochs=0, setup_reps=3,
    ),
}


class WarningCounter(logging.Handler):
    """Counts WARNING records of the `mhcr` loggers by source."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        source = next((name for name, needle in WARNING_SOURCES if needle in message), "other")
        self.counts[source] += 1


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def code_digest() -> str:
    """Hash of the program's and the benchmark's own source files."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "mhcr").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def repeat(fn, seconds: float) -> list:
    """Call `fn` at least once, and again while another call of the same
    length still ends within `seconds` of the first start."""
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def param_bytes(params, dtype=np.float64) -> bytes:
    """The parameters' values; with dtype "<f4", rounded as a checkpoint stores them."""
    return b"".join(t.data.astype(dtype).astype(np.float64).tobytes()
                    for t in params.tensors().values())


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, work: Path):
        self.name, self.seed, self.seconds, self.work = name, seed, seconds, work
        self.workload = WORKLOADS[name]
        epochs = max(self.workload.epochs, 1)
        # patience == max_epochs, so early stopping cannot end a fit early
        self.cfg = training.TrainConfig(**TRAIN_CFG, max_epochs=epochs, patience=epochs, seed=seed)
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.val_calls: list = []  # (bound arguments, value) of every `mean_recall` call
        self.test_passes: list = []  # (ds, user_emb, item_emb, reports) of every test pass
        self.oracle_cache: dict = {}
        self.digests: dict[str, str] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict = {}
        self.setup_times: list[float] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    # -- instrumentation ---------------------------------------------------

    def capture_val_calls(self) -> None:
        """Keep the arguments and result of each `evaluation.mean_recall` call
        (the per-epoch validation ranking inside `fit`) for the oracle."""
        original = evaluation.mean_recall
        signature = inspect.signature(original)
        sink = self.val_calls

        @functools.wraps(original)
        def capturing(*args, **kwargs):
            value = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sink.append((dict(bound.arguments), value))
            return value

        evaluation.mean_recall = capturing

    def timed_units(self, unit) -> list:
        """Repeat `unit` (which returns a tuple ending in its seconds) for the
        run's --seconds. A traced run instead calls it once untraced and once
        traced, and reports the difference as the tracing overhead."""
        if self.tracer is None:
            return repeat(unit, self.seconds)
        with self.tracer.paused():
            plain = unit()
        traced = unit()
        self.details.update(untraced_unit_s=plain[-1], traced_unit_s=traced[-1],
                            span_cost_us=1e6 * self.tracer.span_cost_s())
        self.metrics["trace.overhead_pct"] = (100.0 * (traced[-1] / plain[-1] - 1.0), "%")
        return [plain, traced]

    # -- phases ------------------------------------------------------------

    def generate(self) -> None:
        config = dataio.SyntheticConfig(**self.workload.data, seed=self.seed)
        ds, feats = dataio.generate_synthetic(config)
        dataio.save_interactions(ds, self.work / "interactions.tsv")
        for f in feats:
            dataio.save_features(f, self.work / f"features_{f.modality}.bin")
        if self.workload.epochs == 0:
            dataio.save_split(dataio.split_dataset(ds, seed=self.seed), self.work / "split.tsv")
            params = training.init_parameters(
                self.cfg, ds.num_users, ds.num_items, {f.modality: f.dim for f in feats}
            )
            checkpoint.save_checkpoint(params, self.work / "checkpoint.bin")

    def load_files(self):
        ds = dataio.load_interactions(self.work / "interactions.tsv")
        feats = [dataio.load_features(self.work / f"features_{tag}.bin") for tag in MODALITY_DIMS]
        return ds, feats

    def setup(self, reps: int):
        """Timed set-up, repeated; returns the last repetition's state. The
        host's speed drifts over seconds, so a run sets up about half of its
        repetitions at the start and the rest at the end, and `setup_s` is
        the median of all of them."""
        state = None
        for _ in range(reps):
            t0 = time.perf_counter()
            ds_raw, feats = self.load_files()
            if self.workload.epochs:
                state = (ds_raw, dataio.split_dataset(ds_raw, seed=self.seed), feats)
            else:
                ds = dataio.load_split(ds_raw, self.work / "split.tsv")
                params = checkpoint.load_checkpoint(self.work / "checkpoint.bin")
                state = (ds, feats, params, training.build_views(ds, feats, self.cfg))
            self.setup_times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = (statistics.median(self.setup_times), "s")
        self.details["setup_s"] = self.setup_times
        return state

    def late_setup(self) -> None:
        reps = self.workload.setup_reps
        self.setup(reps - (reps + 1) // 2)

    def fit_once(self, ds, feats, steps: int):
        self.attempted += steps
        t0 = time.perf_counter()
        try:
            result = training.fit(ds, feats, self.cfg)
        except MhcrError:
            self.failed += steps
            raise
        return result, time.perf_counter() - t0

    def check_fit(self, result, steps_per_epoch: int) -> None:
        if len(result.epochs) != self.workload.epochs:
            self.fail(steps_per_epoch * self.workload.epochs,
                      f"fit ran {len(result.epochs)} of {self.workload.epochs} epochs")
        for e in result.epochs:
            row = [e.loss.l_bpr, e.loss.l_hc, e.loss.l_ghc, e.loss.l_reg, e.loss.total]
            if not np.isfinite(row).all():
                self.fail(steps_per_epoch, f"non-finite loss in epoch {e.epoch}: {row}")
        rows = [[e.epoch, e.loss.l_bpr, e.loss.l_hc, e.loss.l_ghc, e.loss.l_reg, e.loss.total,
                 e.val_recall20] for e in result.epochs]
        self.record_digest("losses", json.dumps(rows).encode())
        self.record_digest("params", param_bytes(result.params))

    def record_digest(self, key: str, data: bytes) -> None:
        value = digest(data)
        if self.digests.setdefault(key, value) != value:
            self.fail(1, f"{key} digest differs between repeats in one run")

    def eval_pass(self, params, views, ds):
        """compute_embeddings plus the `all` and `cold_start` test evaluations."""
        t0 = time.perf_counter()
        user_emb, item_emb = training.compute_embeddings(params, views, self.cfg)
        reports = []
        for slice_name in (evaluation.SLICE_ALL, evaluation.SLICE_COLD):
            self.attempted += 1
            try:
                reports.append(evaluation.evaluate(
                    user_emb, item_emb, ds, slice_name=slice_name, cold_threshold=COLD_THRESHOLD
                ))
            except MhcrError:
                self.failed += 1
                raise
        elapsed = time.perf_counter() - t0
        self.test_passes.append((ds, user_emb, item_emb, reports))
        users = sum(r.record(r.records[0].slice, 20).users for r in reports)
        return users, reports, elapsed

    def report_eval(self, passes) -> None:
        users, reports, _ = passes[-1]
        all_users, cold = reports
        self.metrics["eval_users_per_s"] = (statistics.median(u / t for u, _, t in passes),
                                            "users/s")
        self.metrics["recall20"] = (all_users.record(evaluation.SLICE_ALL, 20).recall, "ratio")
        self.metrics["cold_recall20"] = (cold.record(evaluation.SLICE_COLD, 20).recall, "ratio")
        self.metrics["evaluation.users_ranked"] = (float(users), "count")
        self.record_digest("report", "".join(r.to_json() for r in reports).encode())
        self.details["eval_passes_s"] = [t for _, _, t in passes]

    def run_train(self, ds_raw, ds, feats) -> None:
        n_train = int((ds.split == dataio.TRAIN).sum())
        steps_per_epoch = -(-n_train // self.cfg.batch_size)
        steps = steps_per_epoch * self.workload.epochs
        fits = self.timed_units(lambda: self.fit_once(ds, feats, steps))
        for result, _ in fits:
            self.check_fit(result, steps_per_epoch)
        samples = self.workload.epochs * n_train
        self.metrics["train_samples_per_s"] = (
            statistics.median(samples / t for _, t in fits), "interactions/s"
        )
        self.details.update(n_train=n_train, steps_per_fit=steps, fits_s=[t for _, t in fits])

        # what `mhcr train` writes, then what `mhcr evaluate --split` reads
        result = fits[-1][0]
        dataio.save_split(ds, self.work / "split.tsv")
        checkpoint.save_checkpoint(result.params, self.work / "checkpoint.bin")
        params = checkpoint.load_checkpoint(self.work / "checkpoint.bin")
        ds_eval = dataio.load_split(ds_raw, self.work / "split.tsv")
        if param_bytes(params) != param_bytes(result.params, "<f4"):
            self.fail(1, "checkpoint round trip changed the parameters")
        if not np.array_equal(ds_eval.split, ds.split):
            self.fail(1, "split sidecar round trip changed the split")
        views = training.build_views(ds_eval, feats, self.cfg)
        # two halves, some seconds apart, for the same reason as in `setup`
        passes = repeat(lambda: self.eval_pass(params, views, ds_eval), EVAL_MIN_SECONDS / 2)
        self.check_rankings()
        self.late_setup()
        passes += repeat(lambda: self.eval_pass(params, views, ds_eval), EVAL_MIN_SECONDS / 2)
        self.report_eval(passes)
        self.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")

    def run_evaluate(self, ds, feats, params, views) -> None:
        passes = self.timed_units(lambda: self.eval_pass(params, views, ds))
        self.report_eval(passes)
        self.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        self.check_rankings()
        self.train_probe(ds, params, views)
        self.late_setup()

    def train_probe(self, ds, params, views) -> None:
        """PROBE_STEPS training steps on this workload's data, as `fit` takes
        them, from a copy of the checkpoint; times train_samples_per_s."""
        params = params.copy()
        optimizer = training.Adam(params.tensors(), self.cfg.learning_rate)
        rng_shuffle, rng_neg, rng_drop = (
            np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(3)
        )
        users, items = ds.split_pairs(dataio.TRAIN)
        train_sets = training.train_item_sets(ds)
        perm = rng_shuffle.permutation(users.size)
        batch_size = self.cfg.batch_size
        rows = []
        self.attempted += PROBE_STEPS
        t0 = time.perf_counter()
        for step in range(PROBE_STEPS):
            idx = perm[step * batch_size:(step + 1) * batch_size]
            batch = training.Batch(
                users=users[idx], pos_items=items[idx],
                neg_items=training.sample_negatives(ds, users[idx], rng_neg, train_sets),
            )
            try:
                result = training.forward(params, views, self.cfg, batch=batch, mode="train",
                                          rng=rng_drop)
                training.backward_and_step(result.total, params, optimizer)
            except MhcrError:
                self.failed += PROBE_STEPS - step
                raise
            b = result.breakdown
            rows.append([b.l_bpr, b.l_hc, b.l_ghc, b.l_reg, b.total])
            if not np.isfinite(rows[-1]).all():
                self.fail(1, f"non-finite loss in probe step {step}: {rows[-1]}")
        elapsed = time.perf_counter() - t0
        self.metrics["train_samples_per_s"] = (PROBE_STEPS * batch_size / elapsed, "interactions/s")
        self.record_digest("losses", json.dumps(rows).encode())
        self.details["probe_s"] = elapsed

    # -- correctness -------------------------------------------------------

    def oracle_metrics(self, user_emb, item_emb, ds, target_split: int, slice_name: str,
                       ks) -> dict:
        key = (digest(user_emb.tobytes() + item_emb.tobytes()), digest(ds.split.tobytes()),
               target_split, slice_name, tuple(ks))
        if key not in self.oracle_cache:
            slice_users = (range(ds.num_users) if slice_name == evaluation.SLICE_ALL
                           else oracle.cold_users(ds, COLD_THRESHOLD))
            self.oracle_cache[key] = oracle.rank_metrics(
                user_emb, item_emb, ds, target_split, slice_users, ks
            )
        return self.oracle_cache[key]

    def check_rankings(self) -> None:
        """Every Recall@K/NDCG@K reported since the last call, against the
        brute-force oracle."""
        for args, value in self.val_calls:
            self.attempted += 1
            expected = self.oracle_metrics(args["user_emb"], args["item_emb"], args["ds"],
                                   args["target_split"], evaluation.SLICE_ALL, (args["k"],))
            bad = oracle.mismatches(expected, [(args["k"], value, None, None)])
            if bad:
                self.fail(1, f"validation ranking: {bad}")
        for ds, user_emb, item_emb, reports in self.test_passes:
            for report in reports:
                slice_name = report.records[0].slice
                ks = tuple(r.k for r in report.records)
                expected = self.oracle_metrics(user_emb, item_emb, ds, report.target_split,
                                               slice_name, ks)
                bad = oracle.mismatches(expected, [(r.k, r.recall, r.ndcg, r.users)
                                                   for r in report.records])
                if bad:
                    self.fail(1, f"test ranking ({slice_name}): {bad}")
        self.details["rankings_checked"] = (self.details.get("rankings_checked", 0)
                                            + len(self.val_calls) + 2 * len(self.test_passes))
        self.val_calls.clear()
        self.test_passes.clear()

    def check_against_earlier_runs(self, ckpt_bytes: bytes) -> None:
        """Same code, numpy and seed must give the same digests in every run."""
        self.digests["checkpoint"] = digest(ckpt_bytes)
        self.digests.pop("params", None)
        store = WORK / "digests.json"
        key = f"{self.name}|seed={self.seed}|code={code_digest()}|numpy={np.__version__}"
        known = json.loads(store.read_text()) if store.exists() else {}
        earlier = known.setdefault(key, self.digests)
        for name, value in self.digests.items():
            if earlier.get(name) != value:
                self.fail(1, f"{name} digest {value} differs from an earlier run "
                             f"({earlier.get(name)})")
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)

    # -- whole run ---------------------------------------------------------

    def execute(self) -> None:
        self.capture_val_calls()
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.generate()
            reps = self.workload.setup_reps
            state = self.setup((reps + 1) // 2)
            if self.workload.epochs:
                self.run_train(*state)
            else:
                self.run_evaluate(*state)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.check_rankings()
        self.check_against_earlier_runs((self.work / "checkpoint.bin").read_bytes())
        if self.tracer is not None:
            self.metrics.update(spans.layer_metrics(self.tracer.spans))
            self.metrics["checkpoint.bytes"] = (
                float((self.work / "checkpoint.bin").stat().st_size), "bytes"
            )
            self.tracer.write(WORK / "traces" / f"{self.name}-seed{self.seed}.json")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# recall20 and cold_recall20 are reported with the per-layer metrics: across
# workload seeds they spread by up to 0.28 of their median on evaluate-20k,
# more than any end-to-end bound allows.
END_TO_END = ("setup_s", "train_samples_per_s", "eval_users_per_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"workload": args.workload, "trace": args.trace, **environment(args.seed)}
    warnings = WarningCounter()
    logging.getLogger("mhcr").addHandler(warnings)
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.execute()
    except MhcrError as exc:
        # a step or ranking that raised is already counted; a set-up error is not
        run.attempted = max(run.attempted, 1)
        run.fail(0 if run.failed else 1, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = warnings.counts
    if args.trace:
        run.metrics["training.warnings"] = (float(sum(counts.values())), "count")
        for source, _ in WARNING_SOURCES:
            run.metrics[f"warnings.{source}"] = (float(counts[source]), "count")
        names = [m for m in run.metrics if m not in END_TO_END]
    else:
        names = [m for m in END_TO_END if m in run.metrics]
    quality = {m: run.metrics[m][0] for m in ("recall20", "cold_recall20") if m in run.metrics}
    record.update(digests=run.digests, warnings=dict(counts), errors=run.errors, **quality,
                  **run.details)
    print(json.dumps({"record": record}))
    correct = run.failed == 0 and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": run.metrics[m][0], "unit": run.metrics[m][1]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
