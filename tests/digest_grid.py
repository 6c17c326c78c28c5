"""Digests of a fixed grid of tiny fits, so a change can show which numbers
it keeps and which it moves.

Every config of the grid (the 7 ablations plus hem-only and ii-only,
x `layers` {0, 2, 3} x `hyper_steps` {1, 2, 3} x `drop_rate` {0, 0.5},
deduplicated: bpr-mf fixes `layers` to 0, so 150 configs) is fit on one
70-user x 45-item synthetic set and gets two digests:

- "model": the trained parameters, the eval-mode embeddings and the VAL
  and TEST report JSON;
- "losses": the per-epoch loss parts and validation Recall@20.

A change that moves only the reported losses thus shows in "losses" alone.
One fixed-seed `mhcr train` run also hashes its `checkpoint.bin`,
`training_log.csv`, `eval_val.json` and `split.tsv`, the
`eval_test.json` that `mhcr evaluate` writes from that checkpoint and
split, so the load path is covered too, and the `sweep.csv` of a 2-cell
`mhcr sweep` on the same data.

The grid's 45 items fit in one similarity block, so "graphs" digests the
item-item graphs at sizes where their build takes several row blocks and
its top-K selection chunks wider than one column: the `indptr`, `indices`
and `data` of each modality's `build_affinity_graph` at K in {1, 4, 10, 40}
on a 300-item and a 1200-item cluster set, and on a 1200-item set without
feature noise, where every item ties with its whole cluster.

"views" digests what a fit reads before its first step, on the grid's
data in its generated (user, item) order and on the same pairs and labels
in one fixed shuffled order, where a user's pairs are not in item order:
per order, the `indptr`, `indices` and `data` of `build_views`' adjacency
and of its D_u^-1 X_u, and the VAL and TEST reports (all users, then the
cold-start slice) of the eval-mode embeddings of `BASE`'s initial
parameters.

The grid's 70 users fit in one score block of `evaluate`, so "ranking"
digests the VAL and TEST report JSON of each slice alone and of both
together, on a 3000-user x 2000-item set that `evaluate` ranks in several
blocks and a partial one, from the eval-mode embeddings of `RANKING`'s
initial parameters (d = 32, as the benchmark's).

Digests depend on the numpy and BLAS builds, so compare them only between
runs on one host. The script calls only `fit`, `init_parameters`,
`build_views`, `compute_embeddings`, `evaluate`, `build_affinity_graph`
and the CLI's `main`, so it also runs against another checkout:

    PYTHONPATH=/path/to/parent/src python tests/digest_grid.py --out parent.json
    PYTHONPATH=src python tests/digest_grid.py --out change.json --compare parent.json

`--compare` lists, per digest kind, the configs (CLI files, graphs, views,
rankings) whose digests differ, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from mhcr.cli import main as mhcr_main
from mhcr.dataio import (TEST, VAL, InteractionDataset, SyntheticConfig, generate_synthetic,
                         split_dataset)
from mhcr.evaluation import SLICE_ALL, SLICE_COLD, evaluate
from mhcr.item_graph import build_affinity_graph
from mhcr.training import TrainConfig, build_views, compute_embeddings, fit, init_parameters

from ablations import ABLATIONS

DATA = SyntheticConfig(num_users=70, num_items=45, num_clusters=4, seed=3)
BASE = TrainConfig(d=6, k_hyper=5, k_knn=4, batch_size=48, max_epochs=2, patience=2, seed=1)
EXTRA_VARIANTS = {
    "hem-only": {"use_ui": False, "use_ii": False},
    "ii-only": {"use_ui": False, "use_hem": False},
}
LAYERS, HYPER_STEPS, DROP_RATES = (0, 2, 3), (1, 2, 3), (0.0, 0.5)
KINDS = ("model", "losses")
CLI_FILES = ("checkpoint.bin", "training_log.csv", "eval_val.json", "split.tsv",
             "eval_test.json", "sweep.csv")
GRAPH_SETS = {
    "clusters-300": SyntheticConfig(num_users=40, num_items=300, num_clusters=6, seed=3),
    "clusters-1200": SyntheticConfig(num_users=40, num_items=1200, num_clusters=6, seed=3),
    "ties-1200": SyntheticConfig(num_users=40, num_items=1200, num_clusters=6, noise_std=0.0,
                                 seed=3),
}
GRAPH_KS = (1, 4, 10, 40)
VIEW_PARTS = ("adjacency", "x_u", "reports")
VIEW_ORDERS = ("dataset-order", "shuffled")
SHUFFLE_SEED = 11
RANKING_DATA = SyntheticConfig(num_users=3000, num_items=2000, num_clusters=10,
                               mean_interactions=10.0, seed=3)
RANKING = replace(BASE, d=32)
RANKING_SLICES = {"all": (SLICE_ALL,), "cold": (SLICE_COLD,), "both": (SLICE_ALL, SLICE_COLD)}


def grid() -> dict[str, TrainConfig]:
    """Name -> config, each distinct config once, named by its variant and
    its effective `layers`, `hyper_steps` and `drop_rate`."""
    configs: dict[str, TrainConfig] = {}
    variants = {**ABLATIONS, **EXTRA_VARIANTS}
    for variant, layers, steps, drop in itertools.product(variants, LAYERS, HYPER_STEPS,
                                                          DROP_RATES):
        grid_values = {"layers": layers, "hyper_steps": steps, "drop_rate": drop}
        cfg = replace(BASE, **{**grid_values, **variants[variant]})
        if cfg not in configs.values():
            name = f"{variant}/layers={cfg.layers}/hyper_steps={steps}/drop_rate={drop}"
            configs[name] = cfg
    return configs


def dataset():
    ds, features = generate_synthetic(DATA)
    return split_dataset(ds, seed=DATA.seed), features


def config_digests(ds, features, cfg: TrainConfig) -> dict[str, str]:
    """The "model" and "losses" digests of one fit."""
    result = fit(ds, features, cfg)
    model = hashlib.sha256()
    for name, tensor in result.params.tensors().items():
        model.update(name.encode())
        model.update(np.ascontiguousarray(tensor.data).tobytes())
    user_emb, item_emb = compute_embeddings(result.params, build_views(ds, features, cfg), cfg)
    model.update(user_emb.tobytes())
    model.update(item_emb.tobytes())
    for report in (evaluate(user_emb, item_emb, ds, target_split=VAL),
                   evaluate(user_emb, item_emb, ds)):
        model.update(report.to_json().encode())
    losses = [list(astuple(e.loss)) + [e.val_recall20] for e in result.epochs]
    return {
        "model": model.hexdigest(),
        "losses": hashlib.sha256(np.array(losses, dtype=np.float64).tobytes()).hexdigest(),
    }


def cli_digests() -> dict[str, str]:
    """sha256 of each output file of one fixed-seed `mhcr train` run, of
    the `mhcr evaluate` run on its checkpoint and split, and of a 2-cell
    `mhcr sweep`."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        data, out = Path(tmp) / "data", Path(tmp) / "run"
        generate = ["generate", "--out-dir", str(data), "--num-users", "120", "--num-items",
                    "50", "--num-clusters", "4", "--seed", "5"]
        model = ["--data-dir", str(data), "--out-dir", str(out), "--d", "8", "--k-hyper", "4",
                 "--k-knn", "3", "--batch-size", "64", "--max-epochs", "3", "--seed", "5"]
        evaluate = ["evaluate", "--data-dir", str(data), "--out-dir", str(out), "--checkpoint",
                    str(out / "checkpoint.bin"), "--split", str(out / "split.tsv")]
        sweep = ["sweep", *model, "--grid", "k_hyper=2,4", "--grid", "lambda_hc=1e-5",
                 "--grid", "lambda_ghc=0.01"]
        for argv in (generate, ["train", *model], evaluate, sweep):
            if mhcr_main(argv) != 0:
                raise RuntimeError(f"mhcr {argv[0]} failed")
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CLI_FILES}


def graph_digests() -> dict[str, str]:
    """Per graph set and K, sha256 of the `indptr`, `indices` and `data` of
    each modality's affinity graph."""
    digests = {}
    for name, data in GRAPH_SETS.items():
        _, features = generate_synthetic(data)
        for k in GRAPH_KS:
            digest = hashlib.sha256()
            for graph in (build_affinity_graph(f, k) for f in features):
                for part in (graph.indptr, graph.indices, graph.data):
                    digest.update(part.tobytes())
            digests[f"{name}/k={k}"] = digest.hexdigest()
    return digests


def view_digests() -> dict[str, str]:
    """Per pair order of `VIEW_ORDERS` and part of `VIEW_PARTS`, sha256 of
    the sparse matrix's `indptr`, `indices` and `data`, or of the initial
    parameters' VAL and TEST report JSON."""
    ds, features = dataset()
    order = np.random.default_rng(SHUFFLE_SEED).permutation(len(ds))
    shuffled = InteractionDataset(ds.num_users, ds.num_items, ds.users[order], ds.items[order],
                                  split=ds.split[order])
    digests = {}
    for name, data in zip(VIEW_ORDERS, (ds, shuffled)):
        views = build_views(data, features, BASE)
        params = init_parameters(BASE, data.num_users, data.num_items, views.modality_dims)
        user_emb, item_emb = compute_embeddings(params, views, BASE)
        for part, matrix in (("adjacency", views.adjacency), ("x_u", views.x_u)):
            digest = hashlib.sha256()
            for array in (matrix.indptr, matrix.indices, matrix.data):
                digest.update(array.tobytes())
            digests[f"{name}/{part}"] = digest.hexdigest()
        reports = [evaluate(user_emb, item_emb, data, (SLICE_ALL, SLICE_COLD), target_split=split)
                   for split in (VAL, TEST)]
        text = "".join(report.to_json() for report in reports)
        digests[f"{name}/reports"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def ranking_digests() -> dict[str, str]:
    """Per target split and slice set of `RANKING_SLICES`, sha256 of the
    report JSON of `RANKING`'s initial parameters on `RANKING_DATA`."""
    ds, features = generate_synthetic(RANKING_DATA)
    ds = split_dataset(ds, seed=RANKING_DATA.seed)
    views = build_views(ds, features, RANKING)
    params = init_parameters(RANKING, ds.num_users, ds.num_items, views.modality_dims)
    user_emb, item_emb = compute_embeddings(params, views, RANKING)
    digests = {}
    for split_name, split in (("val", VAL), ("test", TEST)):
        for name, slices in RANKING_SLICES.items():
            report = evaluate(user_emb, item_emb, ds, slices, target_split=split)
            digests[f"{split_name}/{name}"] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return digests


def collect() -> dict:
    ds, features = dataset()
    return {
        "numpy": np.__version__,
        "configs": {name: config_digests(ds, features, cfg) for name, cfg in grid().items()},
        "cli": cli_digests(),
        "graphs": graph_digests(),
        "views": view_digests(),
        "ranking": ranking_digests(),
    }


def compare(ours: dict, theirs: dict) -> dict[str, list[str]]:
    """Per digest kind, the configs (or CLI files, graphs, views or
    rankings) whose digests differ or that only one side has."""
    differ = {}
    for kind in KINDS:
        names = sorted(ours["configs"].keys() | theirs["configs"].keys())
        differ[kind] = [
            n for n in names
            if ours["configs"].get(n, {}).get(kind) != theirs["configs"].get(n, {}).get(kind)
        ]
    differ["cli"] = [n for n in CLI_FILES if ours["cli"].get(n) != theirs["cli"].get(n)]
    for kind in ("graphs", "views", "ranking"):
        ours_kind, theirs_kind = ours.get(kind, {}), theirs.get(kind, {})
        differ[kind] = [n for n in sorted(ours_kind.keys() | theirs_kind.keys())
                        if ours_kind.get(n) != theirs_kind.get(n)]
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write the digests to")
    parser.add_argument("--compare", help="digest JSON of another run to compare with")
    args = parser.parse_args(argv)
    digests = collect()
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests['configs'])} configs, {len(digests['cli'])} CLI files, "
          f"{len(digests['graphs'])} graphs, {len(digests['views'])} views, "
          f"{len(digests['ranking'])} rankings -> {args.out}")
    if not args.compare:
        return 0
    theirs = json.loads(Path(args.compare).read_text())
    if theirs.get("numpy") != digests["numpy"]:
        print(f"warning: numpy {theirs.get('numpy')} there, {digests['numpy']} here")
    differ = compare(digests, theirs)
    for kind, names in differ.items():
        count = len(digests.get(kind, digests["configs"]))
        print(f"{kind}: {len(names)} of {count} differ")
        for name in names:
            print(f"  {name}")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
