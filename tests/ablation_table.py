"""The ablation table: every row of `ablations.py`, plus any
`--set FIELD=value` rows, trained on the learning-signal gate's data and
`_train_config` at the gate's seeds, or at `--seeds`, so a change can
show how it moves the paper's comparison of the full model with each
"w/o" variant.

Per row it prints the mean over seeds of the validation, test and
cold-start Recall@20, the seeds in which the row beats `full` on
validation and on test (with the ties), and each seed's best epoch. A
`--set FIELD=value` row is `full` with that one field changed, FIELD any
scalar `TrainConfig` field. The script calls only `fit`, `build_views`,
`compute_embeddings`, `evaluate` and the gate's two config builders, so
it also runs against another checkout:

    PYTHONPATH=/path/to/parent/src python tests/ablation_table.py --json parent.json
    PYTHONPATH=src python tests/ablation_table.py --json change.json
    PYTHONPATH=src python tests/ablation_table.py --compare parent.json change.json

`--seeds A-B` trains every row at seeds A to B instead, both included:
one gate pass or fail says little about a change that only reshuffles
training, and 20 seeds show how often each row beats `full`:

    PYTHONPATH=src python tests/ablation_table.py --seeds 0-19 --json seeds-0-19.json

`--compare OLD NEW` trains nothing: it prints, per row both tables have,
the change of each mean and of the seed counts. It gates nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from mhcr.dataio import VAL, generate_synthetic, split_dataset
from mhcr.evaluation import SLICE_ALL, SLICE_COLD, evaluate
from mhcr.training import TrainConfig, build_views, compute_embeddings, fit

from ablations import ABLATIONS
from test_acceptance import SEEDS, _synthetic_config, _train_config

METRICS = ("val", "test", "cold")
BOOLS = {"true": True, "on": True, "1": True, "false": False, "off": False, "0": False}


def parse_set(text: str) -> tuple[str, dict]:
    """A `FIELD=value` row: its name and the field it sets, the value
    parsed as the type of the field's default."""
    field, _, value = text.partition("=")
    kind = type(getattr(TrainConfig(), field, None))
    try:
        if kind not in (bool, int, float):
            raise ValueError(field)
        return text, {field: BOOLS[value.lower()] if kind is bool else kind(value)}
    except (KeyError, ValueError):
        raise SystemExit(f"--set {text!r}: expected FIELD=value, FIELD a TrainConfig field"
                         " and value of its type") from None


def dataset(seed: int):
    ds, features = generate_synthetic(_synthetic_config(seed))
    return split_dataset(ds, seed=seed), features


def train_config(seed: int) -> TrainConfig:
    return _train_config(seed)


def fit_row(ds, features, cfg: TrainConfig) -> dict:
    """One fit's validation, test and cold R@20 and its best epoch."""
    result = fit(ds, features, cfg)
    user_emb, item_emb = compute_embeddings(result.params, build_views(ds, features, cfg), cfg)
    val = evaluate(user_emb, item_emb, ds, target_split=VAL, ks=(20,))
    test = evaluate(user_emb, item_emb, ds, ks=(20,))
    cold = evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD, ks=(20,))
    return {
        "val": val.record(SLICE_ALL, 20).recall,
        "test": test.record(SLICE_ALL, 20).recall,
        "cold": cold.record(SLICE_COLD, 20).recall,
        "best_epoch": result.best_epoch,
    }


def seed_range(text: str) -> range:
    """The seeds A to B, both included, of an `A-B` option value."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return seeds


def collect(rows: dict[str, dict], seeds) -> dict[str, dict[str, dict]]:
    """Row name -> seed (as a string) -> `fit_row` of that row's config."""
    table: dict[str, dict[str, dict]] = {name: {} for name in rows}
    for seed in seeds:
        ds, features = dataset(seed)
        for name, settings in rows.items():
            cfg = replace(train_config(seed), **settings)
            table[name][str(seed)] = fit_row(ds, features, cfg)
    return table


def summary(table: dict[str, dict[str, dict]]) -> dict[str, dict]:
    """Per row: the mean of each metric, the seeds above and equal to
    `full` on val and on test, and the best epochs in seed order."""
    full = table["full"]
    out = {}
    for name, runs in table.items():
        row = {m: sum(r[m] for r in runs.values()) / len(runs) for m in METRICS}
        for m in ("val", "test"):
            row[f"{m}_above"] = sum(r[m] > full[s][m] for s, r in runs.items())
            row[f"{m}_equal"] = sum(r[m] == full[s][m] for s, r in runs.items())
        row["best_epochs"] = [r["best_epoch"] for r in runs.values()]
        out[name] = row
    return out


def format_table(table: dict[str, dict[str, dict]]) -> str:
    seeds = len(table["full"])

    def versus(row, m):
        ties = f", {row[f'{m}_equal']} equal" if row[f"{m}_equal"] else ""
        return f"{row[f'{m}_above']} of {seeds}{ties}"

    lines = [f"{'row':<24} {'val':>7} {'test':>7} {'cold':>7}  "
             f"{'val above full':<16} {'test above full':<16} best epochs"]
    for name, row in summary(table).items():
        above = ("-", "-") if name == "full" else (versus(row, "val"), versus(row, "test"))
        lines.append(f"{name:<24} {row['val']:7.4f} {row['test']:7.4f} {row['cold']:7.4f}  "
                     f"{above[0]:<16} {above[1]:<16} {row['best_epochs']}")
    return "\n".join(lines)


def format_compare(old: dict, new: dict) -> str:
    """Per row of both tables: each mean's change and the seed counts
    above `full`, old -> new."""
    before, after = summary(old), summary(new)
    lines = [f"{'row':<24} {'d val':>8} {'d test':>8} {'d cold':>8}  "
             "val above full  test above full"]
    for name in (n for n in after if n in before):
        b, a = before[name], after[name]
        deltas = " ".join(f"{a[m] - b[m]:+8.4f}" for m in METRICS)
        counts = [f"{b[f'{m}_above']} -> {a[f'{m}_above']}" for m in ("val", "test")]
        lines.append(f"{name:<24} {deltas}  {counts[0]:<15} {counts[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", action="append", default=[], metavar="FIELD=value",
                        help="add the row `full` with FIELD set to value (repeatable)")
    parser.add_argument("--seeds", type=seed_range, metavar="A-B",
                        help="train at seeds A to B, both included (default: the gate's seeds)")
    parser.add_argument("--json", metavar="PATH", help="write the per-seed table to PATH")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the change per row between two --json tables")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        print(format_compare(old, new))
        return 0
    table = collect({**ABLATIONS, **dict(parse_set(s) for s in args.set)}, args.seeds or SEEDS)
    print(format_table(table))
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
