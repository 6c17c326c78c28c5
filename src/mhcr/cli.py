"""Command-line entry point: generate / train / evaluate / sweep.

Every scalar field of the config dataclass of `generate`, `train` and
`sweep` is both a `--field-name` flag and a key of the `--config` file, a
flat `key = value` text with `#` comments; `evaluate` takes its model from
the checkpoint. Every command rejects keys it does not know. A field's
precedence is built-in default < config file < flag < a `sweep --grid`
value; an ablation is a setting of the fields, named by `variant_label`.
The output directory is `--out-dir`, else the MHCR_OUTPUT_DIR environment
variable, else the file's `out_dir`, else `mhcr-out`. All randomness
flows from one root seed, printed at startup.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import evaluation
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (
    MODALITIES,
    VAL,
    SyntheticConfig,
    check_split_ratios,
    check_train_and_val,
    format_dataset_stats,
    generate_synthetic,
    load_features,
    load_interactions,
    load_split,
    save_features,
    save_interactions,
    save_split,
    split_dataset,
    unseen_eval_items,
    validate_features,
)
from .errors import ConfigError, DataError, MhcrError, NumericError
from .objectives import LossBreakdown
from .training import (
    EpochStats,
    TrainConfig,
    check_modality_count,
    evaluate_params,
    fit,
    variant_label,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_MEMORY = 5

ENV_OUTPUT_DIR = "MHCR_OUTPUT_DIR"


def _scalar_fields(cls) -> dict[str, type]:
    """Name -> type of each bool, int or float field of a config dataclass."""
    return {
        name: kind for name, kind in typing.get_type_hints(cls).items()
        if kind in (bool, int, float)
    }


_TRAIN_FIELDS = _scalar_fields(TrainConfig)
_SYNTHETIC_FIELDS = _scalar_fields(SyntheticConfig)
_DIM_KEYS = {f"{tag}_dim": int for tag in MODALITIES}
# Config-file keys of `train` and `sweep` besides the TrainConfig fields, and
# all those of `evaluate` (`--data-dir` is a required flag, so it is no key).
# None of them sets a TrainConfig field: an ablation is set by its fields.
_RUN_KEYS = {"out_dir": str, "split_ratios": str, "modalities": str}
_EVALUATE_KEYS = {"out_dir": str, "cold_threshold": int}


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found or not a file: {path}")
    values: dict[str, str] = {}
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            line.encode("utf-8")  # the bytes that were not UTF-8 are lone surrogates now
        except UnicodeEncodeError:
            raise ConfigError(f"{path}:{lineno}: line is not UTF-8") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is repeated")
        values[key] = value
    return values


def _coerce(name: str, value: str, kind: type) -> object:
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {value!r} as {kind.__name__}") from None


def _read_config(args: argparse.Namespace, kinds: dict[str, type]) -> dict[str, object]:
    """The `--config` file's values, parsed to the types in `kinds`; a key
    not in `kinds` is an error."""
    raw = load_config_file(args.config) if args.config else {}
    for key in raw:
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
    return {key: _coerce(f"config key {key}", value, kinds[key]) for key, value in raw.items()}


def _setting(args: argparse.Namespace, file_values: dict[str, object], key: str, default=None):
    """One value by precedence: CLI flag > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        value = file_values.get(key, default)
    return value


def _build_config(cls, args: argparse.Namespace, file_values: dict[str, object], **fixed):
    """A `cls` config whose scalar fields take default < config file < flag
    and whose other fields take `fixed`; it checks itself as it is built."""
    values = {name: _setting(args, file_values, name) for name in _scalar_fields(cls)}
    return cls(**fixed, **{name: value for name, value in values.items() if value is not None})


def _train_config(args: argparse.Namespace) -> tuple[TrainConfig, dict[str, object]]:
    """The TrainConfig of the settings and the config file's values."""
    file_values = _read_config(args, {**_TRAIN_FIELDS, **_RUN_KEYS})
    return _build_config(TrainConfig, args, file_values), file_values


def _out_dir(args: argparse.Namespace, file_values: dict[str, object]) -> Path:
    """`--out-dir` > MHCR_OUTPUT_DIR > the config file's out_dir > mhcr-out.
    Its nearest existing path must be a directory; the command makes it once
    it has something to write."""
    out = Path(
        args.out_dir or os.environ.get(ENV_OUTPUT_DIR) or file_values.get("out_dir", "mhcr-out")
    )
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(nearest))
    return out


def _ratios(args: argparse.Namespace, file_values: dict[str, object]) -> tuple[float, float, float]:
    """The split ratios by precedence, checked before any data is read."""
    text = _setting(args, file_values, "split_ratios", "0.7,0.1,0.2")
    try:
        ratios = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse split ratios {text!r}") from None
    check_split_ratios(ratios)
    return ratios


def _modalities(args: argparse.Namespace, file_values: dict[str, object]) -> list[str] | None:
    """The tags of the modalities setting, checked before any data is read;
    None when unset (every modality that has a file)."""
    text = _setting(args, file_values, "modalities")
    if text is None:
        return None
    tags = [t.strip() for t in text.split(",") if t.strip()]
    if not tags or len(set(tags)) != len(tags) or not set(tags) <= set(MODALITIES):
        raise ConfigError(f"modalities {text!r}: give distinct tags of {', '.join(MODALITIES)}")
    return tags


def _load_data(data_dir: str, tags: Sequence[str] | None, named_by="the modalities setting"):
    """The interactions and the feature files of `tags` (`named_by` says who
    named them), or of every modality that has a file if `tags` is None,
    checked against each other; the features' row count is the item count."""
    root = Path(data_dir)
    ds = load_interactions(root / "interactions.tsv")
    if tags is None:
        tags = [t for t in MODALITIES if (root / f"features_{t}.bin").is_file()]
        if not tags:
            raise DataError(f"no features_<modality>.bin files found in {root}")
    features = []
    for tag in tags:
        path = root / f"features_{tag}.bin"
        if not path.is_file():
            raise DataError(f"{named_by} names modality {tag!r}, but {path} is not a file")
        features.append(load_features(path))
    num_items = features[0].matrix.shape[0]
    if ds.num_items > num_items:
        raise DataError(f"item id {ds.num_items - 1} is outside the {num_items} feature rows")
    ds = replace(ds, num_items=num_items)
    validate_features(ds, features)
    return ds, features


def _write_training_log(path: Path, variant: str, epochs: Sequence[EpochStats]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# variant: {variant}\n")
        writer = csv.writer(fh)
        writer.writerow(("epoch",) + LossBreakdown.CSV_FIELDS + ("val_recall20",))
        for e in epochs:
            b = e.loss
            writer.writerow([e.epoch, b.l_bpr, b.l_hc, b.l_ghc, b.l_reg, b.total, e.val_recall20])


def cmd_generate(args: argparse.Namespace) -> int:
    file_values = _read_config(args, {**_SYNTHETIC_FIELDS, **_DIM_KEYS, "out_dir": str})
    dims = dict(SyntheticConfig().modality_dims)
    for tag in MODALITIES:
        value = _setting(args, file_values, f"{tag}_dim")
        if value == 0:
            dims.pop(tag, None)
        elif value is not None:
            dims[tag] = value
    cfg = _build_config(SyntheticConfig, args, file_values, modality_dims=dims)
    print(f"root seed: {cfg.seed}")

    out_dir = _out_dir(args, file_values)
    ds, features = generate_synthetic(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_interactions(ds, out_dir / "interactions.tsv")
    for feats in features:
        save_features(feats, out_dir / f"features_{feats.modality}.bin")
    print(format_dataset_stats(ds.num_users, ds.num_items, len(ds)))
    print(f"wrote {out_dir}/interactions.tsv and {len(features)} feature file(s)")
    return EXIT_OK


# `sweep`'s grid when no --grid is given: hyperedge count x the two contrastive weights
_DEFAULT_GRID = ("k_hyper=8,16,32,64", "lambda_hc=1e-6,1e-5,1e-4", "lambda_ghc=0.001,0.01,0.1")


def _parse_grid(specs: Sequence[str]) -> dict[str, list]:
    """Field -> values of `FIELD=v1,v2,...` specs, in the order given, each
    value parsed by the config-file rules of its TrainConfig field; two
    equal values of one field (`1e-5,0.00001`) would train one cell twice."""
    grid: dict[str, list] = {}
    for spec in specs:
        field, has_values, text = spec.partition("=")
        field = field.strip()
        if not has_values or field not in _TRAIN_FIELDS:
            raise ConfigError(f"--grid {spec!r}: expected FIELD=v1,v2,... of a scalar "
                              "TrainConfig field")
        if field in grid:
            raise ConfigError(f"--grid {spec!r}: {field} is given twice")
        kind = _TRAIN_FIELDS[field]
        values = [_coerce(f"--grid {field}", part.strip(), kind) for part in text.split(",")]
        if len(set(values)) != len(values):
            raise ConfigError(f"--grid {spec!r}: {field} takes one value twice")
        grid[field] = values
    return grid


def _prepare_run(args: argparse.Namespace):
    """The swept fields, the config cells (one for `train`, one per grid
    point for `sweep`), the split dataset, the features and the output
    directory of a run. Every setting and cell is checked before any data is
    read, and the data, the split and the output path before training; the
    command makes the directory only once training has returned, so a bad
    setting or a failed fit writes nothing. The split follows the root seed."""
    cfg, file_values = _train_config(args)
    print(f"root seed: {cfg.seed}")
    ratios = _ratios(args, file_values)
    tags = _modalities(args, file_values)
    grid = _parse_grid(args.grid or _DEFAULT_GRID) if args.command == "sweep" else {}
    cells = [replace(cfg, **dict(zip(grid, point))) for point in itertools.product(*grid.values())]
    ds_raw, features = _load_data(args.data_dir, tags)
    for cell in cells:
        check_modality_count(cell, len(features))
    ds = split_dataset(ds_raw, ratios, seed=cfg.seed)
    check_train_and_val(ds)
    return list(grid), cells, ds, features, _out_dir(args, file_values)


def cmd_train(args: argparse.Namespace) -> int:
    _, (cfg,), ds, features, out_dir = _prepare_run(args)
    print(format_dataset_stats(ds.num_users, ds.num_items, len(ds)))
    print(f"unseen val/test items: {unseen_eval_items(ds)} interaction(s)")
    if ds.num_dropped_users:
        print(f"dropped users without train interactions: {ds.num_dropped_users}")

    result = fit(ds, features, cfg)
    print(f"variant: {variant_label(cfg)}")
    print(
        f"best epoch {result.best_epoch} val Recall@20 {result.best_val_recall20:.5f} "
        f"(initial {result.initial_val_recall20:.5f})"
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.params, out_dir / "checkpoint.bin")
    save_split(ds, out_dir / "split.tsv")
    _write_training_log(out_dir / "training_log.csv", variant_label(cfg), result.epochs)

    report = evaluation.evaluate(*result.best_embeddings, ds, target_split=VAL)
    (out_dir / "eval_val.json").write_text(report.to_json(), encoding="utf-8")
    print(report.format_table())
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score a checkpoint with the model of its training config on the split
    that training wrote."""
    file_values = _read_config(args, _EVALUATE_KEYS)
    cold_threshold = _setting(args, file_values, "cold_threshold", 3)
    evaluation.check_cold_threshold(cold_threshold)
    out_dir = _out_dir(args, file_values)
    params = load_checkpoint(args.checkpoint)
    print(f"root seed: {params.config.seed}")

    ds, features = _load_data(args.data_dir, list(params.modality_dims), "the checkpoint")
    # the sizes that, with the config, fix every tensor shape
    found = {"users": params.num_users, "items": params.num_items, **params.modality_dims}
    data = {"users": ds.num_users, "items": ds.num_items, **{f.modality: f.dim for f in features}}
    differ = [f"{n} {found[n]} in the checkpoint, {data[n]} in the data"
              for n in found if found[n] != data[n]]
    if differ:
        raise DataError("checkpoint does not fit the data: " + "; ".join(differ))
    ds = load_split(ds, args.split)

    report = evaluate_params(params, ds, features, cold_threshold=cold_threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "eval_test.json").write_text(report.to_json(), encoding="utf-8")
    print(report.format_table())
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    fields, cells, ds, features, out_dir = _prepare_run(args)
    labels = [" ".join(f"{f}={getattr(cell, f)}" for f in fields) for cell in cells]
    scores = []  # (best validation Recall@20, its epoch) per cell
    for cell, label in zip(cells, labels):
        result = fit(ds, features, cell)
        scores.append((result.best_val_recall20, result.best_epoch))
        print(f"{label} val_recall20={result.best_val_recall20:.5f}")

    best = max(range(len(cells)), key=lambda i: scores[i][0])
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "sweep.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields + ["val_recall20", "best_epoch", "best"])
        for i, cell in enumerate(cells):
            writer.writerow([getattr(cell, f) for f in fields] + [*scores[i], int(i == best)])
    print(f"best cell: {labels[best]} val_recall20={scores[best][0]:.5f}")
    return EXIT_OK


def _add_field_flags(parser: argparse.ArgumentParser, fields: dict[str, type]) -> None:
    for name, kind in fields.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, type=kind)


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    """The options of every command that reads a data directory."""
    parser.add_argument("--data-dir", required=True, dest="data_dir")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out-dir", help=f"output directory (env {ENV_OUTPUT_DIR})")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    _add_data_flags(parser)
    parser.add_argument("--split-ratios", dest="split_ratios", help="train,val,test e.g. 0.7,0.1,0.2")
    _add_field_flags(parser, _TRAIN_FIELDS)
    parser.add_argument("--modalities", help="comma-separated tags; default: discover files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mhcr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--config")
    p_gen.add_argument("--out-dir")
    _add_field_flags(p_gen, _SYNTHETIC_FIELDS)
    for tag in MODALITIES:
        p_gen.add_argument(f"--{tag}-dim", type=int, dest=f"{tag}_dim", help="0 disables the modality")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train and checkpoint a model")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint's model on the test split")
    _add_data_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", required=True, help="the split.tsv that train wrote")
    p_eval.add_argument(
        "--cold-threshold", type=int, default=None, dest="cold_threshold",
        help="train-interaction count below which a user is cold (default 3)",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="grid search over TrainConfig fields")
    _add_train_flags(p_sweep)
    p_sweep.add_argument("--grid", action="append", metavar="FIELD=V1,V2,...",
                         help="values of one TrainConfig field; repeatable, the cells are the "
                              f"product (default {' '.join(_DEFAULT_GRID)})")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MhcrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except OSError as exc:  # an unusable path, for instance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
