"""CLI subcommands: generate / train / evaluate / sweep wiring, file
outputs, exit codes, and byte-level determinism."""

import argparse
import contextlib
import io
import itertools
import json
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr import cli, evaluation, training
from mhcr.checkpoint import load_checkpoint
from mhcr.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_MEMORY,
    EXIT_NUMERIC,
    EXIT_OK,
    _train_config,
    build_parser,
    load_config_file,
    main,
)
from mhcr.dataio import (
    TEST,
    TRAIN,
    VAL,
    InteractionDataset,
    load_features,
    load_interactions,
    load_split,
    split_dataset,
)
from mhcr.errors import ConfigError, NumericError
from mhcr.evaluation import SLICE_COLD, evaluate
from mhcr.training import TrainConfig, build_views, compute_embeddings

from conftest import train_configs, with_checkpoint_meta
from oracles import cold_start_users

GEN_ARGS = [
    "generate",
    "--num-users", "40",
    "--num-items", "25",
    "--num-clusters", "4",
    "--mean-interactions", "6",
    "--image-dim", "6",
    "--video-dim", "0",
    "--text-dim", "4",
    "--seed", "13",
]

FAST_TRAIN = [
    "--d", "8",
    "--k-hyper", "4",
    "--k-knn", "3",
    "--batch-size", "64",
    "--max-epochs", "2",
    "--patience", "5",
    "--seed", "13",
]


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(GEN_ARGS + ["--out-dir", str(out)]) == 0
    return out


def run_train(data_dir, out, extra=()):
    return main(
        ["train", "--data-dir", str(data_dir), "--out-dir", str(out)] + FAST_TRAIN + list(extra)
    )


def recording_fit(monkeypatch, run_fit=True):
    """Replace `cli.fit` by one that records each call's (dataset, config,
    result); without `run_fit` it trains nothing and returns a stub result."""
    fit, calls = cli.fit, []

    def record(ds, features, cfg):
        result = fit(ds, features, cfg) if run_fit else SimpleNamespace(
            best_val_recall20=0.0, best_epoch=1)
        calls.append((ds, cfg, result))
        return result

    monkeypatch.setattr(cli, "fit", record)
    return calls


def write_test_only_split(run: Path) -> Path:
    """A copy of the run's split.tsv that labels every pair test."""
    path = run / "test-only-split.tsv"
    lines = run.joinpath("split.tsv").read_text().splitlines()
    path.write_text("".join(line.rsplit("\t", 1)[0] + "\t2\n" for line in lines))
    return path


def expected_eval_test(params, ds, feats) -> str:
    """The eval_test.json `mhcr evaluate` writes at the default cold
    threshold, built from two direct `evaluate` calls."""
    cfg = params.config
    user_emb, item_emb = compute_embeddings(params, build_views(ds, feats, cfg), cfg)
    report = evaluate(user_emb, item_emb, ds)
    report.records += evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD).records
    return report.to_json()


class TestGenerate:
    def test_round_trip_and_stats(self, data_dir, capsys):
        ds = load_interactions(data_dir / "interactions.tsv")
        assert ds.num_users == 40
        assert (data_dir / "features_image.bin").exists()
        assert (data_dir / "features_text.bin").exists()
        assert not (data_dir / "features_video.bin").exists()

    def test_deterministic_outputs(self, tmp_path):
        assert main(GEN_ARGS + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(GEN_ARGS + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("interactions.tsv", "features_image.bin", "features_text.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_prints_seed_and_sparsity(self, tmp_path, capsys):
        main(GEN_ARGS + ["--out-dir", str(tmp_path / "x")])
        out = capsys.readouterr().out
        assert "root seed: 13" in out
        assert "sparsity=" in out


class TestTrain:
    def test_writes_all_outputs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(data_dir, out) == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "split.tsv").exists()
        assert (out / "eval_val.json").exists()
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0] == "# variant: MHCR"
        assert log[1] == "epoch,l_bpr,l_hc,l_ghc,l_reg,total,val_recall20"
        assert len(log) == 2 + 2  # header comment + column row + one row per epoch

    def test_log_records_each_epochs_validation_recall(self, data_dir, tmp_path, monkeypatch):
        calls = recording_fit(monkeypatch)
        out = tmp_path / "run"
        assert run_train(data_dir, out) == 0
        ((_, _, result),) = calls
        rows = (out / "training_log.csv").read_text().splitlines()[2:]
        logged = [float(row.split(",")[-1]) for row in rows]
        assert logged == [e.val_recall20 for e in result.epochs] and len(logged) == 2

    def test_max_epochs_one_gives_one_row(self, data_dir, tmp_path):
        out = tmp_path / "one"
        assert run_train(data_dir, out, ["--max-epochs", "1"]) == 0
        rows = (out / "training_log.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_deterministic_checkpoints(self, data_dir, tmp_path):
        assert run_train(data_dir, tmp_path / "a") == 0
        assert run_train(data_dir, tmp_path / "b") == 0
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
            tmp_path / "b" / "checkpoint.bin"
        ).read_bytes()

    def test_missing_feature_file_names_modality(self, data_dir, tmp_path, capsys):
        code = run_train(data_dir, tmp_path / "x", ["--modalities", "image,video"])
        assert code == EXIT_DATA
        assert "video" in capsys.readouterr().err

    def test_missing_data_dir(self, tmp_path, capsys):
        assert run_train(tmp_path / "nowhere", tmp_path / "x") == EXIT_DATA

    def test_bad_ratio_flag(self, data_dir, tmp_path):
        assert run_train(data_dir, tmp_path / "x", ["--split-ratios", "0.5,0.5"]) == EXIT_CONFIG

    def test_out_of_memory_is_a_typed_exit(self, data_dir, tmp_path, monkeypatch, capsys):
        # numpy's _ArrayMemoryError is a MemoryError; no real allocation fails here
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        monkeypatch.setattr(cli, "fit", out_of_memory)
        assert run_train(data_dir, tmp_path / "x") == EXIT_MEMORY == 5
        err = capsys.readouterr().err
        assert err.startswith("memory error: Unable to allocate") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_numeric_error_in_fit_leaves_no_split(self, data_dir, tmp_path, monkeypatch):
        def diverged(*args, **kwargs):
            raise NumericError("loss is not finite")

        monkeypatch.setattr(cli, "fit", diverged)
        assert run_train(data_dir, tmp_path / "x") == EXIT_NUMERIC == 4
        assert not (tmp_path / "x").exists()

    def test_numeric_error_in_a_sweep_cell_writes_nothing(self, data_dir, tmp_path, monkeypatch):
        # the first cell trains, the second diverges
        calls = recording_fit(monkeypatch, run_fit=False)
        stub = cli.fit

        def diverge_second(ds, features, cfg):
            if calls:
                raise NumericError("loss is not finite")
            return stub(ds, features, cfg)

        monkeypatch.setattr(cli, "fit", diverge_second)
        argv = ["sweep", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o"),
                "--grid", "k_hyper=2,4"]
        assert main(argv + FAST_TRAIN) == EXIT_NUMERIC
        assert len(calls) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_split_without_train_pairs_writes_nothing(self, command, data_dir, tmp_path, capsys):
        argv = [command, "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o"),
                "--split-ratios", "0,0,1"]
        assert main(argv + FAST_TRAIN) == EXIT_DATA
        assert "leave no train interaction" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_split_without_validation_pairs_writes_nothing(self, command, data_dir, tmp_path,
                                                           capsys):
        # no epoch can be chosen: every one would score validation Recall@20 0
        argv = [command, "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o"),
                "--split-ratios", "0.8,0,0.2"]
        assert main(argv + FAST_TRAIN) == EXIT_DATA
        assert "leave no validation interaction" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_items_without_interactions_are_kept(self, tmp_path):
        # the cold items 98 and 99 have features, but no user touched them
        data, out = tmp_path / "data", tmp_path / "run"
        generate = ["generate", "--out-dir", str(data), "--num-users", "10", "--num-items", "100",
                    "--seed", "2"]
        assert main(generate) == EXIT_OK
        assert load_interactions(data / "interactions.tsv").num_items == 98
        assert run_train(data, out, ["--max-epochs", "1"]) == EXIT_OK
        assert load_checkpoint(out / "checkpoint.bin").num_items == 100
        evaluate = ["evaluate", "--data-dir", str(data), "--out-dir", str(out),
                    "--checkpoint", str(out / "checkpoint.bin"), "--split", str(out / "split.tsv")]
        assert main(evaluate) == EXIT_OK

    def test_item_id_outside_the_features_writes_nothing(self, data_dir, tmp_path, capsys):
        with (data_dir / "interactions.tsv").open("a", encoding="utf-8") as fh:
            fh.write("0\t25\n")  # the features have 25 rows
        assert run_train(data_dir, tmp_path / "x") == EXIT_DATA
        assert "item id 25 is outside the 25 feature rows" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_a_user_id_the_pairs_cannot_pay_for_writes_nothing(self, data_dir, tmp_path,
                                                              capsys):
        with (data_dir / "interactions.tsv").open("a", encoding="utf-8") as fh:
            fh.write("200000000\t0\n")
        assert run_train(data_dir, tmp_path / "x") == EXIT_DATA
        assert "user id 200000000 asks for 200000001 users" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestAblate:
    def test_variant_recorded_in_log_header(self, data_dir, tmp_path):
        out = tmp_path / "ab"
        assert run_train(data_dir, out, ["--no-use-hem"]) == 0
        header = (out / "training_log.csv").read_text().splitlines()[0]
        assert header == "# variant: w/o HEM"

    def test_bpr_mf_variant(self, data_dir, tmp_path):
        out = tmp_path / "mf"
        assert run_train(data_dir, out, ["--no-use-ii", "--no-use-hem", "--layers", "0"]) == 0
        assert (out / "training_log.csv").read_text().splitlines()[0] == "# variant: BPR-MF"


class TestEvaluate:
    def test_reports_eight_metric_values(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--data-dir", str(data_dir),
                "--checkpoint", str(run / "checkpoint.bin"),
                "--split", str(run / "split.tsv"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "eval_test.json").read_text())
        combos = {(r["slice"], r["k"], metric) for r in payload["records"] for metric in ("recall", "ndcg")}
        assert len(combos) == 8  # 2 slices x 2 K x 2 metrics

    def test_cold_threshold_default_is_three(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        base = [
            "evaluate", "--data-dir", str(data_dir),
            "--checkpoint", str(run / "checkpoint.bin"),
            "--split", str(run / "split.tsv"),
        ]
        assert main(base + ["--out-dir", str(tmp_path / "default")]) == 0
        assert main(base + ["--cold-threshold", "3", "--out-dir", str(tmp_path / "explicit")]) == 0
        assert json.loads((tmp_path / "default" / "eval_test.json").read_text()) == json.loads(
            (tmp_path / "explicit" / "eval_test.json").read_text()
        )

    def test_corrupt_checkpoint_magic(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        raw = bytearray((run / "checkpoint.bin").read_bytes())
        raw[:8] = b"XXXXXXXX"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        code = main(
            ["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(bad),
             "--split", str(run / "split.tsv"), "--out-dir", str(tmp_path / "e")]
        )
        assert code == EXIT_DATA
        assert "magic" in capsys.readouterr().err

    def test_shape_mismatch_between_checkpoint_and_data(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        other = tmp_path / "other-data"
        assert main(GEN_ARGS[:2] + ["35"] + GEN_ARGS[3:] + ["--out-dir", str(other)]) == 0
        code = main(
            ["evaluate", "--data-dir", str(other), "--checkpoint", str(run / "checkpoint.bin"),
             "--split", str(run / "split.tsv"), "--out-dir", str(tmp_path / "e")]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "config_edit, gen_args",
        [
            ({"d": 16}, []),  # the stored config against the checkpoint's own body
            ({"k_hyper": 8}, []),
            ({}, ["--num-items", "30"]),  # the checkpoint against other data
            ({}, ["--num-users", "45", "--num-items", "20"]),
            ({}, ["--image-dim", "7"]),
            ({}, ["--text-dim", "0"]),
        ],
        ids=["d", "k_hyper", "items", "same-node-count", "modality-dim", "modality-set"],
    )
    def test_checkpoint_consistency_errors(self, data_dir, tmp_path, capsys, config_edit, gen_args):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        ckpt = run / "checkpoint.bin"
        if config_edit:
            edited = replace(load_checkpoint(ckpt).config, **config_edit)
            blob = json.dumps(asdict(edited)).encode()
            ckpt.write_bytes(with_checkpoint_meta(ckpt.read_bytes(), config=blob))
        eval_dir = data_dir
        if gen_args:
            eval_dir = tmp_path / "other-data"
            assert main(GEN_ARGS + gen_args + ["--out-dir", str(eval_dir)]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--data-dir", str(eval_dir), "--checkpoint", str(ckpt),
             "--split", str(run / "split.tsv"), "--out-dir", str(tmp_path / "e")]
        )
        assert code == EXIT_DATA
        assert "checkpoint" in capsys.readouterr().err

    def test_model_comes_from_the_checkpoint(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert run_train(data_dir, run, ["--no-use-hem", "--layers", "1", "--k-knn", "5"]) == 0
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(run / "checkpoint.bin"),
             "--split", str(run / "split.tsv"), "--out-dir", str(out)]
        ) == 0
        params = load_checkpoint(run / "checkpoint.bin")
        cfg = params.config
        assert (cfg.use_hem, cfg.layers, cfg.k_knn, cfg.seed) == (False, 1, 5, 13)
        ds = load_split(load_interactions(data_dir / "interactions.tsv"), run / "split.tsv")
        feats = [load_features(data_dir / f"features_{t}.bin") for t in params.modality_dims]
        assert (out / "eval_test.json").read_text() == expected_eval_test(params, ds, feats)

    @pytest.mark.parametrize(
        "edit", ["version-1", "version-2", "bad-config", "contrastive-switches", "bad-widths"]
    )
    def test_unreadable_checkpoint_exits_3(self, data_dir, tmp_path, capsys, edit):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        ckpt = run / "checkpoint.bin"
        raw = ckpt.read_bytes()
        if edit.startswith("version-"):
            raw = raw[:8] + int(edit[-1]).to_bytes(4, "little") + raw[12:]
        elif edit == "bad-config":
            raw = with_checkpoint_meta(raw, config=b'{"d": 8}')
        elif edit == "bad-widths":
            raw = with_checkpoint_meta(raw, widths=b'{"image": -6, "text": 4}')
        else:  # a config from before the loss weights became the only contrastive switches
            old = {**asdict(load_checkpoint(ckpt).config), "use_hc": True, "use_ghc": True}
            raw = with_checkpoint_meta(raw, config=json.dumps(old, sort_keys=True).encode())
        ckpt.write_bytes(raw)
        code = main(
            ["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(ckpt),
             "--split", str(run / "split.tsv"), "--out-dir", str(tmp_path / "e")]
        )
        assert code == EXIT_DATA
        expected = {"bad-config": "checkpoint config", "contrastive-switches": "checkpoint config",
                    "bad-widths": "modality_dims"}.get(edit, "retrain")
        assert expected in capsys.readouterr().err

    def test_split_that_dropped_users(self, data_dir, tmp_path, capsys):
        # train drops the users these ratios leave without a train pair
        # before it writes split.tsv; evaluate drops them again
        run = tmp_path / "run"
        assert run_train(data_dir, run, ["--split-ratios", "0.2,0.4,0.4"]) == 0
        raw = load_interactions(data_dir / "interactions.tsv")
        ds = split_dataset(raw, (0.2, 0.4, 0.4), seed=13)
        assert ds.num_dropped_users > 0
        out = tmp_path / "eval"
        assert main(["evaluate", "--data-dir", str(data_dir), "--checkpoint",
                     str(run / "checkpoint.bin"), "--split", str(run / "split.tsv"),
                     "--out-dir", str(out)]) == 0
        params = load_checkpoint(run / "checkpoint.bin")
        feats = [load_features(data_dir / f"features_{t}.bin") for t in params.modality_dims]
        assert (out / "eval_test.json").read_text() == expected_eval_test(params, ds, feats)

    def test_split_without_train_pairs_writes_nothing(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        code = main(["evaluate", "--data-dir", str(data_dir), "--checkpoint",
                     str(run / "checkpoint.bin"), "--split", str(write_test_only_split(run)),
                     "--out-dir", str(tmp_path / "e")])
        assert code == EXIT_DATA
        assert "no train interactions" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_a_split_line_that_names_no_unique_pair_exits_3_at_its_line(self, data_dir, tmp_path,
                                                                          capsys):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        raw = load_interactions(data_dir / "interactions.tsv")
        absent = next(i for i in range(raw.num_items) if i not in raw.items[raw.users == 0])
        lines = (run / "split.tsv").read_text().splitlines()
        u, i, label = lines[0].split("\t")
        vocabulary = f"is outside the {raw.num_users} x {raw.num_items} vocabulary"
        cases = [(u, i, (int(label) + 1) % 3, "repeats an earlier line"),
                 (-1, i, 0, vocabulary), (raw.num_users, 0, 0, vocabulary),
                 (0, absent, 1, "is not in the data")]
        split = tmp_path / "bad-split.tsv"
        for user, item, label, problem in cases:
            split.write_text("\n".join(lines[:3] + [f"{user}\t{item}\t{label}"] + lines[3:]))
            code = main(["evaluate", "--data-dir", str(data_dir), "--checkpoint",
                         str(run / "checkpoint.bin"), "--split", str(split),
                         "--out-dir", str(tmp_path / "e")])
            assert code == EXIT_DATA, problem
            assert f"bad-split.tsv:4: pair ({user}, {item}) {problem}" in capsys.readouterr().err
            assert not (tmp_path / "e").exists()


class TestOneScoringPerCommand:
    """`mhcr train` scores the embeddings `fit` kept, so it builds its views
    once; `mhcr evaluate` ranks the union of its two slices once, from one
    target CSR and one mask CSR."""

    def test_train_builds_its_views_once(self, data_dir, tmp_path, monkeypatch):
        calls, build_views = [], training.build_views

        def counting(*args):
            calls.append(args)
            return build_views(*args)

        monkeypatch.setattr(training, "build_views", counting)
        assert run_train(data_dir, tmp_path / "run") == 0
        assert len(calls) == 1

    def test_evaluate_ranks_each_user_once(self, tmp_path, monkeypatch):
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        assert main(["generate", "--num-users", "400", "--num-items", "120", "--seed", "0",
                     "--out-dir", str(data)]) == 0
        assert run_train(data, run) == 0
        rows, csrs = [], []
        ranked_hits, user_csr = evaluation._ranked_hits, InteractionDataset.user_csr

        def counting_hits(scores, *args):
            rows.append(len(scores))
            return ranked_hits(scores, *args)

        def counting_csr(ds, label):
            csrs.append(label)
            return user_csr(ds, label)

        monkeypatch.setattr(evaluation, "_ranked_hits", counting_hits)
        monkeypatch.setattr(InteractionDataset, "user_csr", counting_csr)
        assert main(["evaluate", "--data-dir", str(data), "--checkpoint",
                     str(run / "checkpoint.bin"), "--split", str(run / "split.tsv"),
                     "--out-dir", str(out)]) == 0
        records = json.loads((out / "eval_test.json").read_text())["records"]
        users = {r["slice"]: r["users"] for r in records}
        assert users == {"all": 400, SLICE_COLD: 11}
        # build_views' two TRAIN matrices (the UI graph, then D_u^-1 X_u), then
        # evaluate's one target and one mask matrix
        assert (sum(rows), csrs) == (400, [TRAIN, TRAIN, TEST, (TRAIN, VAL)])


class TestSweep:
    def test_tiny_grid_rows_and_best_mark(self, data_dir, tmp_path, monkeypatch, capsys):
        calls = recording_fit(monkeypatch)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--data-dir", str(data_dir), "--out-dir", str(out)]
            + FAST_TRAIN
            + ["--max-epochs", "2", "--grid", "k_hyper=2,4", "--grid", "lambda_hc=1e-5",
               "--grid", "lambda_ghc=0.01"]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "k_hyper,lambda_hc,lambda_ghc,val_recall20,best_epoch,best"
        assert [row.split(",")[:5] for row in rows[1:]] == [
            [str(k), "1e-05", "0.01", str(result.best_val_recall20), str(result.best_epoch)]
            for k, (_, _, result) in zip((2, 4), calls, strict=True)
        ]
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 1
        printed = capsys.readouterr().out
        assert "k_hyper=2 lambda_hc=1e-05 lambda_ghc=0.01 val_recall20=" in printed
        assert "best cell: k_hyper=" in printed

    def test_default_grid_contains_reported_optima(self, data_dir, tmp_path, monkeypatch):
        assert build_parser().parse_args(["sweep", "--data-dir", "x"]).grid is None
        calls = recording_fit(monkeypatch, run_fit=False)
        argv = ["sweep", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        cells = [(cfg.k_hyper, cfg.lambda_hc, cfg.lambda_ghc) for _, cfg, _ in calls]
        assert cells == list(itertools.product((8, 16, 32, 64), (1e-6, 1e-5, 1e-4),
                                               (0.001, 0.01, 0.1)))
        default = TrainConfig()
        assert (default.k_hyper, default.lambda_hc, default.lambda_ghc) in cells

    @pytest.mark.parametrize("grid,cells", [
        (["use_hem=true,false", "seed=0"], [dict(use_hem=True, seed=0),
                                            dict(use_hem=False, seed=0)]),
        (["seed=3, 4", "drop_rate=0"], [dict(seed=3, drop_rate=0.0),
                                        dict(seed=4, drop_rate=0.0)]),
    ])
    def test_any_scalar_field_is_a_grid_axis(self, data_dir, tmp_path, monkeypatch, grid, cells,
                                             capsys):
        calls = recording_fit(monkeypatch, run_fit=False)
        out = tmp_path / "o"
        argv = ["sweep", "--data-dir", str(data_dir), "--out-dir", str(out), "--seed", "13",
                "--no-use-hem", "--drop-rate", "0.2"]
        for spec in grid:
            argv += ["--grid", spec]
        assert main(argv) == EXIT_OK
        # a grid value overrides the flag of its field
        base = TrainConfig(seed=13, use_hem=False, drop_rate=0.2)
        assert [cfg for _, cfg, _ in calls] == [replace(base, **cell) for cell in cells]
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == ",".join(cells[0]) + ",val_recall20,best_epoch,best"
        # every cell trains on the split of the root seed
        assert "root seed: 13" in capsys.readouterr().out
        want = split_dataset(load_interactions(data_dir / "interactions.tsv"), seed=13)
        assert all(np.array_equal(ds.split, want.split) for ds, _, _ in calls)


class TestConfigFile:
    def test_precedence_cli_over_file(self, data_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("d = 4\nmax_epochs = 1\nseed = 13\n# comment\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(
            ["train", "--data-dir", str(data_dir), "--out-dir", str(out),
             "--config", str(cfg_file), "--d", "8", "--k-hyper", "4", "--k-knn", "3",
             "--batch-size", "64", "--patience", "2"]
        )
        assert code == 0
        from mhcr.checkpoint import load_checkpoint

        params = load_checkpoint(out / "checkpoint.bin")
        assert params.e0.shape[1] == 8  # CLI flag beat the file's d=4

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["train", "--data-dir", "x", "--config", str(cfg_file)]) == EXIT_CONFIG

    def test_parse_errors(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config_file(cfg_file)

    def test_repeated_key_names_its_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("d = 8\nseed = 1\nd = 16\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"twice.cfg:3: key 'd' is repeated"):
            load_config_file(cfg_file)
        assert main(["train", "--data-dir", "x", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert "twice.cfg:3" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"d = 8\r\nseed = 1\xff\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2: line is not UTF-8"):
            load_config_file(cfg_file)
        assert main(["train", "--data-dir", "x", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_env_var_output_dir(self, data_dir, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("MHCR_OUTPUT_DIR", str(target))
        assert main(["train", "--data-dir", str(data_dir)] + FAST_TRAIN) == 0
        assert (target / "checkpoint.bin").exists()

    def test_file_supplies_modalities_and_ratios(self, data_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "modalities = image\nsplit_ratios = 0.8,0.1,0.1\nmax_epochs = 1\n"
            "lambda_hc = 0\n",  # the cross-modal loss needs >= 2 modalities
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(
            ["train", "--data-dir", str(data_dir), "--out-dir", str(out),
             "--config", str(cfg_file), "--d", "8", "--k-hyper", "4", "--k-knn", "3",
             "--batch-size", "64", "--patience", "2", "--seed", "13"]
        )
        assert code == 0
        from mhcr.checkpoint import load_checkpoint

        params = load_checkpoint(out / "checkpoint.bin")
        assert list(params.modality_dims) == ["image"]


def test_split_sidecar_round_trips_through_evaluate(data_dir, tmp_path):
    # the checkpoint does not store the split ratios; the sidecar carries the split
    run = tmp_path / "run"
    assert run_train(data_dir, run, ["--split-ratios", "0.5,0.1,0.4"]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(run / "checkpoint.bin"),
                 "--split", str(run / "split.tsv"), "--out-dir", str(out)]) == 0
    raw = load_interactions(data_dir / "interactions.tsv")
    ds = load_split(raw, run / "split.tsv")
    assert np.array_equal(ds.split, split_dataset(raw, (0.5, 0.1, 0.4), seed=13).split)
    params = load_checkpoint(run / "checkpoint.bin")
    feats = [load_features(data_dir / f"features_{t}.bin") for t in params.modality_dims]
    assert (out / "eval_test.json").read_text() == expected_eval_test(params, ds, feats)


def test_evaluate_requires_the_split(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert run_train(data_dir, run) == 0
    with pytest.raises(SystemExit) as exited:
        main(["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(run / "checkpoint.bin"),
              "--out-dir", str(tmp_path / "e")])
    assert exited.value.code == EXIT_CONFIG
    assert "--split" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize(
    "command, flag, kind, code",
    [
        ("train", "--config", "dir", EXIT_CONFIG),
        ("train", "--data-dir", "file", EXIT_DATA),
        ("train", "--out-dir", "file", EXIT_DATA),
        ("evaluate", "--checkpoint", "dir", EXIT_DATA),
        ("evaluate", "--split", "dir", EXIT_DATA),
        ("evaluate", "--out-dir", "file", EXIT_DATA),
    ],
    ids=["config-dir", "data-dir-file", "train-out-dir-file", "checkpoint-dir", "split-dir",
         "evaluate-out-dir-file"],
)
def test_unusable_paths_are_typed_errors(data_dir, tmp_path, capsys, command, flag, kind, code):
    run = tmp_path / "run"
    paths = {"dir": tmp_path / "a-dir", "file": tmp_path / "a-file"}
    paths["dir"].mkdir()
    paths["file"].write_text("d = 8\n", encoding="utf-8")
    if command == "train":
        argv = {"--data-dir": str(data_dir), "--out-dir": str(tmp_path / "out")}
    else:
        assert run_train(data_dir, run) == 0
        argv = {"--data-dir": str(data_dir), "--checkpoint": str(run / "checkpoint.bin"),
                "--split": str(run / "split.tsv"), "--out-dir": str(tmp_path / "out")}
    argv[flag] = str(paths[kind])
    capsys.readouterr()
    assert main([command, *itertools.chain(*argv.items())]
                + (FAST_TRAIN if command == "train" else [])) == code
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "data error:", "error:")) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_invalid_values_rejected_before_any_work(self, command, tmp_path):
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o")]
        if command == "evaluate":  # it has no model settings; its bad value is a cold threshold
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("cold_threshold = three\n", encoding="utf-8")
            argv += ["--checkpoint", str(tmp_path / "none.bin"), "--split", str(tmp_path / "none"),
                     "--config", str(cfg_file)]
        else:
            argv += ["--drop-rate", "2", "--tau", "-1"]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    @pytest.mark.parametrize("ratios", ["nan,0.1,0.2", "0.7,nan,0.3", "inf,0,1", "0.5,0.6,-0.1"])
    def test_split_ratios_rejected_before_any_work(self, command, ratios, tmp_path, capsys):
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--split-ratios", ratios]
        if command == "evaluate":  # it reads the split from --split and takes no ratios
            argv += ["--checkpoint", str(tmp_path / "none.bin"), "--split", str(tmp_path / "none")]
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --split-ratios" in capsys.readouterr().err
            return
        assert main(argv) == EXIT_CONFIG
        assert "split ratios" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key",
        [(c, "data_dir = x") for c in ("train", "evaluate", "sweep")]
        # an ablation is set by its fields: `variant` is no key
        + [(c, key) for c in ("train", "sweep") for key in ("cold_threshold = 5",
                                                            "variant = wo-hem")]
        + [("evaluate", key) for key in ("d = 8", "seed = 1", "variant = wo-hem",
                                          "modalities = image", "split_ratios = 0.7,0.1,0.2")],
    )
    def test_keys_the_command_ignores_are_rejected(self, command, key, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(key + "\n", encoding="utf-8")
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o"),
                "--config", str(cfg_file)]
        if command == "evaluate":
            argv += ["--checkpoint", str(tmp_path / "none.bin"), "--split", str(tmp_path / "none")]
        assert main(argv) == EXIT_CONFIG
        assert key.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tags", ["image,image", "audio", "image,audio", ",", ""])
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_bad_modalities_rejected_before_any_work(self, command, source, tags, tmp_path,
                                                      capsys):
        # a missing data directory would exit 3: exit 2 means nothing was read
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--modalities", tags]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"modalities = {tags}\n", encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        assert main(argv) == EXIT_CONFIG
        assert "modalities" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("specs", [
        ["k_hyper=4,0"],
        ["k_hyper=4,x"],
        ["k_hyper=,"],
        ["lambda_hc=1e-5,nan"],
        ["lambda_hc="],
        ["lambda_ghc=0.01,-1"],
        ["lambda_ghc=0.01,inf"],
        ["hyper_num=4"],  # not a field: the old column name
        ["variant=wo-hem"],  # not a field: an ablation is set by its fields
        ["lambda_hc=1e-5,0.00001"],  # equal values would train one cell twice
        ["use_hem=true,yes"],
        ["seed=0,0"],
        ["k_hyper=4", "lambda_hc=0", "k_hyper=8"],
        ["k_hyper"],
    ], ids=" ".join)
    def test_bad_sweep_grid_rejected_before_any_work(self, data_dir, specs, tmp_path, capsys,
                                                     monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(cli, "fit", no_training)
        argv = ["sweep", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")]
        for spec in specs:
            argv += ["--grid", spec]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("discovered", [False, True])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_one_modality_with_cross_modal_loss_rejected_before_any_work(
        self, data_dir, command, discovered, tmp_path, capsys
    ):
        # the sweep's first cell (lambda_hc = 0) would train on one modality
        argv = [command, "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")]
        if discovered:
            (data_dir / "features_text.bin").unlink()
        else:
            argv += ["--modalities", "image"]
        if command == "sweep":
            argv += ["--grid", "k_hyper=4", "--grid", "lambda_hc=0,1e-5",
                     "--grid", "lambda_ghc=0.01"]
        assert main(argv + FAST_TRAIN) == EXIT_CONFIG
        assert ">= 2 modalities" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_cold_threshold_below_one_rejected_before_any_work(self, source, threshold, tmp_path,
                                                              capsys):
        argv = ["evaluate", "--data-dir", str(tmp_path / "nowhere"),
                "--checkpoint", str(tmp_path / "none.bin"), "--split", str(tmp_path / "none"),
                "--out-dir", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--cold-threshold", threshold]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"cold_threshold = {threshold}\n", encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        assert main(argv) == EXIT_CONFIG
        assert "cold_threshold" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evaluate_reads_cold_threshold_key(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("cold_threshold = 5\n", encoding="utf-8")
        base = ["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(run / "checkpoint.bin"),
                "--split", str(run / "split.tsv")]
        assert main(base + ["--config", str(cfg_file), "--out-dir", str(tmp_path / "file")]) == 0
        assert main(base + ["--cold-threshold", "5", "--out-dir", str(tmp_path / "flag")]) == 0
        from_file = (tmp_path / "file" / "eval_test.json").read_text()
        assert from_file == (tmp_path / "flag" / "eval_test.json").read_text()
        ds = load_split(load_interactions(data_dir / "interactions.tsv"), run / "split.tsv")
        cold = [r for r in json.loads(from_file)["records"] if r["slice"] == "cold_start"]
        assert {r["users"] for r in cold} == {len(cold_start_users(ds, 5))}

    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    def test_negative_seed_rejected_before_any_work(self, command, data_dir, tmp_path, capsys):
        argv = [command, "--out-dir", str(tmp_path / "o"), "--seed", "-1"]
        if command != "generate":
            argv += ["--data-dir", str(data_dir)]
        assert main(argv) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_generate_rejects_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "gen.cfg"
        cfg_file.write_text("num_userz = 5\n", encoding="utf-8")
        code = main(["generate", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "num_userz" in capsys.readouterr().err

    def test_variant_option_is_unknown(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["train", "--data-dir", str(tmp_path), "--variant", "wo-hem"])
        assert exited.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --variant" in capsys.readouterr().err

# Option strings -> (dest, type, default, choices, required) of every
# subcommand, as written out by hand before the flags were derived from the
# config dataclasses.
GENERATE_OPTIONS = {
    ("--config",): ("config", None, None, None, False),
    ("--out-dir",): ("out_dir", None, None, None, False),
    ("--num-users",): ("num_users", int, None, None, False),
    ("--num-items",): ("num_items", int, None, None, False),
    ("--num-clusters",): ("num_clusters", int, None, None, False),
    ("--mean-interactions",): ("mean_interactions", float, None, None, False),
    ("--degree-exponent",): ("degree_exponent", float, None, None, False),
    ("--within-cluster-prob",): ("within_cluster_prob", float, None, None, False),
    ("--noise-std",): ("noise_std", float, None, None, False),
    ("--seed",): ("seed", int, None, None, False),
    ("--image-dim",): ("image_dim", int, None, None, False),
    ("--video-dim",): ("video_dim", int, None, None, False),
    ("--text-dim",): ("text_dim", int, None, None, False),
}
TRAINING_OPTIONS = {
    ("--data-dir",): ("data_dir", None, None, None, True),
    ("--config",): ("config", None, None, None, False),
    ("--out-dir",): ("out_dir", None, None, None, False),
    ("--d",): ("d", int, None, None, False),
    ("--layers",): ("layers", int, None, None, False),
    ("--k-knn",): ("k_knn", int, None, None, False),
    ("--k-hyper",): ("k_hyper", int, None, None, False),
    ("--hyper-steps",): ("hyper_steps", int, None, None, False),
    ("--drop-rate",): ("drop_rate", float, None, None, False),
    ("--tau",): ("tau", float, None, None, False),
    ("--lambda-hc",): ("lambda_hc", float, None, None, False),
    ("--lambda-ghc",): ("lambda_ghc", float, None, None, False),
    ("--lambda-reg",): ("lambda_reg", float, None, None, False),
    ("--learning-rate",): ("learning_rate", float, None, None, False),
    ("--batch-size",): ("batch_size", int, None, None, False),
    ("--max-epochs",): ("max_epochs", int, None, None, False),
    ("--patience",): ("patience", int, None, None, False),
    ("--seed",): ("seed", int, None, None, False),
    ("--use-ui", "--no-use-ui"): ("use_ui", None, None, None, False),
    ("--use-ii", "--no-use-ii"): ("use_ii", None, None, None, False),
    ("--use-hem", "--no-use-hem"): ("use_hem", None, None, None, False),
    ("--split-ratios",): ("split_ratios", None, None, None, False),
    ("--modalities",): ("modalities", None, None, None, False),
}
CLI_SURFACE = {
    "generate": GENERATE_OPTIONS,
    "train": TRAINING_OPTIONS,
    "evaluate": {
        ("--data-dir",): ("data_dir", None, None, None, True),
        ("--checkpoint",): ("checkpoint", None, None, None, True),
        ("--split",): ("split", None, None, None, True),
        ("--cold-threshold",): ("cold_threshold", int, None, None, False),
        ("--out-dir",): ("out_dir", None, None, None, False),
        ("--config",): ("config", None, None, None, False),
    },
    "sweep": {
        **TRAINING_OPTIONS,
        ("--grid",): ("grid", None, None, None, False),
    },
}


def test_cli_surface_is_frozen():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: {
            tuple(a.option_strings): (
                a.dest, a.type, a.default, tuple(a.choices) if a.choices else None, a.required
            )
            for a in parser._actions
            if a.dest != "help"
        }
        for name, parser in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE


@given(cfg=train_configs)
@settings(max_examples=50, deadline=None)
def test_config_round_trips_through_file_and_flags(cfg):
    flags, lines = [], []
    for field in fields(cfg):
        name, value = field.name, getattr(cfg, field.name)
        flag = name.replace("_", "-")
        if isinstance(value, bool):
            flags.append(f"--{flag}" if value else f"--no-{flag}")
            lines.append(f"{name} = {str(value).lower()}")
        else:
            flags += [f"--{flag}", repr(value)]
            lines.append(f"{name} = {value!r}")
    parser = build_parser()
    from_flags, _ = _train_config(parser.parse_args(["train", "--data-dir", "x"] + flags))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = parser.parse_args(["train", "--data-dir", "x", "--config", str(path)])
        from_file, _ = _train_config(args)
    assert from_flags == cfg
    assert from_file == cfg


def _ints(valid: tuple[int, int], invalid: tuple[int, int]):
    return st.integers(*valid).map(str), st.integers(*invalid).map(str)


def _texts(valid: str, invalid: str):
    return st.sampled_from(valid.split()), st.sampled_from(invalid.split())


_WEIGHT = _texts("0 1e-5 0.2", "-1 nan inf")
# flag -> (valid values, invalid values) of `train` and `sweep`, each kept
# small enough that a valid run trains at most 2 cells of one short epoch
_TRAINING_VALUES = {
    "--max-epochs": _ints((1, 1), (-1, 0)),
    "--d": _ints((1, 8), (-1, 0)),
    "--seed": _ints((0, 2**40), (-5, -1)),
    "--layers": _ints((0, 2), (-1, -1)),
    "--k-knn": _ints((1, 30), (-1, 0)),
    "--k-hyper": _ints((1, 6), (-1, 0)),
    "--hyper-steps": _ints((1, 2), (-1, 0)),
    "--batch-size": _ints((16, 128), (-1, 0)),
    "--patience": _ints((0, 2), (-1, -1)),
    "--drop-rate": _texts("0 0.2 0.5", "1 -1 nan inf"),
    "--tau": _texts("1e-5 0.2 1", "0 -1 nan inf -inf"),
    "--lambda-hc": _WEIGHT,
    "--lambda-ghc": _WEIGHT,
    "--lambda-reg": _WEIGHT,
    "--learning-rate": _texts("0 1e-3 0.5", "-1 nan inf"),
    "--split-ratios": _texts("0.7,0.1,0.2 0.8,0.2,0 1,0,0 0,0,1",
                             "0.5,0.5 nan,0.1,0.9 0.5,0.6,-0.1 a,b,c"),
    "--modalities": _texts("image,text text,image image", "image,image audio , video"),
}
_SWEEP_GRIDS = {
    "--grid": _texts("k_hyper=2,4 lambda_hc=0,1e-5 lambda_ghc=0.01,0 seed=0,1 "
                     "use_hem=true,false use_ii=off drop_rate=0,0.5 tau=0.2",
                     "k_hyper=0 k_hyper=4,x k_hyper=, lambda_hc=nan lambda_ghc=-1,0.01 "
                     "tau=inf hyper_num=2 variant=wo-hem seed=-1 use_ui=maybe k_hyper"),
}
# the flags every drawn `train` or `sweep` argv sets: the root seed, and the
# sizes whose defaults would train 100 epochs of d = 64 and a sweep 36 cells
_ALWAYS = ("--seed", "--max-epochs", "--d", *_SWEEP_GRIDS)


@st.composite
def cli_argv(draw, data: Path, run: Path) -> list[str]:
    """argv of `train`, `sweep` or `evaluate` on the 40 x 25 set, with at
    most one invalid value besides the view switches and evaluate's split,
    the run's or one without train pairs."""
    command = draw(st.sampled_from(["train", "sweep", "evaluate"]))
    argv = [command, f"--data-dir={data}"]
    if command == "evaluate":
        split = draw(st.sampled_from(["split.tsv", "test-only-split.tsv"]))
        argv += [f"--checkpoint={run / 'checkpoint.bin'}", f"--split={run / split}"]
        threshold = draw(st.none() | st.integers(-2, 6))
        return argv if threshold is None else argv + [f"--cold-threshold={threshold}"]
    values = {**_TRAINING_VALUES, **(_SWEEP_GRIDS if command == "sweep" else {})}
    flags = [f for f in _ALWAYS if f in values]
    flags += draw(st.lists(st.sampled_from(sorted(values.keys() - set(flags))), max_size=6,
                           unique=True))
    invalid = draw(st.none() | st.sampled_from(flags))
    argv += [f"{flag}={draw(values[flag][flag == invalid])}" for flag in flags]
    for view in ("ui", "ii", "hem"):
        argv += draw(st.sampled_from([[], [f"--use-{view}"], [f"--no-use-{view}"]]))
    return argv


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(GEN_ARGS + ["--out-dir", str(root / "data")]) == EXIT_OK
    assert run_train(root / "data", root / "run", ["--max-epochs", "1"]) == EXIT_OK
    write_test_only_split(root / "run")
    return root / "data", root / "run"


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_exits_with_a_typed_code(fuzz_run, data):
    argv = data.draw(cli_argv(*fuzz_run))
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        out = Path(tmp) / "out"
        code = main(argv + [f"--out-dir={out}"])
        made_out_dir = out.exists()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_MEMORY), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert code not in (EXIT_CONFIG, EXIT_DATA) or not made_out_dir
