"""CLI subcommands: generate / train / evaluate / ablate / sweep wiring,
file outputs, exit codes, and byte-level determinism."""

import argparse
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr.cli import EXIT_CONFIG, EXIT_DATA, _train_config, build_parser, load_config_file, main
from mhcr.dataio import load_interactions
from mhcr.training import TrainConfig

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
        assert log[1] == "epoch,l_bpr,l_hc,l_ghc,l_reg,total"
        assert len(log) == 2 + 2  # header comment + column row + one row per epoch

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


class TestAblate:
    def test_variant_recorded_in_log_header(self, data_dir, tmp_path):
        out = tmp_path / "ab"
        code = main(
            ["ablate", "--data-dir", str(data_dir), "--out-dir", str(out), "--variant", "wo-hem"]
            + FAST_TRAIN
        )
        assert code == 0
        header = (out / "training_log.csv").read_text().splitlines()[0]
        assert header == "# variant: w/o HEM"

    def test_bpr_mf_variant(self, data_dir, tmp_path):
        out = tmp_path / "mf"
        code = main(
            ["ablate", "--data-dir", str(data_dir), "--out-dir", str(out), "--variant", "bpr-mf"]
            + FAST_TRAIN
        )
        assert code == 0
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
                "--seed", "13",
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
            "--split", str(run / "split.tsv"), "--seed", "13",
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
             "--out-dir", str(tmp_path / "e"), "--seed", "13"]
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
             "--out-dir", str(tmp_path / "e"), "--seed", "13"]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "flags, gen_args, expected",
        [
            (["--d", "16"], [], EXIT_CONFIG),
            (["--k-hyper", "8"], [], EXIT_CONFIG),
            ([], ["--num-items", "30"], EXIT_DATA),
            ([], ["--num-users", "45", "--num-items", "20"], EXIT_DATA),
            ([], ["--image-dim", "7"], EXIT_DATA),
            ([], ["--video-dim", "3"], EXIT_DATA),
        ],
        ids=["d", "k_hyper", "items", "same-node-count", "modality-dim", "modality-set"],
    )
    def test_checkpoint_consistency_errors(
        self, data_dir, tmp_path, capsys, flags, gen_args, expected
    ):
        run = tmp_path / "run"
        assert run_train(data_dir, run) == 0
        eval_dir = data_dir
        if gen_args:
            eval_dir = tmp_path / "other-data"
            assert main(GEN_ARGS + gen_args + ["--out-dir", str(eval_dir)]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--data-dir", str(eval_dir), "--checkpoint", str(run / "checkpoint.bin"),
             "--out-dir", str(tmp_path / "e"), "--seed", "13"] + flags
        )
        assert code == expected
        err = capsys.readouterr().err
        assert "checkpoint" in err
        if expected == EXIT_CONFIG:
            assert "conflicts with" in err


class TestSweep:
    def test_tiny_grid_rows_and_best_mark(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--data-dir", str(data_dir), "--out-dir", str(out)]
            + FAST_TRAIN
            + [
                "--max-epochs", "1",
                "--hyper-num-grid", "2,4",
                "--lambda-hc-grid", "1e-5",
                "--lambda-ghc-grid", "0.01",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "hyper_num,lambda_hc,lambda_ghc,val_recall20,best"
        assert len(rows) == 3
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 1

    def test_default_grid_contains_reported_optima(self):
        from mhcr.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["sweep", "--data-dir", "x"])
        assert "32" in args.hyper_num_grid.split(",")
        assert "1e-5" in args.lambda_hc_grid.split(",")
        assert "0.01" in args.lambda_ghc_grid.split(",")
        assert len(args.hyper_num_grid.split(",")) * len(args.lambda_hc_grid.split(",")) * len(
            args.lambda_ghc_grid.split(",")
        ) == 36


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
        assert params.d == 8  # CLI flag beat the file's d=4

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["train", "--data-dir", "x", "--config", str(cfg_file)]) == EXIT_CONFIG

    def test_parse_errors(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config_file(cfg_file)

    def test_env_var_output_dir(self, data_dir, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("MHCR_OUTPUT_DIR", str(target))
        assert main(["train", "--data-dir", str(data_dir)] + FAST_TRAIN) == 0
        assert (target / "checkpoint.bin").exists()

    def test_file_supplies_modalities_and_ratios(self, data_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "modalities = image\nsplit_ratios = 0.8,0.1,0.1\nmax_epochs = 1\n"
            "use_hc = false\n",  # the cross-modal loss needs >= 2 modalities
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
        assert params.modality_tags == ("image",)


def test_split_sidecar_round_trips_through_evaluate(data_dir, tmp_path):
    run = tmp_path / "run"
    assert run_train(data_dir, run) == 0
    # evaluating with the saved sidecar must agree with re-splitting by seed
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["evaluate", "--data-dir", str(data_dir), "--checkpoint", str(run / "checkpoint.bin"), "--seed", "13"]
    assert main(base + ["--split", str(run / "split.tsv"), "--out-dir", str(out_a)]) == 0
    assert main(base + ["--out-dir", str(out_b)]) == 0
    assert json.loads((out_a / "eval_test.json").read_text()) == json.loads(
        (out_b / "eval_test.json").read_text()
    )


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["train", "ablate", "evaluate", "sweep"])
    def test_invalid_values_rejected_before_any_work(self, command, tmp_path):
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o"),
                "--drop-rate", "2", "--tau", "-1"]
        if command == "ablate":
            argv += ["--variant", "full"]
        if command == "evaluate":
            argv += ["--checkpoint", str(tmp_path / "none.bin")]
        assert main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command,key",
        [(c, "data_dir = x") for c in ("train", "ablate", "evaluate", "sweep")]
        + [(c, "cold_threshold = 5") for c in ("train", "ablate", "sweep")],
    )
    def test_keys_the_command_ignores_are_rejected(self, command, key, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(key + "\n", encoding="utf-8")
        argv = [command, "--data-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o"),
                "--config", str(cfg_file)]
        if command == "ablate":
            argv += ["--variant", "full"]
        if command == "evaluate":
            argv += ["--checkpoint", str(tmp_path / "none.bin")]
        assert main(argv) == EXIT_CONFIG
        assert key.split()[0] in capsys.readouterr().err

    def test_evaluate_reads_cold_threshold_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("cold_threshold = 5\n", encoding="utf-8")
        args = build_parser().parse_args(
            ["evaluate", "--data-dir", "x", "--checkpoint", "c", "--config", str(cfg_file)]
        )
        assert _train_config(args)[1]["cold_threshold"] == 5

    def test_generate_rejects_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "gen.cfg"
        cfg_file.write_text("num_userz = 5\n", encoding="utf-8")
        code = main(["generate", "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "num_userz" in capsys.readouterr().err

    def test_variant_sits_between_file_and_flags(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("use_hem = true\nuse_hc = false\nd = 4\n", encoding="utf-8")
        args = build_parser().parse_args(
            ["train", "--data-dir", "x", "--config", str(cfg_file), "--variant", "wo-hem",
             "--use-hc", "--d", "8"]
        )
        cfg, _ = _train_config(args)
        assert (cfg.use_hem, cfg.use_hc, cfg.d) == (False, True, 8)


VARIANTS = ("bpr-mf", "full", "wo-ghc", "wo-hc", "wo-hem", "wo-ii", "wo-ui")

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
    ("--tau-hc",): ("tau_hc", float, None, None, False),
    ("--tau-ghc",): ("tau_ghc", float, None, None, False),
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
    ("--use-hc", "--no-use-hc"): ("use_hc", None, None, None, False),
    ("--use-ghc", "--no-use-ghc"): ("use_ghc", None, None, None, False),
    ("--split-ratios",): ("split_ratios", None, None, None, False),
    ("--modalities",): ("modalities", None, None, None, False),
}
CLI_SURFACE = {
    "generate": GENERATE_OPTIONS,
    "train": {**TRAINING_OPTIONS, ("--variant",): ("variant", None, None, VARIANTS, False)},
    "ablate": {**TRAINING_OPTIONS, ("--variant",): ("variant", None, None, VARIANTS, True)},
    "evaluate": {
        **TRAINING_OPTIONS,
        ("--checkpoint",): ("checkpoint", None, None, None, True),
        ("--split",): ("split", None, None, None, False),
        ("--cold-threshold",): ("cold_threshold", int, None, None, False),
        ("--variant",): ("variant", None, None, VARIANTS, False),
    },
    "sweep": {
        **TRAINING_OPTIONS,
        ("--hyper-num-grid",): ("hyper_num_grid", None, "8,16,32,64", None, False),
        ("--lambda-hc-grid",): ("lambda_hc_grid", None, "1e-6,1e-5,1e-4", None, False),
        ("--lambda-ghc-grid",): ("lambda_ghc_grid", None, "0.001,0.01,0.1", None, False),
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


_positive = st.floats(1e-6, 1e3)
_weight = st.floats(0.0, 10.0)
_train_configs = st.builds(
    TrainConfig,
    d=st.integers(1, 512),
    layers=st.integers(0, 8),
    k_knn=st.integers(1, 64),
    k_hyper=st.integers(1, 128),
    hyper_steps=st.integers(1, 4),
    drop_rate=st.floats(0.0, 1.0),
    tau=_positive,
    tau_hc=st.none() | _positive,
    tau_ghc=st.none() | _positive,
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
    use_hc=st.booleans(),
    use_ghc=st.booleans(),
).filter(lambda cfg: cfg.use_ui or cfg.use_ii or cfg.use_hem)


@given(cfg=_train_configs)
@settings(max_examples=50, deadline=None)
def test_config_round_trips_through_file_and_flags(cfg):
    flags, lines = [], []
    for field in fields(cfg):
        name, value = field.name, getattr(cfg, field.name)
        flag = name.replace("_", "-")
        if value is None:
            continue
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
