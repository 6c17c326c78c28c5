"""The ablation table tool (`ablation_table.py`) on a tiny config: one row
per ablation and per `--set`, `--seeds`, the JSON it writes, and
`--compare`. The figures themselves are not pinned."""

import argparse
import json
from dataclasses import replace

import pytest

import ablation_table
import digest_grid
from ablations import ABLATIONS


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(ablation_table, "SEEDS", (0, 1))
    monkeypatch.setattr(ablation_table, "dataset", lambda seed: digest_grid.dataset())
    monkeypatch.setattr(ablation_table, "train_config",
                        lambda seed: replace(digest_grid.BASE, seed=seed))


def test_one_row_per_ablation_and_set(tiny, tmp_path, capsys):
    path = tmp_path / "table.json"
    assert ablation_table.main(["--set", "lambda_ghc=0.1", "--json", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == [*ABLATIONS, "lambda_ghc=0.1"]
    assert lines[1].split()[4:6] == ["-", "-"]

    table = json.loads(path.read_text())
    assert list(table) == [*ABLATIONS, "lambda_ghc=0.1"]
    for runs in table.values():
        assert list(runs) == ["0", "1"]
        for run in runs.values():
            assert set(run) == {"val", "test", "cold", "best_epoch"}
            assert 0.0 <= run["cold"] <= 1.0 and 1 <= run["best_epoch"] <= 2
    assert table["full"] != table["bpr-mf"]


def test_seeds_sets_the_seeds_each_row_trains_at(tiny, tmp_path, capsys):
    path = tmp_path / "table.json"
    assert ablation_table.main(["--seeds", "2-4", "--json", str(path)]) == 0
    table = json.loads(path.read_text())
    assert {name: list(runs) for name, runs in table.items()} == {
        name: ["2", "3", "4"] for name in ABLATIONS}
    assert "of 3" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["3-2", "-1-2", "1", "1-", "a-b", "0-1-2"])
def test_seeds_rejects_what_is_no_range(text):
    with pytest.raises(argparse.ArgumentTypeError):
        ablation_table.seed_range(text)


def test_compare_prints_the_change_per_row(tmp_path, capsys):
    runs = {"0": {"val": 0.5, "test": 0.4, "cold": 0.3, "best_epoch": 1}}
    old = {"full": runs, "wo-ui": runs}
    new = {"full": runs, "wo-ui": {"0": {**runs["0"], "val": 0.75}}, "extra": runs}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, table in zip(paths, (old, new)):
        path.write_text(json.dumps(table))
    assert ablation_table.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["full", "wo-ui"]
    assert lines[2].split() == ["wo-ui", "+0.2500", "+0.0000", "+0.0000", "0", "->", "1", "0",
                                "->", "0"]


def test_summary_counts_seeds_above_and_equal_to_full():
    table = {
        "full": {"0": {"val": 0.5, "test": 0.5, "cold": 0.5, "best_epoch": 1},
                 "1": {"val": 0.5, "test": 0.5, "cold": 0.5, "best_epoch": 3}},
        "wo-ii": {"0": {"val": 0.6, "test": 0.5, "cold": 0.2, "best_epoch": 2},
                  "1": {"val": 0.4, "test": 0.5, "cold": 0.4, "best_epoch": 1}},
    }
    row = ablation_table.summary(table)["wo-ii"]
    assert row["val"] == pytest.approx(0.5) and row["cold"] == pytest.approx(0.3)
    assert (row["val_above"], row["val_equal"]) == (1, 0)
    assert (row["test_above"], row["test_equal"]) == (0, 2)
    assert row["best_epochs"] == [2, 1]
    assert "0 of 2, 2 equal" in ablation_table.format_table(table)


@pytest.mark.parametrize("text", ["nope=1", "lambda_hc", "use_ii=maybe", "k_hyper=1.5"])
def test_set_rejects_what_is_no_scalar_field_setting(text):
    with pytest.raises(SystemExit):
        ablation_table.parse_set(text)


def test_set_parses_the_field_type():
    assert ablation_table.parse_set("use_ii=off") == ("use_ii=off", {"use_ii": False})
    assert ablation_table.parse_set("k_hyper=8") == ("k_hyper=8", {"k_hyper": 8})
    assert ablation_table.parse_set("tau=0.5") == ("tau=0.5", {"tau": 0.5})
