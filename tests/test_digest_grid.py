"""The digest grid tool (`digest_grid.py`): its digests are a pure function
of the code within one process, and `--compare` names the configs that
differ. The digests themselves are not pinned: they depend on the numpy
and BLAS builds."""

import json

import pytest

import digest_grid

PICKED = ("full/layers=2/hyper_steps=1/drop_rate=0.5",
          "hem-only/layers=2/hyper_steps=2/drop_rate=0.5",
          "bpr-mf/layers=0/hyper_steps=1/drop_rate=0.5")


@pytest.fixture(scope="module")
def picked():
    configs = digest_grid.grid()
    return {name: configs[name] for name in PICKED}


def test_grid_has_150_distinct_configs():
    configs = digest_grid.grid()
    assert len(configs) == 150 and len(set(configs.values())) == 150
    assert sum(name.startswith("hem-only/") for name in configs) == 18


def test_digests_repeat_within_one_process(picked):
    ds, features = digest_grid.dataset()
    for name, cfg in picked.items():
        first = digest_grid.config_digests(ds, features, cfg)
        assert digest_grid.config_digests(ds, features, cfg) == first, name
        assert set(first) == set(digest_grid.KINDS), name


def test_compare_names_an_edited_config(picked, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest_grid, "grid", lambda: picked)
    monkeypatch.setattr(digest_grid, "cli_digests", lambda: {n: "0" for n in digest_grid.CLI_FILES})
    ours = tmp_path / "ours.json"
    assert digest_grid.main(["--out", str(ours)]) == 0
    assert digest_grid.main(["--out", str(tmp_path / "again.json"), "--compare", str(ours)]) == 0
    assert "model: 0 of 3 differ" in capsys.readouterr().out

    edited = json.loads(ours.read_text())
    edited["configs"][PICKED[1]]["losses"] = "edited"
    (tmp_path / "edited.json").write_text(json.dumps(edited))
    argv = ["--out", str(tmp_path / "again.json"), "--compare", str(tmp_path / "edited.json")]
    assert digest_grid.main(argv) == 1
    out = capsys.readouterr().out
    assert "model: 0 of 3 differ" in out and "cli: 0 of 6 differ" in out
    assert f"losses: 1 of 3 differ\n  {PICKED[1]}\n" in out
