"""The digest grid tool (`digest_grid.py`): its digests are a pure function
of the code within one process, and `--compare` names the configs that
differ. The digests themselves are not pinned: they depend on the numpy
and BLAS builds."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

import digest_grid
from mhcr import item_graph
from mhcr.dataio import InteractionDataset

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
    monkeypatch.setattr(digest_grid, "graph_digests", lambda: {"a/k=1": "0", "b/k=1": "0"})
    monkeypatch.setattr(digest_grid, "view_digests", lambda: {"a/x_u": "0", "b/x_u": "0"})
    ours = tmp_path / "ours.json"
    assert digest_grid.main(["--out", str(ours)]) == 0
    assert digest_grid.main(["--out", str(tmp_path / "again.json"), "--compare", str(ours)]) == 0
    assert "model: 0 of 3 differ" in capsys.readouterr().out

    edited = json.loads(ours.read_text())
    edited["configs"][PICKED[1]]["losses"] = "edited"
    edited["graphs"]["b/k=1"] = "edited"
    edited["views"]["a/x_u"] = "edited"
    (tmp_path / "edited.json").write_text(json.dumps(edited))
    argv = ["--out", str(tmp_path / "again.json"), "--compare", str(tmp_path / "edited.json")]
    assert digest_grid.main(argv) == 1
    out = capsys.readouterr().out
    assert "model: 0 of 3 differ" in out and "cli: 0 of 6 differ" in out
    assert f"losses: 1 of 3 differ\n  {PICKED[1]}\n" in out
    assert "graphs: 1 of 2 differ\n  b/k=1\n" in out
    assert "views: 1 of 2 differ\n  a/x_u\n" in out


def test_graph_sets_take_several_blocks_and_wide_chunks():
    sizes = {data.num_items for data in digest_grid.GRAPH_SETS.values()}
    # more items than rows in one similarity block, for at least one set
    assert any(n > item_graph._AFFINITY_BLOCK_ELEMENTS // n for n in sizes)
    # `_top_k` cuts a row into about 2K chunks: at least 2 columns wide here
    assert min(sizes) >= 4 * max(digest_grid.GRAPH_KS)


def test_graph_digests_see_the_tie_rule(monkeypatch):
    first = digest_grid.graph_digests()
    assert len(first) == len(digest_grid.GRAPH_SETS) * len(digest_grid.GRAPH_KS)
    assert digest_grid.graph_digests() == first

    def higher_column_first(sims, k):
        n = sims.shape[1]
        return n - 1 - np.argsort(-sims[:, ::-1], axis=1, kind="stable")[:, :k]

    monkeypatch.setattr(item_graph, "_top_k", higher_column_first)
    moved = digest_grid.compare({"configs": {}, "cli": {}, "graphs": digest_grid.graph_digests()},
                                {"configs": {}, "cli": {}, "graphs": first})["graphs"]
    assert {name for name in moved if name.startswith("ties-")} == {
        f"ties-1200/k={k}" for k in digest_grid.GRAPH_KS}


def test_view_digests_see_rows_in_dataset_order(monkeypatch):
    first = digest_grid.view_digests()
    assert set(first) == {f"{order}/{part}" for order in digest_grid.VIEW_ORDERS
                          for part in digest_grid.VIEW_PARTS}
    assert digest_grid.view_digests() == first
    # sorted rows are the same matrices whatever order the pairs come in
    for part in digest_grid.VIEW_PARTS:
        assert first[f"dataset-order/{part}"] == first[f"shuffled/{part}"], part

    def rows_in_dataset_order(ds, label):
        users, items = ds.split_pairs(label)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(users, minlength=ds.num_users))])
        return sp.csr_matrix((np.ones(users.size), items[np.argsort(users, kind="stable")],
                              indptr), shape=(ds.num_users, ds.num_items))

    monkeypatch.setattr(InteractionDataset, "user_csr", rows_in_dataset_order)
    moved = digest_grid.compare({"configs": {}, "cli": {}, "views": digest_grid.view_digests()},
                                {"configs": {}, "cli": {}, "views": first})["views"]
    # the grid's data is generated in (user, item) order, so only the shuffled copy moves
    assert "shuffled/x_u" in moved and all(name.startswith("shuffled/") for name in moved)
