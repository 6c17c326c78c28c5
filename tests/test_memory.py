"""Peak memory of an affinity graph build, of an evaluation pass and of the
loads that set one up, as tracemalloc sees it: numpy reports every buffer it
allocates to it."""

import tracemalloc

import numpy as np
import pytest

from mhcr import dataio, evaluation, item_graph
from mhcr.dataio import ModalityFeatures, SyntheticConfig, generate_synthetic, split_dataset
from mhcr.errors import DataError
from mhcr.training import TrainConfig, build_views, compute_embeddings, init_parameters


def peak_above_start(fn):
    """`fn()` and the peak of the traced memory during the call, in bytes
    above the traced memory at its start."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - start


def traced_peak(fn):
    """`peak_above_start(fn)`, starting tracemalloc if it is not running."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        return peak_above_start(fn)
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("k", [10, 40])
def test_an_affinity_build_holds_a_few_similarity_blocks(k):
    # the whole 3000 x 3000 similarity matrix would be 17 blocks. Spread-out
    # features leave about k + 1 candidates a row beside the block; equal
    # rows make every entry a candidate, the bounded selection's worst case,
    # which holds the block, the candidate positions, their padded values
    # and their order
    num_items = 3000
    block = max(1, item_graph._AFFINITY_BLOCK_ELEMENTS // num_items) * num_items * 8
    drawn = np.random.default_rng(0).normal(size=(num_items, 24))
    for matrix, most in ((drawn, 3.0), (np.ones((num_items, 24)), 6.0)):
        features = ModalityFeatures("image", matrix)
        graph, peak = traced_peak(lambda: item_graph.build_affinity_graph(features, k))
        assert graph.nnz == num_items * k
        assert peak < most * block, peak / block


def test_an_evaluation_pass_holds_few_node_arrays_and_one_score_block():
    # a pass keeps the output, the two view sums and one modality's pass;
    # `evaluate` scores every block into one buffer
    ds, feats = generate_synthetic(SyntheticConfig(
        num_users=3000, num_items=500, num_clusters=10, mean_interactions=10.0,
        modality_dims={"image": 24, "video": 24, "text": 16}, seed=0,
    ))
    ds = split_dataset(ds, seed=0)
    cfg = TrainConfig(d=32, k_hyper=32, k_knn=10)
    views = build_views(ds, feats, cfg)
    params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    node_array = params.e0.data.nbytes  # (|U| + |I|) x d
    rows = min(evaluation._MAX_BLOCK_ROWS, max(1, evaluation._BLOCK_ELEMENTS // ds.num_items))
    score_block = rows * ds.num_items * 8
    assert ds.num_users > 2 * rows  # several blocks, so two could be alive at once

    (user_emb, item_emb), embed_peak = traced_peak(lambda: compute_embeddings(params, views, cfg))
    _, rank_peak = traced_peak(lambda: evaluation.evaluate(user_emb, item_emb, ds))
    assert embed_peak < 7 * node_array, embed_peak / node_array
    assert rank_peak < 1.5 * score_block, rank_peak / score_block


def test_an_evaluation_pass_at_4000_items_holds_a_4_mib_score_block():
    # the block budget, not the 1024-row cap, sizes the blocks here: 131 rows
    # of 4000 float64 scores; a 2**21 budget would take 524 rows, 16.8 MB
    ds, _ = generate_synthetic(SyntheticConfig(
        num_users=600, num_items=4000, num_clusters=10, mean_interactions=10.0,
        modality_dims={"image": 8}, seed=0,
    ))
    ds = split_dataset(ds, seed=0)
    rng = np.random.default_rng(0)
    user_emb, item_emb = rng.normal(size=(ds.num_users, 32)), rng.normal(size=(ds.num_items, 32))
    rows = evaluation._BLOCK_ELEMENTS // ds.num_items
    assert rows < evaluation._MAX_BLOCK_ROWS and ds.num_users > 3 * rows
    _, peak = traced_peak(lambda: evaluation.evaluate(user_emb, item_emb, ds))
    assert peak < 6 * 2**20, peak / 2**20


def test_load_split_holds_few_pair_sized_arrays(tmp_path):
    # one int64 per pair is one pair-sized array; the parse, the key lookup
    # and the returned dataset each hold a few, one stage at a time
    ds, _ = generate_synthetic(SyntheticConfig(
        num_users=5000, num_items=500, num_clusters=10, mean_interactions=12.0,
        modality_dims={"image": 8}, seed=0,
    ))
    assert len(ds) >= 50_000
    dataio.save_split(split_dataset(ds, seed=0), tmp_path / "split.tsv")
    loaded, peak = traced_peak(lambda: dataio.load_split(ds, tmp_path / "split.tsv"))
    assert len(loaded) == len(ds)
    assert peak <= 10 * len(ds) * 8, peak / (len(ds) * 8)


def test_a_user_id_the_pairs_cannot_pay_for_fails_before_any_user_sized_array(tmp_path):
    path = tmp_path / "interactions.tsv"
    path.write_text("".join(f"{u}\t{i}\n" for u, i in ((0, 0), (1, 1), (200_000_000, 2),
                                                        (3, 3), (4, 4))))

    def load():
        with pytest.raises(DataError, match="user id 200000000"):
            dataio.load_interactions(path)

    _, peak = traced_peak(load)
    assert peak < 2**20, peak
