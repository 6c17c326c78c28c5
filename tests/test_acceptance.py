"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The learning-signal and
cold-start criteria share one set of 15 training runs (5 seeds x 3 model
variants) through a module-scoped fixture; everything else is fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr import evaluation
from mhcr.cli import main
from mhcr.dataio import ModalityFeatures, SyntheticConfig, generate_synthetic, split_dataset
from mhcr.hypergraph import hypergraph_pass
from mhcr.item_graph import build_affinity_graph
from mhcr.objectives import bpr_loss, graph_hyper_contrastive_loss, hyper_contrastive_loss
from mhcr.training import (
    TrainConfig,
    build_views,
    compute_embeddings,
    fit,
    forward,
    init_parameters,
)
from mhcr.ui_graph import build_norm_adjacency, propagate_ui

from ablations import ABLATIONS
from oracles import cosine_affinity

from conftest import (assert_grad_close, finite_difference, in_float64, micro_batch, micro_config,
                      micro_dataset)
from test_evaluation import brute_force_report, random_instance


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Criterion: gradient correctness on the pinned micro-instance
# ---------------------------------------------------------------------------


def test_gradient_correctness_micro_instance():
    started = time.monotonic()
    cfg = micro_config()
    ds, feats = micro_dataset()
    views = in_float64(build_views, ds, feats, cfg)
    params = in_float64(init_parameters, cfg, ds.num_users, ds.num_items, views.modality_dims)
    batch = micro_batch()
    mask_seed = 2024  # pins every dropout mask across repeated forwards

    def loss_value() -> float:
        result = forward(params, views, cfg, batch=batch, mode="train", rng=mask_seed)
        return float(result.total.data)

    result = forward(params, views, cfg, batch=batch, mode="train", rng=mask_seed)
    params.zero_grad()
    result.total.backward()
    for name, tensor in params.tensors().items():
        numeric = finite_difference(loss_value, tensor.data, h=1e-4)
        assert_grad_close(tensor.grad, numeric, name)
    elapsed = time.monotonic() - started
    report(
        "gradient-correctness",
        elapsed < 10.0,
        f"all parameter tensors within tolerance in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion: propagation oracles (dense matrices and full-sort KNN)
# ---------------------------------------------------------------------------


def test_propagation_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(17)

    # bipartite propagation vs dense powers on an 18-node graph
    from mhcr.dataio import InteractionDataset

    users = np.repeat(np.arange(8), 3)
    items = np.concatenate([rng.choice(10, size=3, replace=False) for _ in range(8)])
    ds = InteractionDataset(8, 10, users, items, split=np.zeros(24, dtype=np.int8))
    graph = build_norm_adjacency(ds)
    e0 = rng.normal(size=(18, 5))
    for layers in (0, 1, 2, 3):
        sparse_out = propagate_ui(graph, e0, layers, np.arange(18)).data
        dense = graph.toarray()
        expected = np.zeros_like(e0)
        power = np.eye(18)
        for _ in range(layers + 1):
            expected += power @ e0
            power = dense @ power
        assert np.abs(sparse_out - expected).max() <= 1e-6

    # hypergraph pass (drop 0) vs explicit dense chain, items <= 10: H_i the
    # row softmax of the logits, H_u = D_u^-1 X_u H_i, pooling through D_e^-1
    logits = rng.normal(size=(9, 4))
    x_u = (rng.random((5, 9)) < 0.4).astype(float)
    x_u /= np.maximum(x_u.sum(axis=1, keepdims=True), 1.0)
    state = rng.normal(size=(9, 3))
    h_i = np.exp(logits - logits.max(axis=1, keepdims=True))
    h_i /= h_i.sum(axis=1, keepdims=True)
    h_u = x_u @ h_i
    d_e = h_i.sum(axis=0)[:, None]
    for steps in (1, 2, 3):
        # features I, hyperedges logits^T and projection `state` give the
        # logits I @ V^T and the item state I @ W exactly
        stacked = hypergraph_pass(
            np.eye(9), ad.Tensor(logits.T), ad.Tensor(state), sp.csr_matrix(x_u), 0.0, steps,
            np.random.default_rng(0), np.arange(9),
        ).data
        e_users, e_items = stacked[:5], stacked[5:]
        expected_items = state.copy()
        for _ in range(steps):
            pooled = h_i.T @ expected_items / d_e
            expected_users, expected_items = h_u @ pooled, h_i @ pooled
        assert np.abs(e_items - expected_items).max() <= 1e-6
        assert np.abs(e_users - expected_users).max() <= 1e-6

    # KNN sparsification vs a brute-force full sort at |I| = 50
    matrix = rng.normal(size=(50, 6))
    graph_knn = build_affinity_graph(ModalityFeatures("video", matrix), k=7)
    for i in range(50):
        sims = sorted(
            ((j, cosine_affinity(matrix, i, j)) for j in range(50) if j != i),
            key=lambda pair: (-pair[1], pair[0]),
        )
        oracle = [j for j, s in sims[:7] if max(s, 0.0) > 0.0]
        kept = sorted(graph_knn.getrow(i).indices.tolist())
        assert kept == sorted(oracle), f"row {i}"

    elapsed = time.monotonic() - started
    report("propagation-oracles", elapsed < 5.0, f"dense + full-sort oracles in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion: loss closed forms
# ---------------------------------------------------------------------------


def test_loss_closed_forms():
    # -ln(sigmoid(0)) = ln 2: one user row scores its positive and negative rows equally
    ln2 = float(np.log(2.0))
    bpr = float(bpr_loss(np.array([[1.0], [0.7], [0.7]]), [0], [1], [2]).data)
    assert abs(bpr - ln2) <= 1e-5

    # two nodes, two modalities, all embeddings identical: -ln(2/4) = ln 2
    row = np.array([[1.0, 2.0], [1.0, 2.0]])
    hc_identical = float(hyper_contrastive_loss(
        [ad.Tensor(row), ad.Tensor(row)], [np.array([0, 1])], 0.37
    ).data)
    assert abs(hc_identical - ln2) <= 1e-5

    # batch of two with identical graph/hypergraph embeddings: ln N = ln 2
    ones = np.ones((2, 3))
    ghc_identical = float(graph_hyper_contrastive_loss(
        ad.Tensor(ones), ad.Tensor(ones), [np.array([0, 1])], 0.2
    ).data)
    assert abs(ghc_identical - ln2) <= 1e-5

    # cross-modal views aligned per node, nodes mutually orthogonal, tau=0.2:
    # per node -ln(2e^5 / (2e^5 + 2e^0)), averaged over the batch
    eye = np.eye(2)
    hc_aligned = float(hyper_contrastive_loss(
        [ad.Tensor(eye), ad.Tensor(eye)], [np.array([0, 1])], 0.2
    ).data)
    expected_hc = float(-np.log(2 * np.e**5 / (2 * np.e**5 + 2)))
    assert abs(hc_aligned - expected_hc) <= 1e-5

    # diagonal graph-hypergraph similarity at tau=0.2: -ln(e^5/(e^5+1))
    ghc_diag = float(graph_hyper_contrastive_loss(
        ad.Tensor(eye), ad.Tensor(eye), [np.array([0, 1])], 0.2
    ).data)
    assert abs(ghc_diag - 0.006715) <= 1e-5

    report(
        "loss-closed-forms",
        True,
        f"ln2 x3, hc={hc_aligned:.6f}, ghc={ghc_diag:.6f}",
    )


# ---------------------------------------------------------------------------
# Criterion: metric oracle
# ---------------------------------------------------------------------------


def test_metric_oracle():
    from mhcr.dataio import TEST, TRAIN, VAL
    from oracles import ndcg_at_k

    for seed in (0, 1):
        ds, user_emb, item_emb = random_instance(seed, num_users=18, num_items=27)
        rep = evaluation.evaluate(user_emb, item_emb, ds, ks=(10, 20))
        oracle = brute_force_report(
            user_emb, item_emb, ds, range(ds.num_users), (10, 20), TEST, {TRAIN, VAL}
        )
        for k in (10, 20):
            rec = rep.record(evaluation.SLICE_ALL, k)
            assert rec.recall == oracle[k][0]
            assert rec.ndcg == oracle[k][1]
            assert rec.users == oracle[k][2]

    rank2 = ndcg_at_k(np.array([9, 4, 1]), np.array([4]), k=3)
    assert abs(rank2 - 0.63093) <= 1e-5
    report("metric-oracle", True, f"exact match; ndcg@rank2={rank2:.5f}")


# ---------------------------------------------------------------------------
# Criterion: dropout unbiasedness
# ---------------------------------------------------------------------------


def test_dropout_unbiasedness_10k_draws():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(3, 2))
    x_u = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))  # D_u^-1 X_u
    state = rng.normal(size=(3, 1))
    every_item = np.arange(3)

    def run(drop_rate, seed):  # the user rows, then the item rows
        return hypergraph_pass(np.eye(3), ad.Tensor(logits.T), ad.Tensor(state), x_u, drop_rate,
                               1, np.random.default_rng(seed), every_item).data

    exact = run(0.0, 0)
    draws = 10_000
    samples = np.empty((draws,) + exact.shape)
    for t in range(draws):
        samples[t] = run(0.5, t)

    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    z = np.abs(samples.mean(axis=0) - exact) / stderr
    worst = float(z.max())
    assert (z <= 3.0).all()
    report("dropout-unbiasedness", True, f"max |z| = {worst:.2f} over {draws} draws")


# ---------------------------------------------------------------------------
# Criteria: learning signal and cold-start direction (shared training runs)
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2, 3, 4)


def _synthetic_config(seed: int) -> SyntheticConfig:
    return SyntheticConfig(
        num_users=2000,
        num_items=500,
        num_clusters=10,
        mean_interactions=5.0,
        degree_exponent=0.7,
        modality_dims={"image": 24, "video": 24, "text": 16},
        within_cluster_prob=0.85,
        noise_std=0.25,
        seed=seed,
    )


def _train_config(seed: int) -> TrainConfig:
    return TrainConfig(
        d=32,
        k_hyper=32,
        k_knn=10,
        batch_size=256,
        max_epochs=10,
        patience=3,
        learning_rate=3e-3,
        seed=seed,
    )


@pytest.fixture(scope="module")
def seed_comparison():
    """Test recall (all users, cold slice) for full / wo-hem / bpr-mf per seed."""
    started = time.monotonic()
    results = {}
    for seed in SEEDS:
        ds, feats = generate_synthetic(_synthetic_config(seed))
        ds = split_dataset(ds, seed=seed)
        per_variant = {}
        for variant in ("full", "wo-hem", "bpr-mf"):
            cfg = replace(_train_config(seed), **ABLATIONS[variant])
            result = fit(ds, feats, cfg)
            views = build_views(ds, feats, cfg)
            user_emb, item_emb = compute_embeddings(result.params, views, cfg)
            recall = evaluation.evaluate(user_emb, item_emb, ds, ks=(20,))
            cold = evaluation.evaluate(
                user_emb, item_emb, ds, slice_name=evaluation.SLICE_COLD, ks=(20,)
            )
            per_variant[variant] = (
                recall.record(evaluation.SLICE_ALL, 20).recall,
                cold.record(evaluation.SLICE_COLD, 20).recall,
            )
        results[seed] = per_variant
    return results, time.monotonic() - started


def test_learning_signal(seed_comparison):
    results, elapsed = seed_comparison
    beats_hem = sum(results[s]["full"][0] > results[s]["wo-hem"][0] for s in SEEDS)
    beats_mf = sum(results[s]["full"][0] > results[s]["bpr-mf"][0] for s in SEEDS)
    detail = (
        f"full>wo-hem in {beats_hem}/5 seeds, full>bpr-mf in {beats_mf}/5, "
        f"15 runs in {elapsed:.0f}s"
    )
    report("learning-signal", beats_hem >= 4 and beats_mf >= 4 and elapsed < 600.0, detail)


def test_cold_start_direction(seed_comparison):
    results, _ = seed_comparison
    wins = sum(results[s]["full"][1] >= results[s]["bpr-mf"][1] for s in SEEDS)
    report("cold-start-direction", wins >= 4, f"full >= bpr-mf on cold slice in {wins}/5 seeds")


# ---------------------------------------------------------------------------
# Criterion: determinism of cmd_train
# ---------------------------------------------------------------------------


def test_train_determinism_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    gen = [
        "generate", "--out-dir", str(data_dir),
        "--num-users", "120", "--num-items", "60", "--num-clusters", "4",
        "--mean-interactions", "6", "--image-dim", "8", "--video-dim", "0",
        "--text-dim", "6", "--seed", "21",
    ]
    assert main(gen) == 0
    train = [
        "train", "--data-dir", str(data_dir),
        "--d", "8", "--k-hyper", "4", "--k-knn", "3", "--batch-size", "64",
        "--max-epochs", "3", "--patience", "5", "--seed", "21",
    ]
    assert main(train + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(train + ["--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
    report("determinism", a == b, f"{len(a)} checkpoint bytes identical")
