"""Parameter init, negative sampling, the multi-view forward pass with
view flags and loss weights, the forward pass bit for bit against its
generic-op tape, gradient correctness against finite differences, Adam,
and the fit loop."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr import autodiff as ad
from mhcr import evaluation, training
from mhcr.dataio import (MODALITIES, TEST, TRAIN, VAL, InteractionDataset, SyntheticConfig,
                         generate_synthetic, split_dataset)
from mhcr.errors import ConfigError, DataError, NumericError
from mhcr.objectives import (
    LossBreakdown,
    bpr_loss,
    embedding_l2,
    graph_hyper_contrastive_loss,
    hyper_contrastive_loss,
    total_loss,
)
from mhcr.training import (
    _ADAM_BLOCK_ELEMENTS,
    Adam,
    Batch,
    TrainConfig,
    backward_and_step,
    build_views,
    check_modality_count,
    compute_embeddings,
    evaluate_params,
    fit,
    forward,
    init_parameters,
    sample_negatives,
    train_item_sets,
    variant_label,
)

from ablations import ABLATIONS
from conftest import (assert_grad_close, finite_difference, in_float64, micro_batch, micro_config,
                      micro_dataset)
from oracles import sample_negatives_by_user, tape_forward, train_sets_by_user

MASK_SEED = 1234
VIEW_FLAGS = ("use_ui", "use_ii", "use_hem")
VIEW_FUNCTIONS = ("propagate_ui", "propagate_items", "hypergraph_pass")


def make_params(cfg, ds, views, seed=None):
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)


def _rejecting_dataset(seed, n=40):
    """62 users over n items: user 0 trained on every item but one, user 1
    on every item, so their draws often reject 100 times and fall back, and
    users 2.. a sparse synthetic set split by `seed`."""
    sparse, _ = generate_synthetic(SyntheticConfig(
        num_users=60, num_items=n, num_clusters=3, mean_interactions=6.0,
        modality_dims={"image": 2}, seed=seed))
    users = np.concatenate([np.zeros(n - 1, int), np.ones(n, int), 2 + sparse.users])
    items = np.concatenate([np.arange(n - 1), np.arange(n), sparse.items])
    ds = split_dataset(InteractionDataset(62, n, users, items), seed=seed)
    ds.split[ds.users < 2] = TRAIN
    return ds


def _sampler_case(case):
    """The dataset, batch and generator seed of one sampler case, and the
    fallbacks it must count (None: at least one)."""
    if case.isdigit():
        seed = int(case)
        rng = np.random.default_rng(seed)
        batch = np.concatenate([[0, 1, 0], rng.integers(62, size=300), [1]])
        return _rejecting_dataset(seed), batch, seed, None
    rejecting = _rejecting_dataset(0)
    # user 0 trained on item 0, user 1 on nothing, so user 1 never rejects
    only_user_0 = InteractionDataset(2, 40, np.array([0]), np.array([0]), split=np.array([TRAIN]))
    return {
        "one-user": (rejecting, np.array([0]), 0, 0),
        "all-fall-back": (rejecting, np.ones(5, int), 0, 5),
        "no-rejection": (only_user_0, np.ones(50, int), 0, 0),
        "one-item": (replace(only_user_0, num_items=1), np.array([1, 0, 1, 1, 0]), 0, 2),
        "last-falls-back": (rejecting, np.array([5, 9, 30, 2, 61, 1]), 0, 1),
    }[case]


class TestInit:
    def test_deterministic(self, micro):
        ds, _, cfg, views = micro
        a = make_params(cfg, ds, views, seed=5)
        b = make_params(cfg, ds, views, seed=5)
        for (name, ta), tb in zip(a.tensors().items(), b.tensors().values()):
            assert np.array_equal(ta.data, tb.data), name

    def test_different_seeds_differ(self, micro):
        ds, _, cfg, views = micro
        a = make_params(cfg, ds, views, seed=5)
        b = make_params(cfg, ds, views, seed=6)
        assert not np.array_equal(a.e0.data, b.e0.data)

    def test_row_norms_concentrate_near_one(self):
        cfg = TrainConfig(d=64)
        params = init_parameters(cfg, 500, 500, {"image": 16})
        norms = np.linalg.norm(params.e0.data, axis=1)
        assert 0.8 <= norms.mean() <= 1.2


class TestNegativeSampling:
    def test_avoids_train_items(self, micro):
        ds, _, _, _ = micro
        rng = np.random.default_rng(0)
        users = np.repeat(np.arange(4), 25)
        negs = sample_negatives(ds, users, rng, train_item_sets(ds))
        sets = train_sets_by_user(ds)
        for u, j in zip(users.tolist(), negs.tolist()):
            assert j not in sets[u]

    @pytest.mark.parametrize("case", [*map(str, range(6)), "one-user", "all-fall-back",
                                      "no-rejection", "one-item", "last-falls-back"])
    def test_matches_the_user_by_user_loop(self, case, caplog):
        # negatives, the generator's end state, the fallback count and its warning
        ds, batch, seed, want = _sampler_case(case)
        keys, sets = train_item_sets(ds), train_sets_by_user(ds)
        fast, loop = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        with caplog.at_level("WARNING", logger="mhcr.training"):
            negatives = sample_negatives(ds, batch, fast, keys)
        expected, fallbacks = sample_negatives_by_user(ds, batch, loop, sets)
        assert np.array_equal(negatives, expected)
        assert fast.bit_generator.state == loop.bit_generator.state
        assert fallbacks > 0 if want is None else fallbacks == want
        assert caplog.messages == (
            [f"negative sampling fell back to uniform for {fallbacks} draw(s)"] if fallbacks else []
        )

    def test_all_items_seen_falls_back(self):
        ds = InteractionDataset(
            1, 2, np.array([0, 0]), np.array([0, 1]), split=np.array([0, 0])
        )
        negs = sample_negatives(
            ds, np.array([0, 0, 0]), np.random.default_rng(1), train_item_sets(ds)
        )
        assert set(negs.tolist()) <= {0, 1}

    def test_reproducible_given_seed(self, micro):
        ds, _, _, _ = micro
        users = np.repeat(np.arange(4), 10)
        sets = train_item_sets(ds)
        a = sample_negatives(ds, users, np.random.default_rng(3), sets)
        b = sample_negatives(ds, users, np.random.default_rng(3), sets)
        assert np.array_equal(a, b)


def alone(cfg, *flags):
    """`cfg` with only the views `flags` on: `forward`'s fused rows are then
    their sum, and with one flag that view itself."""
    return replace(cfg, **{flag: flag in flags for flag in VIEW_FLAGS})


def per_modality(views):
    """One `ViewInputs` per modality, holding that modality alone."""
    return [replace(views, smoothed=[s], features=[f])
            for s, f in zip(views.smoothed, views.features)]


def capture_views(monkeypatch) -> dict:
    """Record each view tensor `forward` computes, by view function name, in
    call order: one `hypergraph_pass` per modality."""
    calls = {name: [] for name in VIEW_FUNCTIONS}
    for name in VIEW_FUNCTIONS:
        def record(*args, _name=name, _view=getattr(training, name)):
            calls[_name].append(_view(*args))
            return calls[_name][-1]
        monkeypatch.setattr(training, name, record)
    return calls


class TestForward:
    def test_eval_deterministic(self, micro):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        a = forward(params, views, cfg, mode="eval")
        b = forward(params, views, cfg, mode="eval")
        assert np.array_equal(a.fused.data, b.fused.data)

    def test_ui_only_reduces_to_bpr_on_ui_scores(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(use_ii=False, use_hem=False)
        views = in_float64(build_views, ds, feats, cfg)
        params = in_float64(make_params, cfg, ds, views)
        batch = micro_batch()
        result = forward(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
        assert result.breakdown.l_hc == 0.0
        assert result.breakdown.l_ghc == 0.0

        local = {node: row for row, node in enumerate(result.nodes.tolist())}
        e_ui = result.fused.data  # the UI view alone is on

        def rows(nodes):
            return e_ui[[local[node] for node in nodes.tolist()]]

        u = rows(batch.users)
        pos = rows(ds.num_users + batch.pos_items)
        neg = rows(ds.num_users + batch.neg_items)
        margin = (u * neg).sum(axis=1) - (u * pos).sum(axis=1)
        expected = np.logaddexp(0.0, margin).mean()
        assert result.breakdown.l_bpr == pytest.approx(expected, abs=1e-12)
        assert result.breakdown.total == pytest.approx(
            expected + cfg.lambda_reg * result.breakdown.l_reg, abs=1e-12
        )

    def test_hem_off_forces_contrastive_zero(self, micro, monkeypatch):
        ds, _, _, views = micro
        cfg = micro_config(use_hem=False)
        params = make_params(cfg, ds, views)
        calls = capture_views(monkeypatch)
        result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        assert result.breakdown.l_hc == 0.0
        assert result.breakdown.l_ghc == 0.0
        # no hypergraph view: the fused rows are the two graph views' sum
        assert calls["hypergraph_pass"] == []
        (e_ui,), (e_ii,) = calls["propagate_ui"], calls["propagate_items"]
        assert np.array_equal(result.fused.data, e_ui.data + e_ii.data)

    def test_disabling_one_view_leaves_others_bitwise_identical(self, micro, monkeypatch):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        batch = micro_batch()
        calls = capture_views(monkeypatch)
        forward(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
        full = {name: [view.data for view in outputs] for name, outputs in calls.items()}
        assert len(full["hypergraph_pass"]) == len(views.features)
        for flag, off in zip(VIEW_FLAGS, VIEW_FUNCTIONS):
            for outputs in calls.values():
                outputs.clear()
            ablated_cfg = micro_config(**{flag: False})
            forward(params, views, ablated_cfg, batch=batch, mode="train", rng=MASK_SEED)
            assert calls[off] == [], flag
            for name in VIEW_FUNCTIONS:
                if name != off:
                    assert len(calls[name]) == len(full[name]) > 0, (flag, name)
                    for got, expected in zip(calls[name], full[name]):
                        assert np.array_equal(got.data, expected), (flag, name)

    def test_fusion_is_sum_of_views(self, micro):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        result = forward(params, views, cfg, mode="eval")
        e_ui, e_ii, e_h = (forward(params, views, alone(cfg, flag), mode="eval").fused.data
                           for flag in VIEW_FLAGS)
        views_sum = e_ui + e_ii + e_h
        assert np.array_equal(result.fused.data, views_sum)
        # the hypergraph view adds the modalities' stacks, left to right
        hem = alone(cfg, "use_hem")
        image, text = (forward(params, one, hem, mode="eval").fused.data
                       for one in per_modality(views))
        assert np.array_equal(e_h, image + text)
        user_emb, item_emb = compute_embeddings(params, views, cfg)
        assert np.array_equal(np.vstack([user_emb, item_emb]), views_sum)

    def test_compute_embeddings_records_no_tape(self, micro, monkeypatch):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        passes = []

        def recorded_forward(*args, **kwargs):
            passes.append(forward(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(training, "forward", recorded_forward)
        calls = capture_views(monkeypatch)
        compute_embeddings(params, views, cfg)
        (result,) = passes
        assert len(calls["hypergraph_pass"]) == len(views.features)
        outputs = [*calls["propagate_ui"], *calls["propagate_items"], *calls["hypergraph_pass"],
                   result.fused]
        assert len(outputs) == len(views.features) + 3
        for tensor in outputs:
            assert tensor._backward is None and tensor._parents == ()
            assert not tensor.requires_grad
        assert all(t.requires_grad and t.grad is None for t in params.tensors().values())

    @pytest.mark.parametrize("weight, loss, part", [
        ("lambda_hc", "hyper_contrastive_loss", "l_hc"),
        ("lambda_ghc", "graph_hyper_contrastive_loss", "l_ghc"),
    ])
    def test_zero_weight_skips_its_loss(self, micro, monkeypatch, weight, loss, part):
        ds, _, _, views = micro
        cfg = micro_config(**{weight: 0.0})
        params = make_params(cfg, ds, views)
        calls = []
        original = getattr(training, loss)
        monkeypatch.setattr(training, loss, lambda *a, **k: calls.append(a) or original(*a, **k))
        result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        assert calls == [] and getattr(result.breakdown, part) == 0.0
        forward(params, views, micro_config(), batch=micro_batch(), mode="train", rng=MASK_SEED)
        assert len(calls) == 1

    def test_ghc_needs_a_graph_view(self, micro):
        # with only the hypergraph view on there is no graph side to contrast
        # with: the loss is skipped, so its weight changes nothing
        ds, feats, _, views = micro
        hem_only = micro_config(use_ui=False, use_ii=False, max_epochs=2)
        result = forward(make_params(hem_only, ds, views), views, hem_only, batch=micro_batch(),
                         mode="train", rng=MASK_SEED)
        assert result.breakdown.l_ghc == 0.0 and result.breakdown.l_hc > 0.0
        weighted, unweighted = (fit(ds, feats, replace(hem_only, lambda_ghc=weight))
                                for weight in (0.01, 0.0))
        for (name, a), b in zip(weighted.params.tensors().items(),
                                unweighted.params.tensors().values()):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert [e.loss for e in weighted.epochs] == [e.loss for e in unweighted.epochs]
        assert all(e.loss.l_ghc == 0.0 for e in weighted.epochs)

    def test_hc_requires_two_modalities(self, micro):
        # one-modality views are refused before forward when the
        # cross-modal loss is on; with it off, forward trains without it
        ds, feats, _, _ = micro
        cfg = micro_config()
        views = build_views(ds, feats[:1], cfg)
        with pytest.raises(ConfigError, match="2 modalities"):
            check_modality_count(cfg, len(views.features))
        no_hc = micro_config(lambda_hc=0.0)
        params = init_parameters(no_hc, ds.num_users, ds.num_items, views.modality_dims)
        result = forward(params, views, no_hc, batch=micro_batch(), mode="train", rng=MASK_SEED)
        assert result.breakdown.l_hc == 0.0 and result.breakdown.l_ghc > 0.0


def batch_row_instance():
    """40 users x 30 items; a 6-interaction batch reads a strict subset of
    the nodes, so narrowing to batch rows is exercised."""
    ds, feats = generate_synthetic(
        SyntheticConfig(
            num_users=40,
            num_items=30,
            num_clusters=3,
            mean_interactions=5.0,
            modality_dims={"image": 6, "text": 4},
            seed=8,
        )
    )
    ds = split_dataset(ds, seed=8)
    users, items = ds.split_pairs(TRAIN)
    idx = np.random.default_rng(8).choice(users.size, size=6, replace=False)
    negs = sample_negatives(ds, users[idx], np.random.default_rng(9), train_item_sets(ds))
    return ds, feats, Batch(users=users[idx], pos_items=items[idx], neg_items=negs)


def full_node_losses(params, views, cfg, batch, num_users):
    """The training losses recomputed from eval-mode (all-node) views
    gathered at the batch's global node ids, the contrastive losses over
    the unique users and the unique positives. Each view is the fused rows
    of an eval-mode `forward` with that view alone on."""
    full = forward(params, views, cfg, mode="eval")
    hem = alone(cfg, "use_hem")
    user_nodes = np.asarray(batch.users)
    pos_nodes = num_users + np.asarray(batch.pos_items)
    neg_nodes = num_users + np.asarray(batch.neg_items)
    l_bpr = bpr_loss(full.fused, user_nodes, pos_nodes, neg_nodes)
    pools = (np.unique(user_nodes), np.unique(pos_nodes))
    l_hc = l_ghc = 0.0
    if cfg.use_hem and cfg.lambda_hc > 0:
        stacks = [forward(params, one, hem, mode="eval").fused for one in per_modality(views)]
        assert len(stacks) == len(views.features) >= 2
        l_hc = hyper_contrastive_loss(stacks, pools, cfg.tau)
    if cfg.use_hem and cfg.lambda_ghc > 0 and (cfg.use_ui or cfg.use_ii):
        e_graph = forward(params, views, replace(cfg, use_hem=False), mode="eval").fused
        e_h = forward(params, views, hem, mode="eval").fused
        l_ghc = graph_hyper_contrastive_loss(e_graph, e_h, pools, cfg.tau)
    reg_nodes = np.concatenate([user_nodes, pos_nodes, neg_nodes])
    l_reg = embedding_l2(params.e0, reg_nodes)
    return total_loss(l_bpr, l_hc, l_ghc, l_reg, cfg.lambda_hc, cfg.lambda_ghc, cfg.lambda_reg)


class TestBatchRows:
    """Train mode computes only the rows the losses read; without dropout
    its losses and gradients equal those of the all-node computation."""

    @pytest.mark.parametrize("hyper_steps", [1, 2])
    @pytest.mark.parametrize("layers", [0, 1, 3])
    @pytest.mark.parametrize("variant", ["full", "wo-ui", "wo-ii", "wo-hem", "bpr-mf"])
    def test_losses_and_gradients_match_all_node_views(self, variant, layers, hyper_steps):
        ds, feats, batch = batch_row_instance()
        cfg = replace(
            micro_config(layers=layers, hyper_steps=hyper_steps, drop_rate=0.0,
                         lambda_hc=0.3, lambda_ghc=0.3),
            **ABLATIONS[variant],
        )
        views = in_float64(build_views, ds, feats, cfg)
        params = in_float64(make_params, cfg, ds, views)

        result = forward(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
        assert result.nodes.size < ds.num_users + ds.num_items
        expected_total, expected = full_node_losses(params, views, cfg, batch, ds.num_users)
        for part in LossBreakdown.CSV_FIELDS:
            assert getattr(result.breakdown, part) == pytest.approx(
                getattr(expected, part), rel=1e-12, abs=0.0
            ), part

        params.zero_grad()
        expected_total.backward()
        expected_grads = {name: t.grad for name, t in params.tensors().items()}
        params.zero_grad()
        result.total.backward()
        for name, tensor in params.tensors().items():
            if expected_grads[name] is None:
                assert tensor.grad is None or not tensor.grad.any(), name
                continue
            scale = np.abs(expected_grads[name]).max()
            assert np.abs(tensor.grad - expected_grads[name]).max() <= 1e-12 * scale, name

    def test_nodes_are_the_unique_batch_rows(self, monkeypatch):
        ds, feats, batch = batch_row_instance()
        cfg = micro_config()
        views = build_views(ds, feats, cfg)
        calls = capture_views(monkeypatch)
        result = forward(
            make_params(cfg, ds, views), views, cfg, batch=batch, mode="train", rng=MASK_SEED
        )
        items = np.union1d(batch.pos_items, batch.neg_items)
        assert np.array_equal(
            result.nodes, np.concatenate([np.unique(batch.users), ds.num_users + items])
        )
        assert [len(calls[name]) for name in VIEW_FUNCTIONS] == [1, 1, len(views.features)]
        for name in VIEW_FUNCTIONS:
            for view in calls[name]:
                assert view.shape == (result.nodes.size, cfg.d), name
        assert result.fused.shape == (result.nodes.size, cfg.d)
        eval_nodes = forward(make_params(cfg, ds, views), views, cfg, mode="eval").nodes
        assert np.array_equal(eval_nodes, np.arange(ds.num_users + ds.num_items))


LOSSES = {"hyper_contrastive_loss": hyper_contrastive_loss,
          "graph_hyper_contrastive_loss": graph_hyper_contrastive_loss}
CONTRASTIVE = tuple(LOSSES)


def capture_contrastive(monkeypatch) -> dict:
    """Record each contrastive loss call `forward` makes, by name, as
    (arguments, loss tensor)."""
    calls = {}
    for name in CONTRASTIVE:
        def record(*args, _name=name, _loss=getattr(training, name)):
            calls[_name] = (args, _loss(*args))
            return calls[_name][1]
        monkeypatch.setattr(training, name, record)
    return calls


class TestContrastivePools:
    """Each contrastive loss scores the batch's unique users and its unique
    positives as two pools."""

    def run(self, monkeypatch, batch, name=None):
        ds, feats, _ = batch_row_instance()
        cfg = micro_config(lambda_hc=0.3, lambda_ghc=0.3)
        views = build_views(ds, feats, cfg)
        params = make_params(cfg, ds, views)
        calls = capture_contrastive(monkeypatch)
        result = forward(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
        grads = None
        if name is not None:
            params.zero_grad()
            calls[name][1].backward()
            grads = [t.grad for t in params.tensors().values()]
        return ds, result, calls, grads

    def test_pools_are_the_unique_users_and_positives(self, monkeypatch):
        _, _, batch = batch_row_instance()
        ds, result, calls, _ = self.run(monkeypatch, batch)
        for name, at in zip(CONTRASTIVE, (1, 2)):
            users, positives = calls[name][0][at]
            assert np.array_equal(result.nodes[users], np.unique(batch.users)), name
            assert np.array_equal(result.nodes[positives],
                                  ds.num_users + np.unique(batch.pos_items)), name

    @pytest.mark.parametrize("name", CONTRASTIVE)
    def test_repeated_triples_change_nothing(self, monkeypatch, name):
        _, _, batch = batch_row_instance()
        repeated = Batch(*(np.concatenate([part, part[[0, 3, 0]]]) for part in
                           (batch.users, batch.pos_items, batch.neg_items)))
        _, result, _, grads = self.run(monkeypatch, batch, name)
        _, twice, _, twice_grads = self.run(monkeypatch, repeated, name)
        assert np.array_equal(twice.nodes, result.nodes)
        assert twice.breakdown.l_hc == result.breakdown.l_hc
        assert twice.breakdown.l_ghc == result.breakdown.l_ghc
        for got, expected in zip(twice_grads, grads):
            assert (got is None) == (expected is None)
            assert got is None or np.array_equal(got, expected)

    def test_one_positive_item_adds_a_zero_term(self, monkeypatch):
        _, _, batch = batch_row_instance()
        one_item = Batch(batch.users, np.full_like(batch.pos_items, batch.pos_items[0]),
                         batch.neg_items)
        _, result, calls, _ = self.run(monkeypatch, one_item)
        for name, part in zip(CONTRASTIVE, ("l_hc", "l_ghc")):
            *inputs, (users, positives), tau = calls[name][0]
            assert positives.size == 1
            loss, score = getattr(result.breakdown, part), LOSSES[name]
            assert np.isfinite(loss) and loss > 0.0
            assert float(score(*inputs, [positives], tau).data) == pytest.approx(0.0, abs=1e-12)
            assert loss == pytest.approx(float(score(*inputs, [users], tau).data), rel=1e-12)


@pytest.fixture(scope="module")
def three_modality_batch():
    """40 users x 30 items with three modalities, their views and an
    8-interaction batch."""
    ds, feats = generate_synthetic(SyntheticConfig(
        num_users=40, num_items=30, num_clusters=3, mean_interactions=5.0,
        modality_dims={"image": 6, "video": 5, "text": 4}, seed=4,
    ))
    ds = split_dataset(ds, seed=4)
    users, items = ds.split_pairs(TRAIN)
    idx = np.random.default_rng(4).choice(users.size, size=8, replace=False)
    negs = sample_negatives(ds, users[idx], np.random.default_rng(5), train_item_sets(ds))
    views = in_float64(build_views, ds, feats, micro_config())
    return ds, views, Batch(users=users[idx], pos_items=items[idx], neg_items=negs)


class TestAgainstGenericTape:
    """`forward` against `oracles.tape_forward`, which builds the same model
    from generic tape ops: matmul projections, the item view concatenated
    under zero user rows, zero tensors for disabled views, two-term sums,
    the UI view as spmm, gather and add nodes, and the hypergraph view with
    the incidence softmax, D_e and each broadcast as nodes of their own.
    The fused rows, the loss breakdown and every
    parameter gradient agree to a relative 1e-12: the model nodes project
    inside the views and sum in another order than the generic ops."""

    @pytest.mark.parametrize("drop_rate", [0.0, 0.5])
    @pytest.mark.parametrize("hyper_steps", [1, 2])
    @pytest.mark.parametrize("layers", [0, 2])
    @pytest.mark.parametrize(
        "variant", ["full", "wo-ui", "wo-ii", "wo-hem", "bpr-mf", "hem-only"]
    )
    def test_bitwise(self, three_modality_batch, variant, layers, hyper_steps, drop_rate):
        ds, views, batch = three_modality_batch
        cfg = micro_config(layers=layers, hyper_steps=hyper_steps, drop_rate=drop_rate,
                           lambda_hc=0.3, lambda_ghc=0.3)
        if variant == "hem-only":
            cfg = replace(cfg, use_ui=False, use_ii=False)
        else:
            cfg = replace(cfg, **ABLATIONS[variant])
        params = in_float64(make_params, cfg, ds, views)
        outs = []
        for run in (forward, tape_forward):
            result = run(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
            params.zero_grad()
            result.total.backward()
            outs.append(
                [run(params, views, cfg, mode="eval").fused.data, result.fused.data,
                 np.array(astuple(result.breakdown))]
                + [t.grad for t in params.tensors().values()]
            )
        names = ["eval fused", "fused", "breakdown", *params.tensors()]
        for name, got, expected in zip(names, *outs):
            assert (got is None) == (expected is None), name
            if got is not None:
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), name


class TestGradients:
    """Analytic gradients vs central finite differences (h=1e-4) with
    dropout masks pinned by a fixed seed."""

    def check_all_tensors(self, cfg, batch=None):
        ds, feats = micro_dataset()
        views = in_float64(build_views, ds, feats, cfg)
        params = in_float64(init_parameters, cfg, ds.num_users, ds.num_items, views.modality_dims)
        batch = batch or micro_batch()

        def loss_value() -> float:
            return float(forward(
                params, views, cfg, batch=batch, mode="train", rng=MASK_SEED
            ).total.data)

        result = forward(params, views, cfg, batch=batch, mode="train", rng=MASK_SEED)
        params.zero_grad()
        result.total.backward()
        for name, tensor in params.tensors().items():
            numeric = finite_difference(loss_value, tensor.data)
            if tensor.grad is None:
                assert np.abs(numeric).max() < 1e-8, name
                continue
            assert_grad_close(tensor.grad, numeric, name)

    def test_full_model_with_dropout_masks_fixed(self):
        self.check_all_tensors(micro_config())

    def test_bpr_only_configuration(self):
        self.check_all_tensors(
            micro_config(use_ii=False, use_hem=False, layers=0)
        )

    def test_contrastive_only_weights(self):
        # exaggerate the contrastive weights so their paths dominate
        self.check_all_tensors(micro_config(lambda_hc=0.5, lambda_ghc=0.5, drop_rate=0.0))


def check_adam_against_textbook_formula(shape):
    rng = np.random.default_rng(21)
    p = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    optimizer = Adam({"p": p}, learning_rate=0.0123)
    data, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    for t in (1, 2, 3):
        g = rng.normal(size=shape)
        p.grad = g.copy()
        optimizer.step()
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        data -= 0.0123 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(p.data, data), t
        assert np.array_equal(optimizer.m["p"], m), t
        assert np.array_equal(optimizer.v["p"], v), t
        assert np.array_equal(p.grad, g), t


BLOCK = _ADAM_BLOCK_ELEMENTS


class TestOptimizer:
    def test_adam_steps_match_textbook_formula_bitwise(self):
        check_adam_against_textbook_formula((40, 30))

    @pytest.mark.parametrize(
        "shape",
        [
            (5 * BLOCK // 64 + 7, 32),  # 2.5 blocks of 1024 rows, the last one partial
            (2 * (BLOCK // 7) + 100, 7),  # narrow rows: two blocks of 4681 rows and 100
            (3, BLOCK + 5),  # rows wider than a block: one row per block
            (9, 4),  # smaller than one block
        ],
    )
    def test_adam_row_blocks_match_textbook_formula_bitwise(self, shape):
        check_adam_against_textbook_formula(shape)

    def test_zero_learning_rate_keeps_parameters(self, micro):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        before = {name: t.data.copy() for name, t in params.tensors().items()}
        optimizer = Adam(params.tensors(), learning_rate=0.0)
        result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        backward_and_step(result.total, params, optimizer)
        for name, t in params.tensors().items():
            assert np.array_equal(t.data, before[name]), name

    def test_parameters_stay_finite_over_100_steps(self, micro):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        optimizer = Adam(params.tensors(), cfg.learning_rate)
        rng = np.random.default_rng(0)
        batch = micro_batch()
        for _ in range(100):
            result = forward(params, views, cfg, batch=batch, mode="train", rng=rng)
            backward_and_step(result.total, params, optimizer)
        params.check_finite()

    @pytest.mark.parametrize("tau", [1e-4, 1e-3])
    def test_tiny_temperature_trains_finite(self, micro, tau):
        ds, feats, _, _ = micro
        cfg = micro_config(tau=tau)
        views = build_views(ds, feats, cfg)
        params = make_params(cfg, ds, views)
        optimizer = Adam(params.tensors(), cfg.learning_rate)
        rng = np.random.default_rng(0)
        for _ in range(5):
            result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=rng)
            assert np.isfinite(result.breakdown.total)
            backward_and_step(result.total, params, optimizer)
        params.check_finite()

    def test_nan_gradients_raise(self, micro):
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        params.e0.data[0, 0] = np.nan
        optimizer = Adam(params.tensors(), cfg.learning_rate)
        with np.errstate(invalid="ignore"):
            result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
            with pytest.raises(NumericError):
                backward_and_step(result.total, params, optimizer)

    def test_overflowing_update_raises(self, micro):
        # the loss and gradients are finite; the Adam update overflows E0:
        # at learning rate 1e308, lr * m_hat overflows once a gradient entry
        # passes about 1.8; E0 scaled by 1e6 gets about 20 from the L2 term
        ds, _, cfg, views = micro
        params = make_params(cfg, ds, views)
        params.e0.data *= 1e6
        optimizer = Adam(params.tensors(), learning_rate=1e308)
        result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="parameter"):
            backward_and_step(result.total, params, optimizer)

    def test_overflowing_loss_raises(self, micro):
        # the weighted total overflows while every gradient stays finite,
        # so at learning_rate 0 the parameters never show it
        ds, feats, _, _ = micro
        cfg = micro_config(tau=1e8, lambda_hc=0.0, lambda_ghc=1e308, learning_rate=0.0)
        views = build_views(ds, feats, cfg)
        params = make_params(cfg, ds, views)
        optimizer = Adam(params.tensors(), cfg.learning_rate)
        with np.errstate(over="ignore"):
            result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        assert result.breakdown.total == np.inf
        with pytest.raises(NumericError, match="loss"):
            backward_and_step(result.total, params, optimizer)

    @pytest.mark.parametrize("learning_rate", [1e308, 1e200])
    def test_overflowing_learning_rate_raises_in_fit(self, micro, learning_rate):
        # 1e308 overflows the parameters in the first Adam step; 1e200 leaves
        # them finite but so large that the next step's loss overflows
        ds, feats, _, _ = micro
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fit(ds, feats, micro_config(learning_rate=learning_rate, max_epochs=2))


class TestVariants:
    def test_labels(self):
        assert variant_label(TrainConfig()) == "MHCR"
        assert variant_label(TrainConfig(use_hem=False)) == "w/o HEM"
        assert variant_label(TrainConfig(use_ui=False)) == "w/o UI"
        assert variant_label(TrainConfig(use_ii=False)) == "w/o II"
        assert variant_label(TrainConfig(lambda_hc=0.0)) == "w/o HC"
        assert variant_label(TrainConfig(lambda_ghc=0.0)) == "w/o GHC"
        assert variant_label(TrainConfig(lambda_hc=0.0, lambda_ghc=0.0)) == "w/o HC+GHC"
        assert variant_label(TrainConfig(use_ii=False, use_hem=False)) == "w/o II+HEM"
        assert variant_label(TrainConfig(use_ii=False, use_hem=False, layers=0)) == "BPR-MF"

    def test_bpr_mf_scores_come_from_raw_id_embeddings(self, micro):
        ds, _, _, views = micro
        cfg = replace(micro_config(), **ABLATIONS["bpr-mf"])
        params = make_params(cfg, ds, views)
        result = forward(params, views, cfg, mode="eval")
        assert np.array_equal(result.fused.data, params.e0.data)


# tiny, ordinary and huge magnitudes
_POSITIVE = st.sampled_from([1e-300, 1e-8, 1e8, 1e300, 1e308]) | st.floats(1e-6, 1e3)
_NON_NEGATIVE = st.just(0.0) | _POSITIVE


class TestConfigContract:
    @pytest.mark.parametrize(
        "override",
        [
            {"tau": float("nan")},
            {"tau": float("inf")},
            {"tau": -float("inf")},
            {"tau": 0.0},
            {"tau": -1.0},
            {"lambda_ghc": float("nan")},
            {"lambda_reg": float("inf")},
            {"lambda_hc": -1.0},
            {"lambda_ghc": -1.0},
            {"lambda_reg": -1.0},
            {"learning_rate": float("inf")},
            {"drop_rate": -0.1},
            {"use_ui": False, "use_ii": False, "use_hem": False},
            {"k_hyper": 0},
            {"k_knn": 0},
            {"hyper_steps": 0},
            {"layers": -1},
            {"d": 0},
            {"seed": -1},
        ],
        ids=["tau-nan", "tau-inf", "tau-neginf", "tau-0", "tau-negative", "lambda_ghc-nan",
             "lambda_reg-inf", "lambda_hc-negative", "lambda_ghc-negative", "lambda_reg-negative",
             "learning_rate-inf", "drop_rate-negative", "no-view", "k_hyper-0", "k_knn-0",
             "hyper_steps-0", "layers-negative", "d-0", "seed-negative"],
    )
    def test_rejected(self, override):
        with pytest.raises(ConfigError):
            TrainConfig(**override)
        with pytest.raises(ConfigError):
            replace(TrainConfig(), **override)

    @pytest.mark.parametrize("variant", sorted(ABLATIONS))
    def test_presets_valid(self, variant):
        # the ablations that the gate, the digest grid and README train
        TrainConfig(**ABLATIONS[variant])

    @given(
        fields=st.fixed_dictionaries(dict(
            d=st.integers(1, 8),
            layers=st.integers(0, 3),
            k_knn=st.integers(1, 25),
            k_hyper=st.integers(1, 8),
            hyper_steps=st.integers(1, 3),
            drop_rate=st.floats(0.0, 1.0, exclude_max=True),
            tau=_POSITIVE,
            lambda_hc=_NON_NEGATIVE,
            lambda_ghc=_NON_NEGATIVE,
            lambda_reg=_NON_NEGATIVE,
            learning_rate=_NON_NEGATIVE,
            batch_size=st.integers(4, 64),
            max_epochs=st.integers(1, 2),
            patience=st.integers(0, 2),
            seed=st.integers(0, 2**16),
            use_ui=st.booleans(),
            use_ii=st.booleans(),
            use_hem=st.booleans(),
        )),
        tags=st.sets(st.sampled_from(MODALITIES), min_size=1),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_config_trains_or_raises_a_typed_error(self, fields, tags, data_seed):
        data = SyntheticConfig(
            num_users=30, num_items=20, num_clusters=3, mean_interactions=4.0,
            modality_dims={tag: 4 for tag in tags}, seed=data_seed,
        )
        ds, feats = generate_synthetic(data)
        ds = split_dataset(ds, seed=data_seed)
        try:
            cfg = TrainConfig(**fields)
            with np.errstate(all="ignore"):
                result = fit(ds, feats, cfg)
        except (ConfigError, DataError, NumericError):
            return
        assert 1 <= len(result.epochs) <= cfg.max_epochs
        for e in result.epochs:
            assert np.isfinite([e.loss.total, e.val_recall20]).all(), e


class TestFit:
    def test_deterministic_end_to_end(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=3, patience=5)
        a = fit(ds, feats, cfg)
        b = fit(ds, feats, cfg)
        for (name, ta), tb in zip(a.params.tensors().items(), b.params.tensors().values()):
            assert np.array_equal(ta.data, tb.data), name
        assert [e.val_recall20 for e in a.epochs] == [e.val_recall20 for e in b.epochs]

    def test_patience_zero_stops_one_epoch_after_best(self, micro):
        # with 6 items every candidate is inside the top-20, so validation
        # recall saturates at epoch 1 and never strictly improves again
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=10, patience=0)
        result = fit(ds, feats, cfg)
        assert result.best_epoch == 1
        assert len(result.epochs) == 2

    def test_max_epochs_bound(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=1, patience=10)
        result = fit(ds, feats, cfg)
        assert len(result.epochs) == 1

    def test_learning_on_planted_clusters(self):
        cfg_data = SyntheticConfig(
            num_users=400,
            num_items=120,
            num_clusters=6,
            mean_interactions=8.0,
            modality_dims={"image": 12, "text": 8},
            seed=3,
        )
        ds, feats = generate_synthetic(cfg_data)
        ds = split_dataset(ds, seed=3)
        cfg = TrainConfig(
            d=16, k_hyper=8, k_knn=5, batch_size=256, max_epochs=8, patience=8, seed=3
        )
        result = fit(ds, feats, cfg)
        assert result.best_val_recall20 > result.initial_val_recall20

    def test_one_modality_trains_only_without_the_cross_modal_loss(self, micro):
        ds, feats, _, _ = micro
        with pytest.raises(ConfigError, match="2 modalities"):
            fit(ds, feats[:1], micro_config(max_epochs=1))
        result = fit(ds, feats[:1], micro_config(lambda_hc=0.0, max_epochs=1))
        assert result.epochs[0].loss.l_hc == 0.0 and result.epochs[0].loss.l_ghc > 0.0

    def test_split_without_validation_pairs_is_rejected(self, micro):
        # with no validation pair every epoch would score 0 and epoch 1 be kept
        ds, feats, cfg, _ = micro
        no_val = replace(ds, split=np.where(ds.split == VAL, TRAIN, ds.split))
        with pytest.raises(DataError, match="no validation interaction"):
            fit(no_val, feats, cfg)

    def test_full_dropout_is_rejected(self):
        # drop_rate=1 would zero every hypergraph message in training only
        with pytest.raises(ConfigError, match="drop_rate"):
            micro_config(drop_rate=1.0)

    def test_restores_best_parameters(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=4, patience=10)
        result = fit(ds, feats, cfg)
        views = build_views(ds, feats, cfg)
        user_emb, item_emb = compute_embeddings(result.params, views, cfg)
        recall = evaluation.mean_recall(user_emb, item_emb, ds, k=20)
        assert recall == pytest.approx(result.best_val_recall20)

    def test_keeps_the_embeddings_of_its_best_epoch(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=4, patience=10)
        result = fit(ds, feats, cfg)
        assert result.best_epoch < len(result.epochs)  # so the last epoch's would differ
        expected = compute_embeddings(result.params, build_views(ds, feats, cfg), cfg)
        for kept, fresh in zip(result.best_embeddings, expected, strict=True):
            assert kept.tobytes() == fresh.tobytes() and kept.shape == fresh.shape
        val = evaluation.mean_recall(*result.best_embeddings, ds, k=20)
        assert val == result.best_val_recall20

    def test_evaluate_params_matches_manual_pipeline(self, micro):
        ds, feats, _, _ = micro
        cfg = micro_config(max_epochs=2)
        result = fit(ds, feats, cfg)
        assert result.params.config == cfg
        views = build_views(ds, feats, cfg)
        user_emb, item_emb = compute_embeddings(result.params, views, cfg)
        for threshold in (3, 4):
            test = evaluation.evaluate(user_emb, item_emb, ds, cold_threshold=threshold)
            cold = evaluation.evaluate(user_emb, item_emb, ds, slice_name=evaluation.SLICE_COLD,
                                       cold_threshold=threshold)
            test.records += cold.records
            report = evaluate_params(result.params, ds, feats, cold_threshold=threshold)
            assert report.to_json() == test.to_json()
        assert report.target_split == TEST
        assert [(r.slice, r.k) for r in report.records] == [
            ("all", 10), ("all", 20), ("cold_start", 10), ("cold_start", 20)
        ]
        assert evaluate_params(result.params, ds, feats).to_json() == evaluate_params(
            result.params, ds, feats, cold_threshold=3).to_json()


class TestStorageType:
    """`init_parameters` and `build_views` store the node-sized state in
    float32, and a training step keeps it there: a silent upcast would cost
    the step its speed and fail no other check. The losses are float64
    scalars, and float64 parameters and views run in float64."""

    @staticmethod
    def step(build):
        ds, feats = micro_dataset()
        cfg = micro_config()
        views = build(build_views, ds, feats, cfg)
        params = build(init_parameters, cfg, ds.num_users, ds.num_items, views.modality_dims)
        optimizer = Adam(params.tensors(), cfg.learning_rate)
        result = forward(params, views, cfg, batch=micro_batch(), mode="train", rng=MASK_SEED)
        backward_and_step(result.total, params, optimizer)
        arrays = {"adjacency": views.adjacency.data, "x_u": views.x_u.data,
                  "fused": result.fused.data}
        for f, smoothed in zip(views.features, views.smoothed):
            arrays.update({f"F_{f.modality}": f.matrix, f"S_{f.modality} F": smoothed})
        for name, t in params.named.items():
            arrays.update({name: t.data, f"grad {name}": t.grad, f"m {name}": optimizer.m[name],
                           f"v {name}": optimizer.v[name]})
            arrays.update({f"scratch {name} {i}": block
                           for i, block in enumerate(optimizer._scratch[name])})
        arrays.update(zip(("users", "items"), compute_embeddings(params, views, cfg)))
        return arrays, result

    @pytest.mark.parametrize("dtype, build", [
        (np.float32, lambda build, *args: build(*args)),
        (np.float64, in_float64),
    ])
    def test_one_step_keeps_the_storage_type(self, dtype, build):
        arrays, result = self.step(build)
        assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, dtype)
        assert result.total.data.dtype == np.float64 and result.total.data.shape == ()
        assert all(type(value) is float for value in astuple(result.breakdown))

    def test_float32_is_the_float64_draw_rounded(self, micro):
        ds, _, cfg, views = micro
        narrow = make_params(cfg, ds, views)
        wide = in_float64(make_params, cfg, ds, views)
        for name, t in narrow.named.items():
            assert np.array_equal(t.data, wide.named[name].data.astype(np.float32)), name
