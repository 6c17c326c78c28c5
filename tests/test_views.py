"""The single-node views against their op-by-op tape composition in
`oracles.py`, the one-node hypergraph pass against its per-broadcast tape,
and finite-difference checks of every view node."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr.dataio import SyntheticConfig, generate_synthetic, split_dataset
from mhcr.errors import ConfigError
from mhcr.hypergraph import build_incidence, hypergraph_pass
from mhcr.item_graph import build_affinity_graph, propagate_items
from mhcr.training import build_views
from mhcr.ui_graph import propagate_ui

from conftest import assert_grad_close, finite_difference, in_float64, micro_config, micro_dataset
from oracles import (
    concat_rows,
    matmul,
    mul,
    per_broadcast_incidence,
    per_broadcast_pass,
    tape_build_incidence,
    tape_hypergraph_pass,
    tape_propagate_items,
    tape_propagate_ui,
    tensor_sum,
)

ROW_CASES = ["all", "subset", "duplicates"]


@pytest.fixture(scope="module")
def instance():
    """The float64 views of 40 users x 30 items, two modalities, d = 5."""
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
    return in_float64(build_views, ds, feats, micro_config(d=5, k_knn=3))


def pick_rows(case: str, n: int, rng: np.random.Generator):
    if case == "all":
        return np.arange(n)
    if case == "subset":
        return np.sort(rng.choice(n, size=n // 3, replace=False))
    return rng.integers(0, n, size=n // 2 + 3)  # unsorted, with repeats


def weighted_sum(out: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    return tensor_sum(mul(out, ad.constant(weights)))


def leaf(data: np.ndarray) -> ad.Tensor:
    return ad.Tensor(data.copy(), requires_grad=True)


def assert_grads_agree(got: np.ndarray, expected: np.ndarray, name: str) -> None:
    scale = np.abs(expected).max()
    assert scale > 0.0, name
    assert np.abs(got - expected).max() <= 1e-12 * scale, name


class TestViewsAgainstTape:
    """UI outputs bit-equal to the tape's; the item and hypergraph views sum
    in another order than their tapes, so their outputs, like every
    gradient, agree to a relative 1e-12."""

    @pytest.mark.parametrize("rows_case", ROW_CASES)
    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_ui(self, instance, layers, rows_case):
        rng = np.random.default_rng(layers)
        graph = instance.adjacency
        e0 = rng.normal(size=(graph.shape[0], 5))
        rows = pick_rows(rows_case, graph.shape[0], rng)
        outs = []
        for propagate in (propagate_ui, tape_propagate_ui):
            x = leaf(e0)
            out = propagate(graph, x, layers, rows)
            if not outs:
                weights = rng.normal(size=out.shape)
            weighted_sum(out, weights).backward()
            outs.append((out.data, x.grad))
        (out, grad), (tape_out, tape_grad) = outs
        assert np.array_equal(out, tape_out)
        assert_grads_agree(grad, tape_grad, "E0")

    @pytest.mark.parametrize("rows_case", ROW_CASES)
    def test_items(self, instance, rows_case):
        # the one node reads the precomputed S_m F_m; the tape projects F_m
        # first and propagates the projection over S_m
        rng = np.random.default_rng(3)
        graphs = [build_affinity_graph(f, 3) for f in instance.features]
        features = [f.matrix for f in instance.features]
        weights = [rng.normal(size=(f.shape[1], 5)) for f in features]
        rows = pick_rows(rows_case, features[0].shape[0], rng)
        outs = []
        for one_node in (True, False):
            leaves = [leaf(w) for w in weights]
            if one_node:
                out = propagate_items(instance.smoothed, leaves, rows, 0)
            else:
                out = tape_propagate_items(graphs, features, leaves, rows)
            if not outs:
                weights_out = rng.normal(size=out.shape)
            weighted_sum(out, weights_out).backward()
            outs.append((out.data, [t.grad for t in leaves]))
        (out, grads), (tape_out, tape_grads) = outs
        assert_grads_agree(out, tape_out, "items")
        for grad, tape_grad in zip(grads, tape_grads):
            assert_grads_agree(grad, tape_grad, "W")

    @pytest.mark.parametrize("rows_case", ROW_CASES)
    @pytest.mark.parametrize("drop_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_hypergraph(self, instance, steps, drop_rate, rows_case):
        if drop_rate == 1.0:  # a rate that drops every message is refused by the config
            with pytest.raises(ConfigError, match="drop_rate"):
                micro_config(drop_rate=drop_rate, hyper_steps=steps)
            return
        rng = np.random.default_rng(10 * steps + int(4 * drop_rate))
        feats = instance.features[0].matrix
        num_users = instance.x_u.shape[0]
        v = rng.normal(size=(3, feats.shape[1]))
        w = rng.normal(size=(feats.shape[1], 5))
        x_rows = instance.x_u[pick_rows(rows_case, num_users, rng)]
        item_rows = pick_rows(rows_case, feats.shape[0], rng)
        outs = []
        for one_node in (True, False):
            v_t, w_t = leaf(v), leaf(w)
            mask_rng = np.random.default_rng(99)
            if one_node:
                h_items = build_incidence(feats, v)
                stacked = hypergraph_pass(feats, v_t, w_t, x_rows, drop_rate, steps, mask_rng,
                                          item_rows)
            else:
                incidence = tape_build_incidence(feats, v_t)
                h_items = incidence.data
                stacked = tape_hypergraph_pass(incidence, matmul(ad.constant(feats), w_t), x_rows,
                                               drop_rate, steps, mask_rng, item_rows)
            if not outs:
                weights = rng.normal(size=stacked.shape)
            weighted_sum(stacked, weights).backward()
            outs.append([h_items, stacked.data, v_t.grad, w_t.grad])
        for name, got, expected in zip(["H_i", "stacked", "V", "W"], *outs):
            assert_grads_agree(got, expected, name)


class TestPassAgainstPerBroadcastNodes:
    """The one-node pass against `per_broadcast_pass`, whose tape has H_i,
    H_u, each step's pool and each broadcast of it as its own node: outputs
    and the gradients of V and W agree to a relative 1e-12."""

    @pytest.mark.parametrize("rows_case", ROW_CASES)
    @pytest.mark.parametrize("drop_rate", [0.0, 0.5])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_bitwise(self, instance, steps, drop_rate, rows_case):
        rng = np.random.default_rng(20 * steps + int(4 * drop_rate))
        feats = instance.features[0].matrix
        v = rng.normal(size=(3, feats.shape[1]))
        w = rng.normal(size=(feats.shape[1], 5))
        user_rows = pick_rows(rows_case, instance.x_u.shape[0], rng)
        item_rows = pick_rows(rows_case, feats.shape[0], rng)
        outs = []
        for one_node in (True, False):
            v_t, w_t = leaf(v), leaf(w)
            mask_rng = np.random.default_rng(99)
            if one_node:
                stacked = hypergraph_pass(feats, v_t, w_t, instance.x_u[user_rows], drop_rate,
                                          steps, mask_rng, item_rows)
            else:
                incidence = per_broadcast_incidence(feats, v_t, instance.x_u, user_rows)
                state = matmul(ad.constant(feats), w_t)
                stacked = concat_rows(
                    per_broadcast_pass(incidence, state, drop_rate, steps, mask_rng, item_rows)
                )
            if not outs:
                weights = rng.normal(size=stacked.shape)
            weighted_sum(stacked, weights).backward()
            outs.append([stacked.data, v_t.grad, w_t.grad])
        for name, got, expected in zip(["stacked", "V", "W"], *outs):
            assert_grads_agree(got, expected, name)


class TestViewGradients:
    """Central finite differences on the micro instance; dropout masks are
    pinned by reseeding every pass."""

    @staticmethod
    def check(build, arrays: dict[str, np.ndarray], seed: int = 5) -> None:
        weights_rng = np.random.default_rng(seed)
        outs = build({name: ad.Tensor(a) for name, a in arrays.items()})
        weights = [weights_rng.normal(size=o.shape) for o in outs]

        def loss(tensors):
            total = None
            for out, w in zip(build(tensors), weights):
                term = weighted_sum(out, w)
                total = term if total is None else total + term
            return total

        tensors = {name: ad.Tensor(a, requires_grad=True) for name, a in arrays.items()}
        loss(tensors).backward()
        for name, array in arrays.items():
            numeric = finite_difference(
                lambda: float(loss({n: ad.Tensor(a) for n, a in arrays.items()}).data), array
            )
            assert_grad_close(tensors[name].grad, numeric, name)

    @pytest.fixture
    def views(self):
        ds, feats = micro_dataset()
        return build_views(ds, feats, micro_config())

    def test_propagate_ui(self, views):
        rows = np.array([7, 0, 3, 7, 9])
        e0 = np.random.default_rng(0).normal(size=(views.adjacency.shape[0], 3))
        self.check(lambda t: [propagate_ui(views.adjacency, t["e0"], 2, rows)], {"e0": e0})

    def test_propagate_items(self, views):
        # two zero user rows ahead of the items: the backward reads past them
        rng = np.random.default_rng(1)
        rows = np.array([5, 1, 1, 2])
        arrays = {f.modality: rng.normal(size=(f.dim, 3)) for f in views.features}
        self.check(
            lambda t: [propagate_items(views.smoothed, [t[f.modality] for f in views.features],
                                       rows, 2)],
            arrays,
        )

    def test_build_incidence(self, views):
        # V_m through the softmax of F_m V_m^T, D_e and H_u = D_u^-1 X_u H_i
        # over users with a repeat, and W_m through the item state, inside
        # the pass at one and two steps
        feats = views.features[0].matrix
        rng = np.random.default_rng(2)
        arrays = {"v": rng.normal(size=(3, feats.shape[1])),
                  "w": rng.normal(size=(feats.shape[1], 2))}
        x_rows = views.x_u[np.array([3, 0, 3])]
        for steps in (1, 2):
            self.check(lambda t: [hypergraph_pass(feats, t["v"], t["w"], x_rows, 0.0, steps,
                                                  np.random.default_rng(0), np.array([1, 4, 1]))],
                       arrays)

    @pytest.mark.parametrize("item_rows", [None, np.array([4, 1, 4, 0])])
    def test_broadcasts_with_dropout(self, item_rows):
        item_rows = np.arange(6) if item_rows is None else item_rows  # None: every item
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 4))
        arrays = {"v": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2))}
        x_u = (rng.random((4, 6)) < 0.5).astype(np.float64)
        x_u /= np.maximum(x_u.sum(axis=1, keepdims=True), 1.0)
        x_rows = sp.csr_matrix(x_u)[[2, 0, 2, 3]]

        def build(t):
            rng = np.random.default_rng(17)
            return [hypergraph_pass(features, t["v"], t["w"], x_rows, 0.5, 2, rng, item_rows)]

        self.check(build, arrays)


def test_own_targets_gradient_is_scattered_into_incidence():
    # item 0 broadcast to twice: both target rows add into H_i[0], so every
    # gradient is twice that of a single broadcast to item 0
    rng = np.random.default_rng(4)
    features, v, w = rng.normal(size=(3, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 1))
    no_users = sp.csr_matrix((0, 3))
    grads = []
    for item_rows in ([0, 0], [0]):
        v_t, w_t = leaf(v), leaf(w)
        e_items = hypergraph_pass(features, v_t, w_t, no_users, 0.0, 1,
                                  np.random.default_rng(0), np.array(item_rows))
        tensor_sum(e_items).backward()
        grads.append((v_t.grad, w_t.grad))
    for twice, once in zip(*grads):
        assert once.any() and np.allclose(twice, 2.0 * once, rtol=1e-12, atol=0.0)
