"""The single-node views against their op-by-op tape composition in
`oracles.py`, the one-node hypergraph pass bit for bit against its
per-broadcast tape, and finite-difference checks of every view node."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr.dataio import SyntheticConfig, generate_synthetic, split_dataset
from mhcr.errors import ConfigError
from mhcr.hypergraph import build_incidence, hypergraph_pass
from mhcr.item_graph import propagate_items
from mhcr.training import build_views
from mhcr.ui_graph import propagate_ui

from conftest import assert_grad_close, finite_difference, micro_config, micro_dataset
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
    """40 users x 30 items, two modalities, d = 5."""
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
    return build_views(ds, feats, micro_config(d=5, k_knn=3))


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
    """Forward outputs bit-equal to the tape's; gradients within 1e-12."""

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
        rng = np.random.default_rng(3)
        graphs = instance.affinity
        projected = [rng.normal(size=(g.shape[0], 5)) for g in graphs]
        rows = pick_rows(rows_case, graphs[0].shape[0], rng)
        outs = []
        no_users = lambda *args: propagate_items(*args, 0)  # noqa: E731
        for propagate in (no_users, tape_propagate_items):
            leaves = [leaf(p) for p in projected]
            out = propagate(graphs, leaves, rows)
            if not outs:
                weights = rng.normal(size=out.shape)
            weighted_sum(out, weights).backward()
            outs.append((out.data, [t.grad for t in leaves]))
        (out, grads), (tape_out, tape_grads) = outs
        assert np.array_equal(out, tape_out)
        for grad, tape_grad in zip(grads, tape_grads):
            assert_grads_agree(grad, tape_grad, "projected")

    @pytest.mark.parametrize("rows_case", ROW_CASES)
    @pytest.mark.parametrize("drop_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_hypergraph(self, instance, steps, drop_rate, rows_case):
        rng = np.random.default_rng(10 * steps + int(4 * drop_rate))
        feats = instance.features[0].matrix
        num_users = instance.x_u.shape[0]
        v = rng.normal(size=(3, feats.shape[1]))
        w = rng.normal(size=(feats.shape[1], 5))
        x_rows = instance.x_u[pick_rows(rows_case, num_users, rng)]
        item_rows = pick_rows(rows_case, feats.shape[0], rng)
        if drop_rate == 1.0:  # a rate that drops every message is refused
            with pytest.raises(ConfigError, match="drop_rate"):
                hypergraph_pass(feats, leaf(v), feats @ w, x_rows, drop_rate, steps,
                                np.random.default_rng(99), item_rows)
            return
        outs = []
        for one_node in (True, False):
            v_t, w_t = leaf(v), leaf(w)
            state = matmul(ad.constant(feats), w_t)
            mask_rng = np.random.default_rng(99)
            if one_node:
                h_items = build_incidence(feats, v)
                stacked = hypergraph_pass(feats, v_t, state, x_rows, drop_rate, steps, mask_rng,
                                          item_rows)
            else:
                incidence = tape_build_incidence(feats, v_t)
                h_items = incidence.data
                stacked = tape_hypergraph_pass(incidence, state, x_rows, drop_rate, steps,
                                               mask_rng, item_rows)
            if not outs:
                weights = rng.normal(size=stacked.shape)
            weighted_sum(stacked, weights).backward()
            outs.append(([h_items, stacked.data], [v_t.grad, w_t.grad]))
        (out, grads), (tape_out, tape_grads) = outs
        for got, expected in zip(out, tape_out):
            assert np.array_equal(got, expected)
        for name, got, expected in zip(["V", "W"], grads, tape_grads):
            assert_grads_agree(got, expected, name)


class TestPassAgainstPerBroadcastNodes:
    """The one-node pass against `per_broadcast_pass`, whose tape has H_u and
    each broadcast as its own node: outputs and the gradients of V, W and the
    projection bit for bit. The projection also feeds `propagate_items`, whose
    gradient the tape adds first, so its three-term sum is pinned too."""

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
            projected = matmul(ad.constant(feats), w_t)
            mask_rng = np.random.default_rng(99)
            if one_node:
                stacked = hypergraph_pass(feats, v_t, projected, instance.x_u[user_rows],
                                          drop_rate, steps, mask_rng, item_rows)
            else:
                incidence = per_broadcast_incidence(feats, v_t, instance.x_u, user_rows)
                stacked = concat_rows(
                    per_broadcast_pass(incidence, projected, drop_rate, steps, mask_rng,
                                       item_rows)
                )
            items = propagate_items(instance.affinity[:1], [projected], item_rows, 0)
            if not outs:
                weights = rng.normal(size=items.shape), rng.normal(size=stacked.shape)
            (weighted_sum(items, weights[0]) + weighted_sum(stacked, weights[1])).backward()
            outs.append([stacked.data, v_t.grad, w_t.grad, projected.grad])
        for name, got, expected in zip(["stacked", "V", "W", "projection"], *outs):
            assert np.array_equal(got, expected), name


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
                lambda: loss({n: ad.Tensor(a) for n, a in arrays.items()}).item(), array
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
        arrays = {f.modality: rng.normal(size=(6, 3)) for f in views.features}
        self.check(
            lambda t: [propagate_items(views.affinity, [t[f.modality] for f in views.features],
                                       rows, 2)],
            arrays,
        )

    def test_build_incidence(self, views):
        # V_m through H_i = F_m V_m^T, and H_u = X_u H_i over users with a
        # repeat, inside the pass at one and two steps
        feats = views.features[0].matrix
        rng = np.random.default_rng(2)
        v = rng.normal(size=(3, feats.shape[1]))
        state = ad.Tensor(rng.normal(size=(feats.shape[0], 2)))
        x_rows = views.x_u[np.array([3, 0, 3])]
        for steps in (1, 2):
            self.check(lambda t: [hypergraph_pass(feats, t["v"], state, x_rows, 0.0, steps,
                                                  np.random.default_rng(0), np.array([1, 4, 1]))],
                       {"v": v})

    @pytest.mark.parametrize("item_rows", [None, np.array([4, 1, 4, 0])])
    def test_broadcasts_with_dropout(self, item_rows):
        item_rows = np.arange(6) if item_rows is None else item_rows  # None: every item
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 4))
        arrays = {"v": rng.normal(size=(3, 4)), "state": rng.normal(size=(6, 2))}
        x_rows = sp.csr_matrix(rng.random((4, 6)) < 0.5, dtype=np.float64)[[2, 0, 2, 3]]

        def build(t):
            rng = np.random.default_rng(17)
            return [hypergraph_pass(features, t["v"], t["state"], x_rows, 0.5, 2, rng, item_rows)]

        self.check(build, arrays)


def test_own_targets_gradient_is_scattered_into_incidence():
    # one item broadcast to item 0 twice: both target rows add into H_i[0].
    # Features I make V_m = H_i^T, so V_m's gradient is H_i's transposed
    v = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    no_users = sp.csr_matrix((0, 2))
    e_items = hypergraph_pass(np.eye(2), v, np.array([[1.0], [1.0]]), no_users, 0.0, 1,
                              np.random.default_rng(0), np.array([0, 0]))
    tensor_sum(e_items).backward()
    # out_r = H[0] * (H[0] + H[1]) for both rows, so dL/dH = 2 * (2 H[0] + H[1], H[0])
    assert np.array_equal(v.grad, np.array([[8.0, 2.0]]))
