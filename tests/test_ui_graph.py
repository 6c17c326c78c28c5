"""Bipartite graph construction and propagation against dense oracles."""

import numpy as np
import pytest

from mhcr import autodiff as ad
from mhcr.dataio import (
    TEST,
    TRAIN,
    InteractionDataset,
    SyntheticConfig,
    generate_synthetic,
    split_dataset,
)
from mhcr.errors import DataError, ShapeError
from mhcr.ui_graph import build_norm_adjacency, propagate_ui

from oracles import mean, mul


def make_ds(users, items, num_users=None, num_items=None, split=None):
    users = np.asarray(users)
    items = np.asarray(items)
    num_users = num_users or int(users.max()) + 1
    num_items = num_items or int(items.max()) + 1
    split = np.zeros(users.size, dtype=np.int8) if split is None else np.asarray(split)
    return InteractionDataset(num_users, num_items, users, items, split=split)


def every_node(e0) -> np.ndarray:
    return np.arange(e0.shape[0])


class TestBuildAdjacency:
    def test_single_edge_weight_one(self):
        dense = build_norm_adjacency(make_ds([0], [0])).toarray()
        assert dense[0, 1] == pytest.approx(1.0)
        assert dense[1, 0] == pytest.approx(1.0)

    def test_hand_computed_degrees(self):
        # u0-{i0,i1}, u1-{i0}: deg(u0)=2, deg(u1)=1, deg(i0)=2, deg(i1)=1
        dense = build_norm_adjacency(make_ds([0, 0, 1], [0, 1, 0])).toarray()
        assert dense[0, 2] == pytest.approx(0.5)
        assert dense[0, 3] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert dense[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        users = rng.integers(0, 5, size=12)
        items = rng.integers(0, 7, size=12)
        keys = np.unique(users * 7 + items)
        ds = make_ds(keys // 7, keys % 7, num_users=5, num_items=7)
        dense = build_norm_adjacency(ds).toarray()
        assert np.array_equal(dense, dense.T)

    def test_csr_is_its_own_transpose_with_sorted_indices(self):
        # the UI backward multiplies by A instead of A^T; both sum each row in
        # the same order, bit for bit, only for such a matrix
        ds = split_dataset(generate_synthetic(SyntheticConfig(
            num_users=50, num_items=30, mean_interactions=4.0, seed=6))[0], seed=6)
        adjacency = build_norm_adjacency(ds)
        transposed = adjacency.T.tocsr()
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adjacency, field), getattr(transposed, field)), field
        for start, stop in zip(adjacency.indptr[:-1], adjacency.indptr[1:]):
            assert (np.diff(adjacency.indices[start:stop]) > 0).all()
        g = np.random.default_rng(6).normal(size=(adjacency.shape[0], 3))
        assert (adjacency @ g).tobytes() == (adjacency.T @ g).tobytes()

    def test_only_train_edges_contribute(self):
        ds = make_ds([0, 0], [0, 1], split=[TRAIN, TEST])
        adjacency = build_norm_adjacency(ds)
        assert adjacency[0, ds.num_users + 1] == 0.0
        assert adjacency[0, ds.num_users + 0] == pytest.approx(1.0)

    def test_empty_train_errors(self):
        ds = make_ds([0], [0], split=[TEST])
        with pytest.raises(DataError):
            build_norm_adjacency(ds)


class TestPropagate:
    def test_zero_layers_identity(self):
        graph = build_norm_adjacency(make_ds([0], [0]))
        e0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = propagate_ui(graph, e0, 0, every_node(e0))
        assert np.array_equal(out.data, e0)

    def test_single_edge_one_layer(self):
        graph = build_norm_adjacency(make_ds([0], [0]))
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = propagate_ui(graph, e0, 1, every_node(e0)).data
        assert np.allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_matches_dense_power_oracle(self):
        rng = np.random.default_rng(7)
        ds = make_ds([0, 0, 1, 1, 2], [0, 1, 1, 2, 0], num_users=3, num_items=3)
        graph = build_norm_adjacency(ds)
        e0 = rng.normal(size=(6, 4))
        out = propagate_ui(graph, e0, 3, every_node(e0)).data

        dense = graph.toarray()
        expected = np.zeros_like(e0)
        power = np.eye(6)
        for _ in range(4):
            expected += power @ e0
            power = dense @ power
        assert np.abs(out - expected).max() <= 1e-6

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_selected_rows_equal_all_node_rows_bitwise(self, layers):
        rng = np.random.default_rng(9)
        ds = make_ds([0, 0, 1, 1, 2, 3], [0, 1, 1, 2, 0, 2], num_users=4, num_items=3)
        graph = build_norm_adjacency(ds)
        e0 = rng.normal(size=(graph.shape[0], 4))
        rows = np.array([1, 3, 4, 6])
        full = propagate_ui(graph, e0, layers, every_node(e0)).data
        assert np.array_equal(propagate_ui(graph, e0, layers, rows).data, full[rows])

    def test_linearity(self):
        rng = np.random.default_rng(8)
        graph = build_norm_adjacency(make_ds([0, 1, 1], [0, 0, 1]))
        x = rng.normal(size=(graph.shape[0], 3))
        y = rng.normal(size=(graph.shape[0], 3))
        rows = every_node(x)
        mixed = propagate_ui(graph, 2.0 * x + 0.5 * y, 2, rows).data
        separate = (2.0 * propagate_ui(graph, x, 2, rows).data
                    + 0.5 * propagate_ui(graph, y, 2, rows).data)
        assert np.allclose(mixed, separate, atol=1e-12)

    def test_isolated_user_keeps_own_row(self):
        # user 1 exists in the vocabulary but has no train edges
        ds = make_ds([0], [0], num_users=2, num_items=1)
        graph = build_norm_adjacency(ds)
        e0 = np.array([[1.0, 1.0], [5.0, -2.0], [0.5, 0.5]])
        out = propagate_ui(graph, e0, 3, every_node(e0)).data
        assert np.array_equal(out[1], e0[1])

    def test_shape_mismatch(self):
        graph = build_norm_adjacency(make_ds([0], [0]))
        with pytest.raises(ShapeError):
            propagate_ui(graph, np.ones((3, 2)), 1, np.arange(3))

    def test_gradient_flows_through_propagation(self):
        graph = build_norm_adjacency(make_ds([0, 1], [0, 1]))
        e0 = ad.Tensor(np.random.default_rng(3).normal(size=(4, 2)), requires_grad=True)
        out = propagate_ui(graph, e0, 2, every_node(e0))
        mean(mul(out, out)).backward()
        assert e0.grad is not None and np.isfinite(e0.grad).all()
