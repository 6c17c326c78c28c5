"""Incidence construction, message passing vs dense oracles, dropout
unbiasedness, and cross-modality aggregation."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr.errors import ConfigError, ShapeError
from mhcr.hypergraph import aggregate_hyper, build_incidence, hypergraph_pass


def pair_from(h_items: np.ndarray, h_users: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    return ad.Tensor(h_items), ad.Tensor(h_users)


def every_user(x_u) -> np.ndarray:
    return np.arange(x_u.shape[0])


def every_item(pair) -> np.ndarray:
    return np.arange(pair[0].shape[0])


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestBuildIncidence:
    def test_zero_hyperedges_give_zero_incidence(self):
        features = np.ones((3, 2))
        v = ad.Tensor(np.zeros((4, 2)))
        x_u = sp.csr_matrix(np.ones((2, 3)))
        h_items, h_users = build_incidence(features, v, x_u, every_user(x_u))
        assert np.allclose(h_items.data, 0.0)
        assert np.allclose(h_users.data, 0.0)

    def test_scalar_chain(self):
        # 1 item with feature [2], 1 hyperedge with weight [3], 1 user with X=[1]
        h_items, h_users = build_incidence(
            np.array([[2.0]]), ad.Tensor(np.array([[3.0]])), sp.csr_matrix(np.array([[1.0]])),
            np.array([0]),
        )
        assert np.allclose(h_items.data, [[6.0]])
        assert np.allclose(h_users.data, [[6.0]])

    def test_user_without_interactions_has_zero_row(self):
        features = np.ones((2, 3))
        v = ad.Tensor(np.ones((2, 3)))
        x_u = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        _, h_users = build_incidence(features, v, x_u, every_user(x_u))
        assert np.allclose(h_users.data[1], 0.0)
        assert not np.allclose(h_users.data[0], 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_incidence(
                np.ones((2, 3)), ad.Tensor(np.ones((2, 4))), sp.csr_matrix((1, 2)), np.array([0])
            )
        with pytest.raises(ShapeError):
            build_incidence(
                np.ones((2, 3)), ad.Tensor(np.ones((2, 3))), sp.csr_matrix((1, 5)), np.array([0])
            )

    def test_bilinear_in_features_and_hyperedges(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(3, 4))
        v = rng.normal(size=(2, 4))
        x_u = sp.csr_matrix(np.ones((1, 3)))
        users = every_user(x_u)
        base = build_incidence(features, ad.Tensor(v), x_u, users)[0].data
        doubled_f = build_incidence(2.0 * features, ad.Tensor(v), x_u, users)[0].data
        doubled_v = build_incidence(features, ad.Tensor(3.0 * v), x_u, users)[0].data
        assert np.allclose(doubled_f, 2.0 * base)
        assert np.allclose(doubled_v, 3.0 * base)


class TestPass:
    def test_identity_incidence(self):
        pair = pair_from(np.array([[1.0]]), np.array([[1.0]]))
        e_users, e_items = hypergraph_pass(
            pair, np.array([[5.0]]), 0.0, 1, seeded(0), every_item(pair)
        )
        assert np.allclose(e_items.data, [[5.0]])
        assert np.allclose(e_users.data, [[5.0]])

    def test_pool_then_broadcast(self):
        pair = pair_from(np.array([[1.0], [1.0]]), np.array([[1.0]]))
        e_users, e_items = hypergraph_pass(
            pair, np.array([[1.0], [3.0]]), 0.0, 1, seeded(0), every_item(pair)
        )
        assert np.allclose(e_items.data, [[4.0], [4.0]])
        assert np.allclose(e_users.data, [[4.0]])

    def test_matches_dense_oracle_without_dropout(self):
        rng = np.random.default_rng(4)
        h_i = rng.normal(size=(7, 3))
        h_u = rng.normal(size=(4, 3))
        state = rng.normal(size=(7, 2))
        for steps in (1, 2, 3):
            pair = pair_from(h_i, h_u)
            e_users, e_items = hypergraph_pass(
                pair, state, 0.0, steps, seeded(1), every_item(pair)
            )
            expected_items = state.copy()
            for _ in range(steps):
                expected_users = h_u @ (h_i.T @ expected_items)
                expected_items = h_i @ (h_i.T @ expected_items)
            assert np.abs(e_items.data - expected_items).max() <= 1e-6
            assert np.abs(e_users.data - expected_users).max() <= 1e-6

    def test_selected_rows_match_all_rows_without_dropout(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(7, 3))
        v = ad.Tensor(rng.normal(size=(4, 3)))
        x_u = sp.csr_matrix((rng.random((5, 7)) < 0.4).astype(float))
        state = rng.normal(size=(7, 2))
        user_rows, item_rows = np.array([0, 3, 4]), np.array([1, 2, 6])
        for steps in (1, 2):
            all_u, all_i = hypergraph_pass(
                build_incidence(features, v, x_u, every_user(x_u)),
                state, 0.0, steps, seeded(0), np.arange(7),
            )
            sel_u, sel_i = hypergraph_pass(
                build_incidence(features, v, x_u, user_rows),
                state, 0.0, steps, seeded(0), item_rows,
            )
            assert np.allclose(sel_u.data, all_u.data[user_rows], rtol=1e-12, atol=0.0)
            assert np.allclose(sel_i.data, all_i.data[item_rows], rtol=1e-12, atol=0.0)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(4)
        pair = pair_from(rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))
        state = rng.normal(size=(3, 2))
        a = hypergraph_pass(pair, state, 0.5, 2, seeded(77), every_item(pair))
        b = hypergraph_pass(pair, state, 0.5, 2, seeded(77), every_item(pair))
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_dropout_unbiased_on_small_instance(self):
        # 3 items x 2 hyperedges; sample mean over many mask draws stays
        # within 3 standard errors of the exact drop_rate=0 output
        rng = np.random.default_rng(13)
        h_i = rng.normal(size=(3, 2))
        h_u = rng.normal(size=(2, 2))
        state = rng.normal(size=(3, 1))
        pair = pair_from(h_i, h_u)
        exact_u, exact_i = hypergraph_pass(pair, state, 0.0, 1, seeded(0), every_item(pair))

        draws = 2000
        samples_u = np.empty((draws,) + exact_u.data.shape)
        samples_i = np.empty((draws,) + exact_i.data.shape)
        for t in range(draws):
            e_u, e_i = hypergraph_pass(pair, state, 0.5, 1, seeded(t), every_item(pair))
            samples_u[t] = e_u.data
            samples_i[t] = e_i.data
        for samples, exact in ((samples_u, exact_u.data), (samples_i, exact_i.data)):
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
            assert (np.abs(mean - exact) <= 3.0 * stderr).all()

    def test_invalid_arguments(self):
        pair = pair_from(np.ones((2, 2)), np.ones((1, 2)))
        with pytest.raises(ConfigError):
            hypergraph_pass(pair, np.ones((2, 2)), 0.0, 0, seeded(0), every_item(pair))
        for drop_rate in (1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                hypergraph_pass(pair, np.ones((2, 2)), drop_rate, 1, seeded(0), every_item(pair))
        with pytest.raises(ShapeError):
            hypergraph_pass(pair, np.ones((3, 2)), 0.0, 1, seeded(0), every_item(pair))


class TestAggregate:
    def test_single_modality_is_identity(self):
        stacked = ad.Tensor(np.vstack([np.ones((2, 3)), 2.0 * np.ones((4, 3))]))
        assert np.array_equal(aggregate_hyper([stacked]).data, stacked.data)

    def test_two_identical_modalities_double(self):
        stacked = ad.Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        double = aggregate_hyper([stacked, stacked]).data
        assert np.array_equal(double, 2.0 * stacked.data)

    def test_disjoint_supports_add(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        a[:, 2:] = 0.0
        b[:, :2] = 0.0
        out = aggregate_hyper([ad.Tensor(a), ad.Tensor(b)]).data
        assert np.array_equal(out, a + b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate_hyper([ad.Tensor(np.ones((5, 3))), ad.Tensor(np.ones((6, 3)))])
