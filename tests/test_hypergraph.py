"""Incidence construction, message passing vs dense oracles, dropout
unbiasedness, and the forward's sum of the modalities' hypergraph stacks."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr.dataio import ModalityFeatures
from mhcr.errors import ConfigError, ShapeError
from mhcr.hypergraph import build_incidence, hypergraph_pass
from mhcr.training import build_views, forward, init_parameters

from conftest import micro_config, micro_dataset


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def pass_over(h_i, state, x, drop_rate, steps, rng, item_rows):
    """The pass over a given incidence H_i: features I and hyperedges
    H_i^T, so that I @ H_i is H_i exactly."""
    h_i = np.asarray(h_i, dtype=np.float64)
    return hypergraph_pass(np.eye(len(h_i)), ad.Tensor(h_i.T), state, x, drop_rate, steps, rng,
                           item_rows)


def run_pass(h_i, x, state, drop_rate, steps, rng, item_rows=None):
    """The pass over every user of `x` and `item_rows` (default: every
    item), split into its (user, item) rows."""
    x = sp.csr_matrix(x, dtype=np.float64)
    item_rows = np.arange(len(h_i)) if item_rows is None else item_rows
    stacked = pass_over(h_i, state, x, drop_rate, steps, rng, item_rows).data
    return stacked[:x.shape[0]], stacked[x.shape[0]:]


class TestBuildIncidence:
    def test_zero_hyperedges_give_zero_incidence(self):
        features = np.ones((3, 2))
        h_items = build_incidence(features, np.zeros((4, 2)))
        assert np.allclose(h_items, 0.0)
        e_users, e_items = run_pass(h_items, np.ones((2, 3)), np.ones((3, 2)), 0.0, 1, seeded(0))
        assert np.allclose(e_users, 0.0) and np.allclose(e_items, 0.0)

    def test_scalar_chain(self):
        # 1 item with feature [2], 1 hyperedge with weight [3], 1 user with X=[1]:
        # H_i = H_u = 6, so one pass maps state 1 to 6 * 6 * 1 for both
        h_items = build_incidence(np.array([[2.0]]), np.array([[3.0]]))
        assert np.allclose(h_items, [[6.0]])
        e_users, e_items = run_pass(h_items, [[1.0]], np.array([[1.0]]), 0.0, 1, seeded(0))
        assert np.allclose(e_users, [[36.0]]) and np.allclose(e_items, [[36.0]])

    def test_user_without_interactions_has_zero_row(self):
        h_items = build_incidence(np.ones((2, 3)), np.ones((2, 3)))
        x_u = np.array([[1.0, 1.0], [0.0, 0.0]])
        e_users, _ = run_pass(h_items, x_u, np.ones((2, 2)), 0.0, 1, seeded(0))
        assert np.allclose(e_users[1], 0.0)
        assert not np.allclose(e_users[0], 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_incidence(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(ShapeError):  # the pass builds the same incidence
            hypergraph_pass(np.ones((2, 3)), ad.Tensor(np.ones((2, 4))), np.ones((2, 2)),
                            sp.csr_matrix((1, 2)), 0.0, 1, seeded(0), np.array([0]))
        with pytest.raises(ShapeError):  # X_u has 5 item columns, H_i 2 rows
            hypergraph_pass(np.ones((2, 3)), ad.Tensor(np.ones((2, 3))), np.ones((2, 2)),
                            sp.csr_matrix((1, 5)), 0.0, 1, seeded(0), np.array([0]))

    def test_bilinear_in_features_and_hyperedges(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(3, 4))
        v = rng.normal(size=(2, 4))
        base = build_incidence(features, v)
        doubled_f = build_incidence(2.0 * features, v)
        doubled_v = build_incidence(features, 3.0 * v)
        assert np.allclose(doubled_f, 2.0 * base)
        assert np.allclose(doubled_v, 3.0 * base)

    def test_returns_a_plain_array(self):
        # the incidence is no tape node: the pass that reads it owns V_m
        v = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        h_items = build_incidence(np.ones((4, 3)), v.data)
        assert type(h_items) is np.ndarray and h_items.shape == (4, 2)


class TestPass:
    def test_identity_incidence(self):
        e_users, e_items = run_pass(np.array([[1.0]]), [[1.0]], np.array([[5.0]]), 0.0, 1,
                                    seeded(0))
        assert np.allclose(e_items, [[5.0]])
        assert np.allclose(e_users, [[5.0]])

    def test_pool_then_broadcast(self):
        # the user holds item 0 only, so H_u = H_i[0]
        e_users, e_items = run_pass(np.array([[1.0], [1.0]]), [[1.0, 0.0]],
                                    np.array([[1.0], [3.0]]), 0.0, 1, seeded(0))
        assert np.allclose(e_items, [[4.0], [4.0]])
        assert np.allclose(e_users, [[4.0]])

    def test_returns_user_rows_then_item_rows(self):
        h_i = np.array([[1.0], [2.0]])
        stacked = pass_over(h_i, np.array([[1.0], [1.0]]),
                            sp.csr_matrix([[0.0, 1.0], [1.0, 1.0]]), 0.0, 1, seeded(0),
                            np.array([1, 0, 1]))
        # pooled = H_i^T E = 3; users H_u = (2, 3), items H_i[[1, 0, 1]] = (2, 1, 2)
        assert np.array_equal(stacked.data, 3.0 * np.array([[2.0], [3.0], [2.0], [1.0], [2.0]]))

    def test_matches_dense_oracle_without_dropout(self):
        rng = np.random.default_rng(4)
        h_i = rng.normal(size=(7, 3))
        x_u = (rng.random((4, 7)) < 0.5).astype(float)
        state = rng.normal(size=(7, 2))
        h_u = x_u @ h_i
        for steps in (1, 2, 3):
            e_users, e_items = run_pass(h_i, x_u, state, 0.0, steps, seeded(1))
            expected_items = state.copy()
            for _ in range(steps):
                expected_users = h_u @ (h_i.T @ expected_items)
                expected_items = h_i @ (h_i.T @ expected_items)
            assert np.abs(e_items - expected_items).max() <= 1e-6
            assert np.abs(e_users - expected_users).max() <= 1e-6

    def test_selected_rows_match_all_rows_without_dropout(self):
        rng = np.random.default_rng(6)
        h_i = build_incidence(rng.normal(size=(7, 3)), rng.normal(size=(4, 3)))
        x_u = sp.csr_matrix((rng.random((5, 7)) < 0.4).astype(float))
        state = rng.normal(size=(7, 2))
        user_rows, item_rows = np.array([0, 3, 4]), np.array([1, 2, 6])
        for steps in (1, 2):
            all_u, all_i = run_pass(h_i, x_u, state, 0.0, steps, seeded(0))
            sel_u, sel_i = run_pass(h_i, x_u[user_rows], state, 0.0, steps, seeded(0), item_rows)
            assert np.allclose(sel_u, all_u[user_rows], rtol=1e-12, atol=0.0)
            assert np.allclose(sel_i, all_i[item_rows], rtol=1e-12, atol=0.0)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(4)
        h_i, state = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        x_u = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        a = run_pass(h_i, x_u, state, 0.5, 2, seeded(77))
        b = run_pass(h_i, x_u, state, 0.5, 2, seeded(77))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_dropout_unbiased_on_small_instance(self):
        # 3 items x 2 hyperedges; sample mean over many mask draws stays
        # within 3 standard errors of the exact drop_rate=0 output
        rng = np.random.default_rng(13)
        h_i = rng.normal(size=(3, 2))
        x_u = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        state = rng.normal(size=(3, 1))
        exact_u, exact_i = run_pass(h_i, x_u, state, 0.0, 1, seeded(0))

        draws = 2000
        samples_u = np.empty((draws,) + exact_u.shape)
        samples_i = np.empty((draws,) + exact_i.shape)
        for t in range(draws):
            samples_u[t], samples_i[t] = run_pass(h_i, x_u, state, 0.5, 1, seeded(t))
        for samples, exact in ((samples_u, exact_u), (samples_i, exact_i)):
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
            assert (np.abs(mean - exact) <= 3.0 * stderr).all()

    def test_invalid_arguments(self):
        h_i, x_u, every_item = np.ones((2, 2)), sp.csr_matrix(np.ones((1, 2))), [0, 1]
        with pytest.raises(ConfigError):
            pass_over(h_i, np.ones((2, 2)), x_u, 0.0, 0, seeded(0), every_item)
        for drop_rate in (1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                pass_over(h_i, np.ones((2, 2)), x_u, drop_rate, 1, seeded(0), every_item)
        with pytest.raises(ShapeError):
            pass_over(h_i, np.ones((3, 2)), x_u, 0.0, 1, seeded(0), every_item)


def hyper_view(features, edit=None):
    """The eval-mode forward of the micro dataset over `features`, after
    `edit` has changed the named parameters in place."""
    ds, _ = micro_dataset()
    cfg = micro_config()
    views = build_views(ds, features, cfg)
    params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    if edit is not None:
        edit(params.named)
    return forward(params, views, cfg, mode="eval")


class TestAggregate:
    def test_single_modality_is_identity(self):
        result = hyper_view(micro_dataset()[1][:1])
        (stacked,) = result.hyper_stacks
        assert np.array_equal(result.e_h.data, stacked.data)

    def test_two_identical_modalities_double(self):
        image = micro_dataset()[1][0].matrix
        feats = [ModalityFeatures("image", image), ModalityFeatures("text", image.copy())]

        def tie(named):
            for kind in ("W", "V"):
                named[f"{kind}_text"].data[...] = named[f"{kind}_image"].data

        result = hyper_view(feats, tie)
        a, b = result.hyper_stacks
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(result.e_h.data, 2.0 * a.data)

    def test_disjoint_supports_add(self):
        # the pass is linear in the item state feats @ W, so zeroing W's
        # columns zeroes the same columns of that modality's stack
        def split_columns(named):
            named["W_image"].data[:, 4:] = 0.0
            named["W_text"].data[:, :4] = 0.0

        result = hyper_view(micro_dataset()[1], split_columns)
        a, b = (stacked.data for stacked in result.hyper_stacks)
        assert a[:, :4].any() and not a[:, 4:].any()
        assert b[:, 4:].any() and not b[:, :4].any()
        assert np.array_equal(result.e_h.data, a + b)
