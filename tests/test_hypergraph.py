"""Incidence construction, message passing vs dense oracles, dropout
unbiasedness, the convex-hull bound of the view, and the forward's sum of
the modalities' hypergraph stacks."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr.dataio import ModalityFeatures
from mhcr.errors import ShapeError
from mhcr.hypergraph import build_incidence, hypergraph_pass
from mhcr.training import build_views, forward, init_parameters

from conftest import micro_config, micro_dataset


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def softmax_rows(logits) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def degree_scaled(x) -> np.ndarray:
    """D_u^-1 X_u: each user's row divided by its interaction count."""
    x = np.asarray(x, dtype=np.float64)
    return x / np.maximum(x.sum(axis=1, keepdims=True), 1.0)


def pass_over(logits, state, x, drop_rate, steps, rng, item_rows):
    """The pass over given incidence logits and item state: features I,
    hyperedges logits^T and projection `state`, so that I @ V^T is the
    logits and I @ W the state exactly."""
    logits = np.asarray(logits, dtype=np.float64)
    return hypergraph_pass(np.eye(len(logits)), ad.Tensor(logits.T), ad.Tensor(state), x,
                           drop_rate, steps, rng, item_rows)


def run_pass(logits, x, state, drop_rate, steps, rng, item_rows=None):
    """The pass over every user of `x` (scaled by degree) and `item_rows`
    (default: every item), split into its (user, item) rows."""
    x = sp.csr_matrix(degree_scaled(x))
    item_rows = np.arange(len(logits)) if item_rows is None else item_rows
    stacked = pass_over(logits, state, x, drop_rate, steps, rng, item_rows).data
    return stacked[:x.shape[0]], stacked[x.shape[0]:]


def dense_pass(logits, x, state, steps):
    """The pass without dropout from dense matrices: H_i the row softmax,
    H_u = D_u^-1 X_u H_i, pooling through D_e^-1."""
    h_i = softmax_rows(np.asarray(logits, dtype=np.float64))
    h_u = degree_scaled(x) @ h_i
    d_e = h_i.sum(axis=0)[:, None]
    items = np.asarray(state, dtype=np.float64)
    for _ in range(steps):
        pooled = h_i.T @ items / d_e
        users, items = h_u @ pooled, h_i @ pooled
    return users, items


class TestBuildIncidence:
    def test_zero_hyperedges_give_uniform_incidence(self):
        h_items = build_incidence(np.ones((3, 2)), np.zeros((4, 2)))
        assert np.allclose(h_items, 0.25)
        # every hyperedge pools the mean item state, and every row reads it
        state = np.array([[1.0, 2.0], [3.0, 0.0], [2.0, 4.0]])
        e_users, e_items = run_pass(np.zeros((3, 4)), np.ones((2, 3)), state, 0.0, 1, seeded(0))
        assert np.allclose(e_users, [[2.0, 2.0]] * 2) and np.allclose(e_items, [[2.0, 2.0]] * 3)

    def test_scalar_chain(self):
        # 1 item with feature [2], 1 hyperedge [3], projection [5], 1 user
        # holding the item: H_i = H_u = 1 and D_e = 1, so both rows are F W = 10
        h_items = build_incidence(np.array([[2.0]]), np.array([[3.0]]))
        assert np.array_equal(h_items, [[1.0]])
        stacked = hypergraph_pass(np.array([[2.0]]), ad.Tensor([[3.0]]), ad.Tensor([[5.0]]),
                                  sp.csr_matrix([[1.0]]), 0.0, 1, seeded(0), np.array([0]))
        assert np.allclose(stacked.data, [[10.0], [10.0]])

    def test_user_without_interactions_has_zero_row(self):
        x_u = np.array([[1.0, 1.0], [0.0, 0.0]])
        e_users, _ = run_pass(np.ones((2, 2)), x_u, np.ones((2, 2)), 0.0, 1, seeded(0))
        assert np.allclose(e_users[1], 0.0)
        assert not np.allclose(e_users[0], 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_incidence(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(ShapeError):  # the pass builds the same incidence
            hypergraph_pass(np.ones((2, 3)), ad.Tensor(np.ones((2, 4))), np.ones((3, 2)),
                            sp.csr_matrix((1, 2)), 0.0, 1, seeded(0), np.array([0]))
        with pytest.raises(ShapeError):  # X_u has 5 item columns, H_i 2 rows
            hypergraph_pass(np.ones((2, 3)), ad.Tensor(np.ones((2, 3))), np.ones((3, 2)),
                            sp.csr_matrix((1, 5)), 0.0, 1, seeded(0), np.array([0]))

    def test_bilinear_in_features_and_hyperedges(self):
        # the logits F V^T are bilinear, so scaling F or V by one factor gives
        # the same incidence: the row softmax of the scaled logits
        rng = np.random.default_rng(0)
        features = rng.normal(size=(3, 4))
        v = rng.normal(size=(2, 4))
        expected = softmax_rows(2.0 * features @ v.T)
        assert np.allclose(build_incidence(2.0 * features, v), expected, rtol=1e-12, atol=0.0)
        assert np.allclose(build_incidence(features, 2.0 * v), expected, rtol=1e-12, atol=0.0)
        assert np.allclose(build_incidence(features, v).sum(axis=1), 1.0, rtol=1e-15, atol=0.0)

    def test_large_logits_stay_finite(self):
        # the shift by each row's largest logit keeps exp from overflowing
        h_items = build_incidence(np.array([[1.0], [-1.0]]), np.array([[800.0], [-800.0]]))
        assert np.array_equal(h_items, [[1.0, 0.0], [0.0, 1.0]])

    def test_hyperedge_no_item_selects_pools_nothing(self):
        # the second hyperedge's softmax weight underflows to 0 for both
        # items, so the view equals the one without it
        x, every_item = sp.csr_matrix([[1.0, 0.0]]), np.arange(2)
        outs = [hypergraph_pass(np.ones((2, 1)), ad.Tensor(v), ad.Tensor([[3.0]]), x, 0.0, 2,
                                seeded(0), every_item).data
                for v in ([[0.0], [-1000.0]], [[0.0]])]
        assert np.array_equal(outs[0], outs[1]) and np.allclose(outs[0], 3.0)

    def test_returns_a_plain_array(self):
        # the incidence is no tape node: the pass that reads it owns V_m
        v = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        h_items = build_incidence(np.ones((4, 3)), v.data)
        assert type(h_items) is np.ndarray and h_items.shape == (4, 2)
        assert h_items.flags.c_contiguous


class TestPass:
    def test_identity_incidence(self):
        e_users, e_items = run_pass(np.array([[0.0]]), [[1.0]], np.array([[5.0]]), 0.0, 1,
                                    seeded(0))
        assert np.allclose(e_items, [[5.0]])
        assert np.allclose(e_users, [[5.0]])

    def test_pool_then_broadcast(self):
        # one hyperedge holds both items, so D_e = 2 and it pools their mean;
        # the user holds item 0 only, so H_u = H_i[0]
        e_users, e_items = run_pass(np.array([[0.0], [0.0]]), [[1.0, 0.0]],
                                    np.array([[1.0], [3.0]]), 0.0, 1, seeded(0))
        assert np.allclose(e_items, [[2.0], [2.0]])
        assert np.allclose(e_users, [[2.0]])

    def test_returns_user_rows_then_item_rows(self):
        # H_i rows (1/2, 1/2) and (1/4, 3/4): D_e = (3/4, 5/4), and the state
        # (1, 2) pools to (4/3, 8/5); items read 22/15 and 23/15, user 0
        # holds item 1 and user 1 both items, so H_u[1] = (3/8, 5/8)
        logits = np.log([[0.5, 0.5], [0.25, 0.75]])
        stacked = pass_over(logits, np.array([[1.0], [2.0]]),
                            sp.csr_matrix([[0.0, 1.0], [0.5, 0.5]]), 0.0, 1, seeded(0),
                            np.array([1, 0, 1]))
        expected = np.array([[23.0], [22.5], [23.0], [22.0], [23.0]]) / 15.0
        assert np.allclose(stacked.data, expected, rtol=1e-12, atol=0.0)

    def test_matches_dense_oracle_without_dropout(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(7, 3))
        x_u = (rng.random((4, 7)) < 0.5).astype(float)
        state = rng.normal(size=(7, 2))
        for steps in (1, 2, 3):
            e_users, e_items = run_pass(logits, x_u, state, 0.0, steps, seeded(1))
            expected_users, expected_items = dense_pass(logits, x_u, state, steps)
            assert np.abs(e_items - expected_items).max() <= 1e-12
            assert np.abs(e_users - expected_users).max() <= 1e-12

    def test_selected_rows_match_all_rows_without_dropout(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 3)) @ rng.normal(size=(4, 3)).T
        x_u = (rng.random((5, 7)) < 0.4).astype(float)
        state = rng.normal(size=(7, 2))
        user_rows, item_rows = np.array([0, 3, 4]), np.array([1, 2, 6])
        for steps in (1, 2):
            all_u, all_i = run_pass(logits, x_u, state, 0.0, steps, seeded(0))
            sel_u, sel_i = run_pass(logits, x_u[user_rows], state, 0.0, steps, seeded(0),
                                    item_rows)
            assert np.allclose(sel_u, all_u[user_rows], rtol=1e-12, atol=0.0)
            assert np.allclose(sel_i, all_i[item_rows], rtol=1e-12, atol=0.0)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(4)
        logits, state = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        x_u = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        a = run_pass(logits, x_u, state, 0.5, 2, seeded(77))
        b = run_pass(logits, x_u, state, 0.5, 2, seeded(77))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("steps", [1, 3])
    def test_dropout_stream_draws_one_pool_mask_per_step(self, steps):
        # per earlier step a pool mask and an item mask over H_i; then the
        # final step's one pool mask, the item_rows mask and the user mask
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 3))
        x_u = (rng.random((4, 5)) < 0.5).astype(float)
        state = rng.normal(size=(5, 2))
        item_rows = np.array([4, 0, 4])
        used = seeded(31)
        run_pass(logits, x_u, state, 0.5, steps, used, item_rows)
        fresh = seeded(31)
        for _ in range(steps - 1):
            fresh.random((5, 3))
            fresh.random((5, 3))
        fresh.random((5, 3))
        fresh.random((3, 3))
        fresh.random((4, 3))
        assert used.bit_generator.state == fresh.bit_generator.state

    def test_dropout_unbiased_on_small_instance(self):
        # 3 items x 2 hyperedges; sample mean over many mask draws stays
        # within 3 standard errors of the exact drop_rate=0 output
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(3, 2))
        x_u = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        state = rng.normal(size=(3, 1))
        exact_u, exact_i = run_pass(logits, x_u, state, 0.0, 1, seeded(0))

        draws = 2000
        samples_u = np.empty((draws,) + exact_u.shape)
        samples_i = np.empty((draws,) + exact_i.shape)
        for t in range(draws):
            samples_u[t], samples_i[t] = run_pass(logits, x_u, state, 0.5, 1, seeded(t))
        for samples, exact in ((samples_u, exact_u), (samples_i, exact_i)):
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
            assert (np.abs(mean - exact) <= 3.0 * stderr).all()


def modality_stacks(params, views, cfg) -> list[np.ndarray]:
    """Each modality's stack as eval mode computes it: `hypergraph_pass`
    without dropout over every user and every item."""
    items = np.arange(params.num_items)
    return [hypergraph_pass(f.matrix, params.named[f"V_{f.modality}"],
                            params.named[f"W_{f.modality}"], views.x_u, 0.0, cfg.hyper_steps,
                            seeded(0), items).data
            for f in views.features]


@pytest.mark.parametrize("hyper_steps", [1, 2, 3, 4, 5])
def test_rows_stay_in_the_convex_hull_of_the_item_state(hyper_steps):
    # without dropout both broadcasts are row-stochastic, so no row of a
    # modality's stack is longer than the longest row of F_m W_m
    ds, feats = micro_dataset()
    cfg = micro_config(hyper_steps=hyper_steps)
    views = build_views(ds, feats, cfg)
    params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    for f in feats:
        params.named[f"V_{f.modality}"].data *= 10.0  # sharper incidence rows
    stacks = modality_stacks(params, views, cfg)
    assert len(stacks) == len(feats) == 2
    for f, stacked in zip(views.features, stacks):
        bound = np.linalg.norm(f.matrix @ params.named[f"W_{f.modality}"].data, axis=1).max()
        assert np.linalg.norm(stacked, axis=1).max() <= bound + 1e-12, f.modality


def hyper_view(features, edit=None):
    """The eval-mode hypergraph view of the micro dataset over `features`
    (the fused rows of a `forward` with that view alone on) and each
    modality's stack, after `edit` has changed the named parameters in
    place."""
    ds, _ = micro_dataset()
    cfg = micro_config(use_ui=False, use_ii=False)
    views = build_views(ds, features, cfg)
    params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    if edit is not None:
        edit(params.named)
    return forward(params, views, cfg, mode="eval").fused.data, modality_stacks(params, views, cfg)


class TestAggregate:
    def test_single_modality_is_identity(self):
        e_h, (stacked,) = hyper_view(micro_dataset()[1][:1])
        assert np.array_equal(e_h, stacked)

    def test_two_identical_modalities_double(self):
        image = micro_dataset()[1][0].matrix
        feats = [ModalityFeatures("image", image), ModalityFeatures("text", image.copy())]

        def tie(named):
            for kind in ("W", "V"):
                named[f"{kind}_text"].data[...] = named[f"{kind}_image"].data

        e_h, (a, b) = hyper_view(feats, tie)
        assert np.array_equal(a, b)
        assert np.array_equal(e_h, 2.0 * a)

    def test_disjoint_supports_add(self):
        # the pass is linear in the item state feats @ W, so zeroing W's
        # columns zeroes the same columns of that modality's stack
        def split_columns(named):
            named["W_image"].data[:, 4:] = 0.0
            named["W_text"].data[:, :4] = 0.0

        e_h, (a, b) = hyper_view(micro_dataset()[1], split_columns)
        assert a[:, :4].any() and not a[:, 4:].any()
        assert b[:, 4:].any() and not b[:, :4].any()
        assert np.array_equal(e_h, a + b)
