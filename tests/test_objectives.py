"""Loss closed forms, invariants, and composition.

Expected values for the contrastive instances are frozen from hand
derivations: with temperature 0.2 and cosine similarities in {0, 1} the
exponent terms are e^5 and e^0, giving -ln(2e^5 / (2e^5 + 2e^0)) =
ln(1 + e^-5) for the aligned/orthogonal two-node instance of the
cross-modal loss and -ln(e^5 / (e^5 + 1)) for the diagonal instance of
the graph-hypergraph loss.
"""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mhcr import autodiff as ad
from mhcr.dataio import TRAIN, SyntheticConfig, generate_synthetic, split_dataset
from mhcr.errors import ConfigError
from mhcr.hypergraph import hypergraph_pass
from mhcr.item_graph import propagate_items
from mhcr.objectives import (
    LossBreakdown,
    bpr_loss,
    embedding_l2,
    graph_hyper_contrastive_loss,
    hyper_contrastive_loss,
    total_loss,
)
from mhcr.training import (
    Batch,
    TrainConfig,
    build_views,
    check_modality_count,
    forward,
    init_parameters,
)
from mhcr.ui_graph import propagate_ui

from oracles import (
    exp,
    gather_rows,
    log,
    matmul,
    mean,
    mul,
    row_dot,
    row_normalize,
    scale,
    sub,
    tape_bpr_loss,
    tape_embedding_l2,
    tape_total_loss,
    tensor_sum,
    transpose,
)

LN2 = float(np.log(2.0))


def _normalized_batch(embeddings, batch):
    return row_normalize(gather_rows(ad.as_tensor(embeddings), batch))


def batch_pools(users, positives):
    """The two row sets `forward` scores for a batch whose users are rows
    `users` and whose positives are rows `positives`: its unique users and
    its unique positives."""
    return [np.unique(users), np.unique(positives)]


def tape_hyper_contrastive(per_modality, row_sets, tau):
    """Op-by-op tape formulation of the cross-modal loss: per row set, every
    ordered modality pair adds its own B' x B' matmul, scale, exp and sum;
    the sets' means are added."""

    def one_set(batch):
        normalized = [_normalized_batch(e, batch) for e in per_modality]
        pos = neg = None
        for a, b in permutations(range(len(normalized)), 2):
            e_a, e_b = normalized[a], normalized[b]
            pos_term = exp(scale(row_dot(e_a, e_b), 1.0 / tau))
            neg_term = tensor_sum(exp(scale(matmul(e_a, transpose(e_b)), 1.0 / tau)), axis=1)
            pos = pos_term if pos is None else ad.add(pos, pos_term)
            neg = neg_term if neg is None else ad.add(neg, neg_term)
        return mean(sub(log(neg), log(pos)))

    return ad.add(*(one_set(rows) for rows in row_sets))


def tape_graph_hyper_contrastive(e_graph, e_hyper, row_sets, tau):
    """Op-by-op tape formulation of the graph-hypergraph InfoNCE, the sets'
    means added."""

    def one_set(batch):
        g = _normalized_batch(e_graph, batch)
        h = _normalized_batch(e_hyper, batch)
        pos = scale(row_dot(g, h), 1.0 / tau)
        denom = tensor_sum(exp(scale(matmul(g, transpose(h)), 1.0 / tau)), axis=1)
        return mean(sub(log(denom), pos))

    return ad.add(*(one_set(rows) for rows in row_sets))


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def logsumexp_hyper_contrastive(per_modality, row_sets, tau):
    """Cross-modal loss from scipy's logsumexp over every term of each node,
    summed over the row sets."""
    total = 0.0
    for batch in row_sets:
        z = [unit_rows(np.asarray(e)[batch]) for e in per_modality]
        neg_terms, pos_terms = [], []
        for a, b in permutations(range(len(z)), 2):
            neg_terms.append(z[a] @ z[b].T / tau)
            pos_terms.append(np.sum(z[a] * z[b], axis=1) / tau)
        neg = logsumexp(np.concatenate(neg_terms, axis=1), axis=1)
        pos = logsumexp(np.stack(pos_terms, axis=1), axis=1)
        total += float(np.mean(neg - pos))
    return total


def logsumexp_graph_hyper_contrastive(e_graph, e_hyper, row_sets, tau):
    total = 0.0
    for batch in row_sets:
        g, h = unit_rows(e_graph[batch]), unit_rows(e_hyper[batch])
        total += float(np.mean(logsumexp(g @ h.T / tau, axis=1) - np.sum(g * h, axis=1) / tau))
    return total
ALIGNED_ORTHOGONAL = float(-np.log(2 * np.e**5 / (2 * np.e**5 + 2)))  # 0.0067153...
DIAGONAL_INFONCE = float(-np.log(np.e**5 / (np.e**5 + 1)))  # 0.0067153...


def bpr_of_scores(pos, neg) -> ad.Tensor:
    """BPR over given scores: width-1 rows, one user row [1] scoring the
    positive rows `pos` and the negative rows `neg`."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    fused = np.concatenate([[1.0], pos, neg])[:, None]
    return bpr_loss(fused, np.zeros(pos.size, dtype=np.int64), 1 + np.arange(pos.size),
                    1 + pos.size + np.arange(neg.size))


class TestBpr:
    def test_equal_scores_give_ln2(self):
        loss = bpr_of_scores([1.0, -3.0], [1.0, -3.0])
        assert float(loss.data) == pytest.approx(LN2, abs=1e-12)

    def test_large_margin_vanishes(self):
        loss = bpr_of_scores([20.0], [0.0])
        assert float(loss.data) == pytest.approx(2.06e-9, rel=1e-2)

    def test_large_negative_margin_is_linear(self):
        loss = bpr_of_scores([0.0], [20.0])
        assert float(loss.data) == pytest.approx(20.0, abs=1e-6)

    @given(
        margin=st.floats(-30, 30),
        delta=st.floats(1e-3, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_margin(self, margin, delta):
        low = float(bpr_of_scores([margin], [0.0]).data)
        high = float(bpr_of_scores([margin + delta], [0.0]).data)
        assert high < low


def two_node_two_modality(identical: bool) -> list[ad.Tensor]:
    if identical:
        row = np.array([[1.0, 2.0], [1.0, 2.0]])
        return [ad.Tensor(row), ad.Tensor(row)]
    e = np.eye(2)
    return [ad.Tensor(e), ad.Tensor(e)]


class TestHyperContrastive:
    def test_identical_embeddings_give_ln2(self):
        for tau in (0.1, 0.2, 1.0):
            loss = hyper_contrastive_loss(two_node_two_modality(True), [np.array([0, 1])], tau)
            assert float(loss.data) == pytest.approx(LN2, abs=1e-10)

    def test_aligned_vs_orthogonal_closed_form(self):
        # each node's two modality views coincide; the two nodes are orthogonal
        loss = hyper_contrastive_loss(two_node_two_modality(False), [np.array([0, 1])], 0.2)
        assert float(loss.data) == pytest.approx(ALIGNED_ORTHOGONAL, abs=1e-6)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        embeddings = [ad.Tensor(rng.normal(size=(6, 4))) for _ in range(3)]
        loss = hyper_contrastive_loss(embeddings, [np.arange(6)], 0.2)
        assert float(loss.data) >= 0.0

    def test_single_modality_rejected(self):
        # the loss compares modalities pairwise: a config that trains it
        # with one modality is refused before any view is built
        with pytest.raises(ConfigError, match="2 modalities"):
            check_modality_count(TrainConfig(), 1)
        check_modality_count(TrainConfig(), 2)
        check_modality_count(TrainConfig(lambda_hc=0.0), 1)

    def test_three_modalities_identical_still_closed_form(self):
        # m(m-1)=6 positive terms over 2*6 equal denominator terms per node
        row = np.array([[1.0, 0.5], [1.0, 0.5]])
        embeddings = [ad.Tensor(row) for _ in range(3)]
        loss = hyper_contrastive_loss(embeddings, [np.array([0, 1])], 0.7)
        assert float(loss.data) == pytest.approx(LN2, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        embeddings = [rng.normal(size=(5, 3)) for _ in range(2)]
        batch = [np.arange(5)]
        base = float(hyper_contrastive_loss([ad.Tensor(e) for e in embeddings], batch, 0.2).data)
        for c in (0.5, 2.0, 10.0):
            scaled = float(hyper_contrastive_loss(
                [ad.Tensor(c * e) for e in embeddings], batch, 0.2
            ).data)
            assert scaled == pytest.approx(base, abs=1e-6)


class TestGraphHyperContrastive:
    def test_batch_of_one_is_zero(self):
        g = ad.Tensor(np.array([[1.0, 2.0]]))
        h = ad.Tensor(np.array([[0.3, -1.0]]))
        loss = graph_hyper_contrastive_loss(g, h, [np.array([0])], 0.2)
        assert float(loss.data) == pytest.approx(0.0)

    def test_identical_embeddings_give_ln_n(self):
        for n in (2, 5, 9):
            g = ad.Tensor(np.ones((n, 3)))
            h = ad.Tensor(np.ones((n, 3)))
            loss = graph_hyper_contrastive_loss(g, h, [np.arange(n)], 0.2)
            assert float(loss.data) == pytest.approx(np.log(n), abs=1e-10)

    def test_diagonal_closed_form(self):
        e = np.eye(2)
        loss = graph_hyper_contrastive_loss(ad.Tensor(e), ad.Tensor(e), [np.array([0, 1])], 0.2)
        assert float(loss.data) == pytest.approx(DIAGONAL_INFONCE, abs=1e-6)

    def test_non_negative_when_own_pair_maximal(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, 3))
        loss = graph_hyper_contrastive_loss(ad.Tensor(g), ad.Tensor(g.copy()), [np.arange(4)], 0.2)
        assert float(loss.data) >= 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(5, 3))
        h = rng.normal(size=(5, 3))
        batch = [np.arange(5)]
        base = float(graph_hyper_contrastive_loss(ad.Tensor(g), ad.Tensor(h), batch, 0.2).data)
        for c in (0.5, 2.0, 10.0):
            scaled = float(graph_hyper_contrastive_loss(
                ad.Tensor(c * g), ad.Tensor(c * h), batch, 0.2
            ).data)
            assert scaled == pytest.approx(base, abs=1e-6)


class TestTotal:
    def test_zero_weights_reduce_to_bpr(self):
        total, breakdown = total_loss(1.25, 7.0, 3.0, 2.0, 0.0, 0.0, 0.0)
        assert float(total.data) == 1.25
        assert breakdown.total == 1.25

    def test_exact_composition(self):
        total, b = total_loss(0.5, 2.0, 3.0, 4.0, 1e-5, 0.01, 1e-4)
        recomposed = b.l_bpr + 1e-5 * b.l_hc + 0.01 * b.l_ghc + 1e-4 * b.l_reg
        assert b.total == recomposed
        assert float(total.data) == b.total

    def test_all_zero_components(self):
        total, b = total_loss(0.0, 0.0, 0.0, 0.0, 1e-5, 0.01, 1e-4)
        assert float(total.data) == 0.0 and b.total == 0.0

    def test_gradient_flows_through_composition(self):
        x = ad.Tensor(np.array([[1.0, 2.0], [0.5, -1.0]]), requires_grad=True)
        total, _ = total_loss(
            bpr_loss(x, [0], [0], [1]),
            0.0,
            0.0,
            embedding_l2(x, [0, 1]),
            1e-5,
            0.01,
            1e-4,
        )
        total.backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


def test_embedding_l2_mean_squared_norm():
    embeddings = np.array([[3.0, 4.0], [1.0, 1.0], [0.0, 2.0]])
    assert float(embedding_l2(embeddings, [0, 2]).data) == pytest.approx((25.0 + 4.0) / 2.0)
    assert float(embedding_l2(embeddings, [0, 0, 2]).data) == pytest.approx((50.0 + 4.0) / 3.0)


class TestLossGradients:
    def test_bpr_gradient_matches_finite_differences(self):
        from conftest import assert_grad_close, finite_difference

        # users and items repeat, and item 4 is both a positive and a negative
        rng = np.random.default_rng(0)
        fused = rng.normal(size=(7, 3))
        rows = (np.array([0, 1, 0, 2]), np.array([3, 4, 4, 5]), np.array([6, 3, 4, 6]))
        fused_t = ad.Tensor(fused, requires_grad=True)
        bpr_loss(fused_t, *rows).backward()

        def value():
            return float(bpr_loss(ad.Tensor(fused), *rows).data)

        assert_grad_close(fused_t.grad, finite_difference(value, fused), "bpr")

    def test_hc_gradient_on_two_node_two_modality_instance(self):
        from conftest import assert_grad_close, finite_difference

        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        batch = [np.array([0, 1])]
        a_t = ad.Tensor(a, requires_grad=True)
        b_t = ad.Tensor(b, requires_grad=True)
        hyper_contrastive_loss([a_t, b_t], batch, 0.2).backward()

        def value():
            return float(hyper_contrastive_loss([ad.Tensor(a), ad.Tensor(b)], batch, 0.2).data)

        assert_grad_close(a_t.grad, finite_difference(value, a), "hc/a")
        assert_grad_close(b_t.grad, finite_difference(value, b), "hc/b")


    def test_hc_gradient_three_modalities_batch_of_six(self):
        from conftest import assert_grad_close, finite_difference

        rng = np.random.default_rng(4)
        embeddings = [rng.normal(size=(6, 4)) for _ in range(3)]
        batch = batch_pools(users=[0, 1, 0, 2, 1, 2], positives=[3, 4, 3, 5, 4, 5])
        tensors = [ad.Tensor(e, requires_grad=True) for e in embeddings]
        hyper_contrastive_loss(tensors, batch, 0.2).backward()

        def value():
            loss = hyper_contrastive_loss([ad.Tensor(e) for e in embeddings], batch, 0.2)
            return float(loss.data)

        for m, (e, t) in enumerate(zip(embeddings, tensors)):
            assert_grad_close(t.grad, finite_difference(value, e), f"hc/{m}")

    def test_ghc_gradient_matches_finite_differences(self):
        from conftest import assert_grad_close, finite_difference

        rng = np.random.default_rng(5)
        g = rng.normal(size=(6, 4))
        h = rng.normal(size=(6, 4))
        batch = batch_pools(users=[0, 1, 0, 2, 1, 2], positives=[3, 4, 3, 5, 4, 5])
        g_t = ad.Tensor(g, requires_grad=True)
        h_t = ad.Tensor(h, requires_grad=True)
        graph_hyper_contrastive_loss(g_t, h_t, batch, 0.2).backward()

        def value():
            return float(graph_hyper_contrastive_loss(ad.Tensor(g), ad.Tensor(h), batch, 0.2).data)

        assert_grad_close(g_t.grad, finite_difference(value, g), "ghc/g")
        assert_grad_close(h_t.grad, finite_difference(value, h), "ghc/h")

    def test_l2_and_total_gradients_match_finite_differences(self):
        from conftest import assert_grad_close, finite_difference

        rng = np.random.default_rng(7)
        rows, scores = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))

        def build(r, s):
            l_bpr = bpr_loss(s, [0, 0], [1, 2], [2, 1])
            l_reg = embedding_l2(r, [0, 3, 3, 4])
            return total_loss(l_bpr, 0.0, tensor_sum(s), l_reg, 0.3, 0.7, 1.9)[0]

        r_t, s_t = ad.Tensor(rows, requires_grad=True), ad.Tensor(scores, requires_grad=True)
        build(r_t, s_t).backward()

        def value():
            return float(build(ad.Tensor(rows), ad.Tensor(scores)).data)

        assert_grad_close(r_t.grad, finite_difference(value, rows), "l2")
        assert_grad_close(s_t.grad, finite_difference(value, scores), "total")


def _rel_err(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300)


class TestFusedAgainstTape:
    """The single-node losses against the op-by-op tape formulation, with
    duplicate batch rows (a node read twice in the batch)."""

    BATCH = np.array([0, 3, 1, 3, 5, 2, 0, 6, 4, 7])

    @pytest.mark.parametrize("modalities", [2, 3])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0])
    def test_hc_value_and_gradients(self, modalities, tau):
        rng = np.random.default_rng(10 * modalities + int(100 * tau))
        embeddings = [rng.normal(size=(8, 5)) for _ in range(modalities)]
        fused_in = [ad.Tensor(e, requires_grad=True) for e in embeddings]
        tape_in = [ad.Tensor(e, requires_grad=True) for e in embeddings]
        fused = hyper_contrastive_loss(fused_in, [self.BATCH], tau)
        tape = tape_hyper_contrastive(tape_in, [self.BATCH], tau)
        assert _rel_err(float(fused.data), float(tape.data)) <= 1e-12
        fused.backward()
        tape.backward()
        for f, t in zip(fused_in, tape_in):
            assert _rel_err(f.grad, t.grad) <= 1e-10

    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0])
    def test_ghc_value_and_gradients(self, tau):
        rng = np.random.default_rng(int(100 * tau))
        g, h = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))
        fused_in = [ad.Tensor(g, requires_grad=True), ad.Tensor(h, requires_grad=True)]
        tape_in = [ad.Tensor(g, requires_grad=True), ad.Tensor(h, requires_grad=True)]
        fused = graph_hyper_contrastive_loss(*fused_in, [self.BATCH], tau)
        tape = tape_graph_hyper_contrastive(*tape_in, [self.BATCH], tau)
        assert _rel_err(float(fused.data), float(tape.data)) <= 1e-12
        fused.backward()
        tape.backward()
        for f, t in zip(fused_in, tape_in):
            assert _rel_err(f.grad, t.grad) <= 1e-10


    def test_bpr_l2_and_total_bitwise(self):
        # against row gathers, row dot products and the BPR node over scores;
        # users and items repeat, and items 5 and 7 are positives and negatives.
        # Values and the L2 and total gradients agree bit for bit; BPR hands
        # its rows one RowGrad of d (n - p), -d u and d u, which sums the
        # fused gradient in another order than the tape, so that agrees to
        # a relative 1e-12
        rng = np.random.default_rng(12)
        fused = rng.normal(size=(9, 4)) * np.array([1.0] * 4 + [30.0] * 5)[:, None]
        e0 = rng.normal(size=(12, 4))
        users = np.array([0, 1, 0, 2, 3, 1, 0, 3, 2])
        positives = np.array([4, 5, 5, 6, 7, 8, 4, 7, 5])
        negatives = np.array([7, 8, 6, 5, 5, 4, 8, 6, 7])
        reg_rows = np.array([0, 1, 0, 2, 11, 5, 5, 9, 3, 9])
        results = []
        for bpr, l2, total in ((bpr_loss, embedding_l2, lambda *a: total_loss(*a)[0]),
                               (tape_bpr_loss, tape_embedding_l2, tape_total_loss)):
            inputs = [ad.Tensor(x.copy(), requires_grad=True) for x in (fused, e0)]
            hc = ad.Tensor(np.array(1.7), requires_grad=True)
            l_bpr = bpr(inputs[0], users, positives, negatives)
            loss = total(l_bpr, hc, 0.0, l2(inputs[1], reg_rows), 1e-5, 0.01, 1e-4)
            loss.backward()
            results.append([loss.data] + [t.grad for t in inputs + [hc]])
        (value, g_fused, g_e0, g_hc), (tape_value, tape_fused, tape_e0, tape_hc) = results
        assert np.array_equal(value, tape_value)
        assert np.array_equal(g_e0, tape_e0) and np.array_equal(g_hc, tape_hc)
        assert _rel_err(g_fused, tape_fused) <= 1e-12


# (inputs, the loss, its op-by-op tape reference) per contrastive loss
ROW_SET_LOSSES = {
    "hc": (3, hyper_contrastive_loss, tape_hyper_contrastive),
    "ghc": (2, lambda inputs, sets, tau: graph_hyper_contrastive_loss(*inputs, sets, tau),
            lambda inputs, sets, tau: tape_graph_hyper_contrastive(*inputs, sets, tau)),
}


@pytest.mark.parametrize("loss", list(ROW_SET_LOSSES))
class TestRowSets:
    """Each row set is its own pool: the loss is the sum of the per-set
    losses, one tape node, and each input gets one RowGrad over the rows of
    every set."""

    POOLS = [np.array([0, 1, 3, 5]), np.array([2, 4, 6, 7])]

    @staticmethod
    def inputs(loss, seed):
        count, loss_of, tape_of = ROW_SET_LOSSES[loss]
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(8, 5)) for _ in range(count)], loss_of, tape_of

    def test_sum_of_the_per_set_losses_bit_for_bit(self, loss):
        values, loss_of, _ = self.inputs(loss, 20)
        joint_in = [ad.Tensor(v, requires_grad=True) for v in values]
        joint = loss_of(joint_in, self.POOLS, 0.2)
        joint.backward()
        parts_in = [ad.Tensor(v, requires_grad=True) for v in values]
        parts = [loss_of(parts_in, [rows], 0.2) for rows in self.POOLS]
        ad.add(*parts).backward()
        assert joint._parents == tuple(joint_in)
        assert joint.data == parts[0].data + parts[1].data
        for j, p in zip(joint_in, parts_in):
            assert np.array_equal(j.grad, p.grad)

    def test_one_row_grad_per_input_over_unique_rows(self, loss):
        values, loss_of, _ = self.inputs(loss, 30)
        inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        grads = loss_of(inputs, self.POOLS, 0.2)._backward(np.array(1.0))
        assert len(grads) == len(inputs)
        for grad in grads:
            assert isinstance(grad, ad.RowGrad)
            assert np.array_equal(grad.indices, np.concatenate(self.POOLS))

    def test_a_set_of_one_row_adds_zero(self, loss):
        # a batch whose positives are all one item: that pool's term is 0
        values, loss_of, _ = self.inputs(loss, 40)
        inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        users, item = self.POOLS[0], np.array([6])
        total = loss_of(inputs, [users, item], 0.2)
        total.backward()
        assert np.isfinite(float(total.data))
        assert all(np.isfinite(t.grad).all() for t in inputs)
        assert float(loss_of(inputs, [item], 0.2).data) == pytest.approx(0.0, abs=1e-12)
        users_only = float(loss_of(inputs, [users], 0.2).data)
        assert float(total.data) == pytest.approx(users_only, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.05, 1.0])
    def test_against_the_tape(self, loss, tau):
        values, loss_of, tape_of = self.inputs(loss, 50 + int(100 * tau))
        fused_in = [ad.Tensor(v, requires_grad=True) for v in values]
        tape_in = [ad.Tensor(v, requires_grad=True) for v in values]
        fused = loss_of(fused_in, self.POOLS, tau)
        tape = tape_of(tape_in, self.POOLS, tau)
        assert _rel_err(float(fused.data), float(tape.data)) <= 1e-12
        fused.backward()
        tape.backward()
        for f, t in zip(fused_in, tape_in):
            assert _rel_err(f.grad, t.grad) <= 1e-10


class TestTinyTemperature:
    @pytest.mark.parametrize("tau", [1e-4, 1e-3])
    def test_hc_finite_and_matches_logsumexp(self, tau):
        rng = np.random.default_rng(6)
        embeddings = [rng.normal(size=(7, 4)) for _ in range(3)]
        batch = batch_pools(users=[0, 1, 2, 0, 2, 1], positives=[3, 4, 5, 6, 3, 5])
        tensors = [ad.Tensor(e, requires_grad=True) for e in embeddings]
        loss = hyper_contrastive_loss(tensors, batch, tau)
        expected = logsumexp_hyper_contrastive(embeddings, batch, tau)
        assert np.isfinite(float(loss.data)) and float(loss.data) >= 0.0
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)
        loss.backward()
        assert all(np.isfinite(t.grad).all() for t in tensors)

    @pytest.mark.parametrize("tau", [1e-4, 1e-3])
    def test_ghc_finite_and_matches_logsumexp(self, tau):
        rng = np.random.default_rng(7)
        g, h = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        batch = batch_pools(users=[0, 1, 2, 0, 2, 1], positives=[3, 4, 5, 6, 3, 5])
        g_t, h_t = ad.Tensor(g, requires_grad=True), ad.Tensor(h, requires_grad=True)
        loss = graph_hyper_contrastive_loss(g_t, h_t, batch, tau)
        expected = logsumexp_graph_hyper_contrastive(g, h, batch, tau)
        assert np.isfinite(float(loss.data)) and float(loss.data) >= 0.0
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)
        loss.backward()
        assert np.isfinite(g_t.grad).all() and np.isfinite(h_t.grad).all()


class TestOneTapeNode:
    """Each loss is a single node whose parents are the tensors it reads,
    with the row gathers (and, for the contrastive losses, the row
    normalization) inside; the total is one node, and so is each view
    step."""

    @staticmethod
    def assert_one_node_matching_the_reference(loss, reference, inputs, tape_inputs):
        assert loss._parents == tuple(inputs)
        assert float(loss.data) == pytest.approx(float(reference.data), rel=1e-12)
        loss.backward()
        reference.backward()
        for t, ref in zip(inputs, tape_inputs):
            assert _rel_err(t.grad, ref.grad) <= 1e-12

    def test_hc(self):
        rng = np.random.default_rng(8)
        batch = [np.array([0, 2]), np.array([1])]
        values = [rng.normal(size=(3, 4)) for _ in range(3)]
        inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        tape_inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        self.assert_one_node_matching_the_reference(
            hyper_contrastive_loss(inputs, batch, 0.2),
            tape_hyper_contrastive(tape_inputs, batch, 0.2), inputs, tape_inputs,
        )

    def test_ghc(self):
        rng = np.random.default_rng(9)
        batch = [np.array([0, 2]), np.array([1])]
        values = [rng.normal(size=(3, 4)) for _ in range(2)]
        inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        tape_inputs = [ad.Tensor(v, requires_grad=True) for v in values]
        self.assert_one_node_matching_the_reference(
            graph_hyper_contrastive_loss(*inputs, batch, 0.2),
            tape_graph_hyper_contrastive(*tape_inputs, batch, 0.2), inputs, tape_inputs,
        )

    def test_row_dot(self):
        # bit for bit the product and row sum of the op-by-op tape
        rng = np.random.default_rng(12)
        values, weights = [rng.normal(size=(4, 3)) for _ in range(2)], rng.normal(size=4)
        results = []
        for dot in (row_dot, lambda a, b: tensor_sum(mul(a, b), axis=1)):
            a, b = (ad.Tensor(v, requires_grad=True) for v in values)
            dots = dot(a, b)
            tensor_sum(mul(dots, ad.constant(weights))).backward()
            results.append((dots, a, b))
        (dots, a, b), (reference, ref_a, ref_b) = results
        assert dots._parents == (a, b)
        assert np.array_equal(dots.data, reference.data)
        assert np.array_equal(a.grad, ref_a.grad) and np.array_equal(b.grad, ref_b.grad)


    @staticmethod
    def tape_nodes(outputs, inputs=()) -> int:
        """Nodes with a backward reachable from `outputs`, not entering `inputs`."""
        stop = {id(t) for t in inputs}
        seen, stack = set(), list(outputs)
        while stack:
            node = stack.pop()
            if id(node) in seen or id(node) in stop or node._backward is None:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
        return len(seen)

    def test_bpr_l2_total(self):
        rng = np.random.default_rng(10)
        fused, e0 = (ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True) for _ in range(2))
        l_bpr = bpr_loss(fused, [0, 1, 0], [2, 3, 3], [4, 5, 2])
        l_reg = embedding_l2(e0, [0, 1, 2, 3, 3])
        assert l_bpr._parents == (fused,) and l_reg._parents == (e0,)
        total, _ = total_loss(l_bpr, 0.0, 0.0, l_reg, 1e-5, 0.01, 1e-4)
        assert self.tape_nodes([total], [fused, e0]) == 3

    @pytest.mark.parametrize("steps", [1, 3])
    def test_each_view_is_a_fixed_number_of_nodes(self, micro, steps):
        _, _, _, views = micro
        rng = np.random.default_rng(11)
        e0 = ad.Tensor(rng.normal(size=(views.adjacency.shape[0], 3)), requires_grad=True)
        rows = np.array([0, 2, 5])
        for layers in (1, 3):
            assert self.tape_nodes([propagate_ui(views.adjacency, e0, layers, rows)], [e0]) == 1
        weights = [ad.Tensor(rng.normal(size=(f.dim, 3)), requires_grad=True)
                   for f in views.features]
        items = propagate_items(views.smoothed, weights, rows, 2)
        assert self.tape_nodes([items], weights) == 1
        assert items._parents == tuple(weights)
        feats = views.features[0]
        v = ad.Tensor(rng.normal(size=(2, feats.dim)), requires_grad=True)
        stacked = hypergraph_pass(feats.matrix, v, weights[0], views.x_u[[0, 3]], 0.5, steps,
                                  np.random.default_rng(3), rows)
        assert self.tape_nodes([stacked], [v, weights[0]]) == 1
        assert stacked._parents == (v, weights[0])

    def test_full_model_step_records_13_nodes(self):
        # the UI view; the item view; per modality a pass; the hypergraph,
        # graph and fused sums; four losses and their total. With only the
        # hypergraph view on: per modality a pass, the hypergraph sum (which
        # is the fused view), BPR, hc, L2 and the total, 8 nodes
        ds, feats = generate_synthetic(SyntheticConfig(
            num_users=30, num_items=20, num_clusters=2, mean_interactions=4.0,
            modality_dims={"image": 5, "video": 4, "text": 3}, seed=2))
        ds = split_dataset(ds, seed=2)
        users, items = ds.split_pairs(TRAIN)
        batch = Batch(users[:8], items[:8], items[8:16])
        for hyper_steps in (1, 2, 3):
            cfg = TrainConfig(d=4, k_knn=3, k_hyper=3, layers=2, hyper_steps=hyper_steps)
            views = build_views(ds, feats, cfg)
            params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
            result = forward(params, views, cfg, batch=batch, mode="train", rng=0)
            assert self.tape_nodes([result.total]) == 13, hyper_steps
            hem_only = replace(cfg, use_ui=False, use_ii=False)
            result = forward(params, views, hem_only, batch=batch, mode="train", rng=0)
            assert self.tape_nodes([result.total]) == 8, hyper_steps


def test_breakdown_csv_fields():
    assert LossBreakdown.CSV_FIELDS == ("l_bpr", "l_hc", "l_ghc", "l_reg", "total")
