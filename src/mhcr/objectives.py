"""Training objectives: BPR ranking loss, the two temperature-scaled
contrastive losses, embedding regularization, and their weighted
composition.

All similarities are cosine: embeddings are L2-normalized before any inner
product, which makes every loss invariant to a common positive rescaling
of its inputs.

The contrastive losses take a sequence of disjoint row sets, each its own
pool of in-batch negatives, and sum the per-set means: training passes the
batch's unique user rows and its unique positive item rows, so no node is
its own negative and users and items never compete. A pool of B' rows
costs O(B'^2) per modality pair (hc) or once (ghc).

Every loss, and their weighted total, is a single autodiff node with a
closed-form gradient. Each loss takes the embedding tensors it scores as
its parents, with the row indices it reads: it gathers (and, for the
contrastive losses, normalizes) those rows itself, and hands its inputs
the gradient as those rows (`ad.RowGrad`, one per input). Every loss
computes in float64 whatever the floating type of its inputs: it upcasts
the rows it gathers, so a float32 model's losses and their gradients are
float64 until they are added into its float32 gradients. The contrastive
losses have a softmax-minus-target gradient and are computed as
log-sum-exps shifted per node, so no exponential overflows at any tau > 0;
the losses and their gradients still grow as 1/tau and reach inf at tau
near 1e-307.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import autodiff as ad


@dataclass
class LossBreakdown:
    """Unweighted component values plus the exact weighted total."""

    l_bpr: float
    l_hc: float
    l_ghc: float
    l_reg: float
    total: float

    CSV_FIELDS = ("l_bpr", "l_hc", "l_ghc", "l_reg", "total")


def bpr_loss(fused, users, positives, negatives) -> ad.Tensor:
    """Mean of -ln(sigmoid(<u, p> - <u, n>)) over the batch, where u, p and n
    are rows `users`, `positives` and `negatives` of `fused`: softplus of the
    score margin, computed without overflow. One tape node whose gradient is
    the logistic map of the margin, handed to the user, positive and
    negative rows of `fused` as one `ad.RowGrad`."""
    fused = ad.as_tensor(fused)
    users, positives, negatives = (
        np.asarray(rows, dtype=np.int64) for rows in (users, positives, negatives)
    )
    u, p, n = (fused.data[rows].astype(np.float64, copy=False)
               for rows in (users, positives, negatives))
    margin = (u * n).sum(axis=1) - (u * p).sum(axis=1)

    def backward(g):
        d = (float(g) / margin.size * expit(margin))[:, None]
        rows = np.concatenate([users, positives, negatives])
        return (ad.RowGrad(rows, np.concatenate([d * (n - p), -d * u, d * u])),)

    return ad.custom_op(np.logaddexp(0.0, margin).mean(), (fused,), backward)


class _UnitRows:
    """The batch rows of one input scaled to unit L2 norm (all-zero rows stay
    zero), and the map from their gradient back to the input's rows."""

    def __init__(self, embeddings: ad.Tensor, batch: np.ndarray):
        rows = embeddings.data[batch].astype(np.float64, copy=False)
        self.batch = batch
        self.safe_norms = np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)
        self.data = rows / self.safe_norms

    def grad(self, g: np.ndarray) -> ad.RowGrad:
        inner = (g * self.data).sum(axis=1, keepdims=True)
        return ad.RowGrad(self.batch, (g - self.data * inner) / self.safe_norms)


def _logsumexp_terms(terms: np.ndarray) -> np.ndarray:
    """Per node (column), ln of the sum of exp over its terms (rows), shifted
    by the node's largest term."""
    top = terms.max(axis=0)
    return top + np.log(np.exp(terms - top).sum(axis=0))


def _sum_over_sets(sets: list, inputs: Sequence[ad.Tensor]) -> ad.Tensor:
    """One tape node over `inputs` whose value sums the (value, backward)
    pairs of `sets`, one per row set; its backward hands each input one
    RowGrad holding the rows of every set's RowGrad."""

    def backward(g):
        per_set = [set_backward(float(g)) for _, set_backward in sets]
        return [
            ad.RowGrad(np.concatenate([r.indices for r in grads]),
                       np.concatenate([r.values for r in grads]))
            for grads in zip(*per_set)
        ]

    return ad.custom_op(np.sum([value for value, _ in sets]), inputs, backward)


def _hyper_contrastive_set(inputs: list[ad.Tensor], rows: np.ndarray, inv_tau: float):
    """The cross-modal loss over one row set: its value, and the map from the
    upstream gradient to one RowGrad per input."""
    normalized = [_UnitRows(e, rows) for e in inputs]
    z = [unit.data for unit in normalized]
    pairs = list(combinations(range(len(z)), 2))
    blocks, log_mass, diag = [], [], []
    for a, b in pairs:
        sims = (z[a] * inv_tau) @ z[b].T
        diag.append(np.diagonal(sims).copy())
        row_top = sims.max(axis=1)
        col_top = sims.max(axis=0)
        by_col = sims - col_top
        np.exp(by_col, out=by_col)
        np.subtract(sims, row_top[:, None], out=sims)
        by_row = np.exp(sims, out=sims)
        log_mass.append(row_top + np.log(by_row.sum(axis=1)))
        log_mass.append(col_top + np.log(by_col.sum(axis=0)))
        blocks.append((by_row, row_top, by_col, col_top))
    log_neg = _logsumexp_terms(np.stack(log_mass))
    diag = np.stack(diag)
    log_pos_half = _logsumexp_terms(diag)
    value = np.mean(log_neg - log_pos_half - np.log(2.0))

    # dL/dS_ab * B' = each entry's share of its row node's and its column
    # node's negative mass, minus on the diagonal the pair's share of the
    # positive mass. The shares are the kept exponentials reweighted per node
    # (factors <= 1); one B' x B' matrix per pair is kept for backward.
    weights = []
    for (by_row, row_top, by_col, col_top), d in zip(blocks, diag):
        by_row *= np.exp(row_top - log_neg)[:, None]
        by_col *= np.exp(col_top - log_neg)
        by_row += by_col
        weights.append((by_row, np.exp(d - log_pos_half)[:, None]))

    def backward(g: float) -> list[ad.RowGrad]:
        coef = g * inv_tau / rows.size
        grads = [np.zeros_like(x) for x in z]
        for (a, b), (w, on_diag) in zip(pairs, weights):
            grads[a] += w @ z[b] - on_diag * z[b]
            grads[b] += w.T @ z[a] - on_diag * z[a]
        for grad in grads:
            grad *= coef
        return [unit.grad(grad) for unit, grad in zip(normalized, grads)]

    return value, backward


def hyper_contrastive_loss(
    per_modality: Sequence, row_sets: Sequence[np.ndarray], tau: float
) -> ad.Tensor:
    """Cross-modal contrastive loss, summed over disjoint row sets.

    Within one row set of B' rows, for each node x the positive mass sums
    exp(cos(E_x^m, E_x^m')/tau) over ordered modality pairs m != m'; the
    negative mass sums the same quantity over every node x' of the set (x
    included). The set's term is its mean of -ln(pos / neg); it is
    non-negative because each positive term also appears among the
    negatives. Nodes of different sets are not each other's negatives.

    One tape node whose parents are the per-modality inputs; each input gets
    one RowGrad over the rows of every set. The ordered pair (m', m) reads
    the transpose of the (m, m') similarity block, so each unordered pair
    gives node x its row sum and its column sum. Both masses are
    log-sum-exps shifted per node (row maximum for row sums, column maximum
    for column sums), so no exponential overflows and no node's mass
    underflows to zero at any tau > 0.
    """
    inputs = [ad.as_tensor(e) for e in per_modality]
    inv_tau = 1.0 / tau
    sets = [_hyper_contrastive_set(inputs, np.asarray(rows, dtype=np.int64), inv_tau)
            for rows in row_sets]
    return _sum_over_sets(sets, inputs)


def _graph_hyper_contrastive_set(e_graph: ad.Tensor, e_hyper: ad.Tensor, rows: np.ndarray,
                                 inv_tau: float):
    """The graph-hypergraph InfoNCE over one row set: its value, and the map
    from the upstream gradient to a RowGrad per input."""
    g_rows, h_rows = _UnitRows(e_graph, rows), _UnitRows(e_hyper, rows)
    g, h = g_rows.data, h_rows.data
    sims = (g * inv_tau) @ h.T
    pos = np.diagonal(sims).copy()
    top = sims.max(axis=1)
    np.subtract(sims, top[:, None], out=sims)
    soft = np.exp(sims, out=sims)
    mass = soft.sum(axis=1)
    value = np.mean(top + np.log(mass) - pos)
    soft /= mass[:, None]

    def backward(grad: float) -> list[ad.RowGrad]:
        coef = grad * inv_tau / rows.size
        return [g_rows.grad((soft @ h - h) * coef), h_rows.grad((soft.T @ g - g) * coef)]

    return value, backward


def graph_hyper_contrastive_loss(
    e_graph, e_hyper, row_sets: Sequence[np.ndarray], tau: float
) -> ad.Tensor:
    """InfoNCE aligning the graph-side and hypergraph-side embedding of each
    node against the other nodes of its row set: the per-set means, summed
    over disjoint row sets.

    One tape node whose parents are the two inputs: a row log-sum-exp over
    the normalized rows of each set, shifted by the row maximum so no
    exponential overflows, with the softmax-minus-identity gradient; each
    input gets one RowGrad over the rows of every set."""
    e_graph, e_hyper = ad.as_tensor(e_graph), ad.as_tensor(e_hyper)
    inv_tau = 1.0 / tau
    sets = [_graph_hyper_contrastive_set(e_graph, e_hyper, np.asarray(rows, dtype=np.int64),
                                         inv_tau)
            for rows in row_sets]
    return _sum_over_sets(sets, (e_graph, e_hyper))


def embedding_l2(embeddings, rows) -> ad.Tensor:
    """Mean squared L2 norm of rows `rows` of `embeddings`, as one tape node
    that hands `embeddings` its gradient as those rows."""
    embeddings = ad.as_tensor(embeddings)
    rows = np.asarray(rows, dtype=np.int64)
    x = embeddings.data[rows].astype(np.float64, copy=False)

    def backward(g):
        return (ad.RowGrad(rows, (2.0 * float(g) / rows.size) * x),)

    return ad.custom_op((x * x).sum(axis=1).mean(), (embeddings,), backward)


def total_loss(
    l_bpr,
    l_hc,
    l_ghc,
    l_reg,
    lambda_hc: float,
    lambda_ghc: float,
    lambda_reg: float,
) -> tuple[ad.Tensor, LossBreakdown]:
    """Compose total = l_bpr + hc*l_hc + ghc*l_ghc + reg*l_reg.

    Components may be Tensors (kept in the gradient graph) or plain floats
    (e.g. 0.0 for an ablated term). Returns the total as a Tensor together
    with a float breakdown whose `total` is exactly the same composition.
    """
    parts = [ad.as_tensor(x) for x in (l_bpr, l_hc, l_ghc, l_reg)]
    b, hc, ghc, reg = (t.data for t in parts)
    total = ad.custom_op(
        b + hc * lambda_hc + ghc * lambda_ghc + reg * lambda_reg,
        parts,
        lambda g: (g.copy(), g * lambda_hc, g * lambda_ghc, g * lambda_reg),
    )
    breakdown = LossBreakdown(*(float(x) for x in (b, hc, ghc, reg, total.data)))
    return total, breakdown
