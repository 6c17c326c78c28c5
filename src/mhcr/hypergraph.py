"""Hypergraph view: learnable hyperedges over modality features, and
dropout-regularized pool-then-broadcast message passing.

Incidence H_i links items to K latent hyperedges: row i is the softmax over
the hyperedges of item i's logits F_m V_m^T (as in LGMRec). User incidence
H_u = D_u^-1 X_u H_i averages the rows of each user's train items. A step
pools one message per hyperedge through D_e^-1, D_e holding the column sums
of the undropped H_i (as in HGNN), and broadcasts it to items and users:

    P = D_e^-1 DROP(H_i)^T @ E_i,   E_i' = DROP(H_i) @ P,   E_u' = DROP(H_u) @ P

from the item state E_i = F_m W_m, with an independent dropout mask per
DROP occurrence, drawn in that order. Without dropout both operators are
row-stochastic, so at any number of steps every row is a convex
combination of rows of F_m W_m. Dropout uses inverted scaling (survivors
divided by the keep probability), so each factor is unbiased and
evaluation needs no rescale.

Pooling is K x d, so the broadcast is the only per-row work: a caller
names the users and items it reads (a training batch passes its ids and
the rows of D_u^-1 X_u of its users, evaluation every row), and only those
rows of H_u, of the final broadcast and of its dropout masks are computed.

On the tape, the whole pass (H_i, every step, H_u and both final
broadcasts) is one node, a child of V_m and W_m, returning the stacked
(user; item) rows. Its backward sweeps the steps in reverse with the
product rule through every mask and D_e, takes H_i's gradient through the
softmax to V_m, and hands W_m F_m^T times the item state's gradient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ShapeError


def build_incidence(features: np.ndarray, v_m: np.ndarray) -> np.ndarray:
    """H_i: per item, the softmax over the K hyperedges of its logits
    F_m @ V_m^T, shifted by the item's largest logit. Each row sums to 1."""
    if features.shape[1] != v_m.shape[1]:
        raise ShapeError(f"feature width {features.shape[1]} != hyperedge width {v_m.shape[1]}")
    # K x |I|, so each reduction over the K hyperedges runs across whole rows
    h = v_m @ features.T
    h -= h.max(axis=0)
    np.exp(h, out=h)
    h /= h.sum(axis=0)
    return np.ascontiguousarray(h.T)


def _mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator, dtype):
    """The factor of one DROP occurrence: None (keep everything) or an
    inverted-dropout mask drawn from `rng`, in `dtype`. The draws do not
    depend on `dtype`, so at a rate whose 1 / (1 - rate) both types hold
    exactly (0.5 among them) the factor has the same values in either."""
    if rate <= 0.0:
        return None
    return np.multiply(rng.random(shape) >= rate, 1.0 / (1.0 - rate), dtype=dtype)


def _masked(x: np.ndarray, mask) -> np.ndarray:
    return x if mask is None else x * mask


def _step(h: np.ndarray, d_e: np.ndarray, state: np.ndarray, targets: list[np.ndarray],
          rate: float, rng: np.random.Generator, outs: list):
    """One pool P = D_e^-1 (DROP(H)^T @ state), its mask drawn first, and
    DROP(T) @ P into `outs` (arrays or None) for each of `targets`, one
    mask each in order; returns them and their VJP: gs -> (grads of the
    targets, of H, of state), the targets' pool gradients summed first."""
    pool_mask = _mask(h.shape, rate, rng, state.dtype)
    source = _masked(h, pool_mask)
    pooled = source.T @ state
    pooled /= d_e[:, None]
    target_masks = [_mask(t.shape, rate, rng, state.dtype) for t in targets]
    dropped = [_masked(t, mask) for t, mask in zip(targets, target_masks)]

    def vjp(gs):
        g_pooled = sum(t.T @ g for t, g in zip(dropped, gs))
        g_pooled /= d_e[:, None]
        g_h = _masked(state @ g_pooled.T, pool_mask)
        # D_e sums each column of H, so its gradient reaches every row
        g_h -= (g_pooled * pooled).sum(axis=1)
        g_targets = [_masked(g @ pooled.T, mask) for g, mask in zip(gs, target_masks)]
        return g_targets, g_h, source @ g_pooled

    return [np.matmul(t, pooled, out=o) for t, o in zip(dropped, outs)], vjp


def hypergraph_pass(features: np.ndarray, v_m: ad.Tensor, w_m: ad.Tensor, x_rows: sp.spmatrix,
                    drop_rate: float, steps: int, rng: np.random.Generator,
                    item_rows: np.ndarray) -> ad.Tensor:
    """Run `steps` rounds of hyperedge pooling and broadcasting of the item
    state F_m W_m over the incidence H_i = `build_incidence(features, v_m)`,
    as one tape node.

    Earlier steps update only the item state, over every item. The final
    step broadcasts its pool to `item_rows` and to the users through
    H_u = `x_rows` @ H_i, where `x_rows` holds the rows of D_u^-1 X_u of
    the users the caller reads. Masks are resampled for every DROP
    occurrence in a fixed order (per step the pool's, then the items',
    then in the final step the users'), so a seeded `rng` pins the whole
    stochastic chain. Returns the (user; item) states after the final
    step, stacked: the rows of `x_rows`, then `item_rows`.
    """
    v_m, w_m = ad.as_tensor(v_m), ad.as_tensor(w_m)
    h = build_incidence(features, v_m.data)
    if x_rows.shape[1] != h.shape[0]:
        raise ShapeError(f"interaction columns {x_rows.shape[1]} != incidence rows {h.shape[0]}")
    d_e = h.sum(axis=0)
    # a hyperedge whose weight underflows to 0 in every row pools nothing:
    # dividing its zero sum by 1 keeps 0/0 out of the view
    d_e[d_e == 0.0] = 1.0

    e_cur, earlier = features @ w_m.data, []
    for _ in range(steps - 1):
        (e_cur,), vjp = _step(h, d_e, e_cur, [h], drop_rate, rng, [None])
        earlier.append(vjp)
    n_users = x_rows.shape[0]
    stacked = np.empty((n_users + len(item_rows), e_cur.shape[1]), dtype=e_cur.dtype)
    _, last = _step(h, d_e, e_cur, [h[item_rows], x_rows @ h], drop_rate, rng,
                    [stacked[n_users:], stacked[:n_users]])

    def backward(g):
        (g_items, g_users), g_h, g_state = last([g[n_users:], g[:n_users]])
        ad.add_rows(g_h, item_rows, g_items)
        g_h += x_rows.T @ g_users
        for vjp in reversed(earlier):
            (g_targets,), g_pool, g_state = vjp([g_state])
            g_h += g_targets
            g_h += g_pool
        # through each row's softmax: h * (g_H - <g_H, h>)
        g_h -= np.einsum("ik,ik->i", g_h, h)[:, None]
        g_h *= h
        return g_h.T @ features, features.T @ g_state

    return ad.custom_op(stacked, (v_m, w_m), backward)
