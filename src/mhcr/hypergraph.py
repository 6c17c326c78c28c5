"""Hypergraph view: learnable hyperedge incidence built from modality
features, and dropout-regularized pool-then-broadcast message passing.

Incidence H_i = F_m @ V_m^T links items to K latent hyperedges; user
incidence H_u = X_u @ H_i pools the hyperedge profiles of each user's
train items. One pass computes

    E_i' = DROP(H_i) @ DROP(H_i^T) @ E_i
    E_u' = DROP(H_u) @ DROP(H_i^T) @ E_i

with an independent dropout mask per DROP occurrence. Dropout uses
inverted scaling (survivors divided by the keep probability), so each
factor is unbiased and evaluation needs no rescale.

Pooling H_i^T E_i is K x d, so the broadcast is the only per-row work: a
caller names the users and items it reads (a training batch passes its
ids and the rows of X_u of its users, evaluation every row), and only
those rows of H_u, of the final broadcast and of its dropout masks are
computed.

On the tape, the whole pass (H_i, every step, H_u and both final
broadcasts) is one node, a child of V_m, returning the stacked (user;
item) rows. Its backward sweeps the steps in reverse with the product rule
through every mask, sums H_i's gradient terms in the order of a tape with
H_i, H_u and each broadcast as nodes, and hands V_m (F_m^T g_H)^T.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigError, ShapeError


def build_incidence(features: np.ndarray, v_m: np.ndarray) -> np.ndarray:
    """H_i = F_m @ V_m^T, the incidence of every item for one modality. No
    nonlinearity applied."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or v_m.ndim != 2:
        raise ShapeError("features and hyperedge matrix must be 2-D")
    if features.shape[1] != v_m.shape[1]:
        raise ShapeError(f"feature width {features.shape[1]} != hyperedge width {v_m.shape[1]}")
    return features @ v_m.T


def _mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator):
    """The factor of one DROP occurrence: None (keep everything) or an
    inverted-dropout mask drawn from `rng`."""
    if rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) * (1.0 / (1.0 - rate))


def _masked(x: np.ndarray, mask) -> np.ndarray:
    return x if mask is None else x * mask


def _pool_spread(h: np.ndarray, state: np.ndarray, targets: np.ndarray, rate: float,
                 rng: np.random.Generator):
    """DROP(T) @ (DROP(H)^T @ state) for targets T, the pool mask drawn
    first, and its VJP: g -> (grad of T, grad of H, grad of state)."""
    pool_mask = _mask(h.shape, rate, rng)
    source = _masked(h, pool_mask)
    pooled = source.T @ state
    target_mask = _mask(targets.shape, rate, rng)
    dropped_targets = _masked(targets, target_mask)

    def vjp(g):
        g_pooled = dropped_targets.T @ g
        g_h = _masked((g_pooled @ state.T).T, pool_mask)
        return _masked(g @ pooled.T, target_mask), g_h, source @ g_pooled

    return dropped_targets @ pooled, vjp


def hypergraph_pass(features: np.ndarray, v_m: ad.Tensor, e_items, x_rows: sp.spmatrix,
                    drop_rate: float, steps: int, rng: np.random.Generator,
                    item_rows: np.ndarray) -> ad.Tensor:
    """Run `steps` rounds of hyperedge pooling and broadcasting over the
    incidence H_i = `build_incidence(features, v_m)`, as one tape node.

    Earlier steps update only the item state, over every item. The final
    step also computes the user update from the same incoming item state
    through H_u = `x_rows` @ H_i, where `x_rows` holds the rows of X_u of
    the users the caller reads, and broadcasts items only to `item_rows`.
    Masks are resampled for every DROP occurrence in a fixed order (item
    update's two factors, then the user update's two), so a seeded `rng`
    pins the whole stochastic chain. Returns the (user; item) states after
    the final step, stacked: the rows of `x_rows`, then `item_rows`.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if not 0.0 <= drop_rate < 1.0:
        raise ConfigError("drop_rate must be in [0, 1)")

    features = np.asarray(features, dtype=np.float64)
    v_m, e_items = ad.as_tensor(v_m), ad.as_tensor(e_items)
    h = build_incidence(features, v_m.data)
    num_items = h.shape[0]
    if e_items.shape[0] != num_items:
        raise ShapeError(f"item state rows {e_items.shape[0]} != incidence rows {num_items}")
    if x_rows.shape[1] != num_items:
        raise ShapeError(f"interaction columns {x_rows.shape[1]} != incidence rows {num_items}")

    e_cur, earlier = e_items.data, []
    for _ in range(steps - 1):
        e_cur, vjp = _pool_spread(h, e_cur, h, drop_rate, rng)
        earlier.append(vjp)
    e_next, item_vjp = _pool_spread(h, e_cur, h[item_rows], drop_rate, rng)
    e_users, user_vjp = _pool_spread(h, e_cur, x_rows @ h, drop_rate, rng)
    n_users = e_users.shape[0]

    def backward(g):
        # H_i's terms: user pool, X_u^T @ user targets, item target rows, item
        # pool, then each earlier step's target and pool, last step first
        g_users, g_h, g_state_users = user_vjp(g[:n_users])
        g_h += x_rows.T @ g_users
        g_targets, g_pool, g_state_items = item_vjp(g[n_users:])
        ad.add_rows(g_h, item_rows, g_targets)
        g_h += g_pool
        if not earlier:
            # two parent entries: the state adds each in turn into the
            # gradient it already holds (the item-graph view's)
            return (features.T @ g_h).T, g_state_users, g_state_items
        g_state = g_state_users + g_state_items
        for vjp in reversed(earlier):
            g_targets, g_pool, g_state = vjp(g_state)
            g_h += g_targets
            g_h += g_pool
        return (features.T @ g_h).T, g_state

    parents = (v_m, e_items, e_items) if steps == 1 else (v_m, e_items)
    return ad.custom_op(np.concatenate([e_users, e_next]), parents, backward)
