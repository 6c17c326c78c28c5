"""Hypergraph view: learnable hyperedge incidence built from modality
features, dropout-regularized pool-then-broadcast message passing, and
cross-modality aggregation.

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
ids, evaluation every row), and only those rows of H_u, of the final
broadcast and of its dropout masks are computed.

On the tape, H_i and H_u are one node each, and so is every broadcast
DROP(T) @ (DROP(H_i)^T @ E), with the product rule through both masks as
its gradient; targets that are rows of H_i add their gradient into H_i's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigError, ShapeError


def build_incidence(
    features: np.ndarray, v_m, x_u: sp.spmatrix, user_rows: np.ndarray
) -> tuple[ad.Tensor, ad.Tensor]:
    """(H_i, H_u) for one modality: the incidence of every item, and
    H_u = X_u[user_rows] @ H_i of the users the caller reads. No
    nonlinearity applied."""
    features = np.asarray(features, dtype=np.float64)
    v_m = ad.as_tensor(v_m)
    if features.ndim != 2 or v_m.ndim != 2:
        raise ShapeError("features and hyperedge matrix must be 2-D")
    if features.shape[1] != v_m.shape[1]:
        raise ShapeError(
            f"feature width {features.shape[1]} != hyperedge width {v_m.shape[1]}"
        )
    if x_u.shape[1] != features.shape[0]:
        raise ShapeError(
            f"interaction matrix has {x_u.shape[1]} item columns, features have "
            f"{features.shape[0]} rows"
        )
    h_items = ad.custom_op(features @ v_m.data.T, (v_m,), lambda g: ((features.T @ g).T,))
    x_rows = x_u[user_rows]
    h_users = ad.custom_op(x_rows @ h_items.data, (h_items,), lambda g: (x_rows.T @ g,))
    return h_items, h_users


def _mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator):
    """The factor of one DROP occurrence: None (keep everything) or an
    inverted-dropout mask drawn from `rng`."""
    if rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) * (1.0 / (1.0 - rate))


def _masked(x: np.ndarray, mask) -> np.ndarray:
    return x if mask is None else x * mask


def _broadcast(
    h_items: ad.Tensor,
    state: ad.Tensor,
    rate: float,
    rng: np.random.Generator,
    targets: ad.Tensor | np.ndarray,
) -> ad.Tensor:
    """DROP(T) @ (DROP(H_i)^T @ state) as one tape node, the pool mask drawn
    before the target mask. T is the tensor `targets`, or, when `targets` is
    an array of item ids, those rows of H_i, whose gradient is added into
    H_i's."""
    pool_mask = _mask(h_items.shape, rate, rng)
    source = _masked(h_items.data, pool_mask)
    pooled = source.T @ state.data
    own = not isinstance(targets, ad.Tensor)
    t_data = h_items.data[targets] if own else targets.data
    target_mask = _mask(t_data.shape, rate, rng)
    dropped_targets = _masked(t_data, target_mask)

    def backward(g):
        g_pooled = dropped_targets.T @ g
        g_items = _masked((g_pooled @ state.data.T).T, pool_mask)
        g_state = source @ g_pooled
        g_targets = _masked(g @ pooled.T, target_mask)
        # own targets reach H_i as a separate contribution before the pool
        # term, as on an op-by-op tape, so H_i sums its terms in that order
        return (ad.RowGrad(targets, g_targets) if own else g_targets), g_items, g_state

    parents = (h_items if own else targets, h_items, state)
    return ad.custom_op(dropped_targets @ pooled, parents, backward)


def hypergraph_pass(
    incidence: tuple[ad.Tensor, ad.Tensor],
    e_items,
    drop_rate: float,
    steps: int,
    rng: np.random.Generator,
    item_rows: np.ndarray,
) -> tuple[ad.Tensor, ad.Tensor]:
    """Run `steps` rounds of hyperedge pooling and broadcasting over the
    incidence (H_i, H_u) that `build_incidence` returns.

    Earlier steps update only the item state, over every item. The final
    step also computes the user update from the same incoming item state,
    and broadcasts items only to `item_rows`. Masks are resampled for every
    DROP occurrence in a fixed order (item update's two factors, then the
    user update's two), so a seeded `rng` pins the whole stochastic chain.
    Returns (user, item) states after the final step, with the rows of H_u
    and `item_rows`.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if not 0.0 <= drop_rate < 1.0:
        raise ConfigError("drop_rate must be in [0, 1)")

    h_items, h_users = incidence
    e_items = ad.as_tensor(e_items)
    num_items = h_items.shape[0]
    if e_items.shape[0] != num_items:
        raise ShapeError(f"item state rows {e_items.shape[0]} != incidence rows {num_items}")

    e_cur = e_items
    for _ in range(steps - 1):
        e_cur = _broadcast(h_items, e_cur, drop_rate, rng, np.arange(num_items))
    e_next = _broadcast(h_items, e_cur, drop_rate, rng, item_rows)
    return _broadcast(h_items, e_cur, drop_rate, rng, h_users), e_next


def aggregate_hyper(stacks: list[ad.Tensor]) -> ad.Tensor:
    """Sum the per-modality stacked (user; item) states across modalities."""
    if not stacks:
        raise ConfigError("aggregate_hyper requires at least one modality")
    out = stacks[0]
    for stacked in stacks[1:]:
        out = out + stacked
    return out
