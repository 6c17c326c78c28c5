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
caller that reads only some users and items (a training batch) passes
their ids, and only those rows of H_u, of the final broadcast and of its
dropout masks are computed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigError, ShapeError

log = logging.getLogger(__name__)


@dataclass
class HyperedgeParameters:
    """Learnable hyperedge matrices V_m (K x d_m) and projections W_m (d_m x d)."""

    v: dict[str, ad.Tensor]
    w: dict[str, ad.Tensor]
    k_hyper: int

    def __post_init__(self):
        if self.k_hyper < 1:
            raise ConfigError("hyperedge count must be >= 1")
        if set(self.v) != set(self.w):
            raise ConfigError("V and W must cover the same modalities")


@dataclass
class IncidencePair:
    """Incidence of every item, and of the users the caller reads (all users
    unless `build_incidence` was given `user_rows`)."""

    modality: str
    h_items: ad.Tensor
    h_users: ad.Tensor


def build_incidence(
    features: np.ndarray,
    v_m,
    x_u: sp.spmatrix,
    modality: str = "",
    user_rows: np.ndarray | None = None,
) -> IncidencePair:
    """Item and user incidence for one modality; no nonlinearity applied.

    `user_rows` restricts the user incidence to X_u[user_rows] @ H_i."""
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
    h_items = ad.matmul(ad.constant(features), ad.transpose(v_m))
    h_users = ad.spmm(x_u if user_rows is None else x_u[user_rows], h_items)
    return IncidencePair(modality, h_items, h_users)


def _dropped(t: ad.Tensor, rate: float, rng: np.random.Generator) -> ad.Tensor:
    if rate <= 0.0:
        return t
    if rate >= 1.0:
        return t * 0.0
    mask = (rng.random(t.shape) >= rate) / (1.0 - rate)
    return ad.mul(t, ad.constant(mask))


def hypergraph_pass(
    pair: IncidencePair,
    e_items,
    drop_rate: float,
    steps: int = 1,
    rng: int | np.random.Generator | None = None,
    item_rows: np.ndarray | None = None,
) -> tuple[ad.Tensor, ad.Tensor]:
    """Run `steps` rounds of hyperedge pooling and broadcasting.

    Earlier steps update only the item state, over every item. The final
    step also computes the user update from the same incoming item state,
    and broadcasts items only to `item_rows` (default: every item).
    Masks are resampled for every DROP occurrence in a fixed order (item
    update's two factors, then the user update's two), so a seeded `rng`
    pins the whole stochastic chain. Returns (user, item) states after the
    final step, with the rows of `pair.h_users` and `item_rows`.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if not 0.0 <= drop_rate <= 1.0:
        raise ConfigError("drop_rate must be in [0, 1]")
    if drop_rate >= 1.0:
        log.warning("drop_rate=1 zeroes every message; output is all-zero")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    e_items = ad.as_tensor(e_items)
    if e_items.shape[0] != pair.h_items.shape[0]:
        raise ShapeError(
            f"item state rows {e_items.shape[0]} != incidence rows {pair.h_items.shape[0]}"
        )

    def broadcast(targets: ad.Tensor, state: ad.Tensor) -> ad.Tensor:
        pooled = ad.matmul(ad.transpose(_dropped(pair.h_items, drop_rate, rng)), state)
        return ad.matmul(_dropped(targets, drop_rate, rng), pooled)

    e_cur = e_items
    for _ in range(steps - 1):
        e_cur = broadcast(pair.h_items, e_cur)
    h_targets = pair.h_items if item_rows is None else ad.gather_rows(pair.h_items, item_rows)
    e_next = broadcast(h_targets, e_cur)
    return broadcast(pair.h_users, e_cur), e_next


def aggregate_hyper(stacks: list[ad.Tensor]) -> ad.Tensor:
    """Sum the per-modality stacked (user; item) states across modalities."""
    if not stacks:
        raise ConfigError("aggregate_hyper requires at least one modality")
    out = stacks[0]
    for stacked in stacks[1:]:
        out = out + stacked
    return out
