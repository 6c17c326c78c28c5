"""Per-modality item-item affinity graphs: cosine similarity, top-K
sparsification, row normalization, and feature propagation.

Graphs are built once from the raw modality features and frozen, so the
propagated features S_m F_m are constants; only the projection W_m applied
to them is learnable. Propagation over all modalities is one tape node
over the projections, with a closed-form gradient.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .dataio import ModalityFeatures
from .errors import ShapeError

log = logging.getLogger(__name__)

# Similarities are computed in row blocks of about this many entries (at
# least one row), so building a graph holds O(this) floats, not O(|I|^2).
_AFFINITY_BLOCK_ELEMENTS = 1 << 19


def _normalized_rows(matrix: np.ndarray, tag: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    if zero.any():
        log.warning("%s features: %d zero-norm rows treated as no-affinity", tag, int(zero.sum()))
        norms[zero] = 1.0
    return matrix / norms


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, by descending value and
    ascending index among equal values: the first k entries of a stable
    argsort of -sims, without sorting whole rows. `sims` holds no NaN.

    Each row is cut into at least k column chunks (about 2k). The k-th
    largest chunk maximum bounds the row's k-th largest value from below,
    since k distinct chunks each hold an entry at least that large; so the
    top k lie among the entries at or above the bound, about k + 1 per row
    on spread-out values, and only those are ordered."""
    rows, n = sims.shape
    width = max(1, n // (2 * k))
    maxima = np.maximum.reduceat(sims, np.arange(0, n, width), axis=1)
    bound = np.partition(maxima, -k, axis=1)[:, -k, None]
    # candidates in row-major order; row r's are flat[ends[r] - counts[r]:ends[r]]
    flat = np.flatnonzero(sims >= bound)
    ends = np.searchsorted(flat, np.arange(1, rows + 1) * n)
    counts = np.diff(ends, prepend=0)
    # each row's negated candidates, left-aligned and padded with +inf, which
    # a stable sort keeps behind every candidate, -inf ones included
    slots = np.full((rows, counts.max()), -np.inf)
    slots[np.arange(slots.shape[1]) < counts[:, None]] = sims.ravel()[flat]
    order = np.argsort(np.negative(slots, out=slots), axis=1, kind="stable")[:, :k]
    return flat[(ends - counts)[:, None] + order] - n * np.arange(rows)[:, None]


def masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's sum of the entries of `values` where `mask` holds, taken
    in the order a 1-D sum of those entries takes; 0 for a row with none."""
    count = mask.sum(axis=1)
    sums = np.zeros(len(mask))
    for c in np.unique(count[count > 0]).tolist():
        # rows of one count sum as one (rows, c) block
        same = np.flatnonzero(count == c)
        sums[same] = values[same][mask[same]].reshape(-1, c).sum(axis=1)
    return sums


def build_affinity_graph(features: ModalityFeatures, k: int) -> sp.csr_matrix:
    """Keep each item's K most cosine-similar neighbors (self excluded),
    clamp negatives to zero, and divide each row by its sum, so nonzero rows
    are stochastic.

    Ties at the K-th value resolve to the lower item index. Similarities are
    computed in row blocks of `_AFFINITY_BLOCK_ELEMENTS // |I|` rows (at
    least one).
    """
    num_items = features.matrix.shape[0]
    if k >= num_items:
        log.warning("k=%d >= %d items; clamping to %d", k, num_items, num_items - 1)
        k = max(num_items - 1, 1)

    normalized = _normalized_rows(features.matrix, features.modality)
    block_size = max(1, _AFFINITY_BLOCK_ELEMENTS // num_items)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for start in range(0, num_items, block_size):
        stop = min(start + block_size, num_items)
        sims = normalized[start:stop] @ normalized.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        order = _top_k(sims, k)
        kept = np.maximum(np.take_along_axis(sims, order, axis=1), 0.0)
        positive = kept > 0.0
        row = np.nonzero(positive)[0]
        rows.append(start + row)
        cols.append(order[positive])
        data.append(kept[positive] / masked_row_sums(kept, positive)[row])

    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_items, num_items),
    )


def propagate_items(
    smoothed: Sequence[np.ndarray], weights: Sequence, rows: np.ndarray, user_rows: int
) -> ad.Tensor:
    """Sum over modalities of (S_m F_m) @ W_m, where `smoothed` holds each
    modality's features propagated over its affinity graph, S_m F_m (|I| x
    d_m), and `weights` its projection W_m (d_m x d). Linear in every W_m.

    Returns `user_rows` zero rows (the view has no user side), then the rows
    of items `rows`. One tape node; the gradient into W_m is
    (S_m F_m)[rows]^T @ g[user_rows:]."""
    weights = [ad.as_tensor(w) for w in weights]
    for features, w in zip(smoothed, weights):
        if w.shape[0] != features.shape[1]:
            raise ShapeError(f"projection rows {w.shape[0]} != feature width {features.shape[1]}")
    picked = [features[rows] for features in smoothed]
    out = np.zeros((user_rows + len(rows), weights[0].shape[1]),
                   dtype=np.result_type(*picked, *(w.data for w in weights)))
    items = out[user_rows:]
    for features, w in zip(picked, weights):
        items += features @ w.data
    return ad.custom_op(out, weights, lambda g: [f.T @ g[user_rows:] for f in picked])
