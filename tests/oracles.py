"""Reference code the tests compare the library against, kept out of the
package because no program path runs it: the generic tape ops (`zeros`,
`matmul`, `gather_rows`, `concat_rows`, `div_rows` and the elementwise
ones); the op-by-op tape composition of the three views (projections,
the incidence softmax, D_e and each broadcast as nodes of their own) and
of the BPR and L2 objectives, which the single-node versions must match;
the hypergraph view with H_i, H_u, each step's pool and each broadcast
one node (`per_broadcast_incidence`, `per_broadcast_pass`); the forward pass
assembled from those generic ops and views (`tape_forward`, which keeps
every view), which the model-node forward must match to a relative
1e-12; the user-by-user negative sampler and split that the whole-array
`sample_negatives` and `split_dataset` must reproduce; a regex reader
of the TSV grammar that `mhcr` writes (`read_tsv`), which `dataio`'s one
reader must match; each row's top k by a full stable sort (`top_k`), which
the bounded selection of `item_graph._top_k` must match; and the
user-by-user cold-start slice, ranking and metrics that the block
`evaluate` must reproduce byte for byte."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from mhcr import autodiff as ad
from mhcr import training
from mhcr.dataio import TEST, TRAIN, VAL, InteractionDataset
from mhcr.errors import ConfigError, ShapeError
from mhcr.evaluation import SLICE_ALL, SLICE_COLD, EvalReport, MetricRecord
from mhcr.objectives import (
    LossBreakdown,
    bpr_loss,
    embedding_l2,
    graph_hyper_contrastive_loss,
    hyper_contrastive_loss,
    total_loss,
)


def zeros(shape: tuple[int, ...]) -> ad.Tensor:
    return ad.Tensor(np.zeros(shape))


def matmul(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return ad.custom_op(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def gather_rows(a: ad.Tensor, indices) -> ad.Tensor:
    indices = np.asarray(indices, dtype=np.int64)
    return ad.custom_op(a.data[indices], (a,), lambda g: (ad.RowGrad(indices, g),))


def concat_rows(parts) -> ad.Tensor:
    parts = tuple(ad.as_tensor(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([p.shape[0] for p in parts])[:-1]

    def backward(g):
        return tuple(
            part.copy() if p.requires_grad else None
            for p, part in zip(parts, np.split(g, offsets, axis=0))
        )

    return ad.custom_op(data, parts, backward)


def mul(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return ad.custom_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def tensor_sum(a: ad.Tensor, axis: int | None = None, keepdims: bool = False) -> ad.Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return ad.custom_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def row_normalize(a: ad.Tensor, eps: float = 1e-12) -> ad.Tensor:
    """L2-normalize each row; all-zero rows map to zero."""
    safe = np.maximum(np.linalg.norm(a.data, axis=1, keepdims=True), eps)
    data = a.data / safe

    def backward(g):
        inner = (g * data).sum(axis=1, keepdims=True)
        return ((g - data * inner) / safe,)

    return ad.custom_op(data, (a,), backward)


def div_rows(a: ad.Tensor, s: ad.Tensor) -> ad.Tensor:
    """a / s for a column s (n x 1), broadcast along each row of a (n x m)."""

    def backward(g):
        q = g / s.data
        return q, -(q * a.data).sum(axis=1, keepdims=True) / s.data

    return ad.custom_op(a.data / s.data, (a, s), backward)


def exp(a: ad.Tensor) -> ad.Tensor:
    data = np.exp(a.data)
    return ad.custom_op(data, (a,), lambda g: (g * data,))


def log(a: ad.Tensor) -> ad.Tensor:
    return ad.custom_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    return ad.custom_op(a.data * c, (a,), lambda g: (g * c,))


def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.add(a, scale(b, -1.0))


def mean(a: ad.Tensor) -> ad.Tensor:
    n = a.data.size
    return ad.custom_op(a.data.mean(), (a,), lambda g: (np.full(a.shape, float(g) / n),))


def softplus(a: ad.Tensor) -> ad.Tensor:
    """ln(1 + e^x), computed without overflow; gradient is the logistic map."""
    return ad.custom_op(np.logaddexp(0.0, a.data), (a,), lambda g: (g * expit(a.data),))


def spmm(matrix, x: ad.Tensor) -> ad.Tensor:
    """Sparse @ dense where the sparse factor is a constant of the graph."""
    return ad.custom_op(matrix @ x.data, (x,), lambda g: (matrix.T @ g,))


def transpose(a: ad.Tensor) -> ad.Tensor:
    return ad.custom_op(a.data.T, (a,), lambda g: (g.T.copy(),))


def cosine_affinity(features: np.ndarray, a: int, b: int) -> float:
    """Cosine similarity of item rows a and b; zero-norm rows compare as 0."""
    va, vb = features[a], features[b]
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb / (na * nb))


def top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, by descending value and
    ascending column among equal values (-inf last): a full stable sort."""
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def row_dot(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Per-row inner products of two equal-shape matrices, returned as (n,)."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"row_dot shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        g = g[:, None]
        return g * b.data, g * a.data

    return ad.custom_op((a.data * b.data).sum(axis=1), (a, b), backward)


def scores_bpr_loss(pos: ad.Tensor, neg: ad.Tensor) -> ad.Tensor:
    """BPR over score vectors as one node: mean softplus(neg - pos), with
    gradient -d to the positive and d to the negative scores."""
    margin = neg.data - pos.data

    def backward(g):
        d = np.full(margin.shape, float(g) / margin.size) * expit(margin)
        return -d, d

    return ad.custom_op(np.logaddexp(0.0, margin).mean(), (pos, neg), backward)


def tape_bpr_loss(fused: ad.Tensor, users, positives, negatives) -> ad.Tensor:
    """BPR as three row gathers, two row dot products and the score node."""
    u = gather_rows(fused, users)
    pos = gather_rows(fused, positives)
    neg = gather_rows(fused, negatives)
    return scores_bpr_loss(row_dot(u, pos), row_dot(u, neg))


def tape_embedding_l2(embeddings: ad.Tensor, rows) -> ad.Tensor:
    x = gather_rows(embeddings, rows)
    return mean(tensor_sum(mul(x, x), axis=1))


def tape_total_loss(l_bpr, l_hc, l_ghc, l_reg, lambda_hc, lambda_ghc, lambda_reg) -> ad.Tensor:
    parts = [ad.as_tensor(x) for x in (l_bpr, l_hc, l_ghc, l_reg)]
    out = ad.add(parts[0], scale(parts[1], lambda_hc))
    out = ad.add(out, scale(parts[2], lambda_ghc))
    return ad.add(out, scale(parts[3], lambda_reg))


def tape_propagate_ui(adjacency, e0: ad.Tensor, layers: int, rows) -> ad.Tensor:
    """Layer-sum propagation as spmm, gather and add nodes."""
    out = gather_rows(e0, rows)
    current = e0
    for layer in range(1, layers + 1):
        if layer == layers:
            return ad.add(out, spmm(adjacency[rows], current))
        current = spmm(adjacency, current)
        out = ad.add(out, gather_rows(current, rows))
    return out


def tape_propagate_items(graphs, features, weights, rows) -> ad.Tensor:
    """The item rows `rows` as S_m[rows] @ (F_m @ W_m), summed over the
    modalities: a projection, an spmm and an add node each."""
    out = None
    for graph, f, w in zip(graphs, features, weights):
        term = spmm(graph[rows], matmul(ad.constant(f), w))
        out = term if out is None else ad.add(out, term)
    return out


def tape_build_incidence(features, v_m: ad.Tensor) -> ad.Tensor:
    """Each row's softmax of the logits F V^T: a constant shift by the row
    maximum, then exp, row sum and division nodes."""
    logits = matmul(ad.constant(features), transpose(v_m))
    shift = np.broadcast_to(-logits.data.max(axis=1, keepdims=True), logits.shape)
    e = exp(ad.add(logits, ad.constant(shift.copy())))
    return div_rows(e, tensor_sum(e, axis=1, keepdims=True))


def _dropped(t: ad.Tensor, rate: float, rng: np.random.Generator) -> ad.Tensor:
    if rate <= 0.0:
        return t
    mask = (rng.random(t.shape) >= rate) / (1.0 - rate)
    return mul(t, ad.constant(mask))


def tape_hypergraph_pass(h_items, e_items, x_rows, drop_rate, steps, rng, item_rows):
    """Hypergraph pass with D_e, H_u, every dropout mask, transpose, product
    and division as its own node, one pool per step read by each of that
    step's broadcasts, the masks drawn in the library's order (per step the
    pool's, then the items', then in the final step the users'), and the
    (user; item) rows stacked by a concatenation node."""
    d_e = tensor_sum(transpose(h_items), axis=1, keepdims=True)

    def pool(state):
        return div_rows(matmul(transpose(_dropped(h_items, drop_rate, rng)), state), d_e)

    def broadcast(targets, pooled):
        return matmul(_dropped(targets, drop_rate, rng), pooled)

    e_cur = ad.as_tensor(e_items)
    for _ in range(steps - 1):
        e_cur = broadcast(h_items, pool(e_cur))
    pooled = pool(e_cur)
    e_next = broadcast(gather_rows(h_items, item_rows), pooled)
    return concat_rows([broadcast(spmm(x_rows, h_items), pooled), e_next])


def per_broadcast_incidence(features, v_m, x_u, user_rows) -> tuple[ad.Tensor, ad.Tensor]:
    """(H_i, H_u = X_u[user_rows] @ H_i) as one node each; H_i is the row
    softmax of F V^T, with the softmax Jacobian in its backward."""
    features = np.asarray(features, dtype=np.float64)
    v_m = ad.as_tensor(v_m)
    logits = features @ v_m.data.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    h = e / e.sum(axis=1, keepdims=True)

    def softmax_backward(g):
        return ((h * (g - (g * h).sum(axis=1, keepdims=True))).T @ features,)

    h_items = ad.custom_op(h, (v_m,), softmax_backward)
    x_rows = x_u[user_rows]
    h_users = ad.custom_op(x_rows @ h_items.data, (h_items,), lambda g: (x_rows.T @ g,))
    return h_items, h_users


def _mask(shape, rate: float, rng: np.random.Generator):
    return None if rate <= 0.0 else (rng.random(shape) >= rate) * (1.0 / (1.0 - rate))


def _masked(x: np.ndarray, mask) -> np.ndarray:
    return x if mask is None else x * mask


def _pool(h_items: ad.Tensor, state: ad.Tensor, rate: float,
          rng: np.random.Generator) -> ad.Tensor:
    """D_e^-1 (DROP(H_i)^T @ state) as one tape node, D_e the column sums of
    H_i."""
    d_e = h_items.data.sum(axis=0)[:, None]
    pool_mask = _mask(h_items.shape, rate, rng)
    source = _masked(h_items.data, pool_mask)
    pooled = source.T @ state.data / d_e

    def backward(g):
        g_sum = g / d_e
        g_items = _masked(state.data @ g_sum.T, pool_mask) - (g_sum * pooled).sum(axis=1)
        return g_items, source @ g_sum

    return ad.custom_op(pooled, (h_items, state), backward)


def _broadcast(h_items: ad.Tensor, pooled: ad.Tensor, rate: float,
               rng: np.random.Generator, targets) -> ad.Tensor:
    """DROP(T) @ pooled as one tape node. T is the tensor `targets`, or, when
    `targets` is an array of item ids, those rows of H_i, whose gradient is
    added into H_i's."""
    own = not isinstance(targets, ad.Tensor)
    t_data = h_items.data[targets] if own else targets.data
    target_mask = _mask(t_data.shape, rate, rng)
    dropped_targets = _masked(t_data, target_mask)

    def backward(g):
        g_targets = _masked(g @ pooled.data.T, target_mask)
        return (ad.RowGrad(targets, g_targets) if own else g_targets), dropped_targets.T @ g

    parents = (h_items if own else targets, pooled)
    return ad.custom_op(dropped_targets @ pooled.data, parents, backward)


def per_broadcast_pass(incidence, e_items, drop_rate, steps, rng, item_rows):
    """The hypergraph pass over (H_i, H_u) from `per_broadcast_incidence`
    with each step's pool one node and each broadcast of it another, the
    masks drawn in the library's order; returns the (user; item) states."""
    h_items, h_users = incidence
    e_cur = ad.as_tensor(e_items)
    for _ in range(steps - 1):
        pooled = _pool(h_items, e_cur, drop_rate, rng)
        e_cur = _broadcast(h_items, pooled, drop_rate, rng, np.arange(h_items.shape[0]))
    pooled = _pool(h_items, e_cur, drop_rate, rng)
    e_next = _broadcast(h_items, pooled, drop_rate, rng, item_rows)
    return _broadcast(h_items, pooled, drop_rate, rng, h_users), e_next


@dataclass
class TapeForwardResult:
    """What `training.ForwardResult` holds, plus the tensors of every view:
    the UI, item and hypergraph views (a zero tensor when off) and each
    modality's hypergraph stack."""

    e_ui: ad.Tensor
    e_ii: ad.Tensor
    e_h: ad.Tensor
    hyper_stacks: list[ad.Tensor]
    fused: ad.Tensor
    nodes: np.ndarray
    total: ad.Tensor | None = None
    breakdown: LossBreakdown | None = None


def tape_forward(params, views, cfg, batch=None, mode="train", rng=None):
    """`training.forward` assembled from generic ops: the item view as
    `concat_rows` of zero user rows and `matmul`s of the rows of S_m F_m, a
    zero tensor for each disabled view, two-term adds for every sum,
    `tape_propagate_ui` for the UI view, and each modality's hypergraph view
    as `tape_hypergraph_pass` over the softmax nodes of
    `tape_build_incidence` and a `matmul` projection F_m W_m. The
    contrastive losses score the batch's unique users and its unique
    positives as two pools; the graph-hypergraph loss is computed only with
    a graph view on."""
    train_mode = mode == "train"
    num_users, num_items, d = params.num_users, params.num_items, params.e0.shape[1]
    if train_mode:
        nodes, n_user_rows, local = training._batch_nodes(batch, num_users)
    else:
        nodes, n_user_rows = np.arange(num_users + num_items), num_users
    user_rows, item_rows = nodes[:n_user_rows], nodes[n_user_rows:] - num_users
    zero_view = zeros((nodes.size, d))
    weights = [params.named[f"W_{f.modality}"] for f in views.features]

    e_ui = zero_view
    if cfg.use_ui:
        e_ui = tape_propagate_ui(views.adjacency, params.e0, cfg.layers, nodes)
    e_ii = zero_view
    if cfg.use_ii:
        items_part = None
        for smoothed, w in zip(views.smoothed, weights):
            term = matmul(ad.constant(smoothed[item_rows]), w)
            items_part = term if items_part is None else ad.add(items_part, term)
        e_ii = concat_rows([zeros((n_user_rows, d)), items_part])

    hyper_stacks = []
    e_h = zero_view
    if cfg.use_hem:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        drop = cfg.drop_rate if train_mode else 0.0
        for feats, w in zip(views.features, weights):
            incidence = tape_build_incidence(feats.matrix, params.named[f"V_{feats.modality}"])
            state = matmul(ad.constant(feats.matrix), w)
            hyper_stacks.append(tape_hypergraph_pass(
                incidence, state, views.x_u[user_rows], drop, cfg.hyper_steps, rng, item_rows
            ))
        e_h = hyper_stacks[0]
        for stack in hyper_stacks[1:]:
            e_h = ad.add(e_h, stack)

    e_graph = ad.add(e_ui, e_ii)
    fused = ad.add(e_graph, e_h)
    result = TapeForwardResult(e_ui, e_ii, e_h, hyper_stacks, fused, nodes)
    if not train_mode:
        return result

    user_local, pos_local, neg_local = np.split(
        local, np.cumsum([len(batch.users), len(batch.pos_items)])
    )
    l_bpr = bpr_loss(fused, user_local, pos_local, neg_local)
    pools = (np.unique(user_local), np.unique(pos_local))
    l_hc = l_ghc = 0.0
    if cfg.use_hem and cfg.lambda_hc > 0:
        l_hc = hyper_contrastive_loss(hyper_stacks, pools, cfg.tau)
    if cfg.use_hem and cfg.lambda_ghc > 0 and (cfg.use_ui or cfg.use_ii):
        l_ghc = graph_hyper_contrastive_loss(e_graph, e_h, pools, cfg.tau)
    l_reg = embedding_l2(params.e0, nodes[local])
    result.total, result.breakdown = total_loss(
        l_bpr, l_hc, l_ghc, l_reg, cfg.lambda_hc, cfg.lambda_ghc, cfg.lambda_reg
    )
    return result


def read_tsv(raw: bytes, width: int) -> np.ndarray | int:
    """The int64 columns of a TSV read line by line: each non-blank line is
    `width` fields of `-?[0-9]+` within int64 joined by single tabs, and a
    line ends in '\\n' or '\\r\\n' (the last one may end in neither). A
    file outside that grammar gives the number of its first bad line."""
    pattern = re.compile(rb"\t".join([rb"(-?[0-9]+)"] * width))
    rows = []
    for lineno, line in enumerate(re.split(rb"\r?\n", raw), start=1):
        if not line:
            continue
        match = pattern.fullmatch(line)
        if match is None or not all(-(2**63) <= int(v) < 2**63 for v in match.groups()):
            return lineno
        rows.append([int(v) for v in match.groups()])
    return np.array(rows, dtype=np.int64).reshape(-1, width).T


def train_sets_by_user(ds: InteractionDataset) -> list[frozenset[int]]:
    """Per user, the set of its train items."""
    sets = [set() for _ in range(ds.num_users)]
    for u, i in zip(*(part.tolist() for part in ds.split_pairs(TRAIN))):
        sets[u].add(i)
    return [frozenset(s) for s in sets]


def sample_negatives_by_user(ds: InteractionDataset, batch_users, rng: np.random.Generator,
                             train_sets) -> tuple[np.ndarray, int]:
    """`training.sample_negatives` one user at a time, given per-user train
    item sets (`train_sets_by_user`): up to 100 scalar draws until one is
    not a train item, then one unconstrained draw. Returns the negatives and
    the number of fallbacks."""
    negatives = np.empty(len(batch_users), dtype=np.int64)
    fallbacks = 0
    for row, u in enumerate(np.asarray(batch_users).tolist()):
        seen = train_sets[u]
        for _ in range(training._NEGATIVE_SAMPLING_TRIES):
            j = int(rng.integers(ds.num_items))
            if j not in seen:
                break
        else:
            j = int(rng.integers(ds.num_items))
            fallbacks += 1
        negatives[row] = j
    return negatives, fallbacks


def split_by_user(ds: InteractionDataset, ratios, seed: int) -> InteractionDataset:
    """`split_dataset` one user at a time: shuffle the user's rows with
    `rng.permutation`, then cut train, val and test from the front."""
    _, r_val, r_test = ratios
    rng = np.random.default_rng(seed)
    order = np.argsort(ds.users, kind="stable")
    bounds = np.searchsorted(ds.users[order], np.arange(ds.num_users + 1))
    split = np.empty(len(ds), dtype=np.int8)
    drop = np.zeros(len(ds), dtype=bool)
    dropped_users = 0
    for u in range(ds.num_users):
        rows = order[bounds[u]:bounds[u + 1]]
        n = rows.size
        if n == 0:
            continue
        rows = rows[rng.permutation(n)]
        n_test = min(n, int(np.floor(r_test * n + 0.5)))
        n_val = min(n - n_test, int(np.floor(r_val * n + 0.5)))
        n_train = n - n_val - n_test
        if n_train == 0:
            drop[rows] = True
            dropped_users += 1
            continue
        split[rows[:n_train]] = TRAIN
        split[rows[n_train:n_train + n_val]] = VAL
        split[rows[n_train + n_val:]] = TEST
    keep = ~drop
    return InteractionDataset(ds.num_users, ds.num_items, ds.users[keep], ds.items[keep],
                              split=split[keep], num_dropped_users=dropped_users)


def rank_items(scores: np.ndarray, excluded, k: int) -> np.ndarray:
    """Top-k candidate item indices by score, ties resolved to the lower
    index. Excluded items are removed from candidacy entirely, so the result
    may hold fewer than k entries."""
    masked = np.array(scores, dtype=np.float64)
    excluded = np.asarray(excluded, dtype=np.int64)
    n_candidates = masked.size
    if excluded.size:
        masked[excluded] = -np.inf
        n_candidates -= np.unique(excluded).size
    order = np.argsort(-masked, kind="stable")
    return order[:min(k, n_candidates)]


def recall_at_k(topk: np.ndarray, test_items: np.ndarray) -> float:
    if len(test_items) == 0:
        raise ConfigError("recall_at_k: user has no target items")
    hits = np.isin(topk, test_items).sum()
    return float(hits) / len(test_items)


def ndcg_at_k(topk: np.ndarray, test_items: np.ndarray, k: int | None = None) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) gain, ranks starting at 1."""
    if len(test_items) == 0:
        raise ConfigError("ndcg_at_k: user has no target items")
    k = len(topk) if k is None else k
    hits = np.isin(topk[:k], test_items)
    ranks = np.flatnonzero(hits) + 1
    dcg = float((1.0 / np.log2(ranks + 1)).sum())
    ideal = np.arange(1, min(len(test_items), k) + 1)
    idcg = float((1.0 / np.log2(ideal + 1)).sum())
    return dcg / idcg


def cold_start_users(ds: InteractionDataset, threshold: int = 3) -> set[int]:
    """Users whose TRAIN interaction count is strictly below `threshold`,
    counted pair by pair."""
    split = ds.require_split()
    counts = {u: 0 for u in range(ds.num_users)}
    for u, label in zip(ds.users.tolist(), split.tolist()):
        counts[u] += label == TRAIN
    return {u for u, count in counts.items() if count < threshold}


def _items_by_user(ds: InteractionDataset, label) -> list[np.ndarray]:
    """Per user, the items of `ds.split_pairs(label)` in dataset order."""
    grouped = [[] for _ in range(ds.num_users)]
    for u, i in zip(*(part.tolist() for part in ds.split_pairs(label))):
        grouped[u].append(i)
    return [np.array(items, dtype=np.int64) for items in grouped]


def evaluate_by_user(user_emb, item_emb, ds: InteractionDataset, slice_name=SLICE_ALL,
                     ks=(10, 20), target_split=TEST, cold_threshold=3,
                     block_rows=1024) -> EvalReport:
    """`evaluate` one user at a time with `rank_items`, `recall_at_k` and
    `ndcg_at_k`, scoring users in blocks of `block_rows` (a score's bits can
    depend on the block's row count)."""
    mask_splits = (TRAIN,) if target_split == VAL else (TRAIN, VAL)
    targets = _items_by_user(ds, target_split)
    masked = _items_by_user(ds, mask_splits)
    if slice_name == SLICE_COLD:
        slice_users = sorted(cold_start_users(ds, cold_threshold))
    else:
        slice_users = range(ds.num_users)
    eligible = [u for u in slice_users if targets[u].size > 0]
    k_max = max(ks)
    sums = {k: np.zeros(2) for k in ks}
    for start in range(0, len(eligible), block_rows):
        block = eligible[start:start + block_rows]
        scores = user_emb[block] @ item_emb.T
        for row, u in enumerate(block):
            topk = rank_items(scores[row], masked[u], k_max)
            for k in ks:
                sums[k][0] += recall_at_k(topk[:k], targets[u])
                sums[k][1] += ndcg_at_k(topk, targets[u], k)
    report = EvalReport(target_split=target_split, masked_splits=mask_splits)
    count = len(eligible)
    for k in ks:
        if count:
            recall, ndcg = sums[k] / count
            report.records.append(MetricRecord(slice_name, k, float(recall), float(ndcg), count))
        else:
            report.records.append(MetricRecord(slice_name, k, 0.0, 0.0, 0, degenerate=True))
    return report
