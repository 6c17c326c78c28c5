"""Model assembly and optimization: parameter ownership, the multi-view
forward pass with view flags and loss weights, reverse-mode gradients
through the fixed computation chain, Adam updates, negative sampling, and
the epoch loop with early stopping on validation Recall@20.

The model's node-sized state is float32: the parameters and Adam's
moments, the frozen view inputs of `build_views` and the embeddings of
`compute_embeddings`. Every op keeps its inputs' type, so parameters and
views handed in as float64 run in float64. The losses and the ranking
compute in float64 either way (`objectives`, `evaluation.evaluate`)."""

from __future__ import annotations

import copy
import logging
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import evaluation
from .dataio import (MODALITIES, TRAIN, InteractionDataset, ModalityFeatures,
                     check_train_and_val, pair_keys, validate_features)
from .errors import ConfigError, NumericError
from .hypergraph import build_incidence, hypergraph_pass  # perfbench traces build_incidence
from .item_graph import build_affinity_graph, propagate_items
from .objectives import (
    LossBreakdown,
    bpr_loss,
    embedding_l2,
    graph_hyper_contrastive_loss,
    hyper_contrastive_loss,
    total_loss,
)
from .ui_graph import build_norm_adjacency, propagate_ui

log = logging.getLogger(__name__)

_NEGATIVE_SAMPLING_TRIES = 100

# The storage type of the node-sized state (see above).
STATE_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    """Model, objective, and optimizer hyperparameters plus the view flags.
    A contrastive loss is off when its weight is 0. A bad setting raises
    ConfigError as the config is built, by `dataclasses.replace` too."""

    d: int = 64
    layers: int = 2
    k_knn: int = 10
    k_hyper: int = 32
    hyper_steps: int = 1
    drop_rate: float = 0.5
    tau: float = 0.2
    lambda_hc: float = 1e-5
    lambda_ghc: float = 0.01
    lambda_reg: float = 1e-4
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    use_ui: bool = True
    use_ii: bool = True
    use_hem: bool = True

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in astuple(self) if isinstance(v, float)):
            raise ConfigError("float settings must be finite")
        if not (self.use_ui or self.use_ii or self.use_hem):
            raise ConfigError("at least one view (use_ui, use_ii, use_hem) must be on")
        if self.d < 1 or self.k_hyper < 1 or self.k_knn < 1 or self.hyper_steps < 1:
            raise ConfigError("d, k_knn, k_hyper, hyper_steps must be >= 1")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError("drop_rate must be in [0, 1)")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        if min(self.lambda_hc, self.lambda_ghc, self.lambda_reg) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def variant_label(cfg: TrainConfig) -> str:
    """The name of the ablation that a config's view switches, contrastive
    weights and `layers` describe: "MHCR" for the full model, "BPR-MF"
    for the UI view alone at 0 layers, else "w/o " and the parts that are
    off."""
    if cfg.use_ui and not cfg.use_ii and not cfg.use_hem and cfg.layers == 0:
        return "BPR-MF"
    missing = [name for on, name in (
        (cfg.use_ui, "UI"),
        (cfg.use_ii, "II"),
        (cfg.use_hem, "HEM"),
        (cfg.lambda_hc > 0, "HC"),
        (cfg.lambda_ghc > 0, "GHC"),
    ) if not on]
    return "MHCR" if not missing else "w/o " + "+".join(missing)


def canonical_modalities(features: Sequence[ModalityFeatures]) -> list[ModalityFeatures]:
    order = {tag: idx for idx, tag in enumerate(MODALITIES)}
    return sorted(features, key=lambda f: order[f.modality])


def parameter_shapes(
    num_users: int, num_items: int, d: int, k_hyper: int, modality_dims: dict[str, int]
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every learnable tensor, in the order they are drawn,
    stored and updated: the ID embeddings E0 ((|U| + |I|) x d), then per
    modality in canonical order its projection W_m (d_m x d) and hyperedge
    matrix V_m (K x d_m)."""
    shapes: dict[str, tuple[int, ...]] = {"E0": (num_users + num_items, d)}
    for tag in MODALITIES:
        if tag in modality_dims:
            shapes[f"W_{tag}"] = (modality_dims[tag], d)
            shapes[f"V_{tag}"] = (k_hyper, modality_dims[tag])
    return shapes


@dataclass
class ModelParameters:
    """All learnable tensors, laid out by `parameter_shapes` and owned by the
    training loop, and the config that built them. Every size is read off the
    tensors; `init_parameters` and `load_checkpoint` make them fit `config`."""

    num_users: int
    named: dict[str, ad.Tensor]
    config: TrainConfig

    def tensors(self) -> dict[str, ad.Tensor]:
        return dict(self.named)

    @property
    def e0(self) -> ad.Tensor:
        return self.named["E0"]

    @property
    def num_items(self) -> int:
        return self.e0.shape[0] - self.num_users

    @property
    def modality_dims(self) -> dict[str, int]:
        """Tag -> feature width of each modality, in canonical order."""
        return {name[2:]: t.shape[0] for name, t in self.named.items() if name.startswith("W_")}

    def zero_grad(self) -> None:
        for tensor in self.named.values():
            tensor.zero_grad()

    def check_finite(self) -> None:
        for name, tensor in self.named.items():
            if not np.isfinite(tensor.data).all():
                raise NumericError(f"parameter {name} contains non-finite values")

    def copy(self) -> "ModelParameters":
        clones = {n: ad.Tensor(t.data.copy(), requires_grad=True) for n, t in self.named.items()}
        return ModelParameters(self.num_users, clones, self.config)


def init_parameters(
    cfg: TrainConfig,
    num_users: int,
    num_items: int,
    modality_dims: dict[str, int],
) -> ModelParameters:
    """Gaussian init, every entry i.i.d. N(0, (1/sqrt(d))^2), so ID embedding
    row norms concentrate near 1. Deterministic given the seed: the tensors
    of `parameter_shapes` are drawn in its order, in float64, and stored
    rounded to `STATE_DTYPE`."""
    shapes = parameter_shapes(num_users, num_items, cfg.d, cfg.k_hyper, modality_dims)
    if len(shapes) == 1:
        raise ConfigError("at least one modality is required")
    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / np.sqrt(cfg.d)
    return ModelParameters(num_users, {
        name: ad.Tensor(rng.normal(0.0, std, size=shape).astype(STATE_DTYPE), requires_grad=True)
        for name, shape in shapes.items()
    }, cfg)


# Adam sweeps each parameter in row blocks of about this many elements, so
# its dozen elementwise passes over a block stay in cache.
_ADAM_BLOCK_ELEMENTS = 1 << 15


class Adam:
    """Adam with bias correction; betas (0.9, 0.999), eps 1e-8. Moments and
    scratch take each parameter's type, and so does the arithmetic."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, ad.Tensor], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._scratch = {}
        for name, p in params.items():
            width = max(1, p.data[:1].size)
            rows = max(1, min(len(p.data), _ADAM_BLOCK_ELEMENTS // width))
            block = np.empty((rows,) + p.shape[1:], dtype=p.data.dtype)
            self._scratch[name] = (block, np.empty_like(block))

    def step(self) -> None:
        """In place, block by block, with the arithmetic order of the
        textbook update m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr * m_hat / (sqrt(v_hat) + eps), so results are bit-identical."""
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            update_block, denom_block = self._scratch[name]
            for start in range(0, len(p.data), len(update_block)):
                rows = slice(start, start + len(update_block))
                g, m, v = p.grad[rows], self.m[name][rows], self.v[name][rows]
                update, denom = update_block[:len(g)], denom_block[:len(g)]
                m *= self.beta1
                np.multiply(1.0 - self.beta1, g, out=update)
                m += update
                v *= self.beta2
                np.multiply(1.0 - self.beta2, g, out=denom)
                denom *= g
                v += denom
                np.divide(v, 1.0 - self.beta2**self.t, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                np.divide(m, 1.0 - self.beta1**self.t, out=update)
                np.multiply(self.learning_rate, update, out=update)
                update /= denom
                p.data[rows] -= update


@dataclass
class ViewInputs:
    """Frozen inputs shared by every training step, as plain matrices: the
    normalized user-item adjacency (`build_norm_adjacency`), per modality
    its features propagated over its affinity graph, S_m F_m
    (`build_affinity_graph`; entry i belongs to `features[i]`), the
    |U| x |I| train interactions scaled by user degree, D_u^-1 X_u, and the
    modality features in canonical order. `build_views` stores all of them
    in `STATE_DTYPE`; the features' `matrix` is a rounded copy of the
    float64 one `ModalityFeatures` holds."""

    adjacency: sp.csr_matrix
    smoothed: list[np.ndarray]
    x_u: sp.csr_matrix
    features: list[ModalityFeatures]

    @property
    def modality_dims(self) -> dict[str, int]:
        return {f.modality: f.dim for f in self.features}


def build_views(
    ds: InteractionDataset, features: Sequence[ModalityFeatures], cfg: TrainConfig
) -> ViewInputs:
    """The frozen view inputs, each built in float64 and rounded once to
    `STATE_DTYPE`. The sparse ones get a rounded copy of their values
    only, so their rows keep the order they were built in."""
    validate_features(ds, features)
    feats = canonical_modalities(features)
    adjacency = build_norm_adjacency(ds)
    adjacency.data = adjacency.data.astype(STATE_DTYPE)
    smoothed = [(build_affinity_graph(f, cfg.k_knn) @ f.matrix).astype(STATE_DTYPE)
                for f in feats]
    x_u = ds.user_csr(TRAIN)
    degree = np.diff(x_u.indptr)
    x_u.data = (x_u.data / np.repeat(degree, degree)).astype(STATE_DTYPE)
    stored = [copy.copy(f) for f in feats]
    for f in stored:  # set past the constructor, which casts to float64
        f.matrix = f.matrix.astype(STATE_DTYPE)
    return ViewInputs(adjacency, smoothed, x_u, stored)


@dataclass
class Batch:
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray


@dataclass
class ForwardResult:
    """The fused embeddings and, in train mode, the training losses; no
    view is kept (a train-mode tape reaches them through `total`).

    Row r of `fused` is global node `nodes[r]`: every node in order
    (`np.arange(|U| + |I|)`) in eval mode, and only the rows the losses
    read in train mode: the batch's unique users, then its unique items.
    BPR reads a row per triple; the contrastive losses read the unique
    users and the unique positives, as two pools.
    """

    fused: ad.Tensor
    nodes: np.ndarray
    total: ad.Tensor | None = None
    breakdown: LossBreakdown | None = None


def train_item_sets(ds: InteractionDataset) -> np.ndarray:
    """Each user's train items, as the sorted pair keys (`dataio.pair_keys`)
    that `sample_negatives` looks up."""
    users, items = ds.split_pairs(TRAIN)
    return np.sort(pair_keys(users, items, ds.num_users, ds.num_items))


def sample_negatives(
    ds: InteractionDataset,
    batch_users: np.ndarray,
    rng: np.random.Generator,
    train_keys: np.ndarray,
) -> np.ndarray:
    """One uniformly sampled non-train item per batch user, given the train
    pairs' sorted keys (`train_item_sets`, at least one).

    Rejection sampling: the users, in batch order, read one stream of
    `rng.integers(|I|)` draws until a draw is not one of their train items;
    after 100 rejected draws a user keeps its next draw unchecked, counted
    and warned as a fallback. `drawn` is the unread rest of one refill of a
    draw per user left: each pass checks it against the users from `row` on,
    keeps the accepted prefix and drops the first rejected draw. Every user
    left takes at least one more draw, so a refill never reads past the
    stream that scalar draws, user by user, would read.
    """
    users = np.asarray(batch_users, dtype=np.int64)
    negatives = np.empty(users.size, dtype=np.int64)
    drawn = negatives[:0]
    row = rejects = fallbacks = 0
    while row < users.size:
        if not drawn.size:
            drawn = rng.integers(ds.num_items, size=users.size - row)
        keys = pair_keys(users[row:row + drawn.size], drawn, ds.num_users, ds.num_items)
        at = np.minimum(np.searchsorted(train_keys, keys), train_keys.size - 1)
        seen = train_keys[at] == keys
        if rejects == _NEGATIVE_SAMPLING_TRIES:
            seen[0] = False  # user `row` keeps this draw unchecked
            fallbacks += 1
        accepted = int(seen.argmax()) if seen.any() else seen.size
        negatives[row:row + accepted] = drawn[:accepted]
        row, drawn = row + accepted, drawn[accepted:]
        if accepted:
            rejects = 0
        if drawn.size:  # user `row` drew one of its train items
            drawn, rejects = drawn[1:], rejects + 1
    if fallbacks:
        log.warning("negative sampling fell back to uniform for %d draw(s)", fallbacks)
    return negatives


def _batch_nodes(batch: Batch, num_users: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The node rows a batch's losses read: its unique users, then |U| + its
    unique positive and negative items, each in ascending order.

    Returns (nodes, number of user rows, local positions of the batch's
    users, positives and negatives concatenated).
    """
    users, user_local = np.unique(np.asarray(batch.users, dtype=np.int64), return_inverse=True)
    items, item_local = np.unique(
        np.concatenate([batch.pos_items, batch.neg_items]).astype(np.int64), return_inverse=True
    )
    nodes = np.concatenate([users, num_users + items])
    return nodes, users.size, np.concatenate([user_local, users.size + item_local])


def forward(
    params: ModelParameters,
    views: ViewInputs,
    cfg: TrainConfig,
    batch: Batch | None = None,
    mode: str = "train",
    rng: int | np.random.Generator | None = None,
) -> ForwardResult:
    """Assemble the three views, fuse them, and (in train mode) compute the
    loss breakdown on the batch.

    Every view is computed on explicit node rows, and row r of each view
    tensor is global node `result.nodes[r]`. Train mode takes the rows the
    losses read (`_batch_nodes`): the batch's users, positives and
    negatives. Without dropout each row equals the eval-mode row up to the
    last bits of the hypergraph broadcast. Dropout masks are drawn only for
    those rows. Eval mode takes every node in order, disables dropout and
    computes no losses. Either mode records a tape through the parameters
    that require gradients; `compute_embeddings` passes constants instead.
    The result keeps no view: each is freed once the sum that reads it
    exists, or in train mode once the losses have read it.

    A view whose flag is off is not computed and is left out of the sums,
    without touching the remaining views' computations. A contrastive loss
    is 0.0 unless its weight is positive and the hypergraph view is on; the
    graph-hypergraph loss also needs a graph view. Each contrastive loss
    scores two pools, the batch's unique users and its unique positive
    items, and sums their means: a node that repeats in the batch is
    scored once, and users and items are not each other's negatives.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    train_mode = mode == "train"
    if train_mode and batch is None:
        raise ConfigError("train mode requires a batch")
    num_users, num_items = params.num_users, params.num_items
    if train_mode:
        nodes, n_user_rows, local = _batch_nodes(batch, num_users)
    else:
        nodes, n_user_rows = np.arange(num_users + num_items), num_users
    user_rows, item_rows = nodes[:n_user_rows], nodes[n_user_rows:] - num_users

    # the hypergraph view first, so its stacks are freed before the graph
    # views run; no other view draws from `rng`, so the order moves no bit
    stacks, e_h = [], None
    if cfg.use_hem:
        rng, x_rows = np.random.default_rng(rng), views.x_u[user_rows]
        drop = cfg.drop_rate if train_mode else 0.0
        stacks = [hypergraph_pass(f.matrix, params.named[f"V_{f.modality}"],
                                  params.named[f"W_{f.modality}"], x_rows, drop, cfg.hyper_steps,
                                  rng, item_rows) for f in views.features]
        e_h = ad.add(*stacks)
        del x_rows
        if not train_mode:
            stacks = []  # only the cross-modal loss reads them past their sum
    graph_views = []
    if cfg.use_ui:
        graph_views.append(propagate_ui(views.adjacency, params.e0, cfg.layers, nodes))
    if cfg.use_ii:
        weights = [params.named[f"W_{f.modality}"] for f in views.features]
        graph_views.append(propagate_items(views.smoothed, weights, item_rows, n_user_rows))
    e_graph = ad.add(*graph_views) if graph_views else None
    del graph_views
    fused = ad.add(*(view for view in (e_graph, e_h) if view is not None))
    if not train_mode:
        return ForwardResult(fused, nodes)

    user_local, pos_local, neg_local = np.split(
        local, np.cumsum([len(batch.users), len(batch.pos_items)])
    )
    l_bpr = bpr_loss(fused, user_local, pos_local, neg_local)
    pools = (np.arange(n_user_rows), np.unique(pos_local))
    l_hc = l_ghc = 0.0
    if cfg.use_hem and cfg.lambda_hc > 0:
        l_hc = hyper_contrastive_loss(stacks, pools, cfg.tau)
    if cfg.use_hem and cfg.lambda_ghc > 0 and e_graph is not None:
        l_ghc = graph_hyper_contrastive_loss(e_graph, e_h, pools, cfg.tau)
    l_reg = embedding_l2(params.e0, nodes[local])

    return ForwardResult(fused, nodes, *total_loss(
        l_bpr, l_hc, l_ghc, l_reg, cfg.lambda_hc, cfg.lambda_ghc, cfg.lambda_reg
    ))


def backward_and_step(total: ad.Tensor, params: ModelParameters, optimizer: Adam) -> None:
    """Reverse-mode gradient accumulation followed by one Adam update, for a
    finite loss. The one finite scan is of the updated parameters: Adam
    carries a non-finite gradient into its parameter, as it does overflow."""
    if not np.isfinite(total.data):
        raise NumericError(f"training loss is {float(total.data)}")
    params.zero_grad()
    total.backward()
    optimizer.step()
    params.check_finite()


def compute_embeddings(
    params: ModelParameters, views: ViewInputs, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode fused embeddings, split into user and item blocks.

    The forward pass runs on the parameters' values wrapped as constants, so
    it records no tape. The two blocks are views of one array allocated
    before the pass, the only one kept, in the type of the parameters:
    callers keep it while the pass's views are freed, and a heap can only
    shrink back to its highest block."""
    fused = np.empty(params.e0.shape, dtype=params.e0.data.dtype)
    frozen = ModelParameters(
        params.num_users, {n: ad.constant(t.data) for n, t in params.named.items()}, params.config
    )
    np.copyto(fused, forward(frozen, views, cfg, mode="eval").fused.data)
    return fused[:params.num_users], fused[params.num_users:]


def evaluate_params(
    params: ModelParameters,
    ds: InteractionDataset,
    features: Sequence[ModalityFeatures],
    cold_threshold: int = 3,
) -> evaluation.EvalReport:
    """The report of `mhcr evaluate`: test-split Recall@K and NDCG@K at K =
    10 and 20 over all users with test targets, then over those of them
    with fewer train interactions than `cold_threshold`. The views of
    `params.config` are built, the eval-mode embeddings computed and each
    user ranked once for both slices."""
    cfg = params.config
    user_emb, item_emb = compute_embeddings(params, build_views(ds, features, cfg), cfg)
    slices = (evaluation.SLICE_ALL, evaluation.SLICE_COLD)
    return evaluation.evaluate(user_emb, item_emb, ds, slices, cold_threshold=cold_threshold)


@dataclass
class EpochStats:
    epoch: int
    loss: LossBreakdown
    val_recall20: float


@dataclass
class TrainResult:
    """The best validation epoch's parameters and the eval-mode (user, item)
    embeddings that scored its Recall@20, then the per-epoch history."""

    params: ModelParameters
    best_embeddings: tuple[np.ndarray, np.ndarray]
    epochs: list[EpochStats]
    best_epoch: int
    best_val_recall20: float
    initial_val_recall20: float


def _mean_breakdown(parts: list[tuple[int, LossBreakdown]], cfg: TrainConfig) -> LossBreakdown:
    """Interaction-weighted component means, composed by `total_loss`, so the
    exact-composition invariant holds per row."""
    n = sum(size for size, _ in parts)
    acc = np.zeros(4)
    for size, b in parts:
        acc += size * np.array([b.l_bpr, b.l_hc, b.l_ghc, b.l_reg])
    _, breakdown = total_loss(*(acc / n).tolist(), cfg.lambda_hc, cfg.lambda_ghc, cfg.lambda_reg)
    return breakdown


def check_modality_count(cfg: TrainConfig, count: int) -> None:
    """The cross-modal contrastive loss compares modalities pairwise, so a
    config that trains it needs at least two."""
    if cfg.use_hem and cfg.lambda_hc > 0 and count < 2:
        raise ConfigError("the cross-modal contrastive loss needs >= 2 modalities")


def fit(
    ds: InteractionDataset,
    features: Sequence[ModalityFeatures],
    cfg: TrainConfig,
) -> TrainResult:
    """Mini-batch training with per-epoch validation Recall@20 early stopping.

    Deterministic for a fixed config and seed in single-threaded mode: the
    shuffle, negative-sampling, and dropout streams are spawned from the
    root seed, and dropout is only consumed by the hypergraph view.
    """
    check_train_and_val(ds)
    check_modality_count(cfg, len(features))

    views = build_views(ds, features, cfg)
    params = init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    optimizer = Adam(params.tensors(), cfg.learning_rate)
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_shuffle, rng_neg, rng_drop = (np.random.default_rng(s) for s in seeds)

    train_users, train_items = ds.split_pairs(TRAIN)
    train_keys = train_item_sets(ds)
    n_train = train_users.size

    user_emb, item_emb = compute_embeddings(params, views, cfg)
    initial_recall = evaluation.mean_recall(user_emb, item_emb, ds, k=20)

    # validation Recall@20 is finite, so epoch 1 always sets the best state
    best_recall = -np.inf
    best_epoch = 0
    epochs_since_best = 0
    history: list[EpochStats] = []

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng_shuffle.permutation(n_train)
        batch_stats: list[tuple[int, LossBreakdown]] = []
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch = Batch(
                users=train_users[idx],
                pos_items=train_items[idx],
                neg_items=sample_negatives(ds, train_users[idx], rng_neg, train_keys),
            )
            result = forward(params, views, cfg, batch=batch, mode="train", rng=rng_drop)
            backward_and_step(result.total, params, optimizer)
            batch_stats.append((idx.size, result.breakdown))

        user_emb, item_emb = compute_embeddings(params, views, cfg)
        val_recall = evaluation.mean_recall(user_emb, item_emb, ds, k=20)
        history.append(EpochStats(epoch, _mean_breakdown(batch_stats, cfg), val_recall))

        if val_recall > best_recall:
            best_recall = val_recall
            best_epoch = epoch
            best_params, best_embeddings = params.copy(), (user_emb, item_emb)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best > cfg.patience:
                break

    return TrainResult(
        params=best_params,
        best_embeddings=best_embeddings,
        epochs=history,
        best_epoch=best_epoch,
        best_val_recall20=float(best_recall),
        initial_val_recall20=float(initial_recall),
    )
