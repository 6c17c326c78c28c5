"""Top-K evaluation: inner-product scoring, full-ranking Recall@K /
NDCG@K, and cold-start slicing.

Candidates for a test-split evaluation are all items minus the user's train
and val items; ranking ties break toward the lower item index so reports
are reproducible bit for bit. Metrics average only over users that have at
least one interaction in the target split. Scores are float64 whatever the
embeddings' floating type, and a non-finite embedding is an error, not a
score.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .dataio import TEST, TRAIN, VAL, InteractionDataset
from .errors import ConfigError, NumericError, ShapeError
from .item_graph import masked_row_sums

SLICE_ALL = "all"
SLICE_COLD = "cold_start"

# Users are scored in blocks of about this many (user, item) entries, at
# least one row, so a pass holds O(this) floats however many items there are.
_BLOCK_ELEMENTS = 1 << 21
# A score's bits can depend on the row count of the product it comes from;
# no block grows past the 1024 rows that fixed the reported numbers.
_MAX_BLOCK_ROWS = 1024


@dataclass
class MetricRecord:
    slice: str
    k: int
    recall: float
    ndcg: float
    users: int
    degenerate: bool = False


@dataclass
class EvalReport:
    records: list[MetricRecord] = field(default_factory=list)
    target_split: int = TEST
    masked_splits: tuple[int, ...] = (TRAIN, VAL)

    def record(self, slice_name: str, k: int) -> MetricRecord:
        for rec in self.records:
            if rec.slice == slice_name and rec.k == k:
                return rec
        raise KeyError(f"no record for slice={slice_name} k={k}")

    def to_json(self) -> str:
        payload = {
            "target_split": self.target_split,
            "masked_splits": list(self.masked_splits),
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload, indent=2)

    def format_table(self) -> str:
        lines = [f"{'slice':<12} {'K':>4} {'recall':>10} {'ndcg':>10} {'users':>8}"]
        for rec in self.records:
            lines.append(
                f"{rec.slice:<12} {rec.k:>4} {rec.recall:>10.5f} {rec.ndcg:>10.5f} "
                f"{rec.users:>8}"
            )
        return "\n".join(lines)


def check_cold_threshold(threshold: int) -> None:
    """A cold-start threshold below 1 leaves the slice empty by definition."""
    if threshold < 1:
        raise ConfigError(f"cold_threshold must be >= 1, got {threshold}")


def _cutoffs(ks: Sequence[int]) -> tuple[int, ...]:
    try:
        ks = tuple(operator.index(k) for k in ks)
    except TypeError:
        raise ConfigError(f"ks must be integers, got {ks!r}") from None
    if not ks or min(ks) < 1:
        raise ConfigError(f"ks must be one or more cutoffs >= 1, got {ks}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"ks repeats a cutoff: {ks}")
    return ks


def _slice_users(ds: InteractionDataset, slice_name: str, cold_threshold: int) -> np.ndarray:
    if slice_name == SLICE_ALL:
        return np.arange(ds.num_users)
    if slice_name == SLICE_COLD:
        return np.flatnonzero(np.bincount(ds.split_pairs(TRAIN)[0], minlength=ds.num_users)
                              < cold_threshold)
    raise ConfigError(f"unknown slice {slice_name!r}")


def _ranked_hits(scores: np.ndarray, masked, targets, width: int) -> np.ndarray:
    """Whether each of the first `width` ranked items of a score block's rows
    is a target; `masked` and `targets` are (row, item) entries. `scores`
    is overwritten."""
    # negated, so an ascending stable sort ranks high scores first and ties
    # toward the lower item index; masked items sort last
    np.negative(scores, out=scores)
    scores[masked] = np.inf
    order = np.empty((len(scores), width), dtype=np.int64)
    for row, line in enumerate(scores):
        order[row] = line.argsort(kind="stable")[:width]
    is_target = np.zeros(scores.shape, dtype=bool)
    is_target[targets] = True
    return np.take_along_axis(is_target, order, axis=1)


def _ideal_dcg(num_targets: np.ndarray, k: int) -> np.ndarray:
    """Each user's IDCG@k: the gains of ranks 1..min(|targets|, k), summed."""
    level, which = np.unique(np.minimum(num_targets, k), return_inverse=True)
    sums = [float((1.0 / np.log2(np.arange(1, m + 1) + 1)).sum()) for m in level.tolist()]
    return np.array(sums)[which]


def evaluate(
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    ds: InteractionDataset,
    slice_name: str | Sequence[str] = SLICE_ALL,
    ks: Sequence[int] = (10, 20),
    target_split: int = TEST,
    cold_threshold: int = 3,
) -> EvalReport:
    """Mean per-user Recall@K and NDCG@K over one user slice, or over each
    of a sequence of slices, whose records follow in its order.

    Users without interactions in the target split are skipped. An empty
    slice yields zero metrics flagged as degenerate. The union of the
    slices' users is ranked once, in blocks of `_BLOCK_ELEMENTS // |I|`
    rows (at least 1, at most `_MAX_BLOCK_ROWS`), each into one buffer
    allocated per call; each is masked, matched against its targets and
    scored at once, and only the stable sort runs per user. Each slice sums
    its own users' values one at a time in user order.

    Scores are float64: `item_emb` is upcast once and each block's user
    rows as the block is scored, so float64 embeddings rank bit for bit as
    they did and float32 ones as their float64 values. A NaN or an inf in
    either matrix raises NumericError naming it.
    """
    if user_emb.shape[0] != ds.num_users or item_emb.shape[0] != ds.num_items:
        raise ShapeError("embedding row counts do not match the dataset")
    item_emb = np.asarray(item_emb, dtype=np.float64)
    for name, emb in (("user_emb", user_emb), ("item_emb", item_emb)):
        if not np.isfinite(emb).all():
            raise NumericError(f"{name} holds a NaN or an inf, which no ranking orders")
    ks = _cutoffs(ks)
    if target_split not in (VAL, TEST):  # TRAIN targets are masked
        raise ConfigError(f"target_split must be {VAL} (val) or {TEST} (test), "
                          f"got {target_split!r}")
    check_cold_threshold(cold_threshold)
    names = (slice_name,) if isinstance(slice_name, str) else tuple(slice_name)
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"slice_name must name one or more distinct slices, got {slice_name!r}")
    members = [_slice_users(ds, name, cold_threshold) for name in names]
    mask_splits = (TRAIN,) if target_split == VAL else (TRAIN, VAL)
    targets = ds.user_csr(target_split)
    masked = ds.user_csr(mask_splits)
    num_targets = np.diff(targets.indptr)
    users = np.unique(np.concatenate(members))
    users = users[num_targets[users] > 0]
    num_targets = num_targets[users]
    # InteractionDataset holds no duplicate pairs, so no masked item repeats
    num_candidates = ds.num_items - np.diff(masked.indptr)[users]

    width = min(max(ks), ds.num_items)
    gains = 1.0 / np.log2(np.arange(1, width + 1) + 1)
    values = {k: np.empty((2, users.size)) for k in ks}
    rows = min(_MAX_BLOCK_ROWS, max(1, _BLOCK_ELEMENTS // ds.num_items))
    buffer = np.empty((min(rows, users.size), ds.num_items))
    for start in range(0, users.size, rows):
        block = slice(start, start + rows)
        block_users = users[block]
        rows64 = user_emb[block_users].astype(np.float64, copy=False)
        scores = np.matmul(rows64, item_emb.T, out=buffer[:block_users.size])
        hits = _ranked_hits(scores, masked[block_users].nonzero(),
                            targets[block_users].nonzero(), width)
        # only a row's first |I| - |masked| positions rank, as one user's
        # ranking always did; past them sit masked items
        hits &= np.arange(width) < num_candidates[block, None]
        for k in ks:
            top = hits[:, :k]
            values[k][0, block] = top.sum(axis=1) / num_targets[block]
            dcg = masked_row_sums(np.broadcast_to(gains[:k], top.shape), top)
            values[k][1, block] = dcg / _ideal_dcg(num_targets[block], k)

    report = EvalReport(target_split=target_split, masked_splits=mask_splits)
    for name, member in zip(names, members):
        in_slice = np.isin(users, member)
        count = int(in_slice.sum())
        for k in ks:
            # accumulate adds one user at a time, in user order, onto 0.0
            sums = np.add.accumulate(np.hstack([np.zeros((2, 1)), values[k][:, in_slice]]), axis=1)
            recall, ndcg = sums[:, -1] / max(count, 1)
            report.records.append(MetricRecord(name, k, float(recall), float(ndcg), count,
                                               degenerate=not count))
    return report


def mean_recall(
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    ds: InteractionDataset,
    k: int = 20,
    target_split: int = VAL,
) -> float:
    """Mean Recall@k over all users with targets in `target_split`."""
    report = evaluate(user_emb, item_emb, ds, ks=(k,), target_split=target_split)
    return report.record(SLICE_ALL, k).recall
