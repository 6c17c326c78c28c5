"""Top-K evaluation: inner-product scoring, full-ranking Recall@K /
NDCG@K, and cold-start slicing.

Candidates for a test-split evaluation are all items minus the user's train
and val items; ranking ties break toward the lower item index so reports
are reproducible bit for bit. Metrics average only over users that have at
least one interaction in the target split.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataio import TEST, TRAIN, VAL, InteractionDataset, cold_start_users
from .errors import ConfigError, ShapeError

SLICE_ALL = "all"
SLICE_COLD = "cold_start"

_USER_BLOCK = 1024


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


def rank_items(scores: np.ndarray, excluded: Iterable[int], k: int) -> np.ndarray:
    """Top-k candidate item indices by score, ties resolved to the lower
    index. Excluded items are removed from candidacy entirely, so the result
    may hold fewer than k entries."""
    masked = np.array(scores, dtype=np.float64)
    excluded = np.fromiter(excluded, dtype=np.int64) if not isinstance(excluded, np.ndarray) else excluded
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


def _slice_users(ds: InteractionDataset, slice_name: str, cold_threshold: int) -> np.ndarray:
    if slice_name == SLICE_ALL:
        return np.arange(ds.num_users)
    if slice_name == SLICE_COLD:
        return np.fromiter(sorted(cold_start_users(ds, cold_threshold)), dtype=np.int64)
    raise ConfigError(f"unknown slice {slice_name!r}")


def evaluate(
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    ds: InteractionDataset,
    slice_name: str = SLICE_ALL,
    ks: Sequence[int] = (10, 20),
    target_split: int = TEST,
    cold_threshold: int = 3,
) -> EvalReport:
    """Mean per-user Recall@K and NDCG@K over one user slice.

    Users without interactions in the target split are skipped. An empty
    slice yields zero metrics flagged as degenerate. Per-user scores are
    computed in user blocks; accumulation order is fixed by user index.
    """
    if user_emb.shape[0] != ds.num_users or item_emb.shape[0] != ds.num_items:
        raise ShapeError("embedding row counts do not match the dataset")
    mask_splits = (TRAIN,) if target_split == VAL else (TRAIN, VAL)
    targets = ds.items_by_user(target_split)
    masked = ds.items_by_user(mask_splits)
    slice_users = _slice_users(ds, slice_name, cold_threshold)
    eligible = [u for u in slice_users.tolist() if targets[u].size > 0]

    k_max = max(ks)
    sums = {k: np.zeros(2) for k in ks}

    count = 0
    for start in range(0, len(eligible), _USER_BLOCK):
        block = eligible[start:start + _USER_BLOCK]
        if not block:
            continue
        scores = user_emb[block] @ item_emb.T
        for row, u in enumerate(block):
            topk = rank_items(scores[row], masked[u], k_max)
            for k in ks:
                sums[k][0] += recall_at_k(topk[:k], targets[u])
                sums[k][1] += ndcg_at_k(topk, targets[u], k)
            count += 1

    report = EvalReport(target_split=target_split, masked_splits=tuple(mask_splits))
    for k in ks:
        if count:
            recall, ndcg = sums[k] / count
            report.records.append(MetricRecord(slice_name, k, float(recall), float(ndcg), count))
        else:
            report.records.append(MetricRecord(slice_name, k, 0.0, 0.0, 0, degenerate=True))
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
