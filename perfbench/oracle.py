"""Brute-force ranking oracle for Recall@K and NDCG@K.

Written independently of `mhcr.evaluation`: every candidate item is scored,
masked items are pushed to the end, and the full list is stably sorted so
ties go to the lower item index. Per-user values are averaged in user order.
"""

from __future__ import annotations

import math

import numpy as np

TRAIN, VAL, TEST = 0, 1, 2
_BLOCK = 2048
_RTOL = 1e-9


def _items_by_user(users: np.ndarray, items: np.ndarray, num_users: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(num_users)]
    for u, i in zip(users.tolist(), items.tolist()):
        out[u].append(i)
    return out


def rank_metrics(user_emb, item_emb, ds, target_split: int, slice_users, ks) -> dict:
    """{"users": n, k: (mean recall, mean ndcg)} over `slice_users` that have
    target items. The validation split masks train items only; any other
    target split masks train and validation items."""
    split = ds.split
    masked_labels = (TRAIN,) if target_split == VAL else (TRAIN, VAL)
    in_mask = np.isin(split, masked_labels)
    targets = _items_by_user(ds.users[split == target_split], ds.items[split == target_split],
                             ds.num_users)
    masked = _items_by_user(ds.users[in_mask], ds.items[in_mask], ds.num_users)
    eligible = [u for u in sorted(int(u) for u in slice_users) if targets[u]]
    user_emb = np.asarray(user_emb, dtype=np.float64)
    item_emb = np.asarray(item_emb, dtype=np.float64)
    num_items = item_emb.shape[0]
    k_max = max(ks)
    sums = {k: [0.0, 0.0] for k in ks}
    for start in range(0, len(eligible), _BLOCK):
        block = eligible[start:start + _BLOCK]
        scores = user_emb[block] @ item_emb.T
        for row, u in enumerate(block):
            scores[row, masked[u]] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")
        for row, u in enumerate(block):
            n_candidates = num_items - len(set(masked[u]))
            ranked = order[row, :min(k_max, n_candidates)].tolist()
            wanted = set(targets[u])
            for k in ks:
                hit_ranks = [r for r, item in enumerate(ranked[:k]) if item in wanted]
                dcg = sum(1.0 / math.log2(r + 2) for r in hit_ranks)
                idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(wanted), k)))
                sums[k][0] += len(hit_ranks) / len(wanted)
                sums[k][1] += dcg / idcg
    result: dict = {"users": len(eligible)}
    for k in ks:
        result[k] = tuple(v / len(eligible) for v in sums[k]) if eligible else (0.0, 0.0)
    return result


def cold_users(ds, threshold: int = 3) -> list[int]:
    counts = np.bincount(ds.users[ds.split == TRAIN], minlength=ds.num_users)
    return np.flatnonzero(counts < threshold).tolist()


def mismatches(expected: dict, records: list[tuple]) -> list[str]:
    """Compare (k, recall, ndcg, users) records against the oracle's result;
    an ndcg or users of None is not reported by the program and is skipped."""
    bad = []
    for k, recall, ndcg, users in records:
        want_recall, want_ndcg = expected[k]
        if users is not None and users != expected["users"]:
            bad.append(f"k={k}: {users} users ranked, oracle {expected['users']}")
        for name, got, want in (("recall", recall, want_recall), ("ndcg", ndcg, want_ndcg)):
            if got is not None and not math.isclose(got, want, rel_tol=_RTOL, abs_tol=1e-12):
                bad.append(f"{name}@{k}: {got!r} != oracle {want!r}")
    return bad
