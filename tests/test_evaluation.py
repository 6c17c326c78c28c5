"""Metric harness against an independent brute-force ranking script and
against the user-by-user reference in `oracles`."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr import evaluation
from mhcr.dataio import TEST, TRAIN, VAL, InteractionDataset
from mhcr.errors import ConfigError, NumericError
from mhcr.evaluation import SLICE_ALL, SLICE_COLD, EvalReport, evaluate, mean_recall

from oracles import cold_start_users, evaluate_by_user, ndcg_at_k, rank_items, recall_at_k


def brute_force_report(user_emb, item_emb, ds, users, ks, target, masked):
    """Independent re-implementation: python sort with (-score, index) keys,
    textbook recall and NDCG formulas, explicit per-user masking."""
    import math

    split = ds.split
    per_k = {k: [0.0, 0.0, 0] for k in ks}
    for u in sorted(users):
        targets = [
            int(i) for i, (uu, s) in zip(ds.items, zip(ds.users, split))
            if uu == u and s == target
        ]
        if not targets:
            continue
        banned = {
            int(i) for i, (uu, s) in zip(ds.items, zip(ds.users, split))
            if uu == u and s in masked
        }
        scored = [
            (float(np.dot(user_emb[u], item_emb[i])), i)
            for i in range(ds.num_items)
            if i not in banned
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        ranking = [i for _, i in scored]
        for k in ks:
            topk = ranking[:k]
            hits = [r + 1 for r, i in enumerate(topk) if i in targets]
            recall = len(hits) / len(targets)
            dcg = sum(1.0 / math.log2(r + 1) for r in hits)
            idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(targets), k) + 1))
            per_k[k][0] += recall
            per_k[k][1] += dcg / idcg
            per_k[k][2] += 1
    out = {}
    for k, (r_sum, n_sum, count) in per_k.items():
        out[k] = (r_sum / count if count else 0.0, n_sum / count if count else 0.0, count)
    return out


def random_instance(seed, num_users=18, num_items=27, d=6):
    rng = np.random.default_rng(seed)
    pairs = set()
    users, items, split = [], [], []
    for u in range(num_users):
        n = rng.integers(2, 9)
        choices = rng.choice(num_items, size=n, replace=False)
        labels = [TRAIN] * max(1, n - 2) + [VAL, TEST][: n - max(1, n - 2)]
        for i, s in zip(choices, labels):
            if (u, int(i)) in pairs:
                continue
            pairs.add((u, int(i)))
            users.append(u)
            items.append(int(i))
            split.append(s)
    ds = InteractionDataset(
        num_users, num_items, np.array(users), np.array(items), split=np.array(split)
    )
    user_emb = rng.normal(size=(num_users, d))
    item_emb = rng.normal(size=(num_items, d))
    return ds, user_emb, item_emb


class TestRanking:
    def test_hand_scores_order(self):
        topk = rank_items(np.array([0.9, 0.5, 0.1]), np.array([], dtype=np.int64), 3)
        assert topk.tolist() == [0, 1, 2]

    def test_ties_break_to_lower_index(self):
        topk = rank_items(np.array([0.5, 0.7, 0.5, 0.5]), np.array([], dtype=np.int64), 4)
        assert topk.tolist() == [1, 0, 2, 3]

    def test_masked_items_never_appear(self):
        topk = rank_items(np.array([9.0, 8.0, 7.0, 0.5]), np.array([0, 1]), 4)
        assert topk.tolist() == [2, 3]

    def test_best_candidate_is_rank_one(self):
        topk = rank_items(np.array([0.1, 0.2, 5.0]), np.array([0]), 1)
        assert topk.tolist() == [2]


class TestPerUserMetrics:
    def test_recall_perfect(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([2, 3])) == 1.0

    def test_recall_disjoint(self):
        assert recall_at_k(np.array([1, 2]), np.array([3])) == 0.0

    def test_recall_half(self):
        assert recall_at_k(np.array([1, 2]), np.array([2, 5])) == 0.5

    def test_ndcg_rank_one(self):
        assert ndcg_at_k(np.array([7, 1, 2]), np.array([7])) == 1.0

    def test_ndcg_single_hit_rank_two(self):
        value = ndcg_at_k(np.array([5, 7, 1]), np.array([7]), k=3)
        assert value == pytest.approx(1.0 / np.log2(3.0), abs=1e-5)
        assert value == pytest.approx(0.63093, abs=1e-5)

    def test_ndcg_no_hits(self):
        assert ndcg_at_k(np.array([1, 2]), np.array([3])) == 0.0

    def test_recall_monotone_and_metrics_bounded(self):
        # recall is monotone in K; NDCG with a K-truncated ideal is monotone
        # only for single-target users (the ideal also grows with K), so the
        # general assertion for it is just the [0, 1] bound
        rng = np.random.default_rng(0)
        for _ in range(25):
            ranking = rng.permutation(30)
            targets = rng.choice(30, size=4, replace=False)
            recs = [recall_at_k(ranking[:k], targets) for k in range(1, 31)]
            ndcgs = [ndcg_at_k(ranking, targets, k) for k in range(1, 31)]
            assert all(b >= a - 1e-12 for a, b in zip(recs, recs[1:]))
            assert all(0.0 <= v <= 1.0 for v in recs + ndcgs)
            single = rng.choice(30, size=1)
            single_ndcgs = [ndcg_at_k(ranking, single, k) for k in range(1, 31)]
            assert all(b >= a - 1e-12 for a, b in zip(single_ndcgs, single_ndcgs[1:]))


class TestEvaluate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_oracle(self, seed):
        ds, user_emb, item_emb = random_instance(seed)
        report = evaluate(user_emb, item_emb, ds, ks=(10, 20))
        oracle = brute_force_report(
            user_emb, item_emb, ds, range(ds.num_users), (10, 20), TEST, {TRAIN, VAL}
        )
        for k in (10, 20):
            rec = report.record(SLICE_ALL, k)
            assert rec.recall == oracle[k][0]
            assert rec.ndcg == oracle[k][1]
            assert rec.users == oracle[k][2]

    def test_cold_slice_subset_of_all(self):
        ds, user_emb, item_emb = random_instance(7)
        all_rec = evaluate(user_emb, item_emb, ds, slice_name=SLICE_ALL).record(SLICE_ALL, 10)
        cold = evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD).record(SLICE_COLD, 10)
        assert cold.users <= all_rec.users

    def test_cold_slice_matches_oracle(self):
        ds, user_emb, item_emb = random_instance(11)
        cold_users = cold_start_users(ds, 3)
        report = evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD)
        oracle = brute_force_report(
            user_emb, item_emb, ds, cold_users, (10, 20), TEST, {TRAIN, VAL}
        )
        for k in (10, 20):
            rec = report.record(SLICE_COLD, k)
            assert rec.recall == oracle[k][0]
            assert rec.users == oracle[k][2]

    def test_recall_at_10_le_recall_at_20(self):
        ds, user_emb, item_emb = random_instance(3)
        report = evaluate(user_emb, item_emb, ds)
        assert report.record(SLICE_ALL, 10).recall <= report.record(SLICE_ALL, 20).recall

    def test_scaling_embeddings_preserves_metrics(self):
        ds, user_emb, item_emb = random_instance(5)
        base = evaluate(user_emb, item_emb, ds)
        for c in (0.5, 2.0, 10.0):
            scaled = evaluate(c * user_emb, c * item_emb, ds)
            for k in (10, 20):
                assert scaled.record(SLICE_ALL, k).recall == base.record(SLICE_ALL, k).recall
                assert scaled.record(SLICE_ALL, k).ndcg == base.record(SLICE_ALL, k).ndcg

    def test_empty_slice_is_degenerate(self):
        ds = InteractionDataset(
            1, 3, np.array([0, 0, 0]), np.array([0, 1, 2]),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        report = evaluate(np.ones((1, 2)), np.ones((3, 2)), ds, slice_name=SLICE_COLD)
        rec = report.record(SLICE_COLD, 10)
        assert rec.degenerate and rec.users == 0 and rec.recall == 0.0

    def test_val_split_masks_only_train(self):
        ds = InteractionDataset(
            1, 3, np.array([0, 0, 0]), np.array([0, 1, 2]),
            split=np.array([TRAIN, VAL, TEST]),
        )
        user_emb = np.array([[1.0]])
        item_emb = np.array([[3.0], [2.0], [1.0]])
        report = evaluate(user_emb, item_emb, ds, ks=(1,), target_split=VAL)
        # candidates: items 1 and 2 (train masked); val item 1 ranks first
        assert report.record(SLICE_ALL, 1).recall == 1.0

    def test_mean_recall_helper(self):
        ds, user_emb, item_emb = random_instance(9)
        value = mean_recall(user_emb, item_emb, ds, k=20, target_split=TEST)
        report = evaluate(user_emb, item_emb, ds, ks=(20,), target_split=TEST)
        assert value == report.record(SLICE_ALL, 20).recall

    @pytest.mark.parametrize("matrix", ["user_emb", "item_emb"])
    def test_a_nan_embedding_is_an_error(self, matrix):
        # an all-NaN user once ranked its NaN scores behind its masked item
        # but inside its 3 candidates, so its Recall@2 read 1.0
        ds = InteractionDataset(1, 4, np.zeros(3, dtype=np.int64), np.array([0, 1, 2]),
                                split=np.array([TRAIN, TEST, TEST]))
        emb = {"user_emb": np.ones((1, 2)), "item_emb": np.ones((4, 2))}
        emb[matrix][0] = np.nan
        with pytest.raises(NumericError, match=matrix):
            evaluate(emb["user_emb"], emb["item_emb"], ds, ks=(2,))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("matrix", ["user_emb", "item_emb"])
    def test_an_infinite_embedding_is_an_error(self, matrix, value):
        ds, user_emb, item_emb = random_instance(6)
        # a user without test targets is not ranked, and still checked
        unranked = np.flatnonzero(np.diff(ds.user_csr(TEST).indptr) == 0)[0]
        emb = {"user_emb": user_emb, "item_emb": item_emb}
        emb[matrix][unranked if matrix == "user_emb" else 0, 0] = value
        with pytest.raises(NumericError, match=matrix):
            mean_recall(emb["user_emb"], emb["item_emb"], ds, target_split=TEST)

    def test_float32_embeddings_rank_as_their_float64_values(self):
        ds, user_emb, item_emb = random_instance(8)
        user_emb, item_emb = user_emb.astype(np.float32), item_emb.astype(np.float32)
        report = evaluate(user_emb, item_emb, ds, slice_name=(SLICE_ALL, SLICE_COLD))
        wide = evaluate(user_emb.astype(np.float64), item_emb.astype(np.float64), ds,
                        slice_name=(SLICE_ALL, SLICE_COLD))
        assert report.to_json() == wide.to_json()


@st.composite
def eval_cases(draw):
    """A random split dataset, embeddings (integer-valued half the time, so
    scores tie, and sometimes with a NaN item, which `evaluate` rejects:
    see `rejects_nan`), cutoffs that may exceed |I|, a target split, a
    slice and a block budget of 1 to 3 rows or the default."""
    num_users, num_items = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users, items = np.nonzero(rng.random((num_users, num_items)) < draw(st.floats(0.1, 1.0)))
    order = rng.permutation(users.size)
    split = rng.choice(3, size=users.size, p=rng.dirichlet(np.ones(3)))
    ds = InteractionDataset(num_users, num_items, users[order], items[order], split=split)
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        user_emb = rng.integers(-2, 3, size=(num_users, d)).astype(np.float64)
        item_emb = rng.integers(-2, 3, size=(num_items, d)).astype(np.float64)
    else:
        user_emb, item_emb = rng.normal(size=(num_users, d)), rng.normal(size=(num_items, d))
    if draw(st.integers(0, 9)) == 0:
        item_emb[rng.integers(num_items)] = np.nan
    kwargs = dict(
        ks=tuple(draw(st.lists(st.integers(1, 45), min_size=1, max_size=3, unique=True))),
        target_split=draw(st.sampled_from([TEST, VAL])),
        slice_name=draw(st.sampled_from([SLICE_ALL, SLICE_COLD])),
        cold_threshold=draw(st.integers(1, 4)),
    )
    return ds, user_emb, item_emb, kwargs, draw(st.sampled_from([None, 1, 2, 3]))


def rejects_nan(user_emb, item_emb, ds, kwargs) -> bool:
    """For an `eval_cases` case with a NaN item: True, once `evaluate` has
    raised NumericError naming `item_emb`. False for finite embeddings."""
    if np.isfinite(item_emb).all():
        return False
    with pytest.raises(NumericError, match="item_emb"):
        evaluate(user_emb, item_emb, ds, **kwargs)
    return True


class TestBlockEvaluate:
    @given(eval_cases())
    @settings(max_examples=300, deadline=None)
    def test_report_bytes_match_the_user_by_user_reference(self, case):
        ds, user_emb, item_emb, kwargs, block_rows = case
        if rejects_nan(user_emb, item_emb, ds, kwargs):
            return
        if block_rows is None:
            report = evaluate(user_emb, item_emb, ds, **kwargs)
            block_rows = 1024
        else:
            with mock.patch.object(evaluation, "_BLOCK_ELEMENTS", block_rows * ds.num_items):
                report = evaluate(user_emb, item_emb, ds, **kwargs)
        expected = evaluate_by_user(user_emb, item_emb, ds, block_rows=block_rows, **kwargs)
        assert report.to_json() == expected.to_json()

    def test_many_hits_sum_as_one_row(self):
        # up to 30 hits per user, so DCG sums take numpy's 8-way unrolled path
        rng = np.random.default_rng(3)
        num_users, num_items = 40, 60
        users, items = np.nonzero(rng.random((num_users, num_items)) < 0.7)
        split = np.where(rng.random(users.size) < 0.8, TEST, TRAIN)
        ds = InteractionDataset(num_users, num_items, users, items, split=split)
        item_emb = rng.normal(size=(num_items, 3))
        user_emb = rng.normal(size=(num_users, 3))
        for ks in ((1, 8, 30), (17, 45, 60, 100)):
            report = evaluate(user_emb, item_emb, ds, ks=ks)
            assert report.to_json() == evaluate_by_user(user_emb, item_emb, ds, ks=ks).to_json()

    def test_budget_sets_the_block_rows(self):
        ds, user_emb, item_emb = random_instance(2)
        seen, ranked_hits = [], evaluation._ranked_hits

        def counting(scores, *args):
            seen.append(len(scores))
            return ranked_hits(scores, *args)

        with mock.patch.object(evaluation, "_ranked_hits", counting):
            with mock.patch.object(evaluation, "_BLOCK_ELEMENTS", 5 * ds.num_items + 3):
                evaluate(user_emb, item_emb, ds)
            eligible = sum(seen)
            assert seen == [5] * (eligible // 5) + ([eligible % 5] if eligible % 5 else [])
            seen.clear()
            with mock.patch.object(evaluation, "_BLOCK_ELEMENTS", 1):
                evaluate(user_emb, item_emb, ds)
            assert seen == [1] * eligible
            seen.clear()
            with mock.patch.object(evaluation, "_BLOCK_ELEMENTS", 1 << 40):
                evaluate(np.zeros((2000, 2)), np.zeros((ds.num_items, 2)),
                         InteractionDataset(2000, ds.num_items, np.arange(2000),
                                            np.zeros(2000, dtype=np.int64),
                                            split=np.full(2000, TEST)))
            assert seen == [1024, 976]
            seen.clear()
            # the default budget: 2**19 // 2000 = 262 rows, 4 MiB of float64 scores
            evaluate(np.zeros((600, 2)), np.zeros((2000, 2)),
                     InteractionDataset(600, 2000, np.arange(600), np.zeros(600, dtype=np.int64),
                                        split=np.full(600, TEST)))
            assert seen == [262, 262, 76]


class TestSlices:
    """Slices given together rank the union of their users once; each
    still reports what its own call reports."""

    @given(eval_cases())
    @settings(max_examples=150, deadline=None)
    def test_slices_together_match_one_call_each(self, case):
        ds, user_emb, item_emb, kwargs, _ = case
        # integer scores, whose bits do not depend on the rows scored with them
        user_emb, item_emb = np.rint(user_emb), np.rint(item_emb)
        if rejects_nan(user_emb, item_emb, ds, kwargs):
            return
        del kwargs["slice_name"]
        for names in ((SLICE_ALL, SLICE_COLD), (SLICE_COLD, SLICE_ALL)):
            report = evaluate(user_emb, item_emb, ds, slice_name=names, **kwargs)
            apart = [evaluate(user_emb, item_emb, ds, slice_name=name, **kwargs) for name in names]
            assert report.records == [rec for one in apart for rec in one.records]

    def test_all_users_records_are_the_single_slice_records(self):
        ds, user_emb, item_emb = random_instance(4)
        report = evaluate(user_emb, item_emb, ds, slice_name=(SLICE_ALL, SLICE_COLD))
        cold = evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD)
        assert report.records[:2] == evaluate(user_emb, item_emb, ds).records
        assert [r.users for r in report.records[2:]] == [r.users for r in cold.records]
        assert cold.records[0].users > 0

    def test_an_empty_slice_is_degenerate(self):
        # every user has a train pair, so threshold 1 leaves the cold slice empty
        ds, user_emb, item_emb = random_instance(4)
        report = evaluate(user_emb, item_emb, ds, slice_name=(SLICE_COLD, SLICE_ALL),
                          cold_threshold=1)
        cold = evaluate(user_emb, item_emb, ds, slice_name=SLICE_COLD, cold_threshold=1)
        assert report.records[:2] == cold.records
        assert all(r.degenerate and r.users == 0 for r in cold.records)
        assert report.records[2:] == evaluate(user_emb, item_emb, ds, cold_threshold=1).records

    @pytest.mark.parametrize("names", [(), (SLICE_ALL, SLICE_ALL), ("warm",)])
    def test_bad_slices_rejected(self, names):
        ds, user_emb, item_emb = random_instance(0)
        with pytest.raises(ConfigError, match="slice"):
            evaluate(user_emb, item_emb, ds, slice_name=names)


class TestSettings:
    @pytest.mark.parametrize("ks", [(), (0,), (-1,), (10, 0), (10, 10), (2.5,), ("10",)])
    def test_bad_cutoffs_rejected(self, ks):
        ds, user_emb, item_emb = random_instance(0)
        with pytest.raises(ConfigError, match="ks"):
            evaluate(user_emb, item_emb, ds, ks=ks)

    def test_bad_cutoff_rejected_by_mean_recall(self):
        ds, user_emb, item_emb = random_instance(0)
        with pytest.raises(ConfigError, match="ks"):
            mean_recall(user_emb, item_emb, ds, k=0)

    def test_numpy_integer_cutoffs_report_as_ints(self):
        ds, user_emb, item_emb = random_instance(0)
        report = evaluate(user_emb, item_emb, ds, ks=np.array([10, 20]))
        assert report.to_json() == evaluate(user_emb, item_emb, ds, ks=(10, 20)).to_json()

    @pytest.mark.parametrize("slice_name", [SLICE_ALL, SLICE_COLD])
    @pytest.mark.parametrize("threshold", [0, -1])
    def test_cold_threshold_below_one_rejected(self, slice_name, threshold):
        ds, user_emb, item_emb = random_instance(0)
        with pytest.raises(ConfigError, match="cold_threshold"):
            evaluate(user_emb, item_emb, ds, slice_name=slice_name, cold_threshold=threshold)

    @pytest.mark.parametrize("target_split", [TRAIN, -1, 3])
    @pytest.mark.parametrize("scorer", ["evaluate", "mean_recall"])
    def test_target_split_other_than_val_or_test_rejected(self, scorer, target_split):
        # TRAIN targets are all masked, so every user would score 0; other
        # values would select no target and report degenerate zeros
        ds, user_emb, item_emb = random_instance(0)
        with pytest.raises(ConfigError, match="target_split"):
            {"evaluate": evaluate, "mean_recall": mean_recall}[scorer](
                user_emb, item_emb, ds, target_split=target_split)


class TestReport:
    def test_json_round_trip_and_flags(self):
        ds, user_emb, item_emb = random_instance(4)
        report = evaluate(user_emb, item_emb, ds)
        payload = json.loads(report.to_json())
        assert payload["masked_splits"] == [TRAIN, VAL]
        assert {r["slice"] for r in payload["records"]} == {SLICE_ALL}
        assert {r["k"] for r in payload["records"]} == {10, 20}

    def test_table_is_aligned(self):
        report = EvalReport()
        report.records.append(
            __import__("mhcr.evaluation", fromlist=["MetricRecord"]).MetricRecord(
                SLICE_ALL, 10, 0.5, 0.25, 3
            )
        )
        table = report.format_table()
        assert "slice" in table.splitlines()[0]
        assert len(table.splitlines()) == 2
