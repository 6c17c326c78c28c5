"""Affinity graph construction against a brute-force top-K oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr import autodiff as ad
from mhcr import item_graph
from mhcr.dataio import ModalityFeatures, SyntheticConfig, generate_synthetic
from mhcr.errors import ShapeError
from mhcr.item_graph import build_affinity_graph, propagate_items

from oracles import cosine_affinity, top_k


def brute_force_topk(matrix: np.ndarray, k: int) -> list[list[int]]:
    """Full-sort oracle: per row, the k best cosine neighbors excluding self,
    ties resolved to the lower index."""
    n = matrix.shape[0]
    result = []
    for a in range(n):
        sims = []
        for b in range(n):
            if b == a:
                continue
            sims.append((b, cosine_affinity(matrix, a, b)))
        sims.sort(key=lambda pair: (-pair[1], pair[0]))
        result.append(sorted(b for b, _ in sims[:k]))
    return result


def set_block_rows(monkeypatch, rows: int, num_items: int) -> None:
    """Make `build_affinity_graph` compute `rows` similarity rows per block."""
    monkeypatch.setattr(item_graph, "_AFFINITY_BLOCK_ELEMENTS", rows * num_items)


def full_sort_affinity(matrix: np.ndarray, ks, block_size: int) -> list[sp.csr_matrix]:
    """The affinity graph at each k of `ks`, with each row's top k taken from
    a full stable argsort of the negated similarities (`oracles.top_k`),
    computed in the same row blocks and with the same per-row normalization
    as the library."""
    n = matrix.shape[0]
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms[:, 0] == 0.0] = 1.0
    unit = matrix / norms
    parts = [([0], [], []) for _ in ks]
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        sims = unit[start:stop] @ unit.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        ranked = top_k(sims, max(ks))
        for k, (indptr, indices, data) in zip(ks, parts):
            order = ranked[:, :k]
            kept = np.maximum(np.take_along_axis(sims, order, axis=1), 0.0)
            for r in range(stop - start):
                nz = kept[r] > 0.0
                cols, vals = order[r][nz], kept[r][nz]
                total = vals.sum()
                if total > 0.0:
                    vals = vals / total
                col_order = np.argsort(cols, kind="stable")
                indices.append(cols[col_order])
                data.append(vals[col_order])
                indptr.append(indptr[-1] + cols.size)
    return [
        sp.csr_matrix((np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
                      shape=(n, n))
        for indptr, indices, data in parts
    ]


def assert_same_bytes(graph: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    for field in ("indptr", "indices", "data"):
        actual, wanted = getattr(graph, field), getattr(expected, field)
        assert actual.tobytes() == wanted.tobytes(), field


class TestCosine:
    def test_identical_rows(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert cosine_affinity(m, 0, 1) == pytest.approx(1.0)

    def test_orthogonal(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cosine_affinity(m, 0, 1) == pytest.approx(0.0)

    def test_hand_value(self):
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert cosine_affinity(m, 0, 1) == pytest.approx(1 / np.sqrt(2), abs=1e-5)

    def test_zero_norm_row_is_zero(self):
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert cosine_affinity(m, 0, 1) == 0.0


class TestBuildAffinity:
    def test_three_identical_items(self):
        feats = ModalityFeatures("image", np.ones((3, 4)))
        graph = build_affinity_graph(feats, k=2)
        dense = graph.toarray()
        expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
        assert np.allclose(dense, expected)

    def test_dense_positive_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.5, 1.0, size=(6, 3))
        graph = build_affinity_graph(ModalityFeatures("text", base), k=5)
        sums = np.asarray(graph.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-6)
        assert all(graph.getrow(i).nnz == 5 for i in range(6))

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(50, 6))
        graph = build_affinity_graph(ModalityFeatures("video", matrix), k=7)
        oracle = brute_force_topk(matrix, 7)
        for i in range(50):
            row = graph.getrow(i)
            kept = sorted(row.indices.tolist())
            # rows may keep fewer entries when clamped negatives fall out,
            # but every kept index must be among the oracle's top-k
            assert set(kept) <= set(oracle[i])
            positive_oracle = [
                j for j in oracle[i] if max(cosine_affinity(matrix, i, j), 0.0) > 0.0
            ]
            assert kept == sorted(positive_oracle)

    def test_tie_at_kth_prefers_lower_index(self):
        # items 1 and 2 tie exactly; only one slot remains after item 3
        base = np.array([
            [1.0, 0.0],
            [1.0, 1.0],
            [1.0, 1.0],
            [1.0, 0.1],
        ])
        graph = build_affinity_graph(ModalityFeatures("image", base), k=2)
        kept = set(graph.getrow(0).indices.tolist())
        assert kept == {1, 3}

    def test_negative_similarities_clamped(self):
        # item 1 is anti-aligned with item 0: clamped out, leaving only item 2
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]])
        graph = build_affinity_graph(ModalityFeatures("image", base), k=2)
        row = graph.getrow(0)
        assert row.indices.tolist() == [2]
        assert row.data.tolist() == [1.0]

    def test_all_negative_row_stays_zero(self):
        base = np.array([[1.0, 0.0], [-1.0, 0.0]])
        graph = build_affinity_graph(ModalityFeatures("image", base), k=1)
        assert graph.getrow(0).nnz == 0
        assert graph.getrow(1).nnz == 0

    def test_k_clamped_to_item_count(self, caplog):
        graph = build_affinity_graph(ModalityFeatures("image", np.ones((3, 2))), k=10)
        assert graph.getnnz(axis=1).tolist() == [2, 2, 2]
        assert "clamping to 2" in caplog.text

    def test_blocked_build_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(23, 4))
        feats = ModalityFeatures("text", matrix)
        set_block_rows(monkeypatch, 5, 23)
        a = build_affinity_graph(feats, k=4)
        set_block_rows(monkeypatch, 1000, 23)
        b = build_affinity_graph(feats, k=4)
        assert np.allclose(a.toarray(), b.toarray())

    def test_block_rows_come_from_the_element_budget(self, monkeypatch):
        # a budget below one row still computes one row per block
        original, block_rows = item_graph._top_k, []

        def top_k(sims, k):
            block_rows.append(len(sims))
            return original(sims, k)

        monkeypatch.setattr(item_graph, "_top_k", top_k)
        matrix = np.random.default_rng(4).normal(size=(7, 3))
        for budget, expected in ((1, [1] * 7), (7 * 3, [3, 3, 1]), (10**6, [7])):
            block_rows.clear()
            monkeypatch.setattr(item_graph, "_AFFINITY_BLOCK_ELEMENTS", budget)
            build_affinity_graph(ModalityFeatures("image", matrix), k=2)
            assert block_rows == expected, budget


    @pytest.mark.parametrize("k", [1, 3, 9, 10, 11, 19, 40])
    def test_byte_identical_to_full_sort_with_ties(self, k, monkeypatch):
        # 200 items drawn from 20 distinct rows: each item has 9 or more exact
        # duplicates, so the k-th value is often shared; plus rounded
        # features with near-ties and a few zero rows
        rng = np.random.default_rng(k)
        distinct = rng.normal(size=(20, 4))
        duplicated = distinct[rng.integers(0, 20, size=200)]
        rounded = np.round(rng.normal(size=(60, 2)), 1)
        rounded[:3] = 0.0
        for matrix, block_size in ((duplicated, 64), (duplicated, 2048), (rounded, 16)):
            set_block_rows(monkeypatch, block_size, len(matrix))
            graph = build_affinity_graph(ModalityFeatures("image", matrix), k)
            (expected,) = full_sort_affinity(matrix, [min(k, len(matrix) - 1)], block_size)
            assert_same_bytes(graph, expected)

    def test_byte_identical_to_full_sort_at_the_benchmark_scale(self):
        # perfbench's generator settings: 2000 items in 8 row blocks, and the
        # features rounded to float32 as the feature files store them
        _, feats = generate_synthetic(SyntheticConfig(
            num_users=20000, num_items=2000, num_clusters=10, mean_interactions=10.0,
            degree_exponent=0.7, modality_dims={"image": 24, "video": 24, "text": 16},
            within_cluster_prob=0.85, noise_std=0.25, seed=0,
        ))
        ks = (1, 10, 40)
        block_size = item_graph._AFFINITY_BLOCK_ELEMENTS // 2000
        for f in feats:
            f = ModalityFeatures(f.modality, f.matrix.astype(np.float32))
            for k, expected in zip(ks, full_sort_affinity(f.matrix, ks, block_size)):
                assert_same_bytes(build_affinity_graph(f, k), expected)


@st.composite
def top_k_cases(draw):
    """A block of similarity rows and a k: few distinct integer values, so
    the k-th value is often tied across chunk boundaries, with -inf entries
    and all-equal rows mixed in, and widths on both sides of 2k."""
    width = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 4))
    k = draw(st.one_of(st.integers(1, width), st.sampled_from([1, max(width - 1, 1), width])))
    spread = draw(st.sampled_from([0, 1, 3, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sims = rng.integers(-spread, spread + 1, size=(rows, width)).astype(np.float64)
    sims[rng.random((rows, width)) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = -np.inf
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        sims[r] = draw(st.sampled_from([0.0, 1.0, -np.inf]))  # an all-equal row
    return sims, k


class TestTopK:
    @given(top_k_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_a_full_stable_sort(self, case):
        sims, k = case
        got = item_graph._top_k(sims, k)
        assert got.shape == (len(sims), k)
        assert np.array_equal(got, top_k(sims, k))


def smoothed(graph, features) -> np.ndarray:
    """S F: the features propagated over the graph, as `build_views` keeps them."""
    return graph @ np.asarray(features, dtype=np.float64)


class TestPropagate:
    def test_two_item_swap(self):
        feats = ModalityFeatures("image", np.array([[1.0, 0.1], [1.0, 0.1]]))
        graph = build_affinity_graph(feats, k=1)
        assert np.allclose(graph.toarray(), [[0.0, 1.0], [1.0, 0.0]])
        identity = ad.Tensor(np.eye(2))
        out = propagate_items([smoothed(graph, np.eye(2))], [identity], np.arange(2), 0).data
        assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_rows_stay_zero(self):
        base = np.array([[1.0, 0.0], [-1.0, 0.0]])
        graph = build_affinity_graph(ModalityFeatures("image", base), k=1)
        out = propagate_items([smoothed(graph, base)], [ad.Tensor(np.ones((2, 3)))],
                              np.arange(2), 0).data
        assert np.allclose(out, 0.0)

    def test_two_identical_modalities_double(self):
        feats = ModalityFeatures("image", np.ones((3, 2)))
        graph = build_affinity_graph(feats, k=2)
        s = smoothed(graph, feats.matrix)
        w = ad.Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        single = propagate_items([s], [w], np.arange(3), 0).data
        double = propagate_items([s, s], [w, w], np.arange(3), 0).data
        assert np.allclose(double, 2.0 * single)

    def test_linear_in_projected_input(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(5, 3))
        s = smoothed(build_affinity_graph(ModalityFeatures("image", features), k=2), features)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        rows = np.arange(5)
        mixed = propagate_items([s], [ad.Tensor(3.0 * x - y)], rows, 0).data
        apart = 3.0 * propagate_items([s], [ad.Tensor(x)], rows, 0).data - propagate_items(
            [s], [ad.Tensor(y)], rows, 0
        ).data
        assert np.allclose(mixed, apart, atol=1e-12)

    def test_user_rows_lead_as_zeros(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(5, 3))
        s = smoothed(build_affinity_graph(ModalityFeatures("image", features), k=2), features)
        rows = np.array([4, 0, 4])
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = propagate_items([s], [w], rows, 3)
        assert out.shape == (6, 2) and out.data[:3].tobytes() == np.zeros((3, 2)).tobytes()
        items = propagate_items([s], [ad.Tensor(w.data)], rows, 0).data
        assert out.data[3:].tobytes() == items.tobytes()
        g = rng.normal(size=(6, 2))
        (grad,) = out._backward(g)
        assert grad.tobytes() == (s[rows].T @ g[3:]).tobytes()

    def test_shape_mismatch(self):
        s = np.ones((3, 2))
        with pytest.raises(ShapeError):  # W_m has 4 rows for 2 feature columns
            propagate_items([s], [ad.Tensor(np.ones((4, 2)))], np.arange(3), 0)
