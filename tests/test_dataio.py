"""Dataset loading, splitting, synthesis, cold-start slicing, and file formats."""

import logging
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhcr import dataio
from mhcr.dataio import (
    TEST,
    TRAIN,
    VAL,
    InteractionDataset,
    ModalityFeatures,
    SyntheticConfig,
    format_dataset_stats,
    generate_synthetic,
    load_features,
    load_interactions,
    load_split,
    save_features,
    save_interactions,
    save_split,
    split_dataset,
    validate_features,
)
from mhcr.errors import ConfigError, DataError, ParseError
from mhcr.evaluation import SLICE_COLD, _slice_users
from oracles import read_tsv, split_by_user


def write(tmp_path, text, name="inter.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_three_pairs(self, tmp_path):
        ds = load_interactions(write(tmp_path, "0\t0\n0\t1\n1\t0\n"))
        assert ds.num_users == 2 and ds.num_items == 2
        assert len(ds) == 3
        assert ds.users.tolist() == [0, 0, 1] and ds.items.tolist() == [0, 1, 0]

    def test_duplicates_counted(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="mhcr.dataio"):
            ds = load_interactions(write(tmp_path, "0\t0\n0\t0\n0\t1\n0\t1\n0\t1\n"))
        assert len(ds) == 2
        assert "dropped 3 duplicate interaction(s)" in caplog.text

    def test_malformed_line_names_lineno(self, tmp_path):
        with pytest.raises(ParseError, match=":1"):
            load_interactions(write(tmp_path, "0\tabc\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError, match=":2"):
            load_interactions(write(tmp_path, "0\t1\n0\t1\t2\n"))

    def test_negative_id_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_interactions(write(tmp_path, "-1\t0\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_interactions(tmp_path / "nope.tsv")

    def test_field_beyond_int64_names_its_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"inter\.tsv:2: field outside int64"):
            load_interactions(write(tmp_path, "0\t1\n99999999999999999999\t0\n"))

    def test_pair_keys_that_would_wrap_raise(self, tmp_path):
        # |U|*|I| = (2^32 + 1) * 2^32 > 2^63: u*|I| + i maps (2^32, 0) onto (0, 0)
        with pytest.raises(DataError, match="overflow int64 pair keys"):
            load_interactions(write(tmp_path, "0\t0\n4294967296\t0\n0\t4294967295\n"))

    def test_round_trip(self, tmp_path):
        ds = InteractionDataset(3, 4, np.array([0, 1, 2]), np.array([3, 0, 1]))
        save_interactions(ds, tmp_path / "rt.tsv")
        back = load_interactions(tmp_path / "rt.tsv")
        assert np.array_equal(back.users, ds.users) and np.array_equal(back.items, ds.items)


class TestDatasetInvariants:
    def test_index_overflow_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 2, np.array([2]), np.array([0]))

    @pytest.mark.parametrize("sizes", [(2.5, 3), (3, 3.0), ("3", 3), (True, 3), (None, 3)])
    def test_vocabulary_sizes_that_are_not_integers_rejected(self, sizes):
        with pytest.raises(DataError, match="vocabulary sizes must be integers"):
            InteractionDataset(*sizes, np.array([0]), np.array([1]))

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 2, np.array([0, 0]), np.array([1, 1]))

    def test_vocabulary_whose_pair_keys_overflow_rejected(self):
        with pytest.raises(DataError, match="overflow int64 pair keys"):
            InteractionDataset(2**32 + 1, 2**32, np.array([0]), np.array([0]))

    @pytest.mark.parametrize("labels", [
        [256, 258],  # int8 would wrap these to TRAIN and TEST
        [-256, 1],
        [0.9, 1.0],  # int8 would truncate 0.9 to TRAIN
        [2.7, 0.0],
        [np.nan, 0.0],
        [3, 0],
        [-1, 2],
        [True, False],
        ["0", "1"],
    ])
    def test_split_labels_outside_0_1_2_rejected(self, labels):
        with pytest.raises(DataError, match=r"split labels must be in \{0, 1, 2\}"):
            InteractionDataset(2, 2, np.array([0, 1]), np.array([0, 1]), split=np.array(labels))

    @pytest.mark.parametrize("labels", [[0, 2], [2.0, 1.0], np.array([1, 0], dtype=np.uint8)])
    def test_whole_split_labels_are_kept_as_int8(self, labels):
        ds = InteractionDataset(2, 2, np.array([0, 1]), np.array([0, 1]), split=labels)
        assert ds.split.dtype == np.int8
        assert ds.split.tolist() == np.asarray(labels).tolist()

    def test_pairs_of_a_tuple_of_labels_keep_dataset_order(self):
        users = np.array([1, 0, 1, 0, 2, 1])
        items = np.array([0, 3, 2, 1, 0, 4])
        split = np.array([TRAIN, VAL, TEST, TRAIN, VAL, VAL])
        ds = InteractionDataset(4, 5, users, items, split=split)
        pair_users, pair_items = ds.split_pairs((TRAIN, VAL))
        assert pair_users.tolist() == [1, 0, 0, 2, 1]
        assert pair_items.tolist() == [0, 3, 1, 0, 4]
        csr = ds.user_csr((TRAIN, VAL))
        assert csr.indptr.tolist() == [0, 2, 4, 5, 5]
        assert csr.indices.tolist() == [1, 3, 0, 4, 0]

    @given(data=st.data(), label=st.sampled_from([TRAIN, VAL, TEST, (TRAIN, VAL), (VAL, TEST),
                                                  (TRAIN, VAL, TEST)]))
    @settings(max_examples=60, deadline=None)
    def test_user_csr_row_u_holds_user_u_items_sorted(self, data, label):
        num_users, num_items = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        keys = data.draw(st.permutations(range(num_users * num_items)))  # shuffled pair order
        keys = np.array(keys[:data.draw(st.integers(0, len(keys)))], dtype=np.int64)
        split = data.draw(st.lists(st.sampled_from([TRAIN, VAL, TEST]), min_size=keys.size,
                                   max_size=keys.size))
        ds = InteractionDataset(num_users, num_items, keys // num_items, keys % num_items,
                                split=np.array(split, dtype=np.int64))
        csr = ds.user_csr(label)
        users, items = ds.split_pairs(label)
        assert csr.shape == (num_users, num_items)
        assert csr.data.tolist() == [1.0] * users.size
        for u in range(num_users):
            row = csr.indices[csr.indptr[u]:csr.indptr[u + 1]].tolist()
            assert row == sorted(items[users == u].tolist()), u
        if not isinstance(label, tuple):
            one = ds.user_csr((label,))
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(one, part), getattr(csr, part)), part


class TestSplit:
    def make(self, counts):
        users, items = [], []
        for u, n in enumerate(counts):
            users.extend([u] * n)
            items.extend(range(n))
        return InteractionDataset(len(counts), max(counts), np.array(users), np.array(items))

    def test_ten_interactions_split_7_1_2(self):
        ds = split_dataset(self.make([10]), seed=3)
        counts = np.bincount(ds.split, minlength=3)
        assert tuple(counts) == (7, 1, 2)

    def test_single_interaction_goes_to_train(self):
        ds = split_dataset(self.make([1]), seed=3)
        assert ds.split.tolist() == [TRAIN]

    def test_deterministic(self):
        base = self.make([9, 5, 13])
        a = split_dataset(base, seed=42)
        b = split_dataset(base, seed=42)
        assert np.array_equal(a.split, b.split)

    def test_is_partition(self):
        ds = split_dataset(self.make([7, 3, 12, 1]), seed=0)
        assert ds.split.size == len(ds)
        assert set(ds.split.tolist()) <= {TRAIN, VAL, TEST}

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split_dataset(self.make([5]), ratios=(0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (1.0,), (0.7, 0.1, 0.1, 0.1), ()])
    def test_ratios_other_than_three_rejected(self, ratios):
        with pytest.raises(ConfigError, match="three finite values"):
            split_dataset(self.make([5]), ratios=ratios, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            split_dataset(self.make([5]), seed=-1)

    @pytest.mark.parametrize(
        "ratios",
        [(0.7, np.nan, 0.3), (np.nan, 0.0, 1.0), (0.5, 0.5, np.nan), (np.inf, 0.0, 0.0),
         (0.5, np.inf, -np.inf)],
    )
    def test_non_finite_ratios_rejected(self, ratios):
        with pytest.raises(ConfigError, match="finite"):
            split_dataset(self.make([5, 3]), ratios=ratios, seed=0)

    def test_degenerate_ratio_drops_users(self):
        ds = split_dataset(self.make([2, 2]), ratios=(0.0, 0.5, 0.5), seed=0)
        assert ds.num_dropped_users == 2
        assert len(ds) == 0

    @given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_train_count_within_one_of_ratio(self, n, seed):
        ds = split_dataset(self.make([n]), seed=seed)
        train_count = int((ds.split == TRAIN).sum())
        assert abs(train_count - 0.7 * n) <= 1.0
        assert train_count >= 1


@st.composite
def split_cases(draw):
    """A dataset with shuffled rows, a seed and valid ratios, degenerate
    ones (no train share) included."""
    degrees = draw(st.lists(st.integers(0, 12), min_size=1, max_size=30))
    users = np.repeat(np.arange(len(degrees)), degrees)
    items = np.concatenate([np.arange(n) for n in degrees]).astype(np.int64)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(users.size)
    ds = InteractionDataset(len(degrees), max(max(degrees), 1), users[order], items[order])
    val = draw(st.floats(0.0, 1.0))
    test = draw(st.floats(0.0, 1.0 - val))
    ratios = draw(st.sampled_from([
        (max(0.0, 1.0 - val - test), val, test),
        (0.7, 0.1, 0.2), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
    ]))
    return ds, ratios, draw(st.integers(0, 2**32 - 1))


@given(split_cases())
@settings(max_examples=200, deadline=None)
def test_split_matches_the_user_by_user_reference(case):
    ds, ratios, seed = case
    got, want = split_dataset(ds, ratios, seed=seed), split_by_user(ds, ratios, seed)
    assert np.array_equal(got.split, want.split)
    assert np.array_equal(got.users, want.users) and np.array_equal(got.items, want.items)
    assert got.num_dropped_users == want.num_dropped_users


class TestColdStart:
    def test_two_train_interactions_is_cold(self):
        ds = InteractionDataset(
            2, 5, np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 2]),
            split=np.array([TRAIN, TRAIN, TRAIN, TRAIN, TRAIN]),
        )
        assert _slice_users(ds, SLICE_COLD, 3).tolist() == [0]

    def test_three_train_interactions_excluded(self):
        ds = InteractionDataset(
            1, 3, np.array([0, 0, 0]), np.array([0, 1, 2]),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        assert _slice_users(ds, SLICE_COLD, 3).tolist() == []

    def test_threshold_zero_empty(self):
        ds = InteractionDataset(1, 1, np.array([0]), np.array([0]), split=np.array([TRAIN]))
        assert _slice_users(ds, SLICE_COLD, 0).tolist() == []

    def test_requires_split(self):
        ds = InteractionDataset(1, 1, np.array([0]), np.array([0]))
        with pytest.raises(DataError):
            _slice_users(ds, SLICE_COLD, 3)


class TestSynthetic:
    def test_zero_noise_single_cluster_identical_rows(self):
        cfg = SyntheticConfig(
            num_users=20, num_items=10, num_clusters=1, noise_std=0.0,
            modality_dims={"image": 4}, seed=5,
        )
        _, feats = generate_synthetic(cfg)
        rows = feats[0].matrix
        assert np.allclose(rows, rows[0])

    def test_high_exponent_gives_heavy_head(self):
        cfg = SyntheticConfig(
            num_users=1000, num_items=400, mean_interactions=5.0, degree_exponent=0.8,
            modality_dims={"text": 4}, seed=2,
        )
        ds, _ = generate_synthetic(cfg)
        degrees = np.bincount(ds.users, minlength=cfg.num_users)
        assert degrees.max() / np.median(degrees) > 5.0

    def test_low_exponent_is_flat(self):
        cfg = SyntheticConfig(
            num_users=1000, num_items=400, mean_interactions=5.0, degree_exponent=0.0,
            modality_dims={"text": 4}, seed=2,
        )
        ds, _ = generate_synthetic(cfg)
        degrees = np.bincount(ds.users, minlength=cfg.num_users)
        assert degrees.max() / np.median(degrees) <= 2.0

    def test_same_seed_byte_identical(self):
        cfg = SyntheticConfig(num_users=30, num_items=15, modality_dims={"image": 4}, seed=9)
        ds_a, feats_a = generate_synthetic(cfg)
        ds_b, feats_b = generate_synthetic(cfg)
        assert np.array_equal(ds_a.users, ds_b.users)
        assert np.array_equal(ds_a.items, ds_b.items)
        assert np.array_equal(feats_a[0].matrix, feats_b[0].matrix)

    def test_different_seed_differs(self):
        cfg = SyntheticConfig(num_users=30, num_items=15, modality_dims={"image": 4}, seed=9)
        other = SyntheticConfig(num_users=30, num_items=15, modality_dims={"image": 4}, seed=10)
        assert not np.array_equal(generate_synthetic(cfg)[0].items, generate_synthetic(other)[0].items)

    def test_invalid_config(self):
        # a config checks itself as it is built, through `replace` too
        for override in ({"num_users": 0}, {"num_items": 0}, {"noise_std": -1.0}, {"seed": -3},
                         {"mean_interactions": 0.5}, {"within_cluster_prob": 1.0},
                         {"modality_dims": {}}, {"modality_dims": {"audio": 4}},
                         {"modality_dims": {"text": 0}}):
            with pytest.raises(ConfigError):
                SyntheticConfig(**override)
            with pytest.raises(ConfigError):
                replace(SyntheticConfig(), **override)


class TestFeatures:
    def test_row_count_mismatch(self):
        ds = InteractionDataset(1, 3, np.array([0]), np.array([0]))
        with pytest.raises(DataError, match="rows"):
            validate_features(ds, [ModalityFeatures("image", np.ones((2, 4)))])

    def test_all_zero_row_rejected(self):
        ds = InteractionDataset(1, 2, np.array([0]), np.array([0]))
        matrix = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="all-zero"):
            validate_features(ds, [ModalityFeatures("image", matrix)])

    def test_unknown_tag(self):
        with pytest.raises(DataError):
            ModalityFeatures("audio", np.ones((2, 2)))

    def test_binary_round_trip(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(7, 3)).astype(np.float32)
        feats = ModalityFeatures("video", matrix.astype(np.float64))
        save_features(feats, tmp_path / "f.bin")
        back = load_features(tmp_path / "f.bin")
        assert back.modality == "video"
        assert np.array_equal(back.matrix, matrix.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        feats = ModalityFeatures("image", np.ones((4, 2)))
        save_features(feats, tmp_path / "f.bin")
        raw = (tmp_path / "f.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(raw[:-4])
        with pytest.raises(DataError, match="payload"):
            load_features(tmp_path / "cut.bin")


class TestSplitSidecar:
    def test_round_trip(self, tmp_path):
        ds = InteractionDataset(
            2, 3, np.array([0, 0, 1]), np.array([0, 1, 2]),
            split=np.array([TRAIN, VAL, TEST]),
        )
        save_split(ds, tmp_path / "split.tsv")
        bare = InteractionDataset(2, 3, ds.users, ds.items)
        back = load_split(bare, tmp_path / "split.tsv")
        assert np.array_equal(back.split, ds.split)

    def test_missing_pair(self, tmp_path):
        (tmp_path / "split.tsv").write_text("0\t0\t0\n", encoding="utf-8")
        ds = InteractionDataset(1, 2, np.array([0, 0]), np.array([0, 1]))
        with pytest.raises(DataError, match="no split label"):
            load_split(ds, tmp_path / "split.tsv")

    def test_users_without_a_line_are_dropped_as_the_split_dropped_them(self, tmp_path, caplog):
        counts = [2, 3, 4, 1]  # 2 and 4 pairs leave no train pair at these ratios
        users = np.repeat(np.arange(4), counts)
        raw = InteractionDataset(4, 4, users, np.concatenate([np.arange(n) for n in counts]))
        ds = split_dataset(raw, ratios=(0.2, 0.4, 0.4), seed=2)
        assert ds.num_dropped_users == 2 and set(ds.users.tolist()) == {1, 3}
        save_split(ds, tmp_path / "split.tsv")
        with caplog.at_level(logging.WARNING, logger="mhcr.dataio"):
            back = load_split(raw, tmp_path / "split.tsv")
        assert "dropped 2 user(s) left without train interactions" in caplog.text
        assert back.num_dropped_users == 2
        for name in ("users", "items", "split"):
            assert np.array_equal(getattr(back, name), getattr(ds, name)), name

    @pytest.mark.parametrize("line, problem", [
        ("0\t1\t2", r"pair \(0, 1\) repeats an earlier line"),
        ("-1\t2\t1", r"pair \(-1, 2\) is outside the 3 x 3 vocabulary"),
        ("3\t0\t0", r"pair \(3, 0\) is outside the 3 x 3 vocabulary"),
        ("0\t-1\t0", r"pair \(0, -1\) is outside the 3 x 3 vocabulary"),
        ("2\t3\t0", r"pair \(2, 3\) is outside the 3 x 3 vocabulary"),
        ("0\t3\t1", r"pair \(0, 3\) is outside the 3 x 3 vocabulary"),  # (1, 0)'s key
        ("0\t0\t1", r"pair \(0, 0\) is not in the data"),
    ], ids=["repeated", "negative-user", "user-at-vocabulary", "negative-item",
            "item-at-vocabulary", "key-collision", "absent"])
    def test_a_line_that_names_no_unique_pair_of_the_data_fails_at_its_line(
            self, tmp_path, line, problem):
        ds = InteractionDataset(3, 3, np.array([0, 1, 2, 2]), np.array([1, 0, 2, 0]))
        lines = ["0\t1\t0", "1\t0\t2", "", "2\t2\t1", "2\t0\t0"]
        assert load_split(ds, write(tmp_path, "\n".join(lines))).split.tolist() == [0, 2, 1, 0]
        path = write(tmp_path, "\n".join(lines[:3] + [line] + lines[3:]))
        with pytest.raises(DataError, match=f"inter.tsv:4: {problem}$"):
            load_split(ds, path)


@pytest.mark.parametrize(
    "split_file, text, error, lineno",
    [
        (False, "0\t1\n\n-1\t0\n", DataError, 3),
        (False, "0\t1\n0\t1.5\n", ParseError, 2),
        (True, "0\t0\t0\n\n0\t1\t5\n", ParseError, 3),
        (True, "0\t0\t0\n0\tx\t1\n", ParseError, 2),
        (True, "0\t0\n", ParseError, 1),
    ],
    ids=["negative-id", "float-id", "label", "non-integer", "field-count"],
)
def test_tsv_errors_name_their_line(tmp_path, split_file, text, error, lineno):
    path = write(tmp_path, text)
    with pytest.raises(error, match=f"inter.tsv:{lineno}:"):
        if split_file:
            load_split(InteractionDataset(1, 2, np.array([0, 0]), np.array([0, 1])), path)
        else:
            load_interactions(path)


@pytest.mark.parametrize(
    "raw, lineno",
    [(b"0\t1\n\xff\t2\n", 2), (b"0\t1\r\n1\t2\xfe\n", 2), (b"\xc3\t1\n0\t1\n", 1),
     (b"0\t1\n\xff\n", 2)],
    ids=["field", "crlf-field-tail", "cut-sequence", "field-count"],
)
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, raw, lineno):
    path = tmp_path / "inter.tsv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"inter.tsv:{lineno}: bytes that are not UTF-8"):
        load_interactions(path)


LAYOUTS = ("user<TAB>item", "user<TAB>item<TAB>label")
TOKENS = st.one_of(
    st.sampled_from(list("0123456789-+_ \t\r\nx")),
    st.text("0123456789", min_size=18, max_size=24),
)
FIELDS = st.integers(-(2**64), 2**64).map(str) | st.integers(0, 99).map("{:03d}".format)


@st.composite
def tsv_cases(draw):
    """A layout and a text: free token soup, or rows of mostly that many
    integer fields with stray tokens (on their own or glued to a field),
    other widths and blank lines."""
    layout = draw(st.sampled_from(LAYOUTS))
    if draw(st.integers(0, 3)) == 0:
        return layout, "".join(draw(st.lists(TOKENS, max_size=40)))
    width = layout.count("<TAB>") + 1
    row = st.lists(FIELDS, min_size=width, max_size=width)
    if draw(st.booleans()):
        glued = st.tuples(TOKENS, FIELDS).map("".join) | st.tuples(FIELDS, TOKENS).map("".join)
        row = (row | st.lists(FIELDS | glued, min_size=width, max_size=width)
               | st.lists(FIELDS | TOKENS, min_size=1, max_size=4) | st.just([]))
    rows = draw(st.lists(row.map("\t".join), min_size=1, max_size=12))
    return layout, "\n".join(rows) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\r"]))


@given(tsv_cases())
@settings(max_examples=400, deadline=None)
def test_the_reader_matches_the_grammar_oracle(case):
    layout, text = case
    raw = text.encode("utf-8")
    want = read_tsv(raw, layout.count("<TAB>") + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.tsv"
        path.write_bytes(raw)
        if isinstance(want, int):
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{want}: "):
                dataio._int_columns(path, layout)
        else:
            got = dataio._int_columns(path, layout)
            assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize(
    "text, lineno",
    [("0\t1\n+7\t0\n", 2), ("0\t1\n1_0\t0\n", 2), ("0\t1\n 7\t0\n", 2),
     ("0\t1\n7 \t0\n", 2), ("0\t1\n--5\t0\n", 2), ("0\t1\n5-\t0\n", 2),
     ("0\t1\n-\t0\n", 2), ("0\t1\n\t0\n", 2), ("0\t1\n0\t1\t\n", 2),
     ("0\t1\n0\t2\r0\t3\n1\t1\n", 2), ("0\t1\n0\t2\r", 2),
     ("0\t1\n9223372036854775808\t0\n", 2), ("0\t-9223372036854775809\n", 1)],
    ids=["plus", "underscore", "leading-space", "trailing-space", "double-minus",
         "trailing-minus", "bare-minus", "empty-field", "trailing-tab", "lone-cr",
         "lone-cr-at-end", "above-int64", "below-int64"],
)
def test_fields_outside_the_grammar_name_their_line(tmp_path, text, lineno):
    with pytest.raises(ParseError, match=f"inter.tsv:{lineno}: "):
        dataio._int_columns(write(tmp_path, text), "user<TAB>item")


def test_the_grammar_reads_leading_zeros_and_the_int64_bounds(tmp_path):
    text = "007\t-0\n9223372036854775807\t-9223372036854775808\n"
    columns = dataio._int_columns(write(tmp_path, text), "user<TAB>item")
    assert columns.tolist() == [[7, 2**63 - 1], [0, -(2**63)]]


def test_a_file_of_blank_lines_has_no_interactions(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data"
        with pytest.raises(DataError, match=r"inter\.tsv: no interactions"):
            load_interactions(write(tmp_path, "\n\r\n\n"))


def test_a_crlf_file_is_parsed_in_one_pass(tmp_path, monkeypatch):
    def refuse(raw):
        raise AssertionError("a file of the grammar was scanned line by line")

    monkeypatch.setattr(dataio, "_lines", refuse)
    ds = load_interactions(write(tmp_path, "0\t0\r\n\r\n0\t1\r\n\n1\t0"))
    assert ds.users.tolist() == [0, 0, 1] and ds.items.tolist() == [0, 1, 0]
    split_file = write(tmp_path, "0\t0\t0\n0\t1\t2\n1\t0\t1", name="split.tsv")
    assert load_split(ds, split_file).split.tolist() == [TRAIN, TEST, VAL]


@st.composite
def written_datasets(draw):
    """A split dataset whose item ids reach 2^40. User ids stay below 2^12,
    because `load_split` keeps one flag per user."""
    num_users, num_items = draw(st.integers(1, 2**12)), draw(st.integers(1, 2**40))
    pairs = draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1)),
                          min_size=1, max_size=30, unique=True))
    users, items = np.array(pairs, dtype=np.int64).T
    labels = draw(st.lists(st.sampled_from([TRAIN, VAL, TEST]), min_size=len(pairs),
                           max_size=len(pairs)))
    return InteractionDataset(num_users, num_items, users, items, split=np.array(labels))


@given(written_datasets())
@settings(max_examples=100, deadline=None)
def test_what_mhcr_writes_reads_back(ds):
    transposed = InteractionDataset(ds.num_items, ds.num_users, ds.items, ds.users)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.tsv"
        for pairs in (ds, transposed):  # user ids reach 2^40 in the transposed file
            save_interactions(pairs, path)
            back = load_interactions(path)
            assert (back.num_users, back.num_items) == (pairs.users.max() + 1,
                                                        pairs.items.max() + 1)
            assert np.array_equal(back.users, pairs.users)
            assert np.array_equal(back.items, pairs.items)
        save_split(ds, path)
        written = path.read_bytes()
        back = load_split(InteractionDataset(ds.num_users, ds.num_items, ds.users, ds.items), path)
        assert back.num_dropped_users == 0 and np.array_equal(back.split, ds.split)
        assert np.array_equal(back.users, ds.users) and np.array_equal(back.items, ds.items)
        save_split(back, path)
        assert path.read_bytes() == written


def test_unseen_eval_items_counted():
    ds = InteractionDataset(
        2, 4, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 3]),
        split=np.array([TRAIN, TEST, TRAIN, TEST]),
    )
    # item 1 appears in train? no; item 3? no -> both unseen
    assert dataio.unseen_eval_items(ds) == 2


def test_stats_formatting_matches_corpus_scale_numbers():
    line = format_dataset_stats(50000, 19220, 359708)
    assert "sparsity=99.96%" in line
    assert "mean_per_user=7.19" in line
    assert f"mean_per_item={359708 / 19220:.2f}" in line
