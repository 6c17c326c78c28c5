"""Interaction datasets and per-modality item features: loading, validation,
per-user splitting, synthetic generation, and the on-disk formats."""

from __future__ import annotations

import io
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, ParseError

log = logging.getLogger(__name__)

MODALITIES = ("image", "video", "text")
TRAIN, VAL, TEST = 0, 1, 2

_FEATURE_MAGIC = b"MHCRFEAT"
_FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<8sIBQQ")


def pair_keys(users: np.ndarray, items: np.ndarray, num_users: int, num_items: int) -> np.ndarray:
    """The key u*|I| + i of each pair, distinct for distinct in-range pairs;
    a vocabulary whose keys would overflow int64 is a DataError."""
    if int(num_users) * int(num_items) > np.iinfo(np.int64).max:
        raise DataError(f"{num_users} users x {num_items} items overflow int64 pair keys")
    return users * num_items + items


@dataclass
class InteractionDataset:
    """User-item interaction pairs with an optional train/val/test assignment.

    `users` and `items` are parallel int64 arrays; `split` (when assigned)
    labels each pair with TRAIN/VAL/TEST. Vocabulary sizes are fixed even if
    some indices end up with no interactions.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    split: np.ndarray | None = None
    num_dropped_users: int = 0

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        if self.users.shape != self.items.shape or self.users.ndim != 1:
            raise DataError("users and items must be parallel 1-D arrays")
        sizes = (self.num_users, self.num_items)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
                   for n in sizes):
            raise DataError(f"vocabulary sizes must be integers >= 1, got {sizes}")
        if self.users.size:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise DataError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise DataError("item index out of range")
        keys = np.sort(pair_keys(self.users, self.items, self.num_users, self.num_items))
        if (keys[1:] == keys[:-1]).any():
            raise DataError("duplicate (user, item) pairs")
        if self.split is not None:
            split = np.asarray(self.split)
            if split.shape != self.users.shape:
                raise DataError("split assignment length mismatch")
            # checked before the int8 cast, which would wrap 256 to 0 and
            # truncate 0.9 to 0; a range test, as np.isin is slow (split_pairs)
            if split.size and not (
                split.dtype.kind in "iuf"
                and TRAIN <= split.min() and split.max() <= TEST
                and (split.dtype.kind != "f" or (split == np.floor(split)).all())
            ):
                raise DataError("split labels must be in {0, 1, 2}")
            self.split = split.astype(np.int8)

    def __len__(self) -> int:
        return self.users.size

    def require_split(self) -> np.ndarray:
        if self.split is None:
            raise DataError("dataset has no split assignment; run split_dataset first")
        return self.split

    def split_pairs(self, label: int | tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The (users, items) pairs of one split label or of a tuple of
        labels, in dataset order."""
        split = self.require_split()
        # one comparison per label: np.isin is about 20x slower on int8 labels
        mask = np.any([split == one for one in np.atleast_1d(label)], axis=0)
        return self.users[mask], self.items[mask]

    def user_csr(self, label: int | tuple[int, ...]) -> sp.csr_matrix:
        """`split_pairs(label)` grouped by user: the |U| x |I| CSR matrix of
        ones whose row u holds user u's items, at sorted column indices."""
        users, items = self.split_pairs(label)
        return sp.csr_matrix((np.ones(users.size), (users, items)),
                             shape=(self.num_users, self.num_items))


@dataclass
class ModalityFeatures:
    """One modality's item feature matrix (|I| x d_m)."""

    modality: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality tag {self.modality!r}")
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if not np.isfinite(self.matrix).all():
            raise DataError(f"non-finite values in {self.modality} features")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def validate_features(ds: InteractionDataset, features: Sequence[ModalityFeatures]) -> None:
    """Reject feature matrices that cannot be paired with the dataset."""
    for feats in features:
        if feats.matrix.shape[0] != ds.num_items:
            raise DataError(
                f"{feats.modality} features have {feats.matrix.shape[0]} rows, "
                f"dataset has {ds.num_items} items"
            )
        zero = ~np.any(feats.matrix != 0.0, axis=1)
        if zero.any():
            raise DataError(
                f"{feats.modality} features contain {int(zero.sum())} all-zero rows "
                f"(first at item {int(np.flatnonzero(zero)[0])})"
            )
    tags = [f.modality for f in features]
    if len(set(tags)) != len(tags):
        raise DataError("duplicate modality tags")


def _lines(raw: bytes):
    """The number and bytes of each non-blank line, without its '\\n' or '\\r\\n'."""
    for lineno, line in enumerate(raw.replace(b"\r\n", b"\n").split(b"\n"), start=1):
        if line:
            yield lineno, line


def _int_columns(path: Path, layout: str) -> np.ndarray:
    """The int64 columns of a TSV whose non-blank lines read `layout` (e.g.
    'user<TAB>item'): each field is ASCII digits after an optional '-',
    fields are split by single tabs, and lines end in '\\n' or '\\r\\n'.
    numpy's C reader parses a file of that grammar's bytes in one pass; only
    a file that fails is scanned, to name its first bad line in a ParseError."""
    raw = path.read_bytes()
    width = layout.count("<TAB>") + 1
    # loadtxt would take a lone '\r' at the end of the file for a line end
    lone_cr = b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")
    if not raw.translate(None, b"0123456789-\t\r\n") and not lone_cr:
        if not raw.strip(b"\r\n"):  # blank lines only, which loadtxt warns of
            return np.empty((width, 0), dtype=np.int64)
        try:
            table = np.loadtxt(io.StringIO(raw.decode("ascii")), dtype=np.int64,
                               delimiter="\t", comments=None, ndmin=2)
            if table.shape[1] == width:
                return table.T.copy()
        except ValueError:  # a bad field, or rows of another width
            pass
    for lineno, line in _lines(raw):
        fields = line.split(b"\t")
        if len(fields) != width:
            problem = f"expected {layout!r}, got"
        elif not all(field.removeprefix(b"-").isdigit() for field in fields):
            problem = "non-integer field in"
        elif not all(-2**63 <= int(field) < 2**63 for field in fields):
            problem = "field outside int64 in"
        else:
            continue
        text = line.decode("utf-8", errors="surrogateescape")
        if text != line.decode("utf-8", errors="replace"):  # the two differ at non-UTF-8 bytes
            problem = "bytes that are not UTF-8 in"
        raise ParseError(f"{path}:{lineno}: {problem} {text!r}")
    raise AssertionError(f"{path}: numpy's reader rejected a file of valid lines")


def _line_of_row(path: Path, row: int) -> int:
    """The line number of data row `row`, for an error message."""
    return [lineno for lineno, _ in _lines(path.read_bytes())][row]


def load_interactions(path: str | Path) -> InteractionDataset:
    """Read a TSV of `user<TAB>item` integer pairs (no header) in the ASCII
    grammar of `_int_columns`, which `save_interactions` writes.

    Duplicate pairs are dropped (first occurrence kept) with a warning that counts them.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"interactions file not found or not a file: {path}")
    u_arr, i_arr = _int_columns(path, "user<TAB>item")
    if not u_arr.size:
        raise DataError(f"{path}: no interactions")
    negative = np.flatnonzero((u_arr < 0) | (i_arr < 0))
    if negative.size:
        row = negative[0]
        lineno = _line_of_row(path, row)
        raise DataError(f"{path}:{lineno}: negative id in ({u_arr[row]}, {i_arr[row]})")
    num_users = int(u_arr.max()) + 1
    num_items = int(i_arr.max()) + 1
    keys = pair_keys(u_arr, i_arr, num_users, num_items)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    dup_count = keys.size - first.size
    if dup_count:
        log.warning("%s: dropped %d duplicate interaction(s)", path, dup_count)
        u_arr, i_arr = u_arr[first], i_arr[first]
    return InteractionDataset(num_users, num_items, u_arr, i_arr)


def save_interactions(ds: InteractionDataset, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for u, i in zip(ds.users.tolist(), ds.items.tolist()):
            fh.write(f"{u}\t{i}\n")


def check_split_ratios(ratios: Sequence[float]) -> None:
    """Raise ConfigError unless there are three ratios (train, val, test),
    each >= 0, that sum to 1 (NaN and inf fail the sum)."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"split ratios must be three finite values >= 0 that sum to 1, "
                          f"got {ratios}")


def split_dataset(
    ds: InteractionDataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> InteractionDataset:
    """Assign each user's interactions to train/val/test at the given ratios.

    Per user the interaction list is shuffled by `seed`, val and test counts
    are rounded half-up from the ratios, and all remaining interactions go to
    train, so any user with at least one interaction keeps a train signal
    under the default ratios. Users that still end up with zero train
    interactions (possible only for degenerate ratios) are dropped entirely
    and counted in `num_dropped_users`.
    """
    check_split_ratios(ratios)
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")
    _, r_val, r_test = ratios
    rng = np.random.default_rng(seed)

    order = np.argsort(ds.users, kind="stable")
    sorted_users = ds.users[order]
    counts = np.bincount(ds.users, minlength=ds.num_users)
    first = (np.cumsum(counts) - counts)[sorted_users]
    rank = np.arange(len(ds)) - first  # place in the user's shuffled list
    # each user's list is shuffled by one rng.permutation(n), in user order;
    # permutation(1) draws nothing, so single-row users are skipped
    shuffled = rank.copy()
    multi = counts >= 2
    if multi.any():
        shuffled[multi[sorted_users]] = np.concatenate(
            [rng.permutation(n) for n in counts[multi].tolist()]
        )
    rows = order[first + shuffled]

    n_test = np.minimum(counts, np.floor(r_test * counts + 0.5).astype(np.int64))
    n_val = np.minimum(counts - n_test, np.floor(r_val * counts + 0.5).astype(np.int64))
    n_train = counts - n_val - n_test
    split = np.empty(len(ds), dtype=np.int8)
    split[rows] = np.where(rank < n_train[sorted_users], TRAIN,
                           np.where(rank < (n_train + n_val)[sorted_users], VAL, TEST))
    dropped = (counts > 0) & (n_train == 0)
    dropped_users = int(dropped.sum())

    if dropped_users:
        log.warning("dropped %d user(s) left without train interactions", dropped_users)
    keep = ~dropped[ds.users]
    return InteractionDataset(
        ds.num_users,
        ds.num_items,
        ds.users[keep],
        ds.items[keep],
        split=split[keep],
        num_dropped_users=dropped_users,
    )


def check_train_and_val(ds: InteractionDataset) -> None:
    """Raise DataError unless the split holds a train pair, which training
    fits, and a validation pair, by which it picks its epoch."""
    split = ds.require_split()
    for label, name in ((TRAIN, "train"), (VAL, "validation")):
        if not (split == label).any():
            raise DataError(f"the split ratios or labels leave no {name} interaction")


def unseen_eval_items(ds: InteractionDataset) -> int:
    """Count val/test interactions whose item never occurs in train.

    Such items cannot be ranked well; they are kept, not filtered.
    """
    split = ds.require_split()
    train_items = np.unique(ds.items[split == TRAIN])
    eval_items = ds.items[split != TRAIN]
    return int((~np.isin(eval_items, train_items)).sum())


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the planted-cluster generator.

    User degrees follow a rank-size power law: the user at (shuffled) rank r
    gets weight r**(-degree_exponent), rescaled to `mean_interactions`.
    Items and users live in latent clusters; a user interacts within their
    own cluster with probability `within_cluster_prob`, and item features are
    the item's cluster centroid plus Gaussian noise, so the modality graphs
    carry real signal.
    """

    num_users: int = 1000
    num_items: int = 200
    mean_interactions: float = 8.0
    degree_exponent: float = 0.6
    num_clusters: int = 8
    modality_dims: Mapping[str, int] = field(
        default_factory=lambda: {"image": 32, "video": 32, "text": 16}
    )
    within_cluster_prob: float = 0.85
    noise_std: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 1 or self.num_items < 1 or self.num_clusters < 1:
            raise ConfigError("num_users, num_items, num_clusters must be >= 1")
        if self.mean_interactions < 1:
            raise ConfigError("mean_interactions must be >= 1")
        if self.degree_exponent < 0:
            raise ConfigError("degree_exponent must be >= 0")
        if not 0.0 <= self.within_cluster_prob < 1.0:
            raise ConfigError("within_cluster_prob must be in [0, 1)")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.modality_dims:
            raise ConfigError("at least one modality is required")
        for tag, dim in self.modality_dims.items():
            if tag not in MODALITIES:
                raise ConfigError(f"unknown modality tag {tag!r}")
            if dim < 1:
                raise ConfigError(f"modality dim for {tag!r} must be >= 1")


def _power_law_degrees(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    ranks = rng.permutation(cfg.num_users) + 1
    weights = ranks.astype(np.float64) ** (-cfg.degree_exponent)
    degrees = np.rint(weights * cfg.mean_interactions / weights.mean()).astype(np.int64)
    return np.clip(degrees, 1, cfg.num_items)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[InteractionDataset, list[ModalityFeatures]]:
    """Deterministic planted-cluster dataset plus matching modality features."""
    rng = np.random.default_rng(cfg.seed)

    user_clusters = rng.integers(0, cfg.num_clusters, size=cfg.num_users)
    item_clusters = rng.integers(0, cfg.num_clusters, size=cfg.num_items)
    degrees = _power_law_degrees(cfg, rng)

    cluster_sizes = np.bincount(item_clusters, minlength=cfg.num_clusters)
    base = np.full(cfg.num_items, 1.0 / cfg.num_items)
    users_out: list[np.ndarray] = []
    items_out: list[np.ndarray] = []
    for u in range(cfg.num_users):
        c = user_clusters[u]
        own = cluster_sizes[c]
        if 0 < own < cfg.num_items:
            p = np.full(cfg.num_items, (1.0 - cfg.within_cluster_prob) / (cfg.num_items - own))
            p[item_clusters == c] = cfg.within_cluster_prob / own
        else:
            p = base
        chosen = rng.choice(cfg.num_items, size=degrees[u], replace=False, p=p)
        users_out.append(np.full(degrees[u], u, dtype=np.int64))
        items_out.append(np.sort(chosen).astype(np.int64))

    ds = InteractionDataset(
        cfg.num_users,
        cfg.num_items,
        np.concatenate(users_out),
        np.concatenate(items_out),
    )

    features = []
    for tag in MODALITIES:
        if tag not in cfg.modality_dims:
            continue
        dim = cfg.modality_dims[tag]
        centroids = rng.normal(size=(cfg.num_clusters, dim))
        noise = rng.normal(size=(cfg.num_items, dim)) * cfg.noise_std
        features.append(ModalityFeatures(tag, centroids[item_clusters] + noise))
    validate_features(ds, features)
    return ds, features


def save_features(feats: ModalityFeatures, path: str | Path) -> None:
    rows, cols = feats.matrix.shape
    tag = MODALITIES.index(feats.modality)
    with Path(path).open("wb") as fh:
        fh.write(_FEATURE_HEADER.pack(_FEATURE_MAGIC, _FEATURE_VERSION, tag, rows, cols))
        fh.write(np.ascontiguousarray(feats.matrix, dtype="<f4").tobytes())


def load_features(path: str | Path) -> ModalityFeatures:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file not found or not a file: {path}")
    raw = path.read_bytes()
    if len(raw) < _FEATURE_HEADER.size:
        raise DataError(f"{path}: truncated feature header")
    magic, version, tag, rows, cols = _FEATURE_HEADER.unpack_from(raw)
    if magic != _FEATURE_MAGIC:
        raise DataError(f"{path}: bad feature magic {magic!r}")
    if version != _FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature version {version}")
    if tag >= len(MODALITIES):
        raise DataError(f"{path}: unknown modality tag {tag}")
    body = raw[_FEATURE_HEADER.size:]
    expected = rows * cols * 4
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    matrix = np.frombuffer(body, dtype="<f4").reshape(rows, cols).astype(np.float64)
    return ModalityFeatures(MODALITIES[tag], matrix)


def save_split(ds: InteractionDataset, path: str | Path) -> None:
    """Sidecar TSV `user<TAB>item<TAB>{0|1|2}` (0=train, 1=val, 2=test)."""
    split = ds.require_split()
    with Path(path).open("w", encoding="utf-8") as fh:
        for u, i, s in zip(ds.users.tolist(), ds.items.tolist(), split.tolist()):
            fh.write(f"{u}\t{i}\t{s}\n")


def load_split(ds: InteractionDataset, path: str | Path) -> InteractionDataset:
    """Attach a sidecar split to `ds`, read in `_int_columns`' grammar as
    `save_split` writes it. Each line must name one pair of `ds`, and no
    pair twice; every pair of a user with a line must be covered. The pairs
    of users without one are dropped and counted in `num_dropped_users`, as
    `split_dataset` drops them."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"split file not found or not a file: {path}")
    users, items, split = _int_columns(path, "user<TAB>item<TAB>label")
    bad = np.flatnonzero(~np.isin(split, (TRAIN, VAL, TEST)))
    if bad.size:
        raise ParseError(f"{path}:{_line_of_row(path, bad[0])}: label must be 0, 1, or 2")

    def reject(rows: np.ndarray, problem: str) -> None:
        if rows.size:
            u, i = users[rows[0]], items[rows[0]]
            raise DataError(f"{path}:{_line_of_row(path, rows[0])}: pair ({u}, {i}) {problem}")

    # checked before the keys: (0, |I|) would share the key u*|I| + i of (1, 0)
    reject(np.flatnonzero((users < 0) | (users >= ds.num_users) | (items < 0)
                          | (items >= ds.num_items)),
           f"is outside the {ds.num_users} x {ds.num_items} vocabulary")
    wanted = pair_keys(ds.users, ds.items, ds.num_users, ds.num_items)
    order = np.argsort(wanted)
    keys = np.append(wanted[order], np.iinfo(np.int64).max)  # above every key: `at` stays in range
    named = pair_keys(users, items, ds.num_users, ds.num_items)
    at = np.searchsorted(keys, named)
    reject(np.flatnonzero(keys[at] != named), "is not in the data")
    rows, index = order[at], np.arange(at.size)
    first = np.full(len(ds), at.size)  # each pair's first line; at.size for none
    np.minimum.at(first, rows, index)
    reject(np.flatnonzero(first[rows] != index), "repeats an earlier line")
    keep = first < at.size
    lined = np.zeros(ds.num_users, dtype=bool)
    lined[users] = True
    missing = np.flatnonzero(~keep & lined[ds.users])
    if missing.size:
        u, i = ds.users[missing[0]], ds.items[missing[0]]
        raise DataError(f"{path}: no split label for pair ({u}, {i})")
    dropped_users = np.unique(ds.users[~keep]).size
    if dropped_users:
        log.warning("dropped %d user(s) left without train interactions", dropped_users)
    return InteractionDataset(ds.num_users, ds.num_items, ds.users[keep], ds.items[keep],
                              split=split[first[keep]], num_dropped_users=dropped_users)


def format_dataset_stats(num_users: int, num_items: int, num_interactions: int) -> str:
    sparsity = 1.0 - num_interactions / (num_users * num_items)
    return (
        f"users={num_users} items={num_items} interactions={num_interactions} "
        f"sparsity={100.0 * sparsity:.2f}% "
        f"mean_per_user={num_interactions / num_users:.2f} "
        f"mean_per_item={num_interactions / num_items:.2f}"
    )
