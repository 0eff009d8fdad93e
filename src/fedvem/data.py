"""Datasets and heterogeneity partitioners.

Ingestion covers big-endian IDX image/label files and a synthetic Gaussian
mixture testbed with subclass structure.  Label-distribution skew (k of C
labels per client) and label concept drift (one subclass per superclass per
client) follow one rule: a client holds keys, each key's rows are
random-sliced among its holders, and a client's PM test set is the test
rows whose key it holds.  Data-quantity disparity random-slices an IID
shuffle.  All partitioners are deterministic functions of (spec, seed).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rng_mod
from .nn import InputError

SCENARIOS = ("label_skew", "concept_drift", "quantity_only", "iid_equal")


class FormatError(ValueError):
    """Malformed IDX file; the message carries the byte offset."""


@dataclass
class Dataset:
    images: np.ndarray                 # (N, input_dim) float64
    labels: np.ndarray                 # (N,) int
    classes: int
    subclasses: np.ndarray | None = None   # (N,) int, concept-drift datasets only

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.images) != len(self.labels) or len(self.images) < 1:
            raise InputError("images/labels length mismatch or empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise InputError(f"labels must lie in [0, {self.classes})")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def input_dim(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True)
class PartitionSpec:
    scenario: str
    clients: int
    labels_per_client: int = 0     # k, label_skew only
    seed: int = 0

    def violations(self, classes: int | None = None) -> list[str]:
        out = []
        if self.scenario not in SCENARIOS:
            out.append(f"partition.scenario: unknown scenario {self.scenario!r}")
        if self.clients < 1:
            out.append("partition.clients: must be >= 1")
        if self.scenario == "label_skew":
            if self.labels_per_client < 1:
                out.append("partition.labels_per_client: must be >= 1 for label_skew")
            elif classes is not None and self.labels_per_client > classes:
                out.append("partition.labels_per_client: exceeds class count")
        return out


@dataclass
class Partition:
    """Disjoint, covering, per-client index lists into the parent dataset."""

    client_indices: list[np.ndarray]
    held: list[frozenset] | None = None   # client j's keys into ds.<by>
    by: str | None = None                 # "labels", "subclasses" or None

    @property
    def sizes(self) -> list[int]:
        return [len(ix) for ix in self.client_indices]

    def validate(self, n_total: int) -> None:
        all_ix = np.concatenate(self.client_indices)
        if len(all_ix) != n_total or len(np.unique(all_ix)) != n_total:
            raise InputError("partition is not disjoint and covering")
        if any(len(ix) == 0 for ix in self.client_indices):
            raise InputError("partition contains an empty client")


def idx_shape(path, dims: int) -> list[int]:
    """The ``dims`` sizes of an IDX file of bytes (magic 0x0800 + dims), once
    no size is zero and the file's length matches; reads only the header."""
    header = 4 + 4 * dims
    with open(path, "rb") as f:
        raw, size = f.read(header), os.fstat(f.fileno()).st_size
    if len(raw) < header:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    found, *shape = struct.unpack(f">{1 + dims}I", raw)
    if found != 0x800 + dims:
        raise FormatError(f"{path}: bad magic {found:#010x} at byte 0")
    if 0 in shape:
        raise FormatError(f"{path}: size 0 at byte {4 + 4 * shape.index(0)}")
    expected = header + math.prod(shape)
    if size != expected:
        raise FormatError(f"{path}: expected {expected} bytes, "
                          f"truncated at byte {size}")
    return shape


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX pair (images + labels), scaling pixels by 1/255."""
    n, rows, cols = idx_shape(images_path, 3)
    # one float64 allocation, whether or not numpy elides a temporary
    images = np.divide(np.fromfile(images_path, np.uint8, offset=16), 255.0,
                       dtype=float).reshape(n, rows * cols)
    (n_lab,) = idx_shape(labels_path, 1)
    labels = np.fromfile(labels_path, np.uint8, offset=8).astype(int)
    if n_lab != n:
        raise FormatError(f"{labels_path}: {n_lab} labels for {n} images")
    return Dataset(images=images, labels=labels, classes=int(labels.max()) + 1)


def slice_sizes(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Split n items into m contiguous positive parts by random slicing.

    Draws m-1 distinct cut points uniformly from {1..n-1}; sorted cuts induce
    the part sizes.  Distinct cuts guarantee every part is nonempty.
    """
    if m < 1 or m > n:
        raise InputError(f"cannot slice {n} items into {m} parts")
    if m == 1:
        return np.array([n])
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [n]]))


class _RefillPool:
    """Without-replacement draws from a fixed item list, refilled on exhaustion."""

    def __init__(self, items, rng: np.random.Generator):
        self._items = list(items)
        self._rng = rng
        self._pool: list = []

    def draw(self, exclude=()) -> object:
        if not self._pool:
            self._pool = list(self._items)
        candidates = [x for x in self._pool if x not in exclude]
        if not candidates:
            # every remaining pooled item is excluded; start a fresh cycle
            self._pool = list(self._items)
            candidates = [x for x in self._pool if x not in exclude]
            if not candidates:
                raise InputError("exclusion set covers the whole pool")
        pick = candidates[int(self._rng.integers(len(candidates)))]
        self._pool.remove(pick)
        return pick


_KEY_NAMES = {"labels": "label", "subclasses": "subclass"}


def _slice_by_key(ds: Dataset, by: str, held: list[list], seed: int,
                  tag: int) -> Partition:
    """Client j holds the keys ``held[j]`` of ``ds.<by>``; each key's rows
    are shuffled and random-sliced among its holders in client order."""
    holders: dict = {}
    for j, keys in enumerate(held):
        for key in keys:
            holders.setdefault(key, []).append(j)
    unheld = sorted(set(getattr(ds, by).tolist()) - holders.keys())
    if unheld:
        raise InputError(f"partition.clients: {_KEY_NAMES[by]} {unheld[0]} "
                         "is held by no client")
    per_client: list[list[np.ndarray]] = [[] for _ in held]
    for key in sorted(holders):
        r = rng_mod.stream(seed, rng_mod.TAG_PARTITION, tag, int(key))
        idx = r.permutation(np.flatnonzero(getattr(ds, by) == key))
        if len(idx) < len(holders[key]):
            raise InputError(
                f"partition.clients: {_KEY_NAMES[by]} {key} has {len(idx)} "
                f"rows for its {len(holders[key])} holders")
        sizes = slice_sizes(len(idx), len(holders[key]), r)
        for owner, part in zip(holders[key], np.split(idx, np.cumsum(sizes)[:-1])):
            per_client[owner].append(part)
    return Partition(
        client_indices=[np.sort(np.concatenate(parts)) if parts
                        else np.array([], dtype=int) for parts in per_client],
        held=[frozenset(keys) for keys in held], by=by)


def partition_label_skew(ds: Dataset, clients: int, k: int, seed: int) -> Partition:
    """Give each client k of C labels (refilled pool), then random-slice per label."""
    if k > ds.classes:
        raise InputError(f"k={k} exceeds class count {ds.classes}")
    pool = _RefillPool(range(ds.classes),
                       rng_mod.stream(seed, rng_mod.TAG_PARTITION, 0))
    held: list[list[int]] = []
    for _ in range(clients):
        owned: list[int] = []
        for _ in range(k):
            owned.append(pool.draw(exclude=owned))
        held.append(owned)
    return _slice_by_key(ds, "labels", held, seed, 1)


def partition_concept_drift(ds: Dataset, clients: int, seed: int) -> Partition:
    """One subclass per superclass per client, then random-slice per subclass."""
    if ds.subclasses is None:
        raise InputError("dataset has no subclass annotations")
    draw_rng = rng_mod.stream(seed, rng_mod.TAG_PARTITION, 0)
    pools = [_RefillPool(sorted(set(ds.subclasses[ds.labels == c].tolist())),
                         draw_rng) for c in range(ds.classes)]
    return _slice_by_key(ds, "subclasses",
                         [[pool.draw() for pool in pools] for _ in range(clients)],
                         seed, 2)


def partition_quantity(ds: Dataset, clients: int, seed: int,
                       equal: bool = False) -> Partition:
    """IID shuffle, then equal split or random slicing into J parts."""
    if clients > len(ds):
        raise InputError(f"partition.clients: {clients} clients for "
                         f"{len(ds)} rows")
    r = rng_mod.stream(seed, rng_mod.TAG_PARTITION, 0)
    perm = r.permutation(len(ds))
    if equal:
        chunks = np.array_split(perm, clients)
    else:
        sizes = slice_sizes(len(ds), clients, r)
        chunks = np.split(perm, np.cumsum(sizes)[:-1])
    return Partition(client_indices=[np.sort(c) for c in chunks])


def make_partition(ds: Dataset, spec: PartitionSpec) -> Partition:
    bad = spec.violations(ds.classes)
    if bad:
        raise InputError("; ".join(bad))
    if spec.scenario == "label_skew":
        p = partition_label_skew(ds, spec.clients, spec.labels_per_client, spec.seed)
    elif spec.scenario == "concept_drift":
        p = partition_concept_drift(ds, spec.clients, spec.seed)
    elif spec.scenario == "quantity_only":
        p = partition_quantity(ds, spec.clients, spec.seed, equal=False)
    else:
        p = partition_quantity(ds, spec.clients, spec.seed, equal=True)
    p.validate(len(ds))
    return p


def group_by_client(ds: Dataset, partition: Partition,
                    ) -> tuple[Dataset, Partition]:
    """``ds`` regrouped in place with each client's rows back to back, in
    partition order, and the partition that indexes it.

    Client j's rows keep their values and order; its indices become one
    ascending run, so ``client_rows`` takes them as a view.  The images are
    permuted row by row along the permutation's cycles, so no second copy
    of them is made; labels and subclasses are gathered.  The held keys
    are shared with ``partition``.
    """
    partition.validate(len(ds))   # a permutation, or the walk never ends
    order = np.concatenate(partition.client_indices)
    images, src_of = ds.images, order.tolist()
    for start in range(len(src_of)):
        if src_of[start] == start:   # in place, or its cycle is done
            continue
        row, dst = images[start].copy(), start
        while (src := src_of[dst]) != start:
            images[dst] = images[src]
            src_of[dst], dst = dst, src
        images[dst], src_of[dst] = row, dst
    ds.labels = ds.labels[order]
    if ds.subclasses is not None:
        ds.subclasses = ds.subclasses[order]
    starts = np.cumsum([0] + partition.sizes)
    return ds, replace(partition, client_indices=[
        np.arange(a, b) for a, b in zip(starts, starts[1:])])


def client_rows(ds: Dataset, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A client's ``(x, y)``: views of ``ds`` when ``idx`` is one ascending
    run of consecutive indices, copies otherwise."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        run = slice(idx[0], idx[0] + len(idx))
        return ds.images[run], ds.labels[run]
    return ds.images[idx], ds.labels[idx]


def pm_test_indices(partition: Partition, test_ds: Dataset, client: int) -> np.ndarray:
    """Test points whose key the client holds; every point if none is held."""
    if partition.by is None:
        return np.arange(len(test_ds))
    keys = getattr(test_ds, partition.by)
    if keys is None:
        raise InputError("test dataset lacks subclass annotations")
    return np.flatnonzero(np.isin(keys, list(partition.held[client])))


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-mixture testbed: C superclasses, each a set of subclass modes."""

    classes: int = 5
    subclasses_per_class: int = 3
    dim: int = 20
    points_per_subclass: int = 200
    noise: float = 0.3
    separation: float = 1.0         # distance of superclass centers from origin
    subclass_spread: float = 0.5    # offset of subclass modes around their center
    test_points_per_subclass: int = 50
    seed: int = 0

    def violations(self) -> list[str]:
        out = []
        if self.classes < 2:
            out.append("dataset.classes: need >= 2 classes")
        if self.subclasses_per_class < 1:
            out.append("dataset.subclasses_per_class: must be >= 1")
        if self.dim < self.classes:
            out.append("dataset.dim: must be >= class count for separable centers")
        if self.points_per_subclass < 1:
            out.append("dataset.points_per_subclass: must be >= 1")
        if self.test_points_per_subclass < 1:
            out.append("dataset.test_points_per_subclass: must be >= 1")
        if self.noise < 0:
            out.append("dataset.noise: must be nonnegative")
        return out


def _synth_centers(spec: SynthSpec) -> np.ndarray:
    """(classes * subclasses, dim) mode centers; superclasses sit on rotated axes."""
    r = rng_mod.stream(spec.seed, rng_mod.TAG_SYNTH, 0)
    g = r.standard_normal((spec.dim, spec.dim))
    # all of g is drawn, so the offsets keep their draws; Q's first 17
    # columns are bitwise the same from g's first 32 as from all of g
    # (OpenBLAS, dims 20-139, 200, 784); at 784 dims that QR takes 20 ms,
    # not 76-80 ms, and 19 MiB less peak memory
    q, _ = np.linalg.qr(g[:, :32] if spec.classes <= 16 else g)
    centers = []
    for c in range(spec.classes):
        super_center = spec.separation * q[:, c]
        for _ in range(spec.subclasses_per_class):
            offset = r.standard_normal(spec.dim)
            offset *= spec.subclass_spread / np.linalg.norm(offset)
            centers.append(super_center + offset)
    return np.array(centers)


def _synth_points(spec: SynthSpec, centers: np.ndarray, per_subclass: int,
                  tag: int) -> Dataset:
    r = rng_mod.stream(spec.seed, rng_mod.TAG_SYNTH, tag)
    images = np.empty((len(centers) * per_subclass, spec.dim))
    for block, center in zip(np.split(images, len(centers)), centers):
        r.standard_normal(out=block)   # each mode's points in place
        block *= spec.noise
        block += center
    subs = np.repeat(np.arange(len(centers)), per_subclass)
    return Dataset(images=images, labels=subs // spec.subclasses_per_class,
                   classes=spec.classes, subclasses=subs)


def synth_pair(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """(train, test) splits drawn around the same mode centers."""
    bad = spec.violations()
    if bad:
        raise InputError("; ".join(bad))
    centers = _synth_centers(spec)
    return (_synth_points(spec, centers, spec.points_per_subclass, tag=1),
            _synth_points(spec, centers, spec.test_points_per_subclass, tag=2))
