import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem import rng as rng_mod
from fedvem.data import (Dataset, FormatError, Partition, PartitionSpec,
                         SynthSpec, _slice_by_key, client_rows,
                         group_by_client, load_idx,
                         make_partition, partition_concept_drift,
                         partition_label_skew, partition_quantity,
                         pm_test_indices, slice_sizes, synth_pair)
from fedvem.nn import InputError


def write_idx_pair(tmp_path, pixels, labels, rows, cols):
    n = len(labels)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img, lab


# ---------------------------------------------------------------- load_idx

def test_load_idx_single_pixel(tmp_path):
    img, lab = write_idx_pair(tmp_path, [255], [0], 1, 1)
    ds = load_idx(img, lab)
    assert len(ds) == 1
    assert ds.images[0, 0] == 1.0


def test_load_idx_two_images(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0, 128, 255, 64, 32, 16, 8, 4],
                              [1, 0], 2, 2)
    ds = load_idx(img, lab)
    assert ds.images.shape == (2, 4)
    assert ds.labels.tolist() == [1, 0]
    assert ds.images[0, 1] == pytest.approx(128 / 255)


def test_load_idx_bad_magic(tmp_path):
    img = tmp_path / "bad.idx"
    img.write_bytes(struct.pack(">IIII", 0x999, 1, 1, 1) + b"\x00")
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(FormatError, match="byte 0"):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img = tmp_path / "trunc.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 3)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
    with pytest.raises(FormatError, match="truncated"):
        load_idx(img, lab)


@pytest.mark.parametrize("shape,byte", [((40, 0, 0), 8), ((3, 4, 0), 12),
                                        ((0, 2, 2), 4)])
def test_load_idx_rejects_a_zero_size(tmp_path, shape, byte):
    # a zero size leaves no pixel or no image to train on
    img = tmp_path / "zero.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, *shape))
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x801, shape[0]) + bytes(shape[0]))
    with pytest.raises(FormatError, match=f"^{img}: size 0 at byte {byte}$"):
        load_idx(img, lab)


def test_load_idx_scales_pixels_in_one_allocation(tmp_path):
    n, rows, cols = 2000, 28, 28
    pixels = np.random.default_rng(0).integers(0, 256, n * rows * cols,
                                               dtype=np.uint8)
    pixels[:256] = np.arange(256)   # every byte value at least once
    img, lab = write_idx_pair(tmp_path, pixels.tobytes(), [3] * n, rows, cols)
    tracemalloc.start()
    try:
        ds = load_idx(img, lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    old = pixels.reshape(n, rows * cols).astype(float) / 255.0
    assert ds.images.dtype == old.dtype and ds.images.shape == old.shape
    assert ds.images.tobytes() == old.tobytes()
    assert peak < 1.5 * old.nbytes, peak / old.nbytes


# ------------------------------------------------------------- slice_sizes

def test_slice_sizes_single_part():
    assert slice_sizes(17, 1, np.random.default_rng(0)).tolist() == [17]


def test_slice_sizes_forced_draw():
    assert slice_sizes(5, 5, np.random.default_rng(0)).tolist() == [1, 1, 1, 1, 1]


def test_slice_sizes_rejects_too_many_parts():
    with pytest.raises(InputError):
        slice_sizes(3, 4, np.random.default_rng(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_slice_sizes_positive_and_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 500))
    m = int(rng.integers(1, n + 1))
    sizes = slice_sizes(n, m, rng)
    assert len(sizes) == m
    assert sizes.min() >= 1
    assert sizes.sum() == n


def test_slice_sizes_right_skew_at_scale():
    pooled = []
    for seed in range(300):
        pooled.extend(slice_sizes(60000, 100, np.random.default_rng(seed)).tolist())
    pooled = np.array(pooled)
    assert np.median(pooled) < pooled.mean()


def test_slice_sizes_exchangeable_across_positions():
    draws = np.array([slice_sizes(1000, 7, np.random.default_rng(s))
                      for s in range(1500)], dtype=float)
    means = draws.mean(axis=0)
    assert np.all(np.abs(means - means.mean()) / means.mean() < 0.05)


# -------------------------------------------------------------- partitions

def toy_dataset(n=600, classes=10, seed=0, subclasses_per_class=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    subs = None
    if subclasses_per_class:
        subs = labels * subclasses_per_class + rng.integers(
            0, subclasses_per_class, size=n)
    return Dataset(images=rng.random((n, 4)), labels=labels, classes=classes,
                   subclasses=subs)


def test_label_skew_two_clients_cover_all_labels():
    ds = toy_dataset()
    p = partition_label_skew(ds, clients=2, k=5, seed=0)
    a, b = p.held
    assert a.isdisjoint(b)
    assert a | b == set(range(10))


def test_label_skew_single_client_owns_everything():
    ds = toy_dataset()
    p = partition_label_skew(ds, clients=1, k=10, seed=0)
    assert sorted(np.concatenate(p.client_indices).tolist()) == list(range(len(ds)))


def test_label_skew_refill_counting():
    # C=10, k=5, J=100: the pool refills exactly 50 times, so every label
    # ends up held by exactly 50 clients and all indices are used once.
    ds = toy_dataset(n=60000)
    p = partition_label_skew(ds, clients=100, k=5, seed=3)
    holder_counts = {c: 0 for c in range(10)}
    for labs in p.held:
        for lab in labs:
            holder_counts[lab] += 1
    assert all(v == 50 for v in holder_counts.values())
    p.validate(len(ds))


def test_label_skew_rejects_k_above_classes():
    with pytest.raises(InputError):
        partition_label_skew(toy_dataset(), clients=2, k=11, seed=0)


def test_concept_drift_single_superclass_two_clients():
    ds = toy_dataset(n=100, classes=1, subclasses_per_class=1)
    p = partition_concept_drift(ds, clients=2, seed=0)
    assert all(len(ix) >= 1 for ix in p.client_indices)
    assert p.held[0] == p.held[1] == frozenset({0})


def test_concept_drift_single_client_one_subclass_per_superclass():
    ds = toy_dataset(n=400, classes=3, subclasses_per_class=1, seed=1)
    p = partition_concept_drift(ds, clients=1, seed=0)
    assert p.held[0] == frozenset({0, 1, 2})
    p.validate(len(ds))


@pytest.mark.parametrize("by,held,message", [
    ("subclasses", [[1, 4, 9]], "subclass 0"),
    ("subclasses", [[0, 4, 9], [0, 5, 11]], "subclass 1"),
    ("labels", [[0], [2]], "label 1"),
])
def test_slice_by_key_names_the_smallest_key_held_by_no_client(
        monkeypatch, by, held, message):
    # the error comes before any per-key stream is drawn from
    ds = toy_dataset(n=400, classes=3, subclasses_per_class=4, seed=1)
    monkeypatch.setattr(rng_mod, "stream", None)
    with pytest.raises(InputError, match=f"^partition.clients: {message} "
                                         "is held by no client$"):
        _slice_by_key(ds, by, held, seed=0, tag=1)


def test_concept_drift_refill_counting():
    # 3 superclasses x 4 subclasses, 8 clients: each pool refills twice, so
    # each subclass lands on exactly 2 clients
    ds = toy_dataset(n=2400, classes=3, subclasses_per_class=4, seed=2)
    p = partition_concept_drift(ds, clients=8, seed=1)
    counts: dict[int, int] = {}
    for subs in p.held:
        for s in subs:
            counts[s] = counts.get(s, 0) + 1
    assert sorted(counts) == list(range(12))
    assert all(v == 2 for v in counts.values())
    p.validate(len(ds))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["label_skew", "concept_drift", "quantity_only",
                        "iid_equal"]))
def test_partitions_are_true_partitions(seed, scenario):
    ds = toy_dataset(n=500, classes=5, seed=7, subclasses_per_class=3)
    spec = PartitionSpec(scenario=scenario, clients=6, labels_per_client=3,
                         seed=seed)
    p = make_partition(ds, spec)
    p.validate(len(ds))


def test_partition_is_deterministic():
    ds = toy_dataset(n=500, classes=5, seed=7, subclasses_per_class=3)
    spec = PartitionSpec(scenario="label_skew", clients=6, labels_per_client=3,
                         seed=42)
    p1 = make_partition(ds, spec)
    p2 = make_partition(ds, spec)
    for a, b in zip(p1.client_indices, p2.client_indices):
        assert np.array_equal(a, b)
    assert p1.held == p2.held


@pytest.mark.parametrize("scenario,by", [
    ("label_skew", "labels"), ("concept_drift", "subclasses"),
    ("quantity_only", None), ("iid_equal", None)])
def test_pm_test_indices_mirror_held_keys(scenario, by):
    train = toy_dataset(n=500, classes=5, seed=8, subclasses_per_class=3)
    test = toy_dataset(n=200, classes=5, seed=9, subclasses_per_class=3)
    spec = PartitionSpec(scenario=scenario, clients=4, labels_per_client=2,
                         seed=0)
    p = make_partition(train, spec)
    assert p.by == by
    for j in range(4):
        idx = pm_test_indices(p, test, j)
        if by is None:
            assert p.held is None
            assert idx.tolist() == list(range(len(test)))
            continue
        keys = getattr(test, by)
        assert set(keys[idx].tolist()) <= set(p.held[j])
        # and every test row with a held key is in
        assert idx.tolist() == [i for i, key in enumerate(keys.tolist())
                                if key in p.held[j]]


def test_pm_test_indices_concept_drift_needs_test_subclasses():
    train = toy_dataset(n=500, classes=5, seed=8, subclasses_per_class=3)
    test = toy_dataset(n=200, classes=5, seed=9)
    p = make_partition(train, PartitionSpec(scenario="concept_drift",
                                            clients=4, seed=0))
    with pytest.raises(InputError, match="lacks subclass annotations"):
        pm_test_indices(p, test, 0)


def test_quantity_partition_sizes_sum():
    ds = toy_dataset(n=777)
    p = partition_quantity(ds, clients=13, seed=5)
    assert sum(p.sizes) == 777


@pytest.mark.parametrize("scenario", ["label_skew", "concept_drift",
                                      "quantity_only", "iid_equal"])
def test_group_by_client_keeps_every_clients_rows(scenario):
    ds = toy_dataset(n=500, classes=5, seed=7, subclasses_per_class=3)
    test = toy_dataset(n=200, classes=5, seed=9, subclasses_per_class=3)
    p = make_partition(ds, PartitionSpec(scenario=scenario, clients=6,
                                         labels_per_client=3, seed=3))
    # grouping consumes ds: compare with a copy taken before
    before = Dataset(images=ds.images.copy(), labels=ds.labels.copy(),
                     classes=ds.classes, subclasses=ds.subclasses.copy())
    grouped, gp = group_by_client(ds, p)
    gp.validate(len(grouped))
    assert grouped.classes == before.classes
    assert gp.held == p.held
    assert gp.by == p.by
    start = 0
    for j, (idx, gidx) in enumerate(zip(p.client_indices, gp.client_indices,
                                        strict=True)):
        assert gidx.tolist() == list(range(start, start + len(idx)))
        start += len(idx)
        x, y = client_rows(grouped, gidx)
        assert x.base is grouped.images and y.base is grouped.labels
        assert x.tobytes() == before.images[idx].tobytes()
        assert np.array_equal(y, before.labels[idx])
        assert np.array_equal(grouped.subclasses[gidx], before.subclasses[idx])
        assert np.array_equal(pm_test_indices(gp, test, j),
                              pm_test_indices(p, test, j))


def test_group_by_client_permutes_the_rows_in_place():
    # a gather would hold a second copy of the images while it runs
    rng = np.random.default_rng(4)
    n = 3000
    ds = Dataset(images=rng.standard_normal((n, 200)),
                 labels=rng.integers(0, 10, size=n), classes=10)
    p = make_partition(ds, PartitionSpec(scenario="quantity_only",
                                         clients=17, seed=2))
    images, order = ds.images, np.concatenate(p.client_indices)
    expected = images[order]
    tracemalloc.start()
    try:
        grouped, _ = group_by_client(ds, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grouped.images is images
    assert grouped.images.tobytes() == expected.tobytes()
    assert peak < 0.25 * images.nbytes, peak / images.nbytes


def test_group_by_client_rejects_a_partition_that_is_no_permutation():
    ds = toy_dataset(n=4)
    with pytest.raises(InputError, match="disjoint and covering"):
        group_by_client(ds, Partition([np.array([0, 1]), np.array([1, 2, 3])]))


def test_client_rows_views_exactly_one_ascending_run():
    ds = toy_dataset(n=20)
    run = np.arange(3, 8)
    x, y = client_rows(ds, run)
    assert x.base is ds.images and y.base is ds.labels
    assert np.array_equal(x, ds.images[run]) and np.array_equal(y, ds.labels[run])
    # unique, first/last/length of a run, but not in order; and a gap
    for idx in (np.array([3, 5, 4, 6, 7]), np.array([5, 6, 8]),
                np.array([7, 6])):
        x, y = client_rows(ds, idx)
        assert not np.shares_memory(x, ds.images)
        assert not np.shares_memory(y, ds.labels)
        assert np.array_equal(x, ds.images[idx])
        assert np.array_equal(y, ds.labels[idx])


# ------------------------------------------------------------------- synth

def test_synth_zero_noise_points_equal_centers():
    spec = SynthSpec(classes=2, subclasses_per_class=1, dim=4,
                     points_per_subclass=1, noise=0.0, seed=0)
    ds = synth_pair(spec)[0]
    from fedvem.data import _synth_centers
    np.testing.assert_allclose(ds.images, _synth_centers(spec), atol=1e-15)


def test_synth_separable_classes_local_fit():
    from fedvem.metrics import accuracy
    from fedvem.nn import init_mlp, sgd_epochs, unflatten
    spec = SynthSpec(classes=2, subclasses_per_class=1, dim=4,
                     points_per_subclass=50, noise=0.05, separation=2.0, seed=0)
    ds = synth_pair(spec)[0]
    rng = np.random.default_rng(0)
    params = init_mlp(4, (8,), 2, rng)
    row, = sgd_epochs(params, [(ds.images, ds.labels)], 0.1, 50, 20, [rng])
    model = unflatten(row, [w.shape for w, _ in params])
    assert accuracy(model, ds.images, ds.labels) == 1.0


def test_synth_default_spec_centrally_learnable():
    # frozen oracle expectation: a centralized MLP clears 95% on held-out data
    from fedvem.metrics import accuracy
    from fedvem.nn import init_mlp, sgd_epochs, unflatten
    train, test = synth_pair(SynthSpec(seed=0))
    rng = np.random.default_rng(0)
    params = init_mlp(train.input_dim, (32,), train.classes, rng)
    row, = sgd_epochs(params, [(train.images, train.labels)], 0.05, 40, 50,
                      [rng])
    model = unflatten(row, [w.shape for w, _ in params])
    assert accuracy(model, test.images, test.labels) >= 0.95


def test_synth_pair_shares_centers():
    train, test = synth_pair(SynthSpec(classes=2, subclasses_per_class=2,
                                       dim=5, points_per_subclass=30,
                                       test_points_per_subclass=10, seed=4))
    assert train.classes == test.classes
    assert set(np.unique(train.subclasses)) == set(np.unique(test.subclasses))


def test_synth_pair_draws_each_split_in_one_allocation():
    from fedvem.data import _synth_centers
    spec = SynthSpec(classes=4, subclasses_per_class=3, dim=16,
                     points_per_subclass=500, test_points_per_subclass=100,
                     seed=3)
    tracemalloc.start()
    try:
        train, test = synth_pair(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for ds in (train, test)
                   for a in (ds.images, ds.labels, ds.subclasses))
    assert peak < 1.3 * returned, peak / returned
    # the same points as drawing each mode on its own and concatenating
    centers = _synth_centers(spec)
    for ds, per, tag in ((train, 500, 1), (test, 100, 2)):
        r = rng_mod.stream(spec.seed, rng_mod.TAG_SYNTH, tag)
        old = np.concatenate([c + spec.noise * r.standard_normal((per, 16))
                              for c in centers])
        assert ds.images.tobytes() == old.tobytes()
        modes = [m for m in range(len(centers)) for _ in range(per)]
        assert ds.subclasses.tolist() == modes
        assert ds.labels.tolist() == [m // 3 for m in modes]


@pytest.mark.parametrize("dim", [20, 33, 64, 100, 127, 128, 129, 200, 784])
def test_synth_centers_equal_the_full_qr(dim):
    from fedvem.data import _synth_centers
    for classes in (2, 5, 10, 16):
        for seed in (0, 1):
            spec = SynthSpec(classes=classes, subclasses_per_class=2, dim=dim,
                             seed=seed)
            # the reference: superclass axes from the whole (dim, dim) QR
            r = rng_mod.stream(seed, rng_mod.TAG_SYNTH, 0)
            q, _ = np.linalg.qr(r.standard_normal((dim, dim)))
            centers = []
            for c in range(classes):
                for _ in range(spec.subclasses_per_class):
                    offset = r.standard_normal(dim)
                    offset *= spec.subclass_spread / np.linalg.norm(offset)
                    centers.append(spec.separation * q[:, c] + offset)
            assert (_synth_centers(spec).tobytes()
                    == np.array(centers).tobytes()), (classes, seed)


def test_synth_centers_factor_the_whole_draw_past_16_classes(monkeypatch):
    from fedvem.data import _synth_centers
    shapes, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a: shapes.append(a.shape) or qr(a))
    for classes in (16, 17):
        _synth_centers(SynthSpec(classes=classes, dim=100))
    assert shapes == [(100, 32), (100, 100)]


def test_synth_rejects_degenerate_spec():
    with pytest.raises(InputError):
        synth_pair(SynthSpec(classes=1))
