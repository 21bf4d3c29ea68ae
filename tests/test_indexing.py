"""Cube indexing, packed keys and the sorted-key grouping primitives."""

import re

import numpy as np
import pytest

from rhmap.config import MapConfig
from rhmap.indexing import (cube_centers, cube_indices, cube_local_key_mask,
                            pack2, pack3, region_key_mask, unpack3)

from conftest import point_to_indices, region_major


CFG = MapConfig(cube_size=0.1, mask_bits=3)


def test_origin_cell():
    g, r, c = point_to_indices(np.array([0.05, 0.05, 0.05]), CFG)
    assert g.tolist() == [0, 0, 0]
    assert r.tolist() == [0, 0, 0]
    assert c.tolist() == [0, 0, 0]


def test_negative_coordinate_bit_arithmetic():
    g, r, c = point_to_indices(np.array([0.85, 0.15, -0.05]), CFG)
    assert g.tolist() == [8, 1, -1]
    assert r.tolist() == [8, 0, -8]
    assert c.tolist() == [0, 1, 7]


def test_minus_one_lives_in_region_minus_eight():
    i = np.int64(-1)
    m = CFG.mask
    assert int(i & ~m) == -8
    assert int(i & m) == 7


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        point_to_indices(np.array([np.nan, 0.0, 0.0]), CFG)


def test_fuzzed_recomposition():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-300, 300, size=(100_000, 3))
    g, r, c = point_to_indices(pts, CFG)
    # independent reconstruction: floor in float space, reassemble in ints
    ref = np.floor(pts / CFG.cube_size).astype(np.int64)
    assert ((r | c) == g).all()
    assert (g == ref).all()
    assert ((r & CFG.mask) == 0).all()
    assert ((c & ~CFG.mask) == 0).all()


def test_round_trip_within_half_cube():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-50, 50, size=(10_000, 3))
    g, _, _ = point_to_indices(pts, CFG)
    centers = (g + 0.5) * CFG.cube_size
    assert (np.abs(centers - pts) <= CFG.cube_size / 2 + 1e-12).all()


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(9)
    idx = rng.integers(-(1 << 20), 1 << 20, size=(5000, 3))
    keys = pack3(idx[:, 0], idx[:, 1], idx[:, 2])
    assert (unpack3(keys) == idx).all()
    k2 = pack2(idx[:, 0], idx[:, 1])
    assert (unpack3(k2 << 21)[:, :2] == idx[:, :2]).all()
    assert len(np.unique(keys)) == len(np.unique(idx, axis=0))


def test_region_mask_on_packed_keys():
    idx = np.array([[9, -1, 17]])
    key = pack3(idx[:, 0], idx[:, 1], idx[:, 2])
    rkey = key & region_key_mask(3)
    assert unpack3(rkey)[0].tolist() == [8, -8, 16]
    assert (rkey & cube_local_key_mask(3) == 0).all()
    assert int(rkey[0] >> 21) == int(pack2(np.int64(8), np.int64(-8)))


def test_cube_centers():
    keys = pack3(np.array([0, -1]), np.array([2, 3]), np.array([4, -5]))
    centers = cube_centers(keys, 0.1)
    assert np.allclose(centers, [[0.05, 0.25, 0.45], [-0.05, 0.35, -0.45]])


# ------------------------------------ key range, region-major keys, grouping

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rhmap.indexing import (ScanCubes, column_of, column_runs,  # noqa: E402
                            column_start, delete_rows, from_region_major,
                            gather_runs, insert_rows, region_key_mask,
                            sorted_unique)

_coord = st.integers(-(1 << 20), (1 << 20) - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2.2e5, 2.2e5), min_size=3, max_size=3),
       st.sampled_from([0.05, 0.1, 0.2, 0.4]))
def test_cube_indices_pack_round_trip_or_raise(point, cube_size):
    # an index either survives the 21-bit packing or is rejected: it never
    # lands silently on another cube, and only indexes that would are refused
    raw = np.floor(np.array(point) / cube_size).astype(np.int64)
    round_trips = unpack3(pack3(*raw)).tolist() == raw.tolist()
    try:
        idx = cube_indices(point, cube_size)
    except ValueError:
        assert not round_trips
        return
    assert round_trips
    assert idx.tolist() == raw.tolist()


def test_cube_indices_reject_unpackable_coordinates():
    # 209715.25 m is cube 2**21 at 0.1 m, which the mask would fold onto 0
    with pytest.raises(ValueError, match="packed key"):
        cube_indices(np.array([[0.05, 0.0, 0.0], [209715.25, 0.0, 0.0]]), 0.1)
    with pytest.raises(ValueError, match="packed key"):
        cube_indices(np.array([0.0, -104857.7, 0.0]), 0.1)
    assert cube_indices(np.array([0.0, -104857.6, 104857.5]),
                        0.1).tolist() == [0, -(1 << 20), (1 << 20) - 1]
    assert cube_indices(np.empty((0, 3)), 0.1).shape == (0, 3)
    # each axis is a contiguous column
    assert cube_indices(np.ones((4, 3)), 0.1)[:, 0].flags.c_contiguous


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=40),
       st.integers(1, 20))
def test_region_major_orders_by_region_then_cube(idx, bits):
    idx = np.array(idx, dtype=np.int64)
    keys = pack3(idx[:, 0], idx[:, 1], idx[:, 2])
    rm = region_major(keys, bits)
    assert (rm >= 0).all()
    assert np.array_equal(from_region_major(rm, bits), keys)
    by_region = keys[np.lexsort((keys, keys & region_key_mask(bits)))]
    assert np.array_equal(keys[np.argsort(rm, kind="stable")], by_region)


def test_sorted_unique_and_gather_runs():
    keys = np.array([5, 3, 5, -2, 3, 9], dtype=np.int64)
    assert sorted_unique(keys).tolist() == [-2, 3, 5, 9]
    pos, owner = gather_runs(np.array([4, 0, 7]), np.array([6, 0, 8]))
    assert pos.tolist() == [4, 5, 7]
    assert owner.tolist() == [0, 0, 2]


# a table of n rows and the sorted positions of the rows inserted into it
_table = st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n), max_size=20).map(sorted)))


@settings(max_examples=200, deadline=None)
@given(_table, st.integers(0, 2**32 - 1))
@example((0, []), 0)
@example((0, [0, 0]), 1)
@example((7, []), 2)
@example((7, [0, 0, 3, 7, 7]), 3)
def test_insert_and_delete_rows_match_numpy(table, seed):
    # int64, int32, (n, 3) float and bitmap-like (n, 64) uint8 and (n, 256)
    # uint16 columns of one table move together, at the ends of the table
    # too; the float rows come from a strided view, not contiguous rows.
    # The rows inserted are then deleted from random places, as many as
    # were inserted
    (n, pos), rng = table, np.random.default_rng(seed)
    k = len(pos)

    def columns(m):
        return [rng.integers(-2**62, 2**62, m),
                rng.integers(-2**31, 2**31, m).astype(np.int32),
                rng.normal(size=(m, 6))[:, ::2],
                rng.integers(0, 2**8, (m, 64)).astype(np.uint8),
                rng.integers(0, 2**16, (m, 256)).astype(np.uint16)]

    cols, vals = columns(n), columns(k)
    # np.insert's positions, as rows of the grown table
    dest = np.array(pos, dtype=np.int64) + np.arange(k)
    grown = insert_rows(cols, dest, vals)
    for got, col, v in zip(grown, cols, vals):
        want = np.insert(col, pos, v, axis=0)
        assert got.dtype == col.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    gone = rng.choice(n + k, k, replace=False)
    # the reversed views have negative strides
    for table in (grown, [col[::-1] for col in grown]):
        for got, col in zip(delete_rows(table, gone), table):
            want = np.delete(col, gone, axis=0)
            assert got.dtype == col.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


_top = (-1, -1)    # the column 2**42 - 1, whose last key is 2**63 - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _coord), max_size=40),
       st.lists(st.tuples(_coord, _coord), max_size=10))
@example([(*_top, -1), (*_top, 0), (*_top, (1 << 20) - 1), (-2, -1, 3),
          (0, -1, 0)], [_top, (0, 0)])
@example([(5, -3, 1), (5, -3, -(1 << 20)), (-(1 << 20), 0, 0)], [(5, -3)])
def test_column_runs_match_a_brute_force_filter(idx, queries):
    # keys of negative indexes and of the top column included; the queries
    # are the keys' own columns and other columns, in any order
    idx = np.array(idx, dtype=np.int64).reshape(-1, 3)
    keys = sorted_unique(pack3(idx[:, 0], idx[:, 1], idx[:, 2]))
    q = np.array(queries, dtype=np.int64).reshape(-1, 2)
    cols = np.concatenate([pack2(q[:, 0], q[:, 1]), keys >> 21])[::-1]
    assert np.array_equal(column_of(keys), keys >> 21)
    assert np.array_equal(column_start(cols) >> 21, cols)
    starts, ends = column_runs(keys, cols)
    for c, s, e in zip(cols, starts, ends):
        assert list(range(s, e)) == np.flatnonzero((keys >> 21) == c).tolist()


def test_scan_cubes_groups_match_brute_force():
    rng = np.random.default_rng(11)
    cfg = MapConfig(cube_size=0.1, mask_bits=3)
    pts = rng.uniform(-2.0, 2.0, size=(3000, 3))
    cubes = ScanCubes(pts, cfg)
    gidx = np.floor(pts / 0.1).astype(np.int64)
    keys = pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2])
    assert np.array_equal(cubes.cube_keys[cubes.point_cube], keys)
    rkeys = keys & region_key_mask(3)
    assert np.array_equal(cubes.region_keys, np.unique(rkeys))
    assert np.array_equal(cubes.region_keys[cubes.cube_region[cubes.point_cube]],
                          rkeys)
    cols = rkeys >> 21
    assert np.array_equal(cubes.column_keys, np.unique(cols))
    assert np.array_equal(cubes.column_keys[cubes.cube_column[cubes.point_cube]],
                          cols)
    # each column's points form one run of the sorted order
    col_of_sorted = cols[cubes.order]
    starts = np.append(cubes.column_start, len(pts))
    for c, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        assert (col_of_sorted[a:b] == cubes.column_keys[c]).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=60),
       st.integers(0, 2**32 - 1), st.integers(1, 20),
       st.sampled_from([0.05, 0.1, 0.25, 1.0]))
def test_scan_cubes_keys_and_region_starts_match_packed_keys(idx, seed, bits,
                                                             cube_size):
    # points anywhere in the packable range, negative coordinates included,
    # and clustered copies so cubes and regions hold several points
    rng = np.random.default_rng(seed)
    idx = np.array(idx, dtype=np.int64)
    idx = idx[rng.integers(0, len(idx), 3 * len(idx))]
    pts = (idx + rng.random(idx.shape)) * cube_size
    try:
        gidx = cube_indices(pts, cube_size)
    except ValueError as err:
        # the fraction pushed a point past the edge of the range
        with pytest.raises(ValueError, match=re.escape(str(err))):
            ScanCubes(pts, MapConfig(cube_size=cube_size, mask_bits=bits))
        return
    cubes = ScanCubes(pts, MapConfig(cube_size=cube_size, mask_bits=bits))
    keys = pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2])
    rm = region_major(keys, bits)
    assert np.array_equal(cubes.cube_rm[cubes.point_cube], rm)
    assert np.array_equal(cubes.cube_keys[cubes.point_cube], keys)
    assert np.array_equal(cubes.cube_rm, sorted_unique(rm))
    # each region's points form one run of the sorted order, and the run
    # starts at region_start
    region_of_sorted = (keys & region_key_mask(bits))[cubes.order]
    heads = [k for k in range(len(pts))
             if k == 0 or region_of_sorted[k] != region_of_sorted[k - 1]]
    assert cubes.region_start.tolist() == heads
    assert np.array_equal(region_of_sorted[heads], cubes.region_keys)
    assert len(heads) == len(set(region_of_sorted.tolist()))


@pytest.mark.parametrize("point, message", [
    ([0.0, np.nan, 0.0], "non-finite"),
    ([np.inf, 0.0, 0.0], "non-finite"),
    ([0.0, 0.0, -np.inf], "non-finite"),
    ([209715.25, 0.0, 0.0], "packed key"),
    ([0.0, -104857.7, 0.0], "packed key"),
    ([0.0, 0.0, 104857.6], "packed key"),
])
def test_scan_cubes_reject_points_as_cube_indices_does(point, message):
    pts = np.array([[0.05, 0.05, 0.05], point, [-1.0, 2.0, 0.5]])
    with pytest.raises(ValueError, match=message) as expected:
        cube_indices(pts, 0.1)
    with pytest.raises(ValueError) as got:
        ScanCubes(pts, CFG)
    assert str(got.value) == str(expected.value)


def test_a_grouping_is_read_only():
    # the pipeline's two threads read one grouping at once
    cubes = ScanCubes(np.random.default_rng(3).uniform(-2, 2, (500, 3)), CFG)
    with pytest.raises(ValueError, match="read-only"):
        cubes.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cubes.cube_keys += 1
    assert not any(arr.flags.writeable for arr in vars(cubes).values()
                   if isinstance(arr, np.ndarray))


# ------------------------------------------------------ cube-column words

from rhmap.indexing import word_bits, word_dtype  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]), st.data())
def test_word_bits_match_python(bits, data):
    side = 1 << bits
    values = data.draw(st.lists(st.integers(0, (1 << side) - 1), max_size=20))
    words = np.array(values, dtype=word_dtype(bits))
    assert words.dtype.itemsize * 8 >= side
    got = word_bits(words, bits)
    assert got.shape == (len(values), side)
    assert got.tolist() == [[v >> k & 1 for k in range(side)] for v in values]


def test_word_dtype_holds_a_region_side():
    assert [word_dtype(b).itemsize for b in range(1, 5)] == [1, 1, 1, 2]
    assert all(word_dtype(b).kind == "u" for b in range(1, 5))
