"""Occupancy integration, region statistics, column tables, removal."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhmap.config import MapConfig
from rhmap.evaluate import cube_keys
from rhmap.indexing import (ScanCubes, pack2, pack3, region_key_mask,
                            run_starts, unpack3)
from rhmap.map_core import RHMap

import conftest
from conftest import (cube_state, ground_keys, has_cubes, hit_cubes,
                      integrate, mark_ground_keys, region, table_keys,
                      unfitted_ground, unoccupied_ground)


def make_map():
    return RHMap(MapConfig(cube_size=0.1, mask_bits=3))


def test_fresh_hit_log_odds():
    # one point makes a cube occupied, as a non-ground cube
    map_ = make_map()
    assert hit_cubes(map_, (0, 0, 0)) == 1
    assert cube_state(map_, (0, 0, 0)) is False
    assert len(map_) == 1


def test_two_hits_additive():
    map_ = make_map()
    hit_cubes(map_, (0, 0, 0))
    assert hit_cubes(map_, (0, 0, 0)) == 0
    assert cube_state(map_, (0, 0, 0)) is False
    assert len(map_) == 1


def test_integrate_rejects_a_grouping_of_another_shape():
    # a 0.2 m grouping's keys would name other cubes of a 0.1 m map
    map_ = make_map()
    pts = np.random.default_rng(11).uniform(-2, 2, size=(500, 3))
    with pytest.raises(ValueError, match="cube_size 0.2"):
        map_.integrate_points(ScanCubes(pts, MapConfig(cube_size=0.2)))
    with pytest.raises(ValueError, match="mask_bits 4"):
        map_.integrate_points(ScanCubes(pts, MapConfig(mask_bits=4)))
    assert len(map_) == 0 and len(map_.regions) == 0
    assert map_.integrate_points(ScanCubes(pts, MapConfig())) == len(map_) > 0


def region_stats(map_):
    """Each region's cube count and z-index sum, as the ground fit reads
    them (``RHMap.unfitted_region_cubes``), by region key; the map must
    hold no fitted region, so that every region is offered a fit."""
    cubes = map_.unfitted_region_cubes(map_.regions)
    assert np.array_equal(cubes.rkeys, map_.regions)
    return dict(zip(cubes.rkeys.tolist(),
                    zip(cubes.count.tolist(), cubes.z_sum.tolist())))


def brute_region_stats(keys, rmask):
    """Each region's cube count and z-index sum over distinct packed cube
    keys, tallied one key at a time."""
    stats = {}
    for k, z in zip(keys.tolist(), unpack3(keys)[:, 2].tolist()):
        n, z_sum = stats.get(k & rmask, (0, 0))
        stats[k & rmask] = (n + 1, z_sum + z)
    return stats


def test_region_stats_ordering():
    rng = np.random.default_rng(3)
    map_ = make_map()
    pts = rng.uniform(0.0, 0.79, size=(200, 3))
    integrate(map_, pts)
    stats = region_stats(map_)
    assert stats == brute_region_stats(np.unique(cube_keys(pts, 0.1)),
                                       region_key_mask(3))
    for rkey, (n, z_sum) in stats.items():
        r = region(map_, rkey)
        assert r.z_min <= (z_sum / n + 0.5) * 0.1 <= r.z_max


def test_column_band_matches_full_rescan_oracle():
    # integration interleaved with removal against a set model, at every
    # region size: after every step the cube table, the exported cubes and
    # their ground flags, the ground keys, each region's statistics and each
    # column's band describe the model's cubes, tallied by brute force.
    # Every step after the first re-hits cubes the step before removed; they
    # come back as new, non-ground cubes.
    for mask_bits in range(1, 5):
        _check_against_set_model(mask_bits)


def _check_against_set_model(mask_bits):
    rng = np.random.default_rng(4)
    map_ = RHMap(MapConfig(cube_size=0.1, mask_bits=mask_bits))
    rmask = region_key_mask(mask_bits)
    live, ground, seen_cols, removed = set(), set(), set(), []
    for step in range(6):
        pts = rng.uniform(-2.0, 2.0, size=(800, 3))
        if step:
            assert len(removed) > 0
            again = rng.choice(removed, size=min(50, len(removed)), replace=False)
            pts = np.concatenate([pts, (unpack3(again) + 0.5) * 0.1])
        hit = set(cube_keys(pts, 0.1).tolist())
        assert integrate(map_, pts) == len(hit - live)
        live |= hit
        keys = np.array(sorted(live))
        marked = keys[rng.random(len(keys)) < 0.1]
        mark_ground_keys(map_, marked)
        ground |= set(marked.tolist())
        rkeys = np.unique(keys & rmask)
        flagged = set(rkeys[rng.random(len(rkeys)) < 0.3].tolist())
        map_.remove_regions_nonground(np.array(sorted(flagged)))
        kept = {k for k in live if k in ground or k & rmask not in flagged}
        removed = sorted(live - kept)
        live = kept
        seen_cols |= set(((keys & rmask) >> 21).tolist())

        assert len(map_) == len(live)
        keys = np.array(sorted(live))
        pts, flags = map_.export_occupied_points()
        assert dict(zip(cube_keys(pts, 0.1).tolist(), flags.tolist())) == \
            {k: k in ground for k in live}
        # cubes marked again in a later step enter the ground keys once
        assert ground_keys(map_).tolist() == sorted(ground)
        kz = unpack3(keys)[:, 2]
        zc = (kz + 0.5) * 0.1
        rkeys = keys & rmask
        assert np.array_equal(map_.regions, np.unique(rkeys))
        assert region_stats(map_) == brute_region_stats(keys, rmask)
        for k in np.unique(rkeys).tolist():
            z, r = zc[rkeys == k], region(map_, k)
            assert (r.z_min, r.z_max) == (z.min(), z.max())
        cols = (keys & rmask) >> 21
        # every column ever seen, twice, in two orders
        query = np.array(sorted(seen_cols))
        query = np.concatenate([query, query[::-1]])
        lo, hi, known = map_.column_bands(query)
        for i, col in enumerate(query.tolist()):
            z = zc[cols == col]
            assert known[i] == (len(z) > 0)
            if len(z):
                assert (lo[i], hi[i]) == (z.min(), z.max())
            else:
                assert np.isnan(lo[i]) and np.isnan(hi[i])
        assert np.array_equal(map_.occupied_keys(), keys)


def column_band(map_, col):
    """(lo, hi) occupied band of one region column, or None."""
    lo, hi, known = map_.column_bands(np.array([col]))
    return (float(lo[0]), float(hi[0])) if known[0] else None


def remove(map_, rkey) -> int:
    return map_.remove_regions_nonground(np.array([rkey]))


def _plant_region(map_, ground_cubes, nonground_cubes):
    hit_cubes(map_, ground_cubes + nonground_cubes)
    mark_ground_keys(map_, pack3(*np.array(ground_cubes).T))


def test_remove_keeps_ground():
    map_ = make_map()
    ground = [(x, 0, 0) for x in range(5)]
    nonground = [(x, 1, 3) for x in range(3)]
    _plant_region(map_, ground, nonground)
    (rkey,) = map_.regions
    assert remove(map_, rkey) == 3
    assert len(map_) == 5
    for idx in ground:
        assert cube_state(map_, idx) is True
    for idx in nonground:
        assert cube_state(map_, idx) is None


def test_remove_all_ground_region_is_noop():
    map_ = make_map()
    _plant_region(map_, [(0, 0, 0), (1, 0, 0), (2, 1, 0)], [])
    (rkey,) = map_.regions
    assert remove(map_, rkey) == 0
    assert len(map_) == 3


def test_remove_missing_region_returns_zero():
    map_ = make_map()
    assert remove(map_, 123456) == 0


def test_remove_survivors_match_brute_force():
    rng = np.random.default_rng(5)
    map_ = make_map()
    pts = rng.uniform(0.0, 0.79, size=(300, 3))
    integrate(map_, pts)
    (rkey,) = map_.regions
    keys = region(map_, rkey).keys
    marked = keys[rng.random(len(keys)) < 0.4]
    mark_ground_keys(map_, marked)
    expected = set(marked.tolist())
    remove(map_, rkey)
    survivors = set(map_.occupied_keys().tolist())
    assert survivors == expected


def test_empty_region_evicted_and_column_updated():
    map_ = make_map()
    hit_cubes(map_, (0, 0, 0))
    (rkey,) = map_.regions
    remove(map_, rkey)
    assert rkey not in map_.regions
    col = int(pack2(np.int64(0), np.int64(0)))
    assert len(map_.regions_in_columns(np.array([col]))[0]) == 0
    assert column_band(map_, col) is None


def test_lazy_column_rescan_after_removal():
    map_ = make_map()
    hit_cubes(map_, (0, 0, 1))       # z-center 0.15, ground
    hit_cubes(map_, (0, 0, 20))      # z-center 2.05, region (0,0,16)
    mark_ground_keys(map_, pack3(np.array([0]), np.array([0]), np.array([1])))
    col = int(pack2(np.int64(0), np.int64(0)))
    assert np.allclose(column_band(map_, col), (0.15, 2.05))
    upper_rkey = int(pack3(np.int64(0), np.int64(0), np.int64(16)))
    remove(map_, upper_rkey)
    assert np.allclose(column_band(map_, col), (0.15, 0.15))


def test_removed_cube_revives_as_fresh():
    map_ = make_map()
    for _ in range(3):
        hit_cubes(map_, (0, 1, 3))
    (rkey,) = map_.regions
    remove(map_, rkey)
    assert cube_state(map_, (0, 1, 3)) is None
    assert hit_cubes(map_, (0, 1, 3)) == 1
    assert cube_state(map_, (0, 1, 3)) is False
    assert len(map_) == 1


def test_mark_ground_keeps_the_ground_keys_sorted_and_distinct():
    map_ = make_map()
    idx = [(x, y, -1) for x in range(-3, 3) for y in (-1, 0)]
    hit_cubes(map_, idx)
    keys = table_keys(map_)
    # repeats within one call, and keys already ground in a later one
    map_.mark_ground(np.concatenate([keys[:4], keys[2::-1], keys[:1]]))
    assert ground_keys(map_).tolist() == sorted(set(keys[:4].tolist()))
    map_.mark_ground(keys[::-2].repeat(2))
    expect = sorted(set(keys[:4].tolist()) | set(keys[::-2].tolist()))
    assert ground_keys(map_).tolist() == expect
    map_.mark_ground(keys[:0])
    assert ground_keys(map_).tolist() == expect


def test_mark_ground_ignores_keys_of_cubes_not_in_the_map():
    # regions at x = 0 and 16: (8, 0, 0) lies in an absent region between
    # them, (99, 0, 0) past the last one, and (1, 0, 0) is a free cube of
    # a present region
    map_ = make_map()
    hit_cubes(map_, [(0, 0, 0), (16, 0, 0)])
    map_.mark_ground(pack3([8, 99, 1], [0, 0, 0], [0, 0, 0]))
    assert len(ground_keys(map_)) == 0
    assert cube_state(map_, (16, 0, 0)) is False
    assert map_.ground_columns(pack2([1, 8, 16], [0, 0, 0]))[1].tolist() == \
        [0, 0, 0]


def test_ground_mean_examples():
    # a column's ground mean is its z sum over its count, in cube indices
    map_ = make_map()
    hit_cubes(map_, [(0, 0, 1), (0, 0, 2), (5, 5, 0)])
    at = pack2([0, 5], [0, 5])
    mark_ground_keys(map_, pack3([0], [0], [1]))
    z_sum, count = map_.ground_columns(at[:1])
    assert (z_sum.tolist(), count.tolist()) == ([1], [1])
    mark_ground_keys(map_, pack3([0], [0], [2]))
    z_sum, count = map_.ground_columns(at)
    assert z_sum[0] / count[0] == 1.5
    # a column without ground cubes is not found
    assert count.tolist() == [2, 0] and z_sum[1] == 0


def test_ground_mean_matches_batch_average():
    # cubes marked one at a time give the batch mean of their z, exactly
    rng = np.random.default_rng(6)
    zs = rng.choice(np.arange(-500, 500), size=300, replace=False)
    map_ = make_map()
    hit_cubes(map_, [(2, 3, z) for z in zs])
    for z in zs:
        mark_ground_keys(map_, pack3([2], [3], [z]))
    z_sum, count = map_.ground_columns(pack2([2], [3]))
    assert (z_sum[0], count[0]) == (zs.sum(), len(zs))


def test_ground_columns_match_a_brute_force_oracle():
    # column (-1, -1) has the largest column key, 2**42 - 1, so the first
    # key of the column after it, (col + 1) << 21, would overflow int64;
    # (2, 3) and (2, 4) are adjacent in key order, with runs of several
    # cubes each; every ground column also holds a non-ground cube
    ground = [(-1, -1, z) for z in (-3, -1, 0, 2)]
    ground += [(2, 3, z) for z in (-2, 0, 1, 5)] + [(2, 4, z) for z in (7, 9)]
    ground += [(-5, -3, 4), (0, 0, 0), (-1, 0, -6), (6, -2, 1), (6, -2, 3)]
    rng = np.random.default_rng(8)
    ground += [tuple(c) for c in rng.integers(-20, 20, size=(300, 3))]
    ground = sorted(set(ground))
    others = [(x, y, z + 11) for x, y, z in ground]
    map_ = make_map()
    hit_cubes(map_, ground + others)
    mark_ground_keys(map_, pack3(*np.array(ground).T))

    oracle = {}
    for x, y, z in ground:
        z_sum, n = oracle.get((x, y), (0, 0))
        oracle[(x, y)] = (z_sum + z, n + 1)
    xy = np.array(list(oracle))
    near = np.concatenate([xy + d for d in ((0, 0), (0, 1), (1, 0), (-1, -1))])
    cols = np.unique(pack2(near[:, 0], near[:, 1]))
    assert cols[-1] == 2**42 - 1
    z_sum, count = map_.ground_columns(cols)
    xy = unpack3(cols << 21)[:, :2]
    expect = [oracle.get((int(x), int(y)), (0, 0)) for x, y in xy]
    assert z_sum.dtype == count.dtype == np.int64
    assert list(zip(z_sum.tolist(), count.tolist())) == expect
    assert count.sum() == len(ground) and (count == 0).any()

    # an empty table, and no columns asked
    z_sum, count = make_map().ground_columns(cols)
    assert not z_sum.any() and not count.any() and len(count) == len(cols)
    z_sum, count = map_.ground_columns(np.empty(0, dtype=np.int64))
    assert len(z_sum) == len(count) == 0


def group_sorted(keys):
    """Group keys by value through one argsort: ``(order, starts,
    inverse)``, with ``keys[order]`` sorted, the groups starting at
    ``starts`` in that order and ``inverse`` each key's group.  The
    ground election grouped its scan cubes' columns this way before it
    queried ``ground_columns`` with every cube's column as it comes."""
    order = np.argsort(keys)
    starts = run_starts(keys[order])
    head = np.zeros(len(keys), dtype=np.int64)
    head[starts] = 1
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    return order, starts, inverse


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 5), st.integers(-6, 5),
                          st.integers(-4, 4)), max_size=80, unique=True),
       st.lists(st.booleans(), min_size=80, max_size=80),
       st.lists(st.tuples(st.integers(-7, 6), st.integers(-7, 6)),
                max_size=120))
def test_ground_columns_of_unsorted_repeated_columns(cubes, is_ground, asked):
    # columns asked in any order and any number of times, negative ones
    # included, read what the sorted distinct columns read
    map_ = make_map()
    if cubes:
        hit_cubes(map_, cubes)
        ground = [c for c, g in zip(cubes, is_ground) if g]
        if ground:
            mark_ground_keys(map_, pack3(*np.array(ground).T))
    xy = np.array(asked, dtype=np.int64).reshape(-1, 2)
    cols = pack2(xy[:, 0], xy[:, 1])
    order, starts, inv = group_sorted(cols)
    z_sum, count = map_.ground_columns(cols[order[starts]])
    got_sum, got_count = map_.ground_columns(cols)
    assert np.array_equal(got_sum, z_sum[inv])
    assert np.array_equal(got_count, count[inv])


def test_export_empty_map():
    pts, ground = make_map().export_occupied_points()
    assert len(pts) == 0 and len(ground) == 0


def test_export_single_cube_center():
    map_ = make_map()
    integrate(map_, np.array([[0.05, 0.05, 0.05]]))
    pts, ground = map_.export_occupied_points()
    assert np.allclose(pts, [[0.05, 0.05, 0.05]])
    assert ground.tolist() == [False]


def test_export_count_matches_independent_tally():
    rng = np.random.default_rng(7)
    map_ = make_map()
    pts = rng.uniform(-3, 3, size=(5000, 3))
    integrate(map_, pts)
    expected = len(np.unique(np.floor(pts / 0.1).astype(np.int64), axis=0))
    out, _ = map_.export_occupied_points()
    assert len(out) == expected
    assert len(map_) == expected


def test_export_order_deterministic():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(500, 3))
    a = make_map()
    integrate(a, pts)
    b = make_map()
    integrate(b, pts[::-1])
    pa, _ = a.export_occupied_points()
    pb, _ = b.export_occupied_points()
    assert np.array_equal(pa, pb)


def test_bulk_lookup_after_many_inserts():
    rng = np.random.default_rng(9)
    map_ = make_map()
    idx = np.unique(rng.integers(-40, 40, size=(20_000, 3)), axis=0)
    keys = pack3(idx[:, 0], idx[:, 1], idx[:, 2])
    assert hit_cubes(map_, idx) == len(idx)
    assert has_cubes(map_, keys).all()
    assert np.array_equal(np.sort(table_keys(map_)), np.sort(keys))


def test_batched_removal_matches_brute_force():
    rng = np.random.default_rng(10)
    map_ = make_map()
    integrate(map_, rng.uniform(-1.6, 1.6, size=(4000, 3)))
    keys = table_keys(map_)
    ground = rng.random(len(keys)) < 0.3
    mark_ground_keys(map_, keys[ground])
    rmask = region_key_mask(3)
    flagged = map_.regions.tolist()[::3]
    doomed = np.isin(keys & rmask, flagged) & ~ground
    removed = map_.remove_regions_nonground(np.array(flagged + [123456]))
    assert removed == doomed.sum() > 0
    survivors = keys[~doomed]
    assert np.array_equal(map_.occupied_keys(), np.sort(survivors))
    # region statistics and column bands describe the surviving cubes
    kz = unpack3(survivors)[:, 2]
    zc = (kz + 0.5) * 0.1
    rkeys = survivors & rmask
    assert np.array_equal(map_.regions, np.unique(rkeys))
    assert region_stats(map_) == brute_region_stats(survivors, rmask)
    for k in np.unique(rkeys).tolist():
        z, r = zc[rkeys == k], region(map_, k)
        assert (r.z_min, r.z_max) == (z.min(), z.max())
    cols = rkeys >> 21
    for c in np.unique(cols).tolist():
        z = zc[cols == c]
        assert column_band(map_, c) == (z.min(), z.max())


def test_removal_at_top_of_key_space():
    # cube (-1, -1, -1) sits in the region and column with the largest
    # region-major keys; their spans end at the largest int64
    map_ = make_map()
    hit_cubes(map_, [(-1, -1, -1), (-1, -1, -3)])
    (rkey,) = map_.regions
    col = rkey >> 21
    assert column_band(map_, col) == (-0.25, -0.05)
    assert region(map_, rkey).occupied_count == 2
    assert remove(map_, rkey) == 2
    assert column_band(map_, col) is None
    assert len(map_) == 0


# ---------------------------------------------------------------------------
# The bitmap map against a plain-Python model: a set of occupied keys, a
# set of ground keys and a dict of fitted flags, after every step of a random
# interleaving of the map's four writers, at every supported region width.

def _py_key(x, y, z):
    m = (1 << 21) - 1
    return ((x & m) << 42) | ((y & m) << 21) | (z & m)


def _py_z(key):
    z = key & ((1 << 21) - 1)
    return z - (1 << 21) if z >= 1 << 20 else z


class SetModel:
    """The map as sets: occupied and ground keys, and whether a fit of
    each region has passed."""

    def __init__(self, mask_bits):
        m = (1 << mask_bits) - 1
        self.rmask = ~((m << 42) | (m << 21) | m)
        self.occ, self.ground, self.fit = set(), set(), {}

    def region_cubes(self):
        out = {}
        for k in self.occ:
            out.setdefault(k & self.rmask, []).append(k)
        return out

    def markable(self, key):
        """Whether marking the cube of ``key`` keeps every ground cube in
        a fitted region: its region is fitted, or absent (the key then
        marks nothing)."""
        return self.fit.get(key & self.rmask, True)

    def integrate(self, keys):
        new = set(keys) - self.occ
        for k in new:
            self.fit.setdefault(k & self.rmask, False)
        self.occ |= new
        return len(new)

    def remove(self, rkeys):
        gone = {k for k in self.occ
                if k & self.rmask in rkeys and k not in self.ground}
        self.occ -= gone
        for r in set(self.fit) - set(self.region_cubes()):
            del self.fit[r]
        return len(gone)

    def record(self, rkeys, ok):
        for r, good in zip(rkeys, ok):
            self.fit[r] = self.fit[r] or good


def _check_against(map_, model):
    cubes = model.region_cubes()
    rkeys = sorted(cubes)
    assert len(map_) == len(model.occ)
    assert map_.region_count == len(rkeys)
    assert map_.regions.tolist() == rkeys
    assert map_.occupied_keys().tolist() == sorted(model.occ)
    # region-major export order: by region, then by cube key
    order = sorted(model.occ, key=lambda k: (k & model.rmask, k))
    pts, flags = map_.export_occupied_points()
    assert cube_keys(pts, 0.1).tolist() == order
    assert flags.tolist() == [k in model.ground for k in order]
    assert unoccupied_ground(map_) == 0
    assert unfitted_ground(map_) == 0
    if rkeys:
        z_min, z_max = map_.region_bands(np.array(rkeys))
        for i, r in enumerate(rkeys):
            zs = [_py_z(k) for k in cubes[r]]
            assert (z_min[i], z_max[i]) == ((min(zs) + 0.5) * 0.1,
                                            (max(zs) + 0.5) * 0.1)
    got = map_.unfitted_region_cubes(np.array(rkeys, dtype=np.int64))
    want = [r for r in rkeys if not model.fit[r]]
    assert got.rkeys.tolist() == want
    assert got.count.tolist() == [len(cubes[r]) for r in want]
    assert got.z_sum.tolist() == [sum(map(_py_z, cubes[r])) for r in want]
    assert got.keys.tolist() == [k for r in want for k in sorted(cubes[r])]
    assert got.owner.tolist() == [i for i, r in enumerate(want)
                                  for _ in cubes[r]]


def _some(data, items):
    """A drawn subset of ``items``, in order."""
    keep = data.draw(st.lists(st.booleans(), min_size=len(items),
                              max_size=len(items)))
    return [k for k, kept in zip(items, keep) if kept]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]), st.data())
def test_bitmap_map_matches_a_set_model(mask_bits, data):
    # each step runs the four writers in a drawn order on drawn subsets;
    # ground is marked only in fitted regions, as r_gpe marks it
    map_ = RHMap(MapConfig(cube_size=0.1, mask_bits=mask_bits))
    model = SetModel(mask_bits)
    span = max(8, 2 << mask_bits)
    coord = st.integers(-span, span - 1)
    for _ in range(data.draw(st.integers(1, 5))):
        for op in data.draw(st.permutations(
                ["integrate", "ground", "remove", "fit"])):
            occ, regions = sorted(model.occ), sorted(model.region_cubes())
            if op == "integrate":
                idx = data.draw(st.lists(st.tuples(coord, coord, coord),
                                         max_size=40))
                # cubes seen before, removed ones included, come back too
                assert hit_cubes(map_, idx) == model.integrate(
                    [_py_key(*i) for i in idx])
            elif op == "ground":
                keys = _some(data, [k for k in occ if model.markable(k)])
                # stray keys, mostly of cubes not in the map, mark nothing
                stray = [k for k in (_py_key(*i) for i in data.draw(st.lists(
                    st.tuples(coord, coord, coord), max_size=3)))
                    if model.markable(k)]
                map_.mark_ground(np.array(keys + keys[:3] + stray,
                                          dtype=np.int64))
                model.ground |= set(keys) | (set(stray) & model.occ)
            elif op == "remove":
                flagged = _some(data, regions)
                absent = [r for r in (_py_key(a, a, a) & model.rmask for a in
                                      data.draw(st.lists(coord, max_size=2)))
                          if r not in regions]
                assert map_.remove_regions_nonground(
                    np.array(flagged + absent, dtype=np.int64)) == \
                    model.remove(set(flagged))
            else:
                rkeys = _some(data, regions)
                ok = data.draw(st.lists(st.booleans(), min_size=len(rkeys),
                                        max_size=len(rkeys)))
                map_.record_plane_fits(np.array(rkeys, dtype=np.int64),
                                       np.array(ok, dtype=bool))
                model.record(rkeys, ok)
            _check_against(map_, model)


def _peak_bytes(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_frame_copies_no_table_of_the_maps_cubes():
    # a 400 x 400 ground layer: 160,000 cubes in 2,500 regions of 64, half
    # of them ground.  A table with a row per cube, 8 B a cube, would be
    # copied by every insert and delete; a quarter of it is the budget of
    # a frame's two map writes, which touch only the scan's regions.
    map_ = make_map()
    xy = np.stack(np.meshgrid(np.arange(400), np.arange(400)), -1)
    idx = np.column_stack([xy.reshape(-1, 2), np.zeros(400 * 400, np.int64)])
    hit_cubes(map_, idx)
    map_.mark_ground(pack3(*idx[::2].T))
    budget = 8 * len(map_) // 4

    # new cubes one level up, in regions the map holds already: x < 100,
    # y < 50, so the first four regions each gain 64
    up = idx[(idx[:, 0] < 100) & (idx[:, 1] < 50)] + [0, 0, 1]
    scan = ScanCubes((up + 0.5) * 0.1, map_.config)
    added, peak = _peak_bytes(map_.integrate_points, scan)
    assert added == 5000 and map_.region_count == 2500
    assert peak < budget

    # the first regions keep their ground cubes, so none leaves the table;
    # the unguarded removal, since the test guard snapshots the map
    rkeys = map_.regions[:4]
    removed, peak = _peak_bytes(conftest._orig_remove, map_, rkeys)
    assert removed == 4 * (32 + 64) and map_.region_count == 2500
    assert peak < budget

    # a region left empty leaves the table: one copy of the region table,
    # 153 B a region at mask_bits 3
    hit_cubes(map_, [(0, 0, 20)])
    nbytes = map_.nbytes
    removed, peak = _peak_bytes(conftest._orig_remove, map_,
                                pack3([0], [0], [16]))
    assert removed == 1 and map_.region_count == 2500
    assert peak < 1.25 * nbytes
