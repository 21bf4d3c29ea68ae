"""Occupancy integration, region statistics, column tables, removal."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhmap.config import MapConfig
from rhmap.evaluate import cube_keys
from rhmap.indexing import (ScanCubes, pack2, pack3, region_key_mask,
                            run_starts, unpack3)
from rhmap.map_core import RHMap

from conftest import (cube_state, hit_cubes, integrate, lookup_pos,
                      mark_ground_keys, region, table_keys)


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
    hold no fit outcome, so that every region wants a fit."""
    cubes, stale = map_.unfitted_region_cubes(map_.regions)
    assert stale == 0 and np.array_equal(cubes.rkeys, map_.regions)
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
        assert map_._gkeys.tolist() == sorted(ground)
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
    assert col not in map_.occupied_columns()
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
    assert map_._gkeys.tolist() == sorted(set(keys[:4].tolist()))
    map_.mark_ground(keys[::-2].repeat(2))
    expect = sorted(set(keys[:4].tolist()) | set(keys[::-2].tolist()))
    assert map_._gkeys.tolist() == expect
    map_.mark_ground(keys[:0])
    assert map_._gkeys.tolist() == expect


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
    pos, present = lookup_pos(map_, keys)
    assert present.all()
    assert (table_keys(map_)[pos] == keys).all()


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


def test_failed_fit_count_follows_the_cube_run_through_removal():
    # a fit failed at 6 cubes; removal leaves the region 2 ground cubes, so
    # it wants a fit again at 2; integrated back to exactly 6 cubes, with
    # no fit in between, it is stale again, and at 7 it wants one
    map_ = make_map()
    idx = np.array([(0, 0, z) for z in range(6)] + [(1, 0, 0)])
    keys = pack3(*idx.T)
    hit_cubes(map_, idx[:6])
    (rkey,) = map_.regions
    map_.record_plane_fits(map_.regions, np.array([False]))
    assert region(map_, rkey).fit_failed_at == 6
    cubes, stale = map_.unfitted_region_cubes(rkey)
    assert len(cubes.rkeys) == 0 and stale == 1

    mark_ground_keys(map_, keys[[0, 3]])
    assert remove(map_, rkey) == 4
    cubes, stale = map_.unfitted_region_cubes(rkey)
    assert stale == 0 and cubes.rkeys.tolist() == [rkey]
    assert (cubes.count.tolist(), cubes.z_sum.tolist()) == ([2], [0 + 3])
    assert sorted(cubes.keys.tolist()) == sorted(keys[[0, 3]].tolist())
    assert region(map_, rkey).fit_failed_at == 6

    assert hit_cubes(map_, idx[[1, 2, 4, 5]]) == 4
    cubes, stale = map_.unfitted_region_cubes(rkey)
    assert len(cubes.rkeys) == 0 and stale == 1
    assert hit_cubes(map_, idx[6]) == 1
    cubes, stale = map_.unfitted_region_cubes(rkey)
    assert stale == 0 and cubes.count.tolist() == [7]
    assert cubes.z_sum.tolist() == [sum(range(6))]


def test_table_row_inserts_and_deletes_match_numpy():
    # one destination index or keep mask serves every array of a table;
    # ``_rows3``, an array of (n, 3) rows set on the map for this test
    # only, checks that rows of any shape move together
    rng = np.random.default_rng(5)
    map_ = make_map()
    for n, k in [(0, 3), (50, 1), (50, 20), (1000, 37)]:
        keys = np.sort(rng.integers(0, 10**6, n))
        rows3 = rng.normal(size=(n, 3))
        map_._rkeys, map_._rows3 = keys, rows3
        pos = np.sort(rng.integers(0, n + 1, k))
        vals = (rng.integers(0, 10**6, k), rng.normal(size=(k, 3)))
        map_._insert_rows(("_rkeys", "_rows3"), pos, vals)
        assert np.array_equal(map_._rkeys, np.insert(keys, pos, vals[0]))
        assert np.array_equal(map_._rows3,
                              np.insert(rows3, pos, vals[1], axis=0))
        gone = rng.choice(n + k, k, replace=False)
        before = map_._rkeys, map_._rows3
        map_._delete_rows(("_rkeys", "_rows3"), gone)
        assert np.array_equal(map_._rkeys, np.delete(before[0], gone))
        assert np.array_equal(map_._rows3,
                              np.delete(before[1], gone, axis=0))
