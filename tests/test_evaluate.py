"""Preservation/rejection metrics, dynamic-cube counting and the truth
histogram they read."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhmap import evaluate as evaluate_mod
from rhmap.config import MapConfig
from rhmap.evaluate import (FOLD_DIVISOR, TruthHistogram, count_dynamic_cubes,
                            cube_keys, evaluate, f1_score)
from rhmap.indexing import ScanCubes, from_region_major
from rhmap.map_core import RHMap

from conftest import (count_dynamic_cubes_points, evaluate_points, integrate,
                      region_major, truth_histogram)


def test_f1_reference_row_and_extremes():
    assert abs(f1_score(0.946446, 0.98005) - 0.962955) < 5e-4
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0
    assert abs(f1_score(1.0, 0.5) - 2.0 / 3.0) < 1e-12


def _populated_map(pts):
    map_ = RHMap(MapConfig())
    integrate(map_, pts)
    return map_


def test_evaluate_matches_brute_force_tally():
    rng = np.random.default_rng(0)
    map_pts = rng.uniform(-3, 3, size=(2000, 3))
    map_ = _populated_map(map_pts)
    truth = rng.uniform(-4, 4, size=(3000, 3))
    dyn = rng.random(3000) < 0.3
    res = evaluate(map_, *truth_histogram(cube_keys(truth, 0.1), dyn))

    occupied = set(map(tuple, np.floor(map_pts / 0.1).astype(np.int64)))
    hit = np.array([tuple(i) in occupied
                    for i in np.floor(truth / 0.1).astype(np.int64)])
    n_sta, n_dyn = int((~dyn).sum()), int(dyn.sum())
    assert res.n_sta == n_sta and res.n_dyn == n_dyn
    assert res.n_tn == int(hit[~dyn].sum())
    assert res.n_tp == int(hit[dyn].sum())
    assert res.pr == pytest.approx(res.n_tn / n_sta)
    assert res.rr == pytest.approx(1.0 - res.n_tp / n_dyn)
    assert res.f1 == pytest.approx(f1_score(res.pr, res.rr))


def test_evaluate_perfect_map():
    pts = np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]])
    map_ = _populated_map(pts)
    res = evaluate(map_, *truth_histogram(cube_keys(pts, 0.1),
                                          np.array([False, False])))
    assert res.pr == 1.0 and res.rr is None and res.f1 is None


def test_evaluate_empty_denominators_give_none():
    map_ = _populated_map(np.zeros((1, 3)))
    res = evaluate(map_, *truth_histogram(np.zeros(0, dtype=np.int64),
                                          np.zeros(0, dtype=bool)))
    assert res.pr is None and res.rr is None and res.f1 is None
    assert res.n_sta == 0 and res.n_dyn == 0


def test_int32_counts_score_as_their_int64_widening():
    # int32 counts as a finished histogram hands them over: no count passes
    # COUNT_MAX, but every column sum does, hit cubes' sums too
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(200, 3))
    map_ = _populated_map(pts[:100])
    keys = np.unique(cube_keys(pts, 0.1))
    counts = rng.integers(2**29, 2**31, size=(len(keys), 2)).astype(np.int32)
    wide = evaluate(map_, keys, counts.astype(np.int64))
    assert min(wide.n_tn, wide.n_tp, wide.n_sta - wide.n_tn,
               wide.n_dyn - wide.n_tp) > evaluate_mod.COUNT_MAX
    assert evaluate(map_, keys, counts) == wide
    assert (count_dynamic_cubes(map_, keys, counts)
            == count_dynamic_cubes(map_, keys, counts.astype(np.int64)))


def test_count_dynamic_cubes():
    map_ = _populated_map(np.array([[0.05, 0.05, 0.05],
                                    [1.05, 0.05, 0.05],
                                    [2.05, 0.05, 0.05]]))
    truth = cube_keys([[0.06, 0.04, 0.05],   # same cube as the first point
                       [0.01, 0.01, 0.01],   # also that cube
                       [1.01, 0.09, 0.02],
                       [9.0, 9.0, 9.0]], 0.1)  # dynamic but not in the map
    dyn = np.array([True, True, True, True])
    assert count_dynamic_cubes(map_, *truth_histogram(truth, dyn)) == 2
    assert count_dynamic_cubes(map_, *truth_histogram(truth, ~dyn)) == 0
    assert count_dynamic_cubes(map_, *truth_histogram(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))) == 0


def test_eval_result_to_dict_round_trips_fields():
    map_ = _populated_map(np.array([[0.05, 0.05, 0.05]]))
    res = evaluate(map_, *truth_histogram(
        cube_keys(np.array([[0.05, 0.05, 0.05]]), 0.1), np.array([False])))
    d = res.to_dict()
    assert d["PR"] == 1.0 and d["N_sta"] == 1 and d["N_TP"] == 0


def test_scoring_rejects_anything_but_1d_integer_keys():
    pts = np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]])
    map_ = _populated_map(pts)
    mask = np.array([False, True])
    counts = np.array([[1, 0], [0, 1]])
    for bad in (pts, cube_keys(pts, 0.1).astype(np.float64),
                cube_keys(pts, 0.1).reshape(2, 1)):
        with pytest.raises(ValueError, match="1-D integer"):
            evaluate(map_, bad, counts)
        with pytest.raises(ValueError, match="1-D integer"):
            count_dynamic_cubes(map_, bad, counts)
    cubes = ScanCubes(pts, MapConfig())
    for short in (mask[:1], np.ones(3, dtype=bool)):
        with pytest.raises(ValueError, match="2 truth points but .* labels"):
            TruthHistogram(3).add(cubes.cube_rm, cubes.point_cube, short)
    keys = cube_keys(pts, 0.1)
    for bad in (counts[:1], counts.T[:, :1], counts.ravel(), mask,
                counts.astype(np.float64)):
        with pytest.raises(ValueError, match=r"\(2, 2\) integer counts"):
            evaluate(map_, keys, bad)
        with pytest.raises(ValueError, match=r"\(2, 2\) integer counts"):
            count_dynamic_cubes(map_, keys, bad)
    for fn in (evaluate, count_dynamic_cubes):
        with pytest.raises(ValueError, match="negative"):
            fn(map_, keys, np.array([[1, 0], [2, -1]]))


def test_scoring_reads_only_occupied_keys():
    pts = np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]])
    keys = cube_keys(pts, 0.1)
    view = SimpleNamespace(occupied_keys=lambda: np.sort(keys[:1]))
    res = evaluate(view, *truth_histogram(keys, np.array([False, True])))
    assert (res.n_tn, res.n_tp) == (1, 0)
    assert count_dynamic_cubes(
        view, *truth_histogram(keys, np.array([True, True]))) == 1



def _cloud(rng, n):
    """Random points around the origin, negative coordinates included, with
    repeated cubes, and random dynamic labels."""
    pts = rng.uniform(-2.0, 2.0, size=(n, 3))
    pts[: n // 2] = pts[rng.integers(0, max(n // 2, 1), n // 2)]
    return pts, rng.random(n) < 0.3


@given(st.integers(0, 2**32 - 1), st.integers(0, 3000),
       st.integers(0, 3000), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_histogram_scores_equal_the_point_by_point_oracle(seed, n_map, n,
                                                          bits, n_frames):
    # the cloud is added a frame at a time, each frame grouped by cube as
    # the pipeline groups it; its histogram is the argsort oracle's
    rng = np.random.default_rng(seed)
    map_ = _populated_map(rng.uniform(-2.0, 2.0, size=(n_map, 3)))
    pts, dyn = _cloud(rng, n)
    keys = cube_keys(pts, 0.1)
    truth = TruthHistogram(bits)
    for part in np.array_split(np.arange(n), n_frames):
        cubes = ScanCubes(pts[part], MapConfig(mask_bits=bits))
        truth.add(cubes.cube_rm, cubes.point_cube, dyn[part])
    hkeys, counts = truth.finish()
    assert np.all(np.diff(region_major(hkeys, bits)) > 0)
    # far fewer points than COUNT_MAX: the counts are handed over as int32
    assert counts.dtype == np.int32 and counts.shape == (len(hkeys), 2)
    want_keys, want_counts = truth_histogram(keys, dyn)
    order = np.argsort(hkeys)
    assert np.array_equal(hkeys[order], want_keys)
    assert np.array_equal(counts[order], want_counts)
    assert evaluate(map_, hkeys, counts) == evaluate_points(map_, keys, dyn)
    assert (count_dynamic_cubes(map_, hkeys, counts)
            == count_dynamic_cubes_points(map_, keys, dyn))


def _fold_oracle(parts):
    """(key, static, dynamic) rows of the parts summed per key with
    ``np.unique``."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64)
    keys = np.concatenate([k for k, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    uniq, inv = np.unique(keys, return_inverse=True)
    summed = np.zeros((len(uniq), 2), dtype=np.int64)
    np.add.at(summed, inv, counts)
    return uniq, summed


_EDGE_KEYS = st.one_of(st.integers(0, 40), st.integers(2**62 - 40, 2**62),
                       st.integers(0, 2**62))


@given(st.lists(st.lists(st.tuples(_EDGE_KEYS, st.integers(0, 5),
                                   st.integers(0, 5)), max_size=30),
                max_size=25),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_folded_parts_equal_a_unique_oracle(raw_parts, seed):
    rng = np.random.default_rng(seed)
    parts, seen = [], set()
    for rows in raw_parts:
        # each part holds distinct keys; a frame often repeats keys of
        # earlier frames, so some parts reuse earlier keys wholesale
        if seen and rng.random() < 0.5:
            pool = np.array(sorted(seen), dtype=np.int64)
            rows = rows + [(int(k), 1, 0) for k in
                           rng.choice(pool, min(len(pool), 20), replace=False)]
        by_key = {k: (s, d) for k, s, d in rows}
        keys = np.array(sorted(by_key), dtype=np.int64)
        counts = np.array([by_key[k] for k in keys.tolist()],
                          dtype=np.int64).reshape(-1, 2)
        parts.append((keys, counts))
        seen.update(by_key)
    # each part is added as a frame's grouping: its keys taken as sorted
    # region-major cube keys, and its points' cube ids and labels in a
    # random order
    truth, added = TruthHistogram(3), set()
    for keys, counts in parts:
        point_cube = np.repeat(np.arange(len(keys)), counts.sum(axis=1))
        mask = np.concatenate([np.arange(s + d) >= s
                               for s, d in counts.tolist()] + [[]])
        shuffle = rng.permutation(len(point_cube))
        truth.add(keys, point_cube[shuffle], mask[shuffle])
        added.update(keys.tolist())
        # no more pending rows than a quarter of the table, which holds
        # each key once
        assert truth.rows * FOLD_DIVISOR <= (FOLD_DIVISOR + 1) * len(added)
    # far fewer points than COUNT_MAX: the counts stay int32, and are
    # handed over as int32
    assert all(row.dtype == np.int32 for row in truth._counts)
    keys, counts = truth.finish()
    want_keys, want_counts = _fold_oracle(parts)
    assert keys.dtype == np.int64 and counts.dtype == np.int32
    # finishing converts the region-major keys to packed keys in place
    assert np.array_equal(keys, from_region_major(want_keys, 3))
    assert np.array_equal(counts, want_counts)
    # finishing hands the table over and empties the accumulator
    assert truth.rows == 0
    assert len(truth.finish()[0]) == 0


def _drive_parts(seed, frames, cubes, window, step):
    """Frame parts of a drive: each frame sees ``cubes`` of the ``window``
    cubes ahead of it, the window moving ``step`` keys a frame, so most of
    a frame's cubes were seen before, and one to three points in each."""
    rng = np.random.default_rng(seed)
    parts = []
    for f in range(frames):
        cube_rm = np.sort(rng.choice(window, cubes, replace=False)) + f * step
        point_cube = np.repeat(np.arange(cubes), rng.integers(1, 4, cubes))
        parts.append((cube_rm.astype(np.int64), point_cube,
                      rng.random(len(point_cube)) < 0.2))
    return parts


def test_counts_widen_to_int64_past_the_int32_bound(monkeypatch):
    # the bound is lowered so that a few frames cross it; a cube's count
    # never exceeds the points added, so the int32 counts cannot wrap
    # before the add that passes the bound widens them
    bound = 3000
    monkeypatch.setattr(evaluate_mod, "COUNT_MAX", bound)
    # cube 0 is in every frame, with 100 points, so its count passes the
    # bound too
    parts = [(np.r_[0, cube_rm + 1], np.r_[np.zeros(100, int), point_cube + 1],
              np.r_[np.arange(100) < 10, mask])
             for cube_rm, point_cube, mask in
             _drive_parts(1, frames=40, cubes=200, window=600, step=30)]
    truth, n_points, pending_at_widening = TruthHistogram(3), 0, None
    for cube_rm, point_cube, mask in parts:
        if n_points <= bound < n_points + len(point_cube):
            pending_at_widening = truth._n_pending
        truth.add(cube_rm, point_cube, mask)
        n_points += len(point_cube)
        want = np.int64 if n_points > bound else np.int32
        assert all(row.dtype == want for row in truth._counts)
        assert all(part.dtype == want
                   for col in truth._pending[1:] for part in col)
    # the widening add found pending parts to widen as well as the table
    assert pending_at_widening > 0
    assert n_points > 4 * bound
    keys, counts = truth.finish()
    want_keys, want_counts = truth_histogram(
        np.concatenate([c[p] for c, p, _ in parts]),
        np.concatenate([m for _, _, m in parts]))
    assert counts.dtype == np.int64
    assert counts[0, 0] > bound
    assert np.array_equal(keys, from_region_major(want_keys, 3))
    assert np.array_equal(counts, want_counts)


def test_truth_histogram_peak_memory_per_cube():
    # numpy reports its buffers to tracemalloc; the parts are made before
    # tracing starts, so the traced peak is the histogram's own
    parts = _drive_parts(2, frames=300, cubes=1500, window=4000, step=400)
    truth = TruthHistogram(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for part in parts:
            truth.add(*part)
        keys, _ = truth.finish()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 16 B a cube is the table; a fold holds it, at most a quarter as many
    # pending rows at 16 B each, the grown key column and its own index
    # temporaries, and finishing holds the table and the counts' copy.
    # Measured 29.6 B a cube (42.0 with folds at the table's size, int64
    # counts handed over and 64k keys converted at a time)
    assert peak < 32 * len(keys)


def test_folds_start_at_a_quarter_of_the_table(monkeypatch):
    # on a drive of recurring cubes a fold starts with no more pending rows
    # than a quarter of the table plus the new rows of the part that
    # triggered it, and never before a quarter
    starts = []
    fold = TruthHistogram._fold

    def recording(self):
        starts.append((len(self._keys), self._n_pending,
                       len(self._pending[0][-1])))
        fold(self)

    monkeypatch.setattr(TruthHistogram, "_fold", recording)
    truth = TruthHistogram(3)
    for part in _drive_parts(3, frames=200, cubes=1500, window=4000,
                             step=100):
        truth.add(*part)
    assert len(starts) > 10 and starts[-1][0] > 15_000
    for table, pending, trigger in starts:
        assert table <= pending * FOLD_DIVISOR
        assert (pending - trigger) * FOLD_DIVISOR <= table
