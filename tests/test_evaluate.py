"""Preservation/rejection metrics, dynamic-cube counting and timing."""

from types import SimpleNamespace

import numpy as np
import pytest

from rhmap.config import MapConfig
from rhmap.evaluate import (count_dynamic_cubes, cube_keys, evaluate,
                            f1_score, timing_report)
from rhmap.map_core import RHMap


def test_f1_reference_row_and_extremes():
    assert abs(f1_score(0.946446, 0.98005) - 0.962955) < 5e-4
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0
    assert abs(f1_score(1.0, 0.5) - 2.0 / 3.0) < 1e-12


def _populated_map(pts):
    map_ = RHMap(MapConfig())
    map_.integrate_points(pts)
    return map_


def test_evaluate_matches_brute_force_tally():
    rng = np.random.default_rng(0)
    map_pts = rng.uniform(-3, 3, size=(2000, 3))
    map_ = _populated_map(map_pts)
    truth = rng.uniform(-4, 4, size=(3000, 3))
    dyn = rng.random(3000) < 0.3
    res = evaluate(map_, cube_keys(truth, 0.1), dyn)

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
    res = evaluate(map_, cube_keys(pts, 0.1), np.array([False, False]))
    assert res.pr == 1.0 and res.rr is None and res.f1 is None


def test_evaluate_empty_denominators_give_none():
    map_ = _populated_map(np.zeros((1, 3)))
    res = evaluate(map_, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    assert res.pr is None and res.rr is None and res.f1 is None
    assert res.n_sta == 0 and res.n_dyn == 0


def test_count_dynamic_cubes():
    map_ = _populated_map(np.array([[0.05, 0.05, 0.05],
                                    [1.05, 0.05, 0.05],
                                    [2.05, 0.05, 0.05]]))
    truth = cube_keys([[0.06, 0.04, 0.05],   # same cube as the first point
                       [0.01, 0.01, 0.01],   # also that cube
                       [1.01, 0.09, 0.02],
                       [9.0, 9.0, 9.0]], 0.1)  # dynamic but not in the map
    dyn = np.array([True, True, True, True])
    assert count_dynamic_cubes(map_, truth, dyn) == 2
    assert count_dynamic_cubes(map_, truth, ~dyn) == 0
    assert count_dynamic_cubes(map_, np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=bool)) == 0


def test_timing_report():
    assert timing_report([50.0]) == {"mean_ms": 50.0, "hz": 20.0}
    rep = timing_report([10.0, 30.0])
    assert rep["mean_ms"] == 20.0 and rep["hz"] == 50.0
    with pytest.raises(ValueError):
        timing_report([])


def test_eval_result_to_dict_round_trips_fields():
    map_ = _populated_map(np.array([[0.05, 0.05, 0.05]]))
    res = evaluate(map_, cube_keys(np.array([[0.05, 0.05, 0.05]]), 0.1),
                   np.array([False]))
    d = res.to_dict()
    assert d["PR"] == 1.0 and d["N_sta"] == 1 and d["N_TP"] == 0


def test_scoring_rejects_anything_but_1d_integer_keys():
    pts = np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]])
    map_ = _populated_map(pts)
    mask = np.array([False, True])
    for bad in (pts, cube_keys(pts, 0.1).astype(np.float64),
                cube_keys(pts, 0.1).reshape(2, 1)):
        with pytest.raises(ValueError, match="1-D integer"):
            evaluate(map_, bad, mask)
        with pytest.raises(ValueError, match="1-D integer"):
            count_dynamic_cubes(map_, bad, mask)
    with pytest.raises(ValueError, match="labels"):
        evaluate(map_, cube_keys(pts, 0.1), mask[:1])


def test_scoring_reads_only_occupied_keys():
    pts = np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]])
    keys = cube_keys(pts, 0.1)
    view = SimpleNamespace(occupied_keys=lambda: np.sort(keys[:1]))
    res = evaluate(view, keys, np.array([False, True]))
    assert (res.n_tn, res.n_tp) == (1, 0)
    assert count_dynamic_cubes(view, keys, np.array([True, True])) == 1

