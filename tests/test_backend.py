"""Keyframe selection, the bounded queue and deferred removal passes."""

import numpy as np
import pytest

from rhmap.backend import (Keyframe, KeyframeQueue, backend_step,
                           information_content, keyframe_select)
from rhmap.config import BackendConfig, FrontendConfig, MapConfig
from rhmap.geometry import Pose, Scan, transform_scan
from rhmap.map_core import RHMap
from rhmap.range_image import RangeImage, build_range_image

from conftest import cube_state, hit_cubes

BCFG = BackendConfig()
FOV = (-np.pi / 4, np.pi / 6)


def _image(ranges):
    ranges = np.asarray(ranges, dtype=np.float64)
    filled = ranges > 0
    pid = np.where(filled, np.arange(ranges.size).reshape(ranges.shape),
                   -1).astype(np.int32)
    return RangeImage(ranges, np.zeros_like(ranges), pid, FOV, 0,
                      filled.ravel())


def _frame(x=0.0, t=0.0, info=50.0):
    return Keyframe(Scan(points=np.zeros((1, 3))),
                    Pose(np.eye(3), np.array([x, 0.0, 0.0])), t, info)


def test_information_content_extremes_and_half():
    full = _image(np.full((4, 10), 25.0))
    assert information_content(full, 25.0) == pytest.approx(100.0)
    empty = _image(np.zeros((4, 10)))
    assert information_content(empty, 25.0) == 0.0
    half = _image(np.full((4, 10), 12.5))
    assert information_content(half, 25.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        information_content(full, 0.0)


def test_information_content_uses_per_column_max():
    ranges = np.zeros((3, 4))
    ranges[0] = 5.0
    ranges[2] = 20.0     # the farthest return of each column counts
    img = _image(ranges)
    assert information_content(img, 20.0) == pytest.approx(100.0)


def test_keyframe_select_thresholds():
    assert keyframe_select([], _frame(), BCFG) is True
    hist = [_frame(x=0.0, t=0.0, info=50.0)]
    near = _frame(x=1.0, t=1.0, info=52.0)
    assert keyframe_select(hist, near, BCFG) is False
    assert keyframe_select(hist, _frame(x=5.0, t=1.0, info=50.0), BCFG)
    assert keyframe_select(hist, _frame(x=1.0, t=10.0, info=50.0), BCFG)
    assert keyframe_select(hist, _frame(x=1.0, t=1.0, info=61.0), BCFG)
    assert keyframe_select(hist, _frame(x=1.0, t=1.0, info=39.0), BCFG)


def test_queue_bounded_fifo_with_eviction_count():
    q = KeyframeQueue(capacity=3)
    frames = [_frame(x=float(i)) for i in range(5)]
    for f in frames:
        q.push(f)
    assert len(q) == 3
    assert q.evicted == 2
    assert [f.pose.translation[0] for f in q.frames] == [2.0, 3.0, 4.0]


def _ground_scan(sensor_z=1.0, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.04, 1.0, size=n)) * 6.0
    a = rng.uniform(0, 2 * np.pi, size=n)
    return Scan(points=np.column_stack([r * np.cos(a), r * np.sin(a),
                                        np.full(n, -sensor_z)]))


FCFG = FrontendConfig(image_rows=32, image_cols=180, fov_down_deg=-45.0,
                      fov_up_deg=10.0, r_max=10.0)


def _grounded_map(scan, pose):
    from rhmap.ground import r_gpe
    map_ = RHMap(MapConfig())
    pw = transform_scan(scan, pose)
    map_.integrate_points(pw)
    r_gpe(map_, pw, FCFG)
    return map_


def test_backend_step_skips_nearby_keyframes():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    q = KeyframeQueue(10)
    q.push(Keyframe(scan, pose, 0.0, 50.0))
    reports = backend_step(map_, q, pose, BCFG, FCFG)
    assert reports == []
    assert len(q) == 1          # nearby frames stay queued


def test_backend_step_removes_residue_and_pops_frame():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    trail = [(20, 10, z) for z in range(2, 15)]
    hit_cubes(map_, trail)
    q = KeyframeQueue(10)
    q.push(Keyframe(scan, pose, 0.0, 50.0))
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    reports = backend_step(map_, q, far_pose, BCFG, FCFG)
    assert len(reports) == 1
    assert reports[0].cubes_removed >= len(trail)
    for idx in trail:
        assert cube_state(map_, idx) is None
    assert len(q) == 0          # replayed frames are popped


def test_backend_step_idempotent_after_cleanup():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    hit_cubes(map_, [(20, 10, z) for z in range(2, 15)])
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    q = KeyframeQueue(10)
    q.push(Keyframe(scan, pose, 0.0, 50.0))
    backend_step(map_, q, far_pose, BCFG, FCFG)
    q.push(Keyframe(scan, pose, 1.0, 50.0))
    reports = backend_step(map_, q, far_pose, BCFG, FCFG)
    assert reports[0].cubes_removed == 0


def test_backend_step_honors_max_per_step():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    q = KeyframeQueue(10)
    for t in range(4):
        q.push(Keyframe(scan, pose, float(t), 50.0))
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    cfg = BackendConfig(max_per_step=2)
    reports = backend_step(map_, q, far_pose, cfg, FCFG)
    assert len(reports) == 2
    assert len(q) == 2
    reports = backend_step(map_, q, far_pose, cfg, FCFG)
    assert len(reports) == 2 and len(q) == 0


def test_backend_step_never_adds_cubes():
    scan = _ground_scan(seed=3)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    hit_cubes(map_, [(-15, 25, z) for z in range(2, 10)])
    before = int(map_.occupied_mask().sum())
    q = KeyframeQueue(10)
    q.push(Keyframe(scan, pose, 0.0, 50.0))
    far_pose = Pose(np.eye(3), np.array([0.0, 40.0, 1.0]))
    backend_step(map_, q, far_pose, BCFG, FCFG)
    assert int(map_.occupied_mask().sum()) <= before


def test_information_content_of_projected_scan_in_unit_range():
    scan = _ground_scan()
    img = build_range_image(scan.points, FCFG.image_rows, FCFG.image_cols,
                            FCFG.fov)
    v = information_content(img, FCFG.r_max)
    assert 0.0 < v < 100.0
