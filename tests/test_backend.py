"""Keyframe selection, the bounded queue and deferred removal passes."""

import numpy as np
import pytest

from rhmap.backend import (Keyframe, KeyframeQueue, backend_step,
                           information_content, keyframe_select)
from rhmap.config import BackendConfig, FrontendConfig, MapConfig
from rhmap.geometry import Pose, Scan, transform_scan
from rhmap.ground import r_gpe
from rhmap.indexing import ScanCubes, pack3
from rhmap.io_formats import write_map_ply
from rhmap.map_core import RHMap
from rhmap.range_image import RangeImage, build_range_image
from rhmap.removal import scan_contexts, sensor_bounds, s2m_removal

from conftest import cube_state, frame_contexts, hit_cubes

BCFG = BackendConfig()


def _image(ranges):
    ranges = np.asarray(ranges, dtype=np.float64)
    filled = ranges > 0
    pid = np.where(filled, np.arange(ranges.size).reshape(ranges.shape),
                   -1).astype(np.int32)
    return RangeImage(ranges, pid, 0, filled.ravel())


def _frame(x=0.0, t=0.0, info=50.0):
    pose = Pose(np.eye(3), np.array([x, 0.0, 0.0]))
    return Keyframe(frame_contexts(Scan(points=np.zeros((1, 3))), pose,
                                   FrontendConfig(), MapConfig()),
                    pose, t, info)


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
    assert keyframe_select(None, _frame(), BCFG) is True
    last = _frame(x=0.0, t=0.0, info=50.0)
    near = _frame(x=1.0, t=1.0, info=52.0)
    assert keyframe_select(last, near, BCFG) is False
    assert keyframe_select(last, _frame(x=5.0, t=1.0, info=50.0), BCFG)
    assert keyframe_select(last, _frame(x=1.0, t=10.0, info=50.0), BCFG)
    assert keyframe_select(last, _frame(x=1.0, t=1.0, info=61.0), BCFG)
    assert keyframe_select(last, _frame(x=1.0, t=1.0, info=39.0), BCFG)


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
    map_ = RHMap(MapConfig())
    cubes = ScanCubes(transform_scan(scan, pose), map_.config)
    map_.integrate_points(cubes)
    r_gpe(map_, cubes, FCFG)
    return map_


def _keyframe(scan, pose, t):
    return Keyframe(frame_contexts(scan, pose, FCFG, MapConfig()), pose, t,
                    50.0)


def test_backend_step_skips_nearby_keyframes():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    q = KeyframeQueue(10)
    q.push(_keyframe(scan, pose, 0.0))
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
    q.push(_keyframe(scan, pose, 0.0))
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    reports = backend_step(map_, q, far_pose, BCFG, FCFG)
    assert len(reports) == 1
    assert reports[0].cubes_removed >= len(trail)
    for idx in trail:
        assert cube_state(map_, idx) is None
    assert len(q) == 0          # replayed frames are popped


def test_backend_step_pops_a_replayed_frame_behind_a_queued_one():
    # the sensor came back near the older keyframe: the newer, far one is
    # replayed and popped from behind it, and the older one stays queued
    scan = _ground_scan()
    near = _keyframe(scan, Pose(np.eye(3), np.array([0.0, 0.0, 1.0])), 0.0)
    far = _keyframe(scan, Pose(np.eye(3), np.array([100.0, 0.0, 1.0])), 1.0)
    q = KeyframeQueue(10)
    q.push(near)
    q.push(far)
    here = Pose(np.eye(3), np.array([5.0, 0.0, 1.0]))
    reports = backend_step(RHMap(MapConfig()), q, here,
                           BackendConfig(dist_away=20.0), FCFG)
    assert len(reports) == 1
    assert list(q.frames) == [near] and q.frames[0] is near


def test_backend_step_idempotent_after_cleanup():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    hit_cubes(map_, [(20, 10, z) for z in range(2, 15)])
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    q = KeyframeQueue(10)
    q.push(_keyframe(scan, pose, 0.0))
    backend_step(map_, q, far_pose, BCFG, FCFG)
    q.push(_keyframe(scan, pose, 1.0))
    reports = backend_step(map_, q, far_pose, BCFG, FCFG)
    assert reports[0].cubes_removed == 0


def test_backend_step_honors_max_per_step():
    scan = _ground_scan()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    map_ = _grounded_map(scan, pose)
    q = KeyframeQueue(10)
    for t in range(4):
        q.push(_keyframe(scan, pose, float(t)))
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
    before = len(map_)
    q = KeyframeQueue(10)
    q.push(_keyframe(scan, pose, 0.0))
    far_pose = Pose(np.eye(3), np.array([0.0, 40.0, 1.0]))
    backend_step(map_, q, far_pose, BCFG, FCFG)
    assert len(map_) <= before


def test_information_content_of_projected_scan_in_unit_range():
    scan = _ground_scan()
    img = build_range_image(scan.points, FCFG.image_rows, FCFG.image_cols,
                            FCFG.fov)
    v = information_content(img, FCFG.r_max)
    assert 0.0 < v < 100.0


def test_stored_contexts_do_not_alias_the_frame_or_the_map(tmp_path):
    # A keyframe's contexts outlive its frame: its grouping and range image
    # may be overwritten, and the map gains and loses cubes before the
    # replay.  The replay must match one of contexts rebuilt from the scan.
    scan = _ground_scan(seed=4)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    later = _ground_scan(seed=5)
    later_pose = Pose(np.eye(3), np.array([-20.0, 0.0, 1.0]))
    far_pose = Pose(np.eye(3), np.array([30.0, 0.0, 1.0]))
    outputs = []
    for stored in (True, False):
        map_ = RHMap(MapConfig())
        cubes = ScanCubes(transform_scan(scan, pose), map_.config)
        map_.integrate_points(cubes)
        r_gpe(map_, cubes, FCFG)
        image = build_range_image(scan.points, FCFG.image_rows,
                                  FCFG.image_cols, FCFG.fov)
        bounds = sensor_bounds(image, FCFG)
        frame = Keyframe(scan_contexts(bounds, cubes), pose, 0.0,
                         information_content(image, FCFG.r_max))
        for arr in [*vars(cubes).values(), *vars(image).values(),
                    *vars(bounds).values()]:
            if isinstance(arr, np.ndarray):
                # a grouping is read-only; its arrays own their memory, or
                # view a fresh transform, so they may be made writeable
                arr.flags.writeable = True
                arr.fill(0)
        # later frames integrate and remove cubes
        trail = [(20, 10, z) for z in range(2, 15)]
        hit_cubes(map_, trail + [(-15, 25, z) for z in range(2, 10)])
        assert map_.remove_regions_nonground(
            pack3(np.int64(-16), np.int64(24), np.int64(0))) > 0
        map_.integrate_points(ScanCubes(transform_scan(later, later_pose),
                                        map_.config))
        s2m_removal(map_, frame_contexts(later, later_pose, FCFG, MapConfig()),
                    FCFG)
        if not stored:
            frame.contexts = frame_contexts(scan, pose, FCFG, MapConfig())
        q = KeyframeQueue(10)
        q.push(frame)
        reports = backend_step(map_, q, far_pose, BCFG, FCFG)
        path = tmp_path / f"{stored}.ply"
        write_map_ply(map_, path)
        outputs.append((reports, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0].cubes_removed >= len(trail)
