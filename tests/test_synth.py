"""Synthetic scene generator: ray casting, labels and determinism."""

import json

import numpy as np
import pytest

from rhmap.synth import (MovingBox, SceneError, SceneSpec, beam_directions,
                         load_scene, scene_from_dict, synth_frames,
                         synth_scene)


def test_upward_fov_sees_nothing():
    spec = SceneSpec(fov_down_deg=1.0, fov_up_deg=5.0, frames=2)
    for scan, _, mask in synth_scene(spec):
        assert len(scan) == 0 and len(mask) == 0


def test_ground_ring_ranges_match_analytic_formula():
    spec = SceneSpec(sensor_start=(0.0, 0.0, 1.5), beam_rows=8,
                     beam_cols=90, fov_down_deg=-40.0, fov_up_deg=-5.0,
                     r_max=100.0)
    (scan, pose, mask) = synth_scene(spec)[0]
    assert not mask.any()
    dirs = beam_directions(spec)
    ranges = np.linalg.norm(scan.points, axis=1)
    # each return's range is sensor height over the sine of its depression
    elev = np.arcsin(np.clip(scan.points[:, 2] / ranges, -1, 1))
    assert np.allclose(ranges, 1.5 / np.sin(-elev), atol=1e-6)
    assert len(scan) == len(dirs)       # every downward beam hits ground


def test_points_are_sensor_frame_and_pose_holds_origin():
    spec = SceneSpec(sensor_start=(3.0, -2.0, 1.0),
                     sensor_velocity=(1.0, 0.0, 0.0), frames=3, dt=0.5)
    frames = synth_scene(spec)
    for f, (scan, pose, _) in enumerate(frames):
        assert np.allclose(pose.translation, [3.0 + 0.5 * f, -2.0, 1.0])
        # ground hits in world frame all land on z = 0
        world = (pose.rotation @ scan.points.T).T + pose.translation
        assert np.abs(world[:, 2]).max() < 1e-9


def test_static_box_hits_are_unlabeled():
    spec = SceneSpec(static_boxes=[((4.0, -1.0, 0.0), (5.0, 1.0, 2.0))])
    (scan, _, mask) = synth_scene(spec)[0]
    assert len(scan) > 0
    assert not mask.any()
    # some beams terminate on the front face at x = 4
    front = scan.points[np.abs(scan.points[:, 0] - 4.0) < 1e-9]
    assert len(front) > 0


def test_dynamic_labels_only_while_mover_active():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(6.0, -0.5, 0.0),
                      velocity=(0.0, 1.0, 0.0), t_start=0.5, t_end=1.0)
    spec = SceneSpec(moving_boxes=[mover], frames=16, dt=0.1)
    frames = synth_scene(spec)
    for f, (scan, _, mask) in enumerate(frames):
        t = f * 0.1
        if t < 0.5 or t > 1.0:
            assert not mask.any()
    active = [frames[i][2].any() for i in range(5, 11)]
    assert any(active)


def test_mover_position_uses_absolute_time():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(5.0, 0.0, 0.0),
                      velocity=(1.0, 0.0, 0.0))
    lo, hi = mover.corners(2.0)
    assert np.allclose(lo, [7.0, 0.0, 0.0])
    assert np.allclose(hi, [8.0, 1.0, 2.0])


def test_nearest_body_wins():
    spec = SceneSpec(static_boxes=[((4.0, -1.0, 0.0), (5.0, 1.0, 2.0)),
                                   ((8.0, -1.0, 0.0), (9.0, 1.0, 2.0))])
    (scan, _, _) = synth_scene(spec)[0]
    # along +x the nearer box occludes the farther one
    axis = scan.points[(np.abs(scan.points[:, 1]) < 0.05)
                       & (scan.points[:, 2] > 0.2)]
    assert len(axis) > 0
    assert axis[:, 0].max() < 8.0


def test_sensor_inside_box_raises():
    spec = SceneSpec(sensor_start=(0.0, 0.0, 1.0),
                     static_boxes=[((-1.0, -1.0, 0.0), (1.0, 1.0, 2.0))])
    with pytest.raises(SceneError):
        synth_scene(spec)


def test_generation_is_deterministic():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(6.0, -3.0, 0.0),
                      velocity=(0.0, 1.0, 0.0))
    spec = SceneSpec(moving_boxes=[mover],
                     static_boxes=[((4.0, 2.0, 0.0), (5.0, 3.0, 1.0))],
                     frames=5)
    a = synth_scene(spec)
    # the streamed frames are the listed ones, bit for bit
    b = synth_frames(spec)
    assert iter(b) is b
    b = list(b)
    assert len(a) == len(b) == 5
    for (sa, pa, ma), (sb, pb, mb) in zip(a, b):
        assert sa.points.tobytes() == sb.points.tobytes()
        assert sa.timestamp == sb.timestamp
        assert pa.rotation.tobytes() == pb.rotation.tobytes()
        assert pa.translation.tobytes() == pb.translation.tobytes()
        assert ma.tobytes() == mb.tobytes()


def test_scene_from_dict_and_load(tmp_path):
    data = {"frames": 4, "dt": 0.2, "sensor_start": [1.0, 0.0, 1.2],
            "moving_boxes": [{"size": [1.0, 1.0, 1.5],
                              "start": [5.0, 0.0, 0.0],
                              "velocity": [0.0, 1.0, 0.0],
                              "t_start": 0.1, "t_end": 0.4}]}
    spec = scene_from_dict(data)
    assert spec.frames == 4
    assert isinstance(spec.moving_boxes[0], MovingBox)
    assert spec.moving_boxes[0].t_end == 0.4
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(data))
    loaded = load_scene(p)
    assert loaded.frames == spec.frames
    assert loaded.moving_boxes[0].start == spec.moving_boxes[0].start


def test_beam_directions_are_unit_and_cover_grid():
    spec = SceneSpec(beam_rows=16, beam_cols=120)
    dirs = beam_directions(spec)
    assert dirs.shape == (16 * 120, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
