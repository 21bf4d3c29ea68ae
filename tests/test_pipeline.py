"""End-to-end pipeline orchestration over synthetic frame sequences."""

import gc
import weakref

import numpy as np

from rhmap.config import PipelineConfig
from rhmap.evaluate import count_dynamic_cubes, cube_keys, evaluate
from rhmap.geometry import Scan
from rhmap.pipeline import run_pipeline
from rhmap.synth import MovingBox, SceneSpec, synth_scene


def _small_scene(frames=60):
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[((10.0, 6.0, 0.0), (12.0, 8.0, 2.0))],
        moving_boxes=[MovingBox(size=(1.0, 1.0, 1.5), start=(8.0, -6.0, 0.0),
                                velocity=(0.0, 1.5, 0.0), t_start=0.5,
                                t_end=4.5)],
        sensor_start=(0.0, 0.0, 1.2),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=frames,
        dt=0.1,
        beam_rows=32,
        beam_cols=360,
        fov_down_deg=-30.0,
        fov_up_deg=5.0,
        r_max=25.0,
    )


def _cfg(backend_enabled=True):
    cfg = PipelineConfig(backend_enabled=backend_enabled)
    cfg.frontend.image_rows = 32
    cfg.frontend.image_cols = 360
    cfg.frontend.fov_down_deg = -30.0
    cfg.frontend.fov_up_deg = 5.0
    cfg.frontend.r_max = 25.0
    return cfg


def test_zero_frames_yields_empty_result():
    result = run_pipeline(_cfg(), [])
    assert result.frames == []
    assert result.truth_points is None
    assert len(result.map.occupied_keys()) == 0


def test_truth_cloud_accumulates_all_frames():
    frames = synth_scene(_small_scene(frames=10))
    result = run_pipeline(_cfg(), frames)
    total = sum(len(scan) for scan, _, _ in frames)
    assert len(result.truth_mask) == total
    # the truth cloud is each point's cube key, in frame and scan order
    cube = result.map.config.cube_size
    expected = np.concatenate([cube_keys(pose.apply(scan.points), cube)
                               for scan, pose, _ in frames])
    assert result.truth_points.ndim == 1
    assert result.truth_points.dtype == np.int64
    assert np.array_equal(result.truth_points, expected)
    assert np.array_equal(result.truth_mask,
                          np.concatenate([m for _, _, m in frames]))
    assert len(result.frames) == 10
    assert result.frames[0].keyframe_added is True


def test_frames_without_masks_skip_truth():
    frames = [(scan, pose) for scan, pose, _ in
              synth_scene(_small_scene(frames=5))]
    result = run_pipeline(_cfg(), frames)
    assert result.truth_points is None
    assert len(result.frames) == 5


def test_only_the_last_keyframe_and_the_queue_keep_scans():
    cfg = _cfg()
    cfg.backend.queue_capacity = 2
    cfg.backend.dist_keyframe = 0.05     # the sensor moves 0.1 m per frame
    refs, alive_at_end = [], []

    def stream():
        for scan, pose, mask in synth_scene(_small_scene(frames=12)):
            fresh = Scan(scan.points.copy(), scan.timestamp)
            refs.append(weakref.ref(fresh))
            yield fresh, pose, mask
        # every frame is processed, and the pipeline still holds its state
        gc.collect()
        alive_at_end.append(sum(r() is not None for r in refs))

    result = run_pipeline(cfg, stream())
    assert all(f.keyframe_added for f in result.frames)
    assert len(refs) == 12
    assert alive_at_end[0] <= cfg.backend.queue_capacity + 1


def test_pipeline_removes_most_dynamic_cubes():
    frames = synth_scene(_small_scene())
    result = run_pipeline(_cfg(), frames)
    res = evaluate(result.map, result.truth_points, result.truth_mask)
    assert res.pr > 0.9
    assert res.rr > 0.8


def test_backend_never_hurts_dynamic_cleanup():
    frames = synth_scene(_small_scene())
    front = run_pipeline(_cfg(backend_enabled=False), frames)
    full = run_pipeline(_cfg(backend_enabled=True), frames)
    n_front = count_dynamic_cubes(front.map, front.truth_points,
                                  front.truth_mask)
    n_full = count_dynamic_cubes(full.map, full.truth_points,
                                 full.truth_mask)
    assert n_full <= n_front


def test_pipeline_is_deterministic():
    frames = synth_scene(_small_scene(frames=30))
    exports = []
    for _ in range(2):
        result = run_pipeline(_cfg(), frames)
        pts, ground = result.map.export_occupied_points()
        exports.append((pts.tobytes(), ground.tobytes()))
    assert exports[0] == exports[1]


def test_frame_records_carry_timing():
    frames = synth_scene(_small_scene(frames=5))
    result = run_pipeline(_cfg(), frames)
    assert all(f.elapsed_ms > 0 for f in result.frames)
    assert len(result.frame_times_ms) == 5
