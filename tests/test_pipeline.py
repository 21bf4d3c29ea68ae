"""End-to-end pipeline orchestration over synthetic frame sequences."""

import gc
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from rhmap import pipeline, removal
from rhmap.config import PipelineConfig
from rhmap.evaluate import (TruthHistogram, count_dynamic_cubes, cube_keys,
                            evaluate, truth_histogram)
from rhmap.geometry import Scan, transform_scan
from rhmap.indexing import ScanCubes, find_sorted
from rhmap.pipeline import STAGES, run_pipeline, timing_report
from rhmap.synth import (MovingBox, SceneSpec, bench_scene, synth_frames,
                         synth_scene)

from conftest import (PointTruth, bench_config, count_dynamic_cubes_points,
                      dor_config, evaluate_points, force_overlap, point_truth,
                      residue_config, residue_scene)


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


def _assert_histogram_of(result, oracle: PointTruth):
    """The run's truth is the histogram of the point-by-point cloud: each
    key once, with its static and dynamic point counts."""
    assert result.truth_points.ndim == 1
    assert result.truth_points.dtype == np.int64
    assert result.truth_mask.dtype == np.int64
    assert result.truth_mask.shape == (len(result.truth_points), 2)
    order = np.argsort(result.truth_points)
    keys, counts = result.truth_points[order], result.truth_mask[order]
    want_keys, want_counts = truth_histogram(*oracle.cloud())
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(counts, want_counts)


def test_truth_cloud_accumulates_all_frames():
    frames = synth_scene(_small_scene(frames=10))
    result = run_pipeline(_cfg(), frames)
    total = sum(len(scan) for scan, _, _ in frames)
    assert int(result.truth_mask.sum()) == total
    # the oracle's cloud is each point's cube key, in frame and scan order
    oracle = point_truth(frames, result.map.config)
    keys, mask = oracle.cloud()
    cube = result.map.config.cube_size
    expected = np.concatenate([cube_keys(pose.apply(scan.points), cube)
                               for scan, pose, _ in frames])
    assert np.array_equal(keys, expected)
    assert np.array_equal(mask, np.concatenate([m for _, _, m in frames]))
    _assert_histogram_of(result, oracle)
    assert len(result.frames) == 10
    assert result.frames[0].keyframe_added is True


def test_frames_without_masks_skip_truth():
    frames = [(scan, pose) for scan, pose, _ in
              synth_scene(_small_scene(frames=5))]
    result = run_pipeline(_cfg(), frames)
    assert result.truth_points is None
    assert len(result.frames) == 5


def test_only_the_last_keyframe_and_the_queue_keep_scans(monkeypatch):
    cfg = _cfg()
    cfg.backend.queue_capacity = 2
    cfg.backend.dist_keyframe = 0.05     # the sensor moves 0.1 m per frame
    for overlap in (False, True):
        refs, alive_at_end = [], []

        def stream():
            for scan, pose, mask in synth_scene(_small_scene(frames=12)):
                fresh = Scan(scan.points.copy(), scan.timestamp)
                refs.append(weakref.ref(fresh))
                yield fresh, pose, mask
            # every frame is processed, and the pipeline still holds its state
            gc.collect()
            alive_at_end.append(sum(r() is not None for r in refs))

        with monkeypatch.context() as m:
            force_overlap(m, overlap)
            result = run_pipeline(cfg, stream())
        assert all(f.keyframe_added for f in result.frames)
        assert len(refs) == 12
        # keyframes keep scan contexts: no scan outlives its frame, and only
        # the frame in hand is alive, with or without the worker thread
        assert alive_at_end[0] <= 1


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
    assert all(f.elapsed_ms > 0 and f.cpu_ms >= 0 for f in result.frames)
    assert sum(f.cpu_ms for f in result.frames) > 0
    assert len(result.frame_times_ms) == 5


def test_frame_records_carry_stage_timers():
    frames = synth_scene(_small_scene(frames=5))
    result = run_pipeline(_cfg(), frames)
    assert STAGES == ("transform_group", "integrate", "ground", "sensor",
                      "join_wait", "contexts", "truth", "s2m", "backend")
    for f in result.frames:
        assert list(f.stages_ms) == list(STAGES)
        assert all(v >= 0 for v in f.stages_ms.values())
        # these scans are below the overlap cutoff: every job ran at once,
        # so the main thread never waited at the join
        assert f.stages_ms["join_wait"] == 0.0
        assert sum(f.stages_ms.values()) <= f.elapsed_ms


def test_every_stage_is_named_in_the_readme():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert [k for k in STAGES if f"`{k}`" not in text] == []


def test_timing_report():
    rep = timing_report([50.0])
    assert rep["mean_ms"] == 50.0 and rep["hz"] == 20.0
    assert rep["p50_ms"] == 50.0 and rep["p95_ms"] == 50.0
    assert rep["max_ms"] == 50.0
    rep = timing_report([10.0, 30.0])
    assert rep["mean_ms"] == 20.0 and rep["hz"] == 50.0
    assert rep["max_ms"] == 30.0
    rep = timing_report(float(i) for i in range(1, 101))
    assert rep["p50_ms"] == pytest.approx(50.5)
    assert rep["p95_ms"] == pytest.approx(95.05)
    assert rep["max_ms"] == 100.0
    # the worst frame, wherever it falls in the run
    assert timing_report([5.0, 90.0, 6.0, 7.0])["max_ms"] == 90.0
    assert "stages_ms" not in rep
    rep = timing_report([1.0, 3.0], [{"s2m": 2.0, "ground": 0.0},
                                     {"s2m": 4.0, "ground": 1.0}])
    assert rep["stages_ms"] == {"s2m": 3.0, "ground": 0.5}
    with pytest.raises(ValueError):
        timing_report([])


def _run_both_ways(monkeypatch, cfg, frames):
    """Runs with the map-free side forced inline, then onto the worker
    thread; each checked for the threads that built its range images and
    its scan contexts."""
    runs = []
    spied = [(pipeline, "build_range_image"),
             (removal, "build_scan_context_2d"),
             (removal, "build_scan_context_3d")]
    for overlap in (False, True):
        threads = {name: set() for _, name in spied}
        with monkeypatch.context() as m:
            force_overlap(m, overlap)
            for module, name in spied:
                m.setattr(module, name,
                          _thread_spy(getattr(module, name), threads[name]))
            runs.append(run_pipeline(cfg, frames))
        for seen in threads.values():
            (name,) = seen
            if overlap:
                assert name.startswith("rhmap-sensor")
            else:
                assert name == threading.current_thread().name
    # a truth job joined after its frame still records its busy time
    assert all(f.stages_ms["truth"] > 0 for run in runs for f in run.frames)
    return runs


def _thread_spy(real, threads):
    def spy(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real(*args, **kwargs)
    return spy


def _assert_same_run(a, b):
    keys_a, keys_b = a.map.occupied_keys(), b.map.occupied_keys()
    assert keys_a.tobytes() == keys_b.tobytes()
    for xa, xb in zip(a.map.export_occupied_points(),
                      b.map.export_occupied_points()):
        assert xa.tobytes() == xb.tobytes()
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.report == fb.report
        assert fa.ground == fb.ground
        assert fa.backend_reports == fb.backend_reports
        assert fa.keyframe_added == fb.keyframe_added
        assert ((fa.map_cubes, fa.map_regions, fa.evicted)
                == (fb.map_cubes, fb.map_regions, fb.evicted))
    assert a.truth_points.tobytes() == b.truth_points.tobytes()
    assert a.truth_mask.tobytes() == b.truth_mask.tobytes()


def test_overlapped_and_inline_runs_match_on_the_dor_scene(monkeypatch,
                                                           dor_frames):
    inline, overlapped = _run_both_ways(monkeypatch, dor_config(3),
                                        dor_frames)
    _assert_same_run(inline, overlapped)
    assert sum(f.report.cubes_removed for f in inline.frames) > 0
    assert all(f.stages_ms["join_wait"] == 0.0 for f in inline.frames)


def test_overlapped_and_inline_runs_match_on_the_bench_scene(monkeypatch):
    frames = synth_scene(bench_scene(frames=10), seed=0)
    inline, overlapped = _run_both_ways(monkeypatch, bench_config(), frames)
    _assert_same_run(inline, overlapped)


class _SideError(Exception):
    pass


@pytest.mark.parametrize("module, side, overlap", [
    pytest.param(module, side, overlap,
                 id=side if overlap else f"{side}-inline")
    for module, side in
    [(pipeline, "build_range_image"), (removal, "build_scan_context_3d"),
     (pipeline, "r_gpe"), (pipeline, "_truth_part")]
    for overlap in (True, False)])
def test_an_error_on_either_side_keeps_its_type_and_stops_the_worker(
        monkeypatch, module, side, overlap):
    frames = synth_scene(_small_scene(frames=3))
    baseline = threading.active_count()
    calls = []
    pulled = []

    def stream():
        for frame in frames:
            pulled.append(len(pulled))
            yield frame
        pulled.append("end")

    def failing(*args, **kwargs):
        calls.append(threading.current_thread().name)
        if len(calls) == 2:
            raise _SideError(side)
        return real(*args, **kwargs)

    def counted_gpe(*args):
        grounds.append(pulled[-1])
        return real_gpe(*args)

    real, real_gpe, grounds = getattr(module, side), pipeline.r_gpe, []
    force_overlap(monkeypatch, overlap)
    if side != "r_gpe":
        monkeypatch.setattr(pipeline, "r_gpe", counted_gpe)
    monkeypatch.setattr(module, side, failing)
    with pytest.raises(_SideError, match=side):
        run_pipeline(_cfg(), stream())
    # frame 2 fails; a job's error surfaces at a join, after the frame's
    # ground estimation: a map-free job's at its own frame's join, a truth
    # job's at frame 3's, when frame 3's own truth job has been submitted
    truth_side = side == "_truth_part"
    assert pulled == ([0, 1, 2] if truth_side else [0, 1])
    if side != "r_gpe":
        assert grounds == pulled
    assert len(calls) == (3 if truth_side else 2)
    worker_side = overlap and side != "r_gpe"
    assert calls[1].startswith("rhmap-sensor") == worker_side
    assert threading.active_count() == baseline


def test_a_run_switching_between_inline_and_overlapped_frames_matches(
        monkeypatch):
    # thinned scans fall below the cutoff.  Frames before the first large
    # scan run their jobs on the main thread; the worker starts there and
    # takes every later frame, thinned or not.  The truth and the map are
    # the same as inline.
    frames, thinned = [], []
    for i, (scan, pose, mask) in enumerate(synth_scene(_small_scene(20))):
        thinned.append(i < 2 or i % 3 == 0)
        keep = slice(None, None, 2) if thinned[-1] else slice(None)
        frames.append((Scan(scan.points[keep], scan.timestamp), pose,
                       mask[keep]))
    sizes = [len(scan) for scan, _, _ in frames]
    cutoff = min(n for n, thin in zip(sizes, thinned) if not thin)
    assert [n < cutoff for n in sizes] == thinned
    first_large = 2
    threads = []
    parts = []
    real_add = TruthHistogram.add
    real_ctx = removal.build_scan_context_2d

    def add_spy(self, keys, counts):
        parts.append((keys, threading.current_thread().name))
        return real_add(self, keys, counts)

    def ctx_spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real_ctx(*args, **kwargs)

    with monkeypatch.context() as m:
        force_overlap(m, False)
        inline = run_pipeline(_cfg(), frames)
        m.setattr(pipeline, "OVERLAP_MIN_POINTS", cutoff)
        m.setattr(removal, "build_scan_context_2d", ctx_spy)
        m.setattr(TruthHistogram, "add", add_spy)
        mixed = run_pipeline(_cfg(), frames)
    # the truth parts are added in frame order, each frame's jobs on the
    # main thread before the first large scan and on the worker from it on
    cfg = _cfg().map
    assert len(parts) == len(threads) == len(frames)
    for (keys, _), (scan, pose, _) in zip(parts, frames):
        assert np.array_equal(
            keys, ScanCubes(transform_scan(scan, pose), cfg).cube_rm)
    main = threading.current_thread().name
    for names in (threads, [name for _, name in parts]):
        assert names[:first_large] == [main] * first_large
        assert all(name.startswith("rhmap-sensor")
                   for name in names[first_large:])
    _assert_same_run(inline, mixed)
    _assert_histogram_of(mixed, point_truth(frames, mixed.map.config))


def test_join_wait_is_zero_when_the_jobs_ended_first(monkeypatch):
    # r_gpe waits until the frame's truth job, its last job, has run, so
    # both joined futures are done at the join
    frames = synth_scene(_small_scene(frames=5))
    truth_ran = threading.Event()
    real_truth, real_gpe = pipeline._truth_step, pipeline.r_gpe

    def truth_step(*args):
        busy = real_truth(*args)
        truth_ran.set()
        return busy

    def slow_gpe(*args):
        assert truth_ran.wait(10)
        truth_ran.clear()
        time.sleep(0.05)        # time for the worker to mark it done
        return real_gpe(*args)

    force_overlap(monkeypatch, True)
    monkeypatch.setattr(pipeline, "_truth_step", truth_step)
    monkeypatch.setattr(pipeline, "r_gpe", slow_gpe)
    result = run_pipeline(_cfg(), frames)
    assert [f.stages_ms["join_wait"] for f in result.frames] == [0.0] * 5


def test_join_wait_counts_a_real_wait(monkeypatch):
    # the 3D context of each frame starts only once ground estimation has
    # returned, so the main thread waits for it at the join
    frames = synth_scene(_small_scene(frames=5))
    ground_done = threading.Event()
    real_ctx, real_gpe = removal.build_scan_context_3d, pipeline.r_gpe

    def gpe(*args):
        report = real_gpe(*args)
        ground_done.set()
        return report

    def slow_ctx(*args, **kwargs):
        assert ground_done.wait(10)
        ground_done.clear()
        time.sleep(0.05)
        return real_ctx(*args, **kwargs)

    force_overlap(monkeypatch, True)
    monkeypatch.setattr(pipeline, "r_gpe", gpe)
    monkeypatch.setattr(removal, "build_scan_context_3d", slow_ctx)
    result = run_pipeline(_cfg(), frames)
    for f in result.frames:
        assert f.stages_ms["join_wait"] >= 40.0
        assert f.stages_ms["join_wait"] <= f.elapsed_ms


def test_truth_rows_stay_within_twice_the_distinct_cubes(monkeypatch):
    # the residue scene's 600-frame drive meets ~321k distinct truth cubes;
    # after every frame the table plus the pending rows stay within twice
    # the distinct cubes added so far, and the run scores as the
    # point-by-point oracle does
    after_frame = []

    class Recording(TruthHistogram):
        def __init__(self):
            super().__init__()
            self.added = np.empty(0, dtype=np.int64)

        def add(self, keys, counts):
            super().add(keys, counts)
            pos, found = find_sorted(self.added, keys)
            self.added = np.insert(self.added, pos[~found], keys[~found])
            after_frame.append((self.rows, len(self.added)))

    cfg = residue_config(True)
    oracle = PointTruth()

    def frames():
        for scan, pose, mask in synth_frames(residue_scene()):
            oracle.append(ScanCubes(transform_scan(scan, pose), cfg.map),
                          mask)
            yield scan, pose, mask

    monkeypatch.setattr(pipeline, "TruthHistogram", Recording)
    result = run_pipeline(cfg, frames())
    assert len(after_frame) == residue_scene().frames
    assert after_frame[-1][1] > 300_000
    assert all(rows <= 2 * distinct for rows, distinct in after_frame)
    keys, mask = oracle.cloud()
    assert (evaluate(result.map, result.truth_points, result.truth_mask)
            == evaluate_points(result.map, keys, mask))
    assert (count_dynamic_cubes(result.map, result.truth_points,
                                result.truth_mask)
            == count_dynamic_cubes_points(result.map, keys, mask))


def test_reference_runs_score_as_the_point_by_point_oracle(dor_runs,
                                                           dor_frames,
                                                           bench_run):
    keys, mask = point_truth(dor_frames, dor_config().map).cloud()
    for result, ev, _ in dor_runs.values():
        assert ev == evaluate_points(result.map, keys, mask)
        assert (count_dynamic_cubes(result.map, result.truth_points,
                                    result.truth_mask)
                == count_dynamic_cubes_points(result.map, keys, mask))
    result = bench_run[0]
    keys, mask = point_truth(synth_frames(bench_scene(30)),
                             result.map.config).cloud()
    assert (evaluate(result.map, result.truth_points, result.truth_mask)
            == evaluate_points(result.map, keys, mask))
