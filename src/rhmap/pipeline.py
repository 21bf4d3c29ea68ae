"""Frame-by-frame orchestration of insertion, ground estimation, removal
and the keyframe back end, with the timing report of a run."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .backend import (Keyframe, KeyframeQueue, backend_step,
                      information_content, keyframe_select)
from .config import FrontendConfig, PipelineConfig
from .evaluate import TruthHistogram
from .geometry import transform_scan
from .ground import GroundReport, r_gpe
from .indexing import ScanCubes
from .map_core import RHMap
from .range_image import build_range_image
from .removal import RemovalReport, s2m_removal, scan_contexts, sensor_bounds

#: From the first scan of at least this many points on, a run does its
#: map-free work on a worker thread while the main thread updates the
#: map, when the process may run on two CPUs or more.  Before it, that
#: work runs on the main thread.  On long_residue's 11.5k-point scans
#: (2-vCPU host, three alternating runs) overlapping from the first frame
#: took process CPU from 3.7-3.9 to 5.4-6.3 s and peak RSS over set-up
#: from 26.1 to 28.8-29.3 MB, for a median frame of 5.8-7.1 ms, not 5.9.
OVERLAP_MIN_POINTS = 16384

#: The keys of ``FrameRecord.stages_ms``.
STAGES = ("transform_group", "integrate", "ground", "sensor", "join_wait",
          "contexts", "truth", "s2m", "backend")


@dataclass
class FrameRecord:
    report: RemovalReport
    ground: GroundReport
    backend_reports: list[RemovalReport]
    keyframe_added: bool
    #: Cubes and regions in the map after the frame, and the bytes its
    #: tables hold (``RHMap.nbytes``).
    map_cubes: int
    map_regions: int
    map_bytes: int
    #: Keyframes the back-end queue has dropped at capacity so far.
    evicted: int
    elapsed_ms: float
    #: Process CPU milliseconds of the frame (``time.process_time``), both
    #: threads together.  A truth job that outlives its frame may count in
    #: the next frame's instead.
    cpu_ms: float
    #: Milliseconds of each stage in ``STAGES``.  ``sensor`` (range image,
    #: bounds, information content), ``contexts`` (scan contexts) and
    #: ``truth`` (adding the frame's labeled points to the truth histogram,
    #: 0 without a mask) are each job's busy time; ``truth`` is recorded
    #: when its job is joined, at the next frame's join or at the end of
    #: the run.  ``join_wait`` is how long the main thread waited for the
    #: frame's contexts and the previous frame's truth job, 0 when both
    #: were done.  The stages the main thread ran, jobs run at once
    #: included, add up to about ``elapsed_ms``.
    stages_ms: dict[str, float]


@dataclass
class PipelineResult:
    map: RHMap
    frames: list[FrameRecord] = field(default_factory=list)
    #: Ground-truth cloud as a histogram (``evaluate.TruthHistogram``,
    #: filled from each frame's cube grouping, 16 B a cube while the run
    #: fills it): the distinct packed int64 cube keys (at the map's cube
    #: size) that hold a labeled point, in region-major order, not packed
    #: order.  None without masks.  The name is kept for the benchmark
    #: harness, which reads it.
    truth_points: np.ndarray | None = None
    #: (n, 2) int64 static and dynamic point counts of each truth key,
    #: widened from the histogram's int32 columns at the end of the run;
    #: the name is kept for the benchmark harness too.
    truth_mask: np.ndarray | None = None

    @property
    def frame_times_ms(self) -> list[float]:
        return [f.elapsed_ms for f in self.frames]


def timing_report(frame_times_ms, stages_ms=()) -> dict:
    """Frame wall time (mean, implied frequency, p50, p95 and the worst
    frame) of a run, and the mean of each stage over the ``stages_ms``
    dicts when given."""
    times = np.asarray(list(frame_times_ms), dtype=np.float64)
    if len(times) == 0:
        raise ValueError("timing report needs at least one frame")
    mean_ms = float(times.mean())
    p50, p95 = np.percentile(times, [50, 95])
    body = {"mean_ms": mean_ms,
            "hz": 1000.0 / mean_ms if mean_ms > 0 else float("inf"),
            "p50_ms": float(p50), "p95_ms": float(p95),
            "max_ms": float(times.max())}
    stages = list(stages_ms)
    if stages:
        body["stages_ms"] = {k: float(np.mean([s[k] for s in stages]))
                             for k in stages[0]}
    return body


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _sensor_side(points: np.ndarray, fcfg: FrontendConfig):
    """A frame's work on its sensor-frame points alone: the range image's
    bounds and its information content.  It reads only ``points`` and
    ``fcfg``, which nothing mutates during the frame, so it may run on
    another thread."""
    image = build_range_image(points, fcfg.image_rows, fcfg.image_cols,
                              fcfg.fov)
    return sensor_bounds(image, fcfg), information_content(image, fcfg.r_max)


def _map_free_side(sensor, cubes: ScanCubes):
    """A frame's scan work that reads no map: ``sensor()`` returns its
    timed sensor side (:func:`_sensor_side`), then its scan contexts are
    built.  Returns the contexts, the information content and the busy
    seconds of the sensor side and of the contexts.  The grouping is
    read-only, so the main thread may read it meanwhile.  The truth step
    is a job of its own (``TruthHistogram.add``), which may outlive the
    frame."""
    (bounds, info), sensor_s = sensor()
    contexts, contexts_s = _timed(scan_contexts, bounds, cubes)
    return contexts, info, sensor_s, contexts_s


def _join_truth(job, frames: list[FrameRecord]):
    """Wait for a truth job, re-raising its error, and record its busy time
    as its own frame's ``truth`` stage.  ``job`` is that frame's index in
    ``frames`` and the job's future."""
    index, future = job
    frames[index].stages_ms["truth"] = future.result()[1] * 1e3


def _now(fn, *args):
    """Run ``fn(*args)`` at once; returns a done future that holds its
    result or its exception, as a worker's future would once the job
    has run."""
    # imported here, so importing rhmap does not import concurrent.futures
    # and logging with it (~5 ms)
    from concurrent.futures import Future
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline(cfg: PipelineConfig, frames) -> PipelineResult:
    """Process (Scan, Pose[, dynamic_mask]) frames into a static map.

    Each frame submits its work that reads no map as jobs: the sensor side
    (range image of the sensor-frame scan, its sup/inf bounds and its
    information content), then, once the main thread has grouped
    the world points by cube, the scan contexts and, when masks are
    supplied, the truth step: ``TruthHistogram.add`` of the grouping's
    cube keys, the points' cube ids and the mask, which adds the frame's
    static and dynamic point counts per cube for evaluation.  Each job
    is timed by :func:`_timed`.  The main thread integrates the points and
    estimates ground, then joins the contexts and the previous frame's
    truth job; scan-to-map removal, keyframe selection and (when enabled)
    one back-end step follow.
    From the first scan of at least ``OVERLAP_MIN_POINTS`` points on, when
    two CPUs are usable, the jobs run on one worker thread beside the main
    thread's work; before that, or on one CPU, each job runs at once where
    it is submitted.  Both give the same map and truth.  The worker runs
    jobs in order, so the truth parts are added in frame order.  Nothing
    in the frame reads the histogram, so a truth job may outlive its
    frame; it holds only the grouping's cube keys, the points' cube ids
    and the mask, never a scan or world points.  A keyframe keeps the
    contexts, so no scan outlives its frame.  Timing covers processing
    only, not data loading.  An error in a job is raised with its own type
    at the join that reads it, its frame's for the sensor side and the
    contexts, the next frame's or the end of the run for a truth job, and
    an error on either thread is raised after the worker has stopped.
    """
    cfg.validate()
    fcfg, bcfg = cfg.frontend, cfg.backend
    map_ = RHMap(cfg.map)
    queue = KeyframeQueue(bcfg.queue_capacity)
    last_keyframe: Keyframe | None = None
    result = PipelineResult(map=map_)
    truth = TruthHistogram(cfg.map.mask_bits)
    labeled = False
    can_overlap = _usable_cpus() >= 2

    # the worker starts at the first scan large enough to overlap and takes
    # every later frame, so a job run at once never races a queued one; it
    # is shut down however the loop ends, an error on either side included
    worker = None
    # (frame index, future) of a truth job not joined yet
    truth_job = None
    try:
        for frame in frames:
            scan, pose = frame[0], frame[1]
            mask = frame[2] if len(frame) > 2 else None
            labeled = labeled or mask is not None

            c0, t0 = time.process_time(), time.perf_counter()
            if (worker is None and can_overlap
                    and len(scan) >= OVERLAP_MIN_POINTS):
                # imported here, so runs that never overlap skip its cost
                from concurrent.futures import ThreadPoolExecutor
                worker = ThreadPoolExecutor(
                    1, thread_name_prefix="rhmap-sensor")
            submit = worker.submit if worker else _now
            sensor = submit(_timed, _sensor_side, scan.points, fcfg)
            t1 = time.perf_counter()
            cubes = ScanCubes(transform_scan(scan, pose), cfg.map)
            t2 = time.perf_counter()
            # jobs run in order: the sensor job ends first
            side = submit(_map_free_side, sensor.result, cubes)
            new_job = None
            if mask is not None:
                new_job = (len(result.frames), submit(
                    _timed, truth.add, cubes.cube_rm, cubes.point_cube,
                    mask))
            t3 = time.perf_counter()
            map_.integrate_points(cubes)
            t4 = time.perf_counter()
            ground_report = r_gpe(map_, cubes, fcfg)
            t5 = time.perf_counter()
            done = side.done() and (truth_job is None or truth_job[1].done())
            contexts, info, sensor_s, contexts_s = side.result()
            if truth_job is not None:
                # the last frame's truth job ran before this frame's jobs
                _join_truth(truth_job, result.frames)
            truth_job = new_job
            t6 = time.perf_counter()
            # the sensor future holds the bounds, which the worker allocated;
            # its malloc heap shrinks only once they are freed: free them
            # before its next frame
            sensor = side = None
            report = s2m_removal(map_, contexts, fcfg)
            t7 = time.perf_counter()

            candidate = Keyframe(contexts, pose, scan.timestamp, info)
            added = keyframe_select(last_keyframe, candidate, bcfg)
            if added:
                last_keyframe = candidate
                queue.push(candidate)
            backend_reports = []
            if cfg.backend_enabled:
                backend_reports = backend_step(map_, queue, pose, bcfg, fcfg)
            c8, t8 = time.process_time(), time.perf_counter()

            # truth is recorded when its job is joined
            stages = (t2 - t1, t4 - t3, t5 - t4, sensor_s,
                      0.0 if done else t6 - t5, contexts_s, 0.0, t7 - t6,
                      t8 - t7)
            result.frames.append(FrameRecord(
                report=report, ground=ground_report,
                backend_reports=backend_reports, keyframe_added=added,
                map_cubes=len(map_), map_regions=map_.region_count,
                map_bytes=map_.nbytes,
                evicted=queue.evicted, elapsed_ms=(t8 - t0) * 1e3,
                cpu_ms=(c8 - c0) * 1e3,
                stages_ms={k: v * 1e3 for k, v in zip(STAGES, stages)}))
        if truth_job is not None:
            _join_truth(truth_job, result.frames)
    finally:
        if worker is not None:
            worker.shutdown()

    if labeled:
        result.truth_points, result.truth_mask = truth.finish()
    return result
