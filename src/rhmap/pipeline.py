"""Frame-by-frame orchestration of insertion, ground estimation, removal
and the keyframe back end, with the timing report of a run."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .backend import (Keyframe, KeyframeQueue, backend_step,
                      information_content, keyframe_select)
from .config import FrontendConfig, PipelineConfig
from .evaluate import TruthHistogram
from .geometry import transform_scan
from .ground import GroundReport, r_gpe
from .indexing import ScanCubes, from_region_major
from .map_core import RHMap
from .range_image import build_range_image
from .removal import RemovalReport, s2m_removal, scan_contexts, sensor_bounds

#: A scan of at least this many points has its map-free work done on a
#: worker thread while the main thread updates the map, when the process
#: may run on two CPUs or more.  Smaller scans run it inline: on a 2-vCPU
#: host the overlap saved 3-9% of a 9k-14k-point frame with a free second
#: core and cost about 1% without one.
OVERLAP_MIN_POINTS = 16384

#: The keys of ``FrameRecord.stages_ms``, in the order a frame runs them.
STAGES = ("transform_group", "integrate", "ground", "sensor", "join_wait",
          "contexts", "truth", "s2m", "backend")


@dataclass
class FrameRecord:
    report: RemovalReport
    ground: GroundReport
    backend_reports: list[RemovalReport]
    keyframe_added: bool
    #: Cubes and regions in the map after the frame.
    map_cubes: int
    map_regions: int
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
    #: 0 without a mask) are busy time on whichever thread ran them.  On
    #: the worker, ``truth`` is recorded when its job is joined, at the
    #: next frame's join or at the end of the run, and it may fall outside
    #: ``elapsed_ms``.  ``join_wait`` is how long the main thread waited
    #: for the worker: for the frame's contexts and for the previous
    #: frame's truth job, 0 when it waited for neither.  The stages the
    #: main thread ran add up to about ``elapsed_ms``.
    stages_ms: dict[str, float]


@dataclass
class PipelineResult:
    map: RHMap
    frames: list[FrameRecord] = field(default_factory=list)
    #: Ground-truth cloud as a histogram (see ``evaluate.TruthHistogram``):
    #: the distinct packed int64 cube keys (at the map's cube size) that
    #: hold a labeled point, in no particular order.  None without masks.
    #: The name is kept for the benchmark harness, which reads it.
    truth_points: np.ndarray | None = None
    #: (n, 2) int64 static and dynamic point counts of each truth key; the
    #: name is kept for the benchmark harness too.
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


def _sensor_side(points: np.ndarray, fcfg: FrontendConfig):
    """A frame's work on its sensor-frame points alone: the range image,
    its bounds and its information content, with its busy seconds.
    It reads only ``points`` and ``fcfg``, which nothing mutates during
    the frame, so it may run on another thread."""
    t0 = time.perf_counter()
    image = build_range_image(points, fcfg.image_rows, fcfg.image_cols,
                              fcfg.fov)
    bounds = sensor_bounds(image, fcfg)
    info = information_content(image, fcfg.r_max)
    return bounds, info, time.perf_counter() - t0


def _truth_part(point_cube: np.ndarray, n_cubes: int, mask) -> np.ndarray:
    """A frame's part of the truth histogram, aligned with its grouping's
    ``n_cubes`` sorted cube keys: each cube's static and dynamic point
    counts as an (n, 2) view of a (2, n) array."""
    mask = np.asarray(mask, dtype=bool).reshape(len(point_cube))
    counts = np.empty((2, n_cubes), dtype=np.int64)
    counts[0] = np.bincount(point_cube, minlength=n_cubes)
    counts[1] = np.bincount(point_cube[mask], minlength=n_cubes)
    counts[0] -= counts[1]
    return counts.T


def _truth_step(truth: TruthHistogram, cube_rm: np.ndarray,
                point_cube: np.ndarray, mask) -> float:
    """Add a frame's labeled points to the truth histogram, given its
    grouping's sorted region-major cube keys and each point's cube id;
    returns the busy seconds.  It holds no scan and no world points."""
    t0 = time.perf_counter()
    truth.add(cube_rm, _truth_part(point_cube, len(cube_rm), mask))
    return time.perf_counter() - t0


def _map_free_side(sensor, cubes: ScanCubes):
    """A frame's scan work that reads no map: ``sensor()`` returns its
    sensor side (:func:`_sensor_side`), then its scan contexts are built.
    Returns the contexts, the information content and the busy seconds of
    the sensor side and of the contexts.  The grouping is read-only, so
    the main thread may read it meanwhile.  The truth step is a job of its
    own (:func:`_truth_step`), which may outlive the frame."""
    bounds, info, sensor_s = sensor()
    t0 = time.perf_counter()
    contexts = scan_contexts(bounds, cubes)
    return contexts, info, sensor_s, time.perf_counter() - t0


def _join_truth(job, frames: list[FrameRecord]):
    """Wait for a truth job, re-raising its error, and record its busy time
    as its own frame's ``truth`` stage.  ``job`` is that frame's index in
    ``frames`` and the job's future."""
    index, future = job
    frames[index].stages_ms["truth"] = future.result() * 1e3


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline(cfg: PipelineConfig, frames) -> PipelineResult:
    """Process (Scan, Pose[, dynamic_mask]) frames into a static map.

    Per frame, two sides.  The map-free side builds the range image of the
    sensor-frame scan, its max-ring and sup/inf bounds and its information
    content, then the scan contexts from the bounds and the frame's cube
    grouping, and, when masks are supplied, adds the frame's static and
    dynamic point counts per cube to a truth histogram for evaluation.
    The map side transforms the scan, groups the world points by cube,
    integrates them and estimates ground.  On a scan of at least
    ``OVERLAP_MIN_POINTS`` points, when two CPUs are usable, the map-free
    side runs as jobs on one worker thread while the main thread runs the
    map side: the sensor side, then, once the grouping exists, the scan
    contexts and, with a mask, the truth step.  Otherwise it runs inline.
    Both give the same map and truth.  After the contexts are joined,
    scan-to-map removal, keyframe selection and (when enabled) one
    back-end step run.
    The truth step is bookkeeping that nothing in the frame reads, so the
    main thread does not wait for it: on the worker it may outlive its
    frame, beside the frame's removal and back end and the next frame's
    transform and grouping.  It holds only the grouping's cube keys, the
    points' cube ids and the mask, never a scan or world points.  The
    worker runs jobs in order, so it ends before the next frame's jobs;
    it is joined at the next frame's join (an inline frame joins it before
    adding its own part) or, after the last frame, before the histogram
    is finished, and the parts are added in frame order either way.  A
    keyframe keeps the contexts, so no scan outlives its frame.  Timing
    covers processing only, not data loading.  An error on either side,
    the truth step's included, is raised with its own type, after the
    worker has stopped.
    """
    cfg.validate()
    fcfg, bcfg = cfg.frontend, cfg.backend
    map_ = RHMap(cfg.map)
    queue = KeyframeQueue(bcfg.queue_capacity)
    last_keyframe: Keyframe | None = None
    result = PipelineResult(map=map_)
    truth = TruthHistogram()
    labeled = False
    can_overlap = _usable_cpus() >= 2

    # the worker starts at the first scan large enough to overlap; it is
    # shut down however the loop ends, an error on either side included
    worker = None
    # (frame index, future) of a truth job not joined yet
    truth_job = None
    try:
        for frame in frames:
            scan, pose = frame[0], frame[1]
            mask = frame[2] if len(frame) > 2 else None
            labeled = labeled or mask is not None

            c0, t0 = time.process_time(), time.perf_counter()
            sensor = side = None
            if can_overlap and len(scan) >= OVERLAP_MIN_POINTS:
                if worker is None:
                    # imported here, so runs that never overlap skip its cost
                    from concurrent.futures import ThreadPoolExecutor
                    worker = ThreadPoolExecutor(
                        1, thread_name_prefix="rhmap-sensor")
                sensor = worker.submit(_sensor_side, scan.points, fcfg)
            cubes = ScanCubes(transform_scan(scan, pose), cfg.map)
            new_job = None
            if sensor is not None:
                # one thread runs jobs in order: the sensor job ends first
                side = worker.submit(_map_free_side, sensor.result, cubes)
                if mask is not None:
                    new_job = (len(result.frames), worker.submit(
                        _truth_step, truth, cubes.cube_rm, cubes.point_cube,
                        mask))
            t1 = time.perf_counter()
            map_.integrate_points(cubes)
            t2 = time.perf_counter()
            ground_report = r_gpe(map_, cubes, fcfg)
            t3 = time.perf_counter()
            waited = side is not None or truth_job is not None
            if side is not None:
                contexts, info, sensor_s, contexts_s = side.result()
            if truth_job is not None:
                # the last frame's truth job ran before this frame's jobs;
                # an inline frame may wait for it here
                _join_truth(truth_job, result.frames)
            truth_job = new_job
            t4 = time.perf_counter()
            join_wait = t4 - t3 if waited else 0.0
            truth_s = 0.0
            if side is None:
                contexts, info, sensor_s, contexts_s = _map_free_side(
                    partial(_sensor_side, scan.points, fcfg), cubes)
                if mask is not None:
                    truth_s = _truth_step(truth, cubes.cube_rm,
                                          cubes.point_cube, mask)
            # the sensor future holds the bounds, which the worker allocated;
            # its malloc heap shrinks only once they are freed: free them
            # before its next frame
            sensor = side = None
            t5 = time.perf_counter()
            report = s2m_removal(map_, contexts, fcfg)
            t6 = time.perf_counter()

            candidate = Keyframe(contexts, pose, scan.timestamp, info)
            added = keyframe_select(last_keyframe, candidate, bcfg)
            if added:
                last_keyframe = candidate
                queue.push(candidate)
            backend_reports = []
            if cfg.backend_enabled:
                backend_reports = backend_step(map_, queue, pose, bcfg, fcfg)
            c7, t7 = time.process_time(), time.perf_counter()

            stages = (t1 - t0, t2 - t1, t3 - t2, sensor_s, join_wait,
                      contexts_s, truth_s, t6 - t5, t7 - t6)
            result.frames.append(FrameRecord(
                report=report, ground=ground_report,
                backend_reports=backend_reports, keyframe_added=added,
                map_cubes=len(map_), map_regions=map_.region_count,
                evicted=queue.evicted, elapsed_ms=(t7 - t0) * 1e3,
                cpu_ms=(c7 - c0) * 1e3,
                stages_ms={k: v * 1e3 for k, v in zip(STAGES, stages)}))
        if truth_job is not None:
            _join_truth(truth_job, result.frames)
    finally:
        if worker is not None:
            worker.shutdown()

    if labeled:
        result.truth_points, result.truth_mask = truth.finish(
            partial(from_region_major, mask_bits=cfg.map.mask_bits))
    return result
