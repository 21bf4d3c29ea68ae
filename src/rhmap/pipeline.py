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
from .geometry import Pose, Scan, transform_scan
from .ground import r_gpe
from .indexing import ScanCubes
from .map_core import RHMap
from .range_image import build_range_image
from .removal import RemovalReport, s2m_removal, scan_contexts, sensor_bounds

#: A scan of at least this many points has its sensor side built on a
#: worker thread while the main thread updates the map, when the process
#: may run on two CPUs or more.  Smaller scans run it inline: on a 2-vCPU
#: host the overlap saved 3-9% of a 9k-14k-point frame with a free second
#: core and cost about 1% without one.
OVERLAP_MIN_POINTS = 16384

#: The keys of ``FrameRecord.stages_ms``, in the order a frame runs them.
STAGES = ("transform_group", "integrate", "ground", "sensor", "join_wait",
          "contexts", "s2m", "backend")


@dataclass
class FrameRecord:
    report: RemovalReport
    backend_reports: list[RemovalReport]
    keyframe_added: bool
    elapsed_ms: float
    #: Milliseconds of each stage in ``STAGES``.  ``sensor`` is the busy
    #: time of the sensor side on whichever thread ran it; ``join_wait`` is
    #: how long the main thread then waited for the worker, 0 when it ran
    #: the sensor side itself.  The stages the main thread ran add up to
    #: about ``elapsed_ms``.
    stages_ms: dict[str, float]


@dataclass
class PipelineResult:
    map: RHMap
    frames: list[FrameRecord] = field(default_factory=list)
    #: Ground-truth cloud as the packed int64 cube key (at the map's cube
    #: size) of every labeled point, in frame and scan order; the name is
    #: kept for the benchmark harness, which reads it.  None without masks.
    truth_points: np.ndarray | None = None
    #: Dynamic label of each truth key.
    truth_mask: np.ndarray | None = None

    @property
    def frame_times_ms(self) -> list[float]:
        return [f.elapsed_ms for f in self.frames]


def timing_report(frame_times_ms, stages_ms=()) -> dict:
    """Frame wall time (mean, implied frequency, p50, p95) of a run, and
    the mean of each stage over the ``stages_ms`` dicts when given."""
    times = np.asarray(list(frame_times_ms), dtype=np.float64)
    if len(times) == 0:
        raise ValueError("timing report needs at least one frame")
    mean_ms = float(times.mean())
    p50, p95 = np.percentile(times, [50, 95])
    body = {"mean_ms": mean_ms,
            "hz": 1000.0 / mean_ms if mean_ms > 0 else float("inf"),
            "p50_ms": float(p50), "p95_ms": float(p95)}
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline(cfg: PipelineConfig, frames) -> PipelineResult:
    """Process (Scan, Pose[, dynamic_mask]) frames into a static map.

    Per frame, two sides.  The sensor side builds the range image of the
    sensor-frame scan, its max-ring and sup/inf bounds and its information
    content; it reads neither the map nor the world points.  The map side
    transforms the scan, groups the world points by cube, integrates them
    and estimates ground.  On a scan of at least ``OVERLAP_MIN_POINTS``
    points, when two CPUs are usable, the sensor side runs on one worker
    thread while the main thread runs the map side; otherwise it runs
    inline.  Both give the same map.  After the join the frame's scan
    contexts are built from the grouping and the bounds, then scan-to-map
    removal, keyframe selection and (when enabled) one back-end step run.
    A keyframe keeps the contexts, so no scan outlives its frame.  When
    masks are supplied, each point's cube key and label accumulate into a
    ground-truth cloud for evaluation, in two buffers grown in place.
    Timing covers processing only, not data loading.  An error on either
    side is raised with its own type, after the worker has stopped.
    """
    cfg.validate()
    fcfg, bcfg = cfg.frontend, cfg.backend
    map_ = RHMap(cfg.map)
    queue = KeyframeQueue(bcfg.queue_capacity)
    last_keyframe: Keyframe | None = None
    result = PipelineResult(map=map_)
    truth_keys = np.empty(0, dtype=np.int64)
    truth_mask = np.empty(0, dtype=bool)
    n_truth, labeled = 0, False
    can_overlap = _usable_cpus() >= 2

    # the worker starts at the first scan large enough to overlap; it is
    # shut down however the loop ends, an error on either side included
    worker = None
    try:
        for frame in frames:
            scan, pose = frame[0], frame[1]
            mask = frame[2] if len(frame) > 2 else None

            t0 = time.perf_counter()
            sensor = None
            if can_overlap and len(scan) >= OVERLAP_MIN_POINTS:
                if worker is None:
                    # imported here, so runs that never overlap skip its cost
                    from concurrent.futures import ThreadPoolExecutor
                    worker = ThreadPoolExecutor(
                        1, thread_name_prefix="rhmap-sensor")
                sensor = worker.submit(_sensor_side, scan.points, fcfg)
            cubes = ScanCubes(transform_scan(scan, pose), cfg.map)
            t1 = time.perf_counter()
            map_.integrate_points(cubes)
            t2 = time.perf_counter()
            ground_report = r_gpe(map_, cubes, fcfg)
            t3 = time.perf_counter()
            if sensor is None:
                bounds, info, sensor_s = _sensor_side(scan.points, fcfg)
            else:
                bounds, info, sensor_s = sensor.result()
            t4 = time.perf_counter()
            join_wait = 0.0 if sensor is None else t4 - t3
            contexts = scan_contexts(bounds, cubes)
            # the worker allocated the bounds, and its malloc heap shrinks
            # only once they are freed: free them before its next frame
            bounds = sensor = None
            t5 = time.perf_counter()
            report = s2m_removal(map_, contexts, fcfg)
            report.ground_cubes_added = ground_report.ground_cubes_added
            t6 = time.perf_counter()

            candidate = Keyframe(contexts, pose, scan.timestamp, info)
            added = keyframe_select(last_keyframe, candidate, bcfg)
            if added:
                last_keyframe = candidate
                queue.push(candidate)
            backend_reports = []
            if cfg.backend_enabled:
                backend_reports = backend_step(map_, queue, pose, bcfg, fcfg)
            t7 = time.perf_counter()

            stages = (t1 - t0, t2 - t1, t3 - t2, sensor_s, join_wait,
                      t5 - t4, t6 - t5, t7 - t6)
            result.frames.append(FrameRecord(
                report, backend_reports, added, (t7 - t0) * 1e3,
                {k: v * 1e3 for k, v in zip(STAGES, stages)}))
            if mask is not None:
                end = n_truth + len(scan)
                if end > len(truth_keys):
                    # resize reallocates in place: no second copy of the cloud
                    cap = max(end, len(truth_keys) * 5 // 4)
                    truth_keys.resize(cap, refcheck=False)
                    truth_mask.resize(cap, refcheck=False)
                truth_keys[n_truth:end] = cubes.cube_keys[cubes.point_cube]
                truth_mask[n_truth:end] = np.asarray(
                    mask, dtype=bool).reshape(len(scan))
                n_truth, labeled = end, True
    finally:
        if worker is not None:
            worker.shutdown()

    if labeled:
        truth_keys.resize(n_truth, refcheck=False)
        truth_mask.resize(n_truth, refcheck=False)
        result.truth_points, result.truth_mask = truth_keys, truth_mask
    return result
