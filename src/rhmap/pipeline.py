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
    #: threads together.
    cpu_ms: float
    #: Milliseconds of each stage in ``STAGES``.  ``sensor`` (range image,
    #: bounds, information content), ``contexts`` (scan contexts) and
    #: ``truth`` (adding the frame's labeled points to the truth histogram,
    #: 0 without a mask) are busy time on whichever thread ran them;
    #: ``join_wait`` is how long the main thread then waited for the
    #: worker's last job of the frame, 0 when it ran both itself.  The
    #: stages the main thread ran add up to about ``elapsed_ms``.
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


def _truth_part(cubes: ScanCubes, mask) -> np.ndarray:
    """A frame's part of the truth histogram, keyed by the grouping's
    sorted region-major cube keys: each cube's static and dynamic point
    counts as an (n, 2) view of a (2, n) array."""
    n = len(cubes.cube_rm)
    mask = np.asarray(mask, dtype=bool).reshape(len(cubes.point_cube))
    counts = np.empty((2, n), dtype=np.int64)
    counts[0] = np.bincount(cubes.point_cube, minlength=n)
    counts[1] = np.bincount(cubes.point_cube[mask], minlength=n)
    counts[0] -= counts[1]
    return counts.T


def _map_free_side(sensor, cubes: ScanCubes, mask, truth: TruthHistogram):
    """A frame's work that reads no map: ``sensor()`` returns its sensor
    side (:func:`_sensor_side`), then its scan contexts are built and, with
    a mask, its labeled points added to the truth histogram.  Returns the
    contexts, the information content and the busy seconds of the sensor
    side, the contexts and the truth step.  The grouping is read-only, so
    the main thread may read it meanwhile; only this function touches
    ``truth`` during the run."""
    bounds, info, sensor_s = sensor()
    t0 = time.perf_counter()
    contexts = scan_contexts(bounds, cubes)
    t1 = time.perf_counter()
    if mask is not None:
        truth.add(cubes.cube_rm, _truth_part(cubes, mask))
    return (contexts, info, sensor_s, t1 - t0,
            time.perf_counter() - t1)


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
    side runs as two jobs on one worker thread (the second submitted once
    the grouping exists) while the main thread runs the map side;
    otherwise it runs inline.
    Both give the same map and truth.  After the join, scan-to-map removal,
    keyframe selection and (when enabled) one back-end step run.  Both jobs
    end within their frame, and a keyframe keeps the contexts, so no scan
    outlives its frame.  Timing covers processing only, not data loading.
    An error on either side is raised with its own type, after the worker
    has stopped.
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
            if sensor is not None:
                # one thread runs jobs in order: the sensor job ends first
                side = worker.submit(_map_free_side, sensor.result, cubes,
                                     mask, truth)
            t1 = time.perf_counter()
            map_.integrate_points(cubes)
            t2 = time.perf_counter()
            ground_report = r_gpe(map_, cubes, fcfg)
            t3 = time.perf_counter()
            if side is None:
                contexts, info, sensor_s, contexts_s, truth_s = \
                    _map_free_side(partial(_sensor_side, scan.points, fcfg),
                                   cubes, mask, truth)
            else:
                contexts, info, sensor_s, contexts_s, truth_s = side.result()
            t4 = time.perf_counter()
            join_wait = 0.0 if side is None else t4 - t3
            # the sensor future holds the bounds, which the worker allocated;
            # its malloc heap shrinks only once they are freed: free them
            # before its next frame
            sensor = side = None
            report = s2m_removal(map_, contexts, fcfg)
            t5 = time.perf_counter()

            candidate = Keyframe(contexts, pose, scan.timestamp, info)
            added = keyframe_select(last_keyframe, candidate, bcfg)
            if added:
                last_keyframe = candidate
                queue.push(candidate)
            backend_reports = []
            if cfg.backend_enabled:
                backend_reports = backend_step(map_, queue, pose, bcfg, fcfg)
            c6, t6 = time.process_time(), time.perf_counter()

            stages = (t1 - t0, t2 - t1, t3 - t2, sensor_s, join_wait,
                      contexts_s, truth_s, t5 - t4, t6 - t5)
            result.frames.append(FrameRecord(
                report=report, ground=ground_report,
                backend_reports=backend_reports, keyframe_added=added,
                map_cubes=len(map_), map_regions=map_.region_count,
                evicted=queue.evicted, elapsed_ms=(t6 - t0) * 1e3,
                cpu_ms=(c6 - c0) * 1e3,
                stages_ms={k: v * 1e3 for k, v in zip(STAGES, stages)}))
    finally:
        if worker is not None:
            worker.shutdown()

    if labeled:
        result.truth_points, result.truth_mask = truth.finish(
            partial(from_region_major, mask_bits=cfg.map.mask_bits))
    return result
