"""Frame-by-frame orchestration of insertion, ground estimation, removal
and the keyframe back end."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .backend import (Keyframe, KeyframeQueue, backend_step,
                      information_content, keyframe_select)
from .config import PipelineConfig
from .geometry import Pose, Scan, transform_scan
from .ground import r_gpe
from .indexing import ScanCubes
from .map_core import RHMap
from .range_image import build_range_image
from .removal import RemovalReport, s2m_removal


@dataclass
class FrameRecord:
    report: RemovalReport
    backend_reports: list[RemovalReport]
    keyframe_added: bool
    elapsed_ms: float


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


def run_pipeline(cfg: PipelineConfig, frames) -> PipelineResult:
    """Process (Scan, Pose[, dynamic_mask]) frames into a static map.

    Per frame: transform, grouping of the world points by cube (shared by
    the later stages), occupancy integration, ground estimation,
    scan-to-map removal, keyframe selection and (when enabled) one
    back-end step.  When masks are supplied, each point's cube key and
    label accumulate into a ground-truth cloud for evaluation.  Only the
    last accepted keyframe and the back-end queue keep scans alive.
    Timing covers processing only, not data loading.
    """
    cfg.validate()
    fcfg, bcfg = cfg.frontend, cfg.backend
    map_ = RHMap(cfg.map)
    queue = KeyframeQueue(bcfg.queue_capacity)
    last_keyframe: Keyframe | None = None
    result = PipelineResult(map=map_)
    truth_keys, truth_masks = [], []

    for frame in frames:
        scan, pose = frame[0], frame[1]
        mask = frame[2] if len(frame) > 2 else None

        t0 = time.perf_counter()
        pw = transform_scan(scan, pose)
        cubes = ScanCubes(pw, cfg.map)
        map_.integrate_points(pw, cubes)
        ground_report = r_gpe(map_, pw, fcfg, cubes)
        image = build_range_image(scan.points, fcfg.image_rows,
                                  fcfg.image_cols, fcfg.fov)
        report = s2m_removal(map_, scan, pose, fcfg, image=image, cubes=cubes)
        report.ground_cubes_added = ground_report.ground_cubes_added

        candidate = Keyframe(scan, pose, scan.timestamp,
                             information_content(image, fcfg.r_max))
        added = keyframe_select(last_keyframe, candidate, bcfg)
        if added:
            last_keyframe = candidate
            queue.push(candidate)
        backend_reports = []
        if cfg.backend_enabled:
            backend_reports = backend_step(map_, queue, pose, bcfg, fcfg)
        elapsed_ms = (time.perf_counter() - t0) * 1e3

        result.frames.append(FrameRecord(report, backend_reports, added,
                                         elapsed_ms))
        if mask is not None:
            truth_keys.append(cubes.cube_keys[cubes.point_cube])
            truth_masks.append(np.asarray(mask, dtype=bool))

    if truth_keys:
        result.truth_points = np.concatenate(truth_keys)
        result.truth_mask = np.concatenate(truth_masks)
    return result
