"""Keyframe queue and deferred removal passes over historical scans."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import BackendConfig, FrontendConfig
from .geometry import Pose, Scan
from .map_core import RHMap
from .range_image import RangeImage
from .removal import RemovalReport, s2m_removal


@dataclass
class Keyframe:
    scan: Scan
    pose: Pose
    timestamp: float
    info_content: float    # percent, 0..100


def information_content(image: RangeImage, r_max: float) -> float:
    """Percent of the maximum per-column range coverage held by a frame."""
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    rng = np.where(image.filled(), image.rng, 0.0)
    return float(rng.max(axis=0).sum() / (r_max * image.cols) * 100.0)


def keyframe_select(last: Keyframe | None, candidate: Keyframe,
                    cfg: BackendConfig) -> bool:
    """Keep a frame when it moved far, waited long, or its view changed
    since the last accepted keyframe (always, when there is none)."""
    if last is None:
        return True
    if candidate.pose.distance_to(last.pose) >= cfg.dist_keyframe:
        return True
    if candidate.timestamp - last.timestamp >= cfg.time_keyframe:
        return True
    return abs(candidate.info_content - last.info_content) >= cfg.info_delta


class KeyframeQueue:
    """Bounded FIFO of keyframes; oldest entries fall out at capacity."""

    def __init__(self, capacity: int):
        self.frames: deque[Keyframe] = deque()
        self.capacity = capacity
        self.evicted = 0

    def __len__(self):
        return len(self.frames)

    def push(self, frame: Keyframe):
        if len(self.frames) >= self.capacity:
            self.frames.popleft()
            self.evicted += 1
        self.frames.append(frame)


def backend_step(map_: RHMap, queue: KeyframeQueue, current_pose: Pose,
                 cfg: BackendConfig, fcfg: FrontendConfig) -> list[RemovalReport]:
    """Replay distant keyframes through scan-to-map removal and pop them."""
    reports = []
    processed = []
    for frame in queue.frames:
        if len(reports) >= cfg.max_per_step:
            break
        if current_pose.distance_to(frame.pose) >= cfg.dist_away:
            reports.append(s2m_removal(map_, frame.scan, frame.pose, fcfg))
            processed.append(frame)
    for frame in processed:
        queue.frames.remove(frame)
    return reports
