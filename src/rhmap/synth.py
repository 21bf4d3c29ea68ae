"""Synthetic LiDAR scenes with analytic ray casting and exact labels.

A scene is a sloped ground plane, axis-aligned static boxes and moving
boxes on linear trajectories, observed by a translating sensor shooting
a fixed elevation/azimuth beam grid.  Every return carries an exact
dynamic label (True when the hit body is a moving box).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Scan


class SceneError(ValueError):
    """Raised for degenerate scene specifications."""


@dataclass
class MovingBox:
    size: tuple[float, float, float]
    start: tuple[float, float, float]      # min corner at t = 0
    velocity: tuple[float, float, float]   # m/s
    t_start: float = 0.0
    t_end: float = np.inf

    def corners(self, t: float):
        lo = np.asarray(self.start) + np.asarray(self.velocity) * t
        return lo, lo + np.asarray(self.size)

    def active(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end


@dataclass
class SceneSpec:
    ground_z: float = 0.0
    ground_slope: tuple[float, float] = (0.0, 0.0)   # dz/dx, dz/dy
    static_boxes: list = field(default_factory=list)  # [(min xyz, max xyz)]
    moving_boxes: list = field(default_factory=list)  # [MovingBox]
    sensor_start: tuple[float, float, float] = (0.0, 0.0, 1.0)
    sensor_velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    frames: int = 1
    dt: float = 0.1
    beam_rows: int = 32
    beam_cols: int = 360
    fov_down_deg: float = -30.0
    fov_up_deg: float = 5.0
    r_max: float = 50.0


def bench_scene(frames: int) -> SceneSpec:
    """The throughput scene of ``rhmap bench``: two static boxes on flat
    ground, driven through at 1 m/s by ~91k-point 64x1600 scans out to
    60 m."""
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[([8, -12, 0], [12, -8, 3]), ([-14, 6, 0], [-8, 10, 4])],
        sensor_start=(0.0, 0.0, 1.5),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=frames,
        beam_rows=64,
        beam_cols=1600,
        fov_down_deg=-24.8,
        fov_up_deg=2.0,
        r_max=60.0,
    )


def scene_from_dict(data: dict) -> SceneSpec:
    data = dict(data)
    movers = [MovingBox(**m) if isinstance(m, dict) else m
              for m in data.pop("moving_boxes", [])]
    spec = SceneSpec(**data)
    spec.moving_boxes = movers
    return spec


def load_scene(path) -> SceneSpec:
    with open(path, encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


def beam_directions(spec: SceneSpec) -> np.ndarray:
    """Unit directions at elevation/azimuth bin centers, (rows*cols, 3)."""
    lo, hi = np.radians(spec.fov_down_deg), np.radians(spec.fov_up_deg)
    elev = lo + (np.arange(spec.beam_rows) + 0.5) * (hi - lo) / spec.beam_rows
    azim = (np.arange(spec.beam_cols) + 0.5) * 2.0 * np.pi / spec.beam_cols
    el, az = np.meshgrid(elev, azim, indexing="ij")
    return np.stack([np.cos(el) * np.cos(az),
                     np.cos(el) * np.sin(az),
                     np.sin(el)], axis=-1).reshape(-1, 3)


def _ray_plane(origin, dirs, z0, slope):
    gx, gy = slope
    denom = dirs[:, 2] - gx * dirs[:, 0] - gy * dirs[:, 1]
    num = z0 + gx * origin[0] + gy * origin[1] - origin[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / denom
    t[~np.isfinite(t) | (t <= 1e-9)] = np.inf
    return t


def _ray_box(origin, dirs, lo, hi):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t1 = (lo - origin) * inv
    t2 = (hi - origin) * inv
    tnear = np.nanmax(np.minimum(t1, t2), axis=1)
    tfar = np.nanmin(np.maximum(t1, t2), axis=1)
    t = np.where((tnear <= tfar) & (tfar > 0) & (tnear > 1e-9), tnear, np.inf)
    return t


def synth_frames(spec: SceneSpec):
    """Generate the frame sequence one frame at a time; yields
    (Scan, Pose, dynamic_mask).

    Ray casting is fully analytic (ray-plane, ray-box nearest hit), so the
    output is deterministic, and only the frame in hand is held.
    """
    dirs = beam_directions(spec)
    for f in range(spec.frames):
        t = f * spec.dt
        origin = (np.asarray(spec.sensor_start, dtype=np.float64)
                  + np.asarray(spec.sensor_velocity) * t)

        best_t = _ray_plane(origin, dirs, spec.ground_z, spec.ground_slope)
        best_dyn = np.zeros(len(dirs), dtype=bool)

        boxes = [(np.asarray(lo, float), np.asarray(hi, float), False)
                 for lo, hi in spec.static_boxes]
        for box in spec.moving_boxes:
            if box.active(t):
                lo, hi = box.corners(t)
                boxes.append((lo, hi, True))
        for lo, hi, dyn in boxes:
            if np.all(origin > lo) and np.all(origin < hi):
                raise SceneError(f"sensor inside box {lo}..{hi} at frame {f}")
            tb = _ray_box(origin, dirs, lo, hi)
            closer = tb < best_t
            best_t = np.where(closer, tb, best_t)
            best_dyn = np.where(closer, dyn, best_dyn)

        hit = best_t <= spec.r_max
        points = dirs[hit] * best_t[hit, None]
        scan = Scan(points=points, timestamp=t)
        pose = Pose(np.eye(3), origin)
        yield scan, pose, best_dyn[hit]


def synth_scene(spec: SceneSpec, seed: int = 0):
    """The whole frame sequence of :func:`synth_frames` as a list of
    (Scan, Pose, dynamic_mask).  The output is analytic; the seed is
    accepted and ignored."""
    del seed  # output is analytic; no stochastic component yet
    return list(synth_frames(spec))
