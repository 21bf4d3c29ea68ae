"""Synthetic LiDAR scenes with analytic ray casting and exact labels.

A scene is a sloped ground plane, axis-aligned static boxes and moving
boxes on linear trajectories, observed by a translating sensor shooting
a fixed elevation/azimuth beam grid.  Every return carries an exact
dynamic label (True when the hit body is a moving box).

Boxes are cast with the slab method (Kay & Kajiya, SIGGRAPH 1986) in the
form of Williams et al. (JGT 2005): per axis, the ray's parameters at the
box's two planes are products of the plane offsets with the reciprocal
direction, computed on whole blocks of rays at a time.  The NaN of
0 * inf, where a ray runs inside a box face's plane, is skipped when the
axes are combined (see :func:`_ray_box`).

Each box is cast only against the beam columns whose azimuth can meet
its xy footprint, a per-body form of the visibility culling of Clark
(CACM 1976): seen from outside, a box's footprint spans less than half a
turn, bounded by the azimuths of its corners (:func:`_reach`).  A ray in
any other column heads away from the footprint, so the slab test could
not hit; the rays that are tested go through the same float operations
as over the whole grid, so culling changes no output bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Scan


class SceneError(ValueError):
    """Raised for a scene spec that cannot be cast: not a JSON object of
    known keys, a non-finite or mistyped field, a field of view past
    straight up or down, an inverted box, or a sensor inside a box."""


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


def scene_from_dict(data) -> SceneSpec:
    """The scene of a decoded JSON object; raises :class:`SceneError` for
    anything but an object of known keys whose movers are objects too."""
    if not isinstance(data, dict):
        raise SceneError(f"scene spec must be a JSON object, not "
                         f"{type(data).__name__}")
    data = dict(data)
    movers = data.pop("moving_boxes", [])
    try:
        movers = [MovingBox(**m) if isinstance(m, dict) else m
                  for m in movers]
        spec = SceneSpec(**data)
    except TypeError as e:
        raise SceneError(f"scene spec: {e}") from None
    spec.moving_boxes = movers
    return spec


def load_scene(path) -> SceneSpec:
    with open(path, encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


def _number(value, what: str, allow_inf: bool = False) -> float:
    """``value`` as a float; raises :class:`SceneError` unless it is a real
    number, and a finite one unless ``allow_inf`` (NaN never passes)."""
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, bool)):
        raise SceneError(f"{what}: expected a number, got {value!r}")
    if math.isnan(value) or not (allow_inf or math.isfinite(value)):
        raise SceneError(f"{what}: not finite: {value!r}")
    return float(value)


def _vector(value, n: int, what: str) -> np.ndarray:
    """``value`` as ``n`` finite float64s; raises :class:`SceneError`
    otherwise."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == n):
        raise SceneError(f"{what}: expected {n} numbers, got {value!r}")
    return np.array([_number(v, what) for v in value])


def _count(value, least: int, what: str) -> None:
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise SceneError(f"{what}: expected an integer >= {least}, "
                         f"got {value!r}")


def _check_scene(spec: SceneSpec) -> None:
    """Raise :class:`SceneError` unless every coordinate, size, velocity,
    angle, ``dt`` and ``r_max`` of ``spec`` is a finite number (a mover's
    ``t_start``/``t_end`` may be infinite, not NaN), both field-of-view
    angles lie in -90..90 degrees, every static box has lo <= hi on each
    axis, every mover size is >= 0, ``beam_rows`` and ``beam_cols`` are
    >= 1 and ``frames`` is >= 0."""
    _number(spec.ground_z, "ground_z")
    _vector(spec.ground_slope, 2, "ground_slope")
    for name in ("static_boxes", "moving_boxes"):
        if not isinstance(getattr(spec, name), (list, tuple)):
            raise SceneError(f"{name}: expected a list, got "
                             f"{getattr(spec, name)!r}")
    for i, box in enumerate(spec.static_boxes):
        if not (isinstance(box, (list, tuple, np.ndarray)) and len(box) == 2):
            raise SceneError(f"static_boxes[{i}]: expected [min xyz, max "
                             f"xyz], got {box!r}")
        lo = _vector(box[0], 3, f"static_boxes[{i}] min corner")
        hi = _vector(box[1], 3, f"static_boxes[{i}] max corner")
        if (lo > hi).any():
            raise SceneError(f"static_boxes[{i}]: min corner {box[0]} "
                             f"exceeds max corner {box[1]}")
    for i, box in enumerate(spec.moving_boxes):
        if not isinstance(box, MovingBox):
            raise SceneError(f"moving_boxes[{i}]: expected an object, got "
                             f"{box!r}")
        if (_vector(box.size, 3, f"moving_boxes[{i}].size") < 0).any():
            raise SceneError(f"moving_boxes[{i}].size: negative: {box.size}")
        _vector(box.start, 3, f"moving_boxes[{i}].start")
        _vector(box.velocity, 3, f"moving_boxes[{i}].velocity")
        _number(box.t_start, f"moving_boxes[{i}].t_start", allow_inf=True)
        _number(box.t_end, f"moving_boxes[{i}].t_end", allow_inf=True)
    _vector(spec.sensor_start, 3, "sensor_start")
    _vector(spec.sensor_velocity, 3, "sensor_velocity")
    for name in ("dt", "r_max"):
        _number(getattr(spec, name), name)
    for name in ("fov_down_deg", "fov_up_deg"):
        if abs(_number(getattr(spec, name), name)) > 90.0:
            raise SceneError(f"{name}: {getattr(spec, name)!r} lies outside "
                             f"-90..90 degrees")
    _count(spec.frames, 0, "frames")
    _count(spec.beam_rows, 1, "beam_rows")
    _count(spec.beam_cols, 1, "beam_cols")


def _beam_angles(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Elevation of each beam row and azimuth of each beam column, at
    the bin centers, in radians."""
    lo, hi = np.radians(spec.fov_down_deg), np.radians(spec.fov_up_deg)
    elev = lo + (np.arange(spec.beam_rows) + 0.5) * (hi - lo) / spec.beam_rows
    azim = (np.arange(spec.beam_cols) + 0.5) * 2.0 * np.pi / spec.beam_cols
    return elev, azim


def beam_directions(spec: SceneSpec) -> np.ndarray:
    """Unit directions at elevation/azimuth bin centers, (rows*cols, 3)."""
    el, az = np.meshgrid(*_beam_angles(spec), indexing="ij")
    return np.stack([np.cos(el) * np.cos(az),
                     np.cos(el) * np.sin(az),
                     np.sin(el)], axis=-1).reshape(-1, 3)


def _ray_plane(origin, denom, z0, slope):
    """Distance along each ray to the ground plane, inf where the ray is
    parallel to it or meets it behind (or within 1e-9 of) the origin.
    ``denom`` is the per-ray dot of the direction with the plane normal,
    which depends only on the beam grid."""
    gx, gy = slope
    num = z0 + gx * origin[0] + gy * origin[1] - origin[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = num / denom
    t[~np.isfinite(t) | (t <= 1e-9)] = np.inf
    return t


def _ray_box(origin, inv, lo, hi, best_t):
    """Slab test of every ray against the box ``lo``..``hi``; where it hits
    nearer than ``best_t``, write the hit distance into ``best_t`` and
    return those rays as a boolean mask.

    ``inv`` holds the reciprocal direction per axis, one array each of the
    shape of ``best_t`` (any block of rays, such as a view of the grid).
    On each axis the ray's parameters at the two slab planes give an entry
    (their min) and an exit (their max); the entries are combined in x, y, z
    order with ``np.fmax`` and the exits with ``np.fmin``.  A ray with a
    zero component whose origin lies in that axis's slab plane gets
    0 * inf = NaN there, and ``fmax``/``fmin`` skip a NaN, so such an axis
    does not bound the ray.  The ray hits when entry <= exit and the entry
    lies more than 1e-9 ahead of the origin.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for a in range(3):
            t1 = (lo[a] - origin[a]) * inv[a]
            t2 = (hi[a] - origin[a]) * inv[a]
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2, out=t1)
            if a == 0:
                tnear, tfar = near, far
            else:
                np.fmax(tnear, near, out=tnear)
                np.fmin(tfar, far, out=tfar)
    closer = (tnear <= tfar) & (tnear > 1e-9) & (tnear < best_t)
    np.copyto(best_t, tnear, where=closer)
    return closer


def _reach(ox, oy, lo, hi, n: int) -> list[slice]:
    """The beam columns, at most two slices of ``range(n)``, whose rays can
    meet the footprint ``lo[:2]``..``hi[:2]`` from the sensor's xy
    (``ox``, ``oy``).  The field of view lies within -90..90 degrees
    (:func:`_check_scene`), so every row's elevation has a positive cosine
    and each ray heads at its column's azimuth in xy.

    From on or inside the footprint (edges included) every column can.
    From outside, the footprint spans less than half a turn, so the
    azimuths of its four corners bound it; measured around the azimuth of
    its center, they run from the smallest to the largest.  The columns
    whose azimuths fall in that range, widened by one column on each side
    to absorb rounding, are split in two where they wrap past 0/2pi.
    Elevation does not narrow this: a box's highest elevation can lie
    in the middle of an edge, so its corners do not bound it.
    """
    if lo[0] <= ox <= hi[0] and lo[1] <= oy <= hi[1]:
        return [slice(0, n)]
    mid = math.atan2((lo[1] + hi[1]) / 2 - oy, (lo[0] + hi[0]) / 2 - ox)
    off = [math.remainder(math.atan2(y - oy, x - ox) - mid, 2 * math.pi)
           for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
    width = 2 * math.pi / n
    first = math.ceil((mid + min(off)) / width - 0.5) - 1
    last = math.floor((mid + max(off)) / width - 0.5) + 1
    if last - first + 1 >= n:
        return [slice(0, n)]
    start = first % n
    stop = start + last - first + 1
    if stop <= n:
        return [slice(start, stop)]
    return [slice(start, n), slice(0, stop - n)]


def synth_frames(spec: SceneSpec):
    """Generate the frame sequence one frame at a time; yields
    (Scan, Pose, dynamic_mask).

    ``spec`` is checked first (:func:`_check_scene`).  Ray casting is
    analytic: each ray's nearest hit among the ground plane and the boxes
    active at the frame's time (:func:`_ray_plane`, :func:`_ray_box`),
    kept when within ``r_max``.  A box hit must be strictly nearer than
    every body tested before it (the ground, the static boxes in order,
    then the active movers in order).  The reciprocal directions and the
    ground plane's per-ray denominator are computed once per scene, so the
    output is deterministic and only the frame in hand is held.  Each box
    is tested only on the rays that can reach it (:func:`_cast`).
    """
    _check_scene(spec)
    return _cast(spec)


def _cast(spec: SceneSpec):
    """The frames of a checked ``spec`` (:func:`synth_frames`).

    The ground plane is cast against every ray.  Each box is cast only
    against the beam columns that can reach its xy footprint
    (:func:`_reach`), on 2-D views of the (rows, cols) grid of reciprocal
    directions, distances and labels.  This is exact: a ray in any other
    column heads away from the footprint in xy, so the slab test would
    find no hit, and each tested ray goes through the same float
    operations as in a test of the whole grid.  The points are built one
    axis at a time from the kept rays, with the same products.
    """
    dirs = beam_directions(spec)
    grid = (spec.beam_rows, spec.beam_cols)
    with np.errstate(divide="ignore", over="ignore"):
        inv = [(1.0 / dirs[:, a]).reshape(grid) for a in range(3)]
    gx, gy = spec.ground_slope
    denom = dirs[:, 2] - gx * dirs[:, 0] - gy * dirs[:, 1]
    axes = dirs.T.copy()
    statics = [(np.asarray(lo, float), np.asarray(hi, float), False)
               for lo, hi in spec.static_boxes]
    for f in range(spec.frames):
        t = f * spec.dt
        origin = (np.asarray(spec.sensor_start, dtype=np.float64)
                  + np.asarray(spec.sensor_velocity) * t)

        best_t = _ray_plane(origin, denom, spec.ground_z, spec.ground_slope)
        best_dyn = np.zeros(grid, dtype=bool)
        grid_t = best_t.reshape(grid)

        boxes = statics + [(*box.corners(t), True)
                           for box in spec.moving_boxes if box.active(t)]
        for lo, hi, dyn in boxes:
            if np.all(origin > lo) and np.all(origin < hi):
                raise SceneError(f"sensor inside box {lo}..{hi} at frame {f}")
            for cols in _reach(origin[0], origin[1], lo, hi, spec.beam_cols):
                view = (slice(None), cols)
                closer = _ray_box(origin, [i[view] for i in inv], lo, hi,
                                  grid_t[view])
                best_dyn[view][closer] = dyn

        kept = np.flatnonzero(best_t <= spec.r_max)
        reach = best_t[kept]
        points = np.empty((len(kept), 3))
        for a in range(3):
            np.multiply(axes[a][kept], reach, out=points[:, a])
        scan = Scan(points=points, timestamp=t)
        pose = Pose(np.eye(3), origin)
        yield scan, pose, best_dyn.reshape(-1)[kept]


def synth_scene(spec: SceneSpec, seed: int = 0):
    """The whole frame sequence of :func:`synth_frames` as a list of
    (Scan, Pose, dynamic_mask).  The output is analytic; the seed is
    accepted and ignored."""
    del seed  # output is analytic; no stochastic component yet
    return list(synth_frames(spec))
