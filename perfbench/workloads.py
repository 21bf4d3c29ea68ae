"""Benchmark workloads: scene and config definitions, seed variation and
the frame sources that feed ``run_pipeline``.

The three scenes are copies of the test-suite definitions (the throughput
scene of the ``bench_run`` fixture, ``dor_scene``/``dor_config(3)`` and
``residue_scene``/``residue_config(True)``).  They are copied rather than
imported because importing ``tests/conftest.py`` installs the ground guard
around ``RHMap.remove_region_nonground``, which would change what the
benchmark measures.

``synth_scene`` is analytic and ignores its seed, so the benchmark turns
its own seed into input variation.  Seed 0 is the test scene exactly.  Any
other seed shifts the boxes, the sensor track and the movers' timing of the
in-memory scenes by small seeded offsets, and shifts the KITTI drive in the
world frame.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from rhmap import io_formats, synth
from rhmap.config import PipelineConfig
from rhmap.geometry import Pose
from rhmap.synth import MovingBox, SceneSpec

NAMES = ("dense_static", "dor_kitti", "long_residue")

# Bump when the generated KITTI layout changes, so stale caches are not used.
KITTI_CACHE_VERSION = 1
KITTI_CACHE_KEEP = 2   # newest cached datasets kept; older ones are deleted
FRAME_DT = 0.1         # KITTI scans carry no timestamps; `rhmap run` assumes 10 Hz


def dense_static_scene() -> SceneSpec:
    """The ``bench_run`` throughput scene, ~91k points per scan, no movers.

    The fixture drives 30 frames; the benchmark drives 120 (12 m), enough
    for the map to grow well past the size the throughput test sees.
    """
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[([8, -12, 0], [12, -8, 3]), ([-14, 6, 0], [-8, 10, 4])],
        sensor_start=(0.0, 0.0, 1.5),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=120,
        dt=0.1,
        beam_rows=64,
        beam_cols=1600,
        fov_down_deg=-24.8,
        fov_up_deg=2.0,
        r_max=60.0,
    )


def dense_static_config() -> PipelineConfig:
    # The bench_run fixture's front end.  `rhmap bench` runs the same scene
    # with the default image_cols 1080 and r_max 80 instead.
    cfg = PipelineConfig()
    cfg.frontend.image_rows = 64
    cfg.frontend.image_cols = 1600
    cfg.frontend.r_max = 60.0
    return cfg


def dor_scene() -> SceneSpec:
    """The DOR scene: two movers crossing the sensor's path."""
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[
            ([5.0, 3.0, 0.0], [6.5, 4.5, 2.0]),
            ([16.0, -5.0, 0.0], [17.5, -3.5, 1.5]),
            ([8.9, -4.0, 0.0], [9.5, 4.0, 0.22]),
            ([13.7, -4.0, 0.0], [14.3, 4.0, 0.22]),
        ],
        moving_boxes=[
            MovingBox(size=(0.6, 1.0, 1.5), start=(8.1, -20.4, 0.0),
                      velocity=(0.0, 1.8, 0.0), t_start=8.0, t_end=14.7),
            MovingBox(size=(0.6, 1.0, 1.5), start=(12.9, -10.8, 0.0),
                      velocity=(0.0, 1.2, 0.0), t_start=4.0, t_end=14.0),
        ],
        sensor_start=(0.0, 0.0, 1.2),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=200,
        dt=0.1,
        beam_rows=64,
        beam_cols=1080,
        fov_down_deg=-30.0,
        fov_up_deg=5.0,
        r_max=30.0,
    )


def dor_config(mask_bits: int = 3) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.map.mask_bits = mask_bits
    cfg.frontend.image_rows = 64
    cfg.frontend.image_cols = 1080
    cfg.frontend.fov_down_deg = -30.0
    cfg.frontend.fov_up_deg = 5.0
    cfg.frontend.r_max = 30.0
    return cfg


def residue_scene() -> SceneSpec:
    """A 60 m drive-by whose mover crosses far behind the sensor."""
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[([10.0, 6.0, 0.0], [12.0, 8.0, 2.0])],
        moving_boxes=[
            MovingBox(size=(1.0, 1.0, 1.5), start=(19.5, -51.2, 0.0),
                      velocity=(0.0, 1.2, 0.0), t_start=36.0, t_end=48.0),
        ],
        sensor_start=(0.0, 0.0, 1.2),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=600,
        dt=0.1,
        beam_rows=32,
        beam_cols=360,
        fov_down_deg=-30.0,
        fov_up_deg=5.0,
        r_max=25.0,
    )


def residue_config(backend_enabled: bool) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.frontend.image_rows = 32
    cfg.frontend.image_cols = 360
    cfg.frontend.fov_down_deg = -30.0
    cfg.frontend.fov_up_deg = 5.0
    cfg.frontend.r_max = 25.0
    cfg.backend_enabled = backend_enabled
    return cfg


def vary(spec: SceneSpec, seed: int, box_shift: float, track_shift: float,
         time_shift: float) -> SceneSpec:
    """Seeded copy of a scene; seed 0 returns the scene unchanged.

    Static and moving boxes move by up to ``box_shift`` m in x and y, the
    sensor track by up to ``track_shift`` m in y, and each mover's active
    window by up to ``time_shift`` s.  Box heights, the sensor height and
    all speeds stay as they are, so every seed shows the same kind of
    scene.
    """
    if seed == 0:
        return spec
    rng = np.random.default_rng(seed)
    out = dataclasses.replace(spec)

    def _shift_xy(point, dx, dy):
        p = [float(v) for v in point]
        return (p[0] + dx, p[1] + dy, p[2])

    boxes = []
    for lo, hi in spec.static_boxes:
        dx, dy = rng.uniform(-box_shift, box_shift, size=2)
        boxes.append((_shift_xy(lo, dx, dy), _shift_xy(hi, dx, dy)))
    out.static_boxes = boxes
    movers = []
    for box in spec.moving_boxes:
        dx, dy = rng.uniform(-box_shift, box_shift, size=2)
        dt = float(rng.uniform(-time_shift, time_shift))
        movers.append(dataclasses.replace(
            box, start=_shift_xy(box.start, dx, dy),
            t_start=box.t_start + dt, t_end=box.t_end + dt))
    out.moving_boxes = movers
    x, y, z = spec.sensor_start
    out.sensor_start = (x, y + float(rng.uniform(-track_shift, track_shift)), z)
    return out


@dataclass
class Workload:
    name: str
    seed: int
    spec: SceneSpec
    config: PipelineConfig
    kitti: bool          # streamed back from KITTI files instead of memory

    @property
    def frames(self) -> int:
        return self.spec.frames


def make(name: str, seed: int) -> Workload:
    if name == "dense_static":
        spec = vary(dense_static_scene(), seed, 0.5, 0.25, 0.0)
        return Workload(name, seed, spec, dense_static_config(), False)
    if name == "dor_kitti":
        # varied through the poses file instead, see world_offset
        return Workload(name, seed, dor_scene(), dor_config(3), True)
    if name == "long_residue":
        spec = vary(residue_scene(), seed, 0.3, 0.2, 0.5)
        return Workload(name, seed, spec, residue_config(True), False)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def synth_frames(wl: Workload) -> list:
    """In-memory frames as `rhmap run --synthetic` builds them."""
    # synth_scene ignores its seed; the variation already lives in the spec.
    return synth.synth_scene(wl.spec, 0)


# --------------------------------------------------------------- KITTI cache
# Scans and labels depend only on the scene, so they are written once per
# spec; each seed adds a small poses file that shifts the whole drive in the
# world frame.  The map's cube and region grid then cuts the same scene
# differently, without paying for a new synthesis per seed.

def _spec_key(spec: SceneSpec) -> str:
    body = json.dumps([KITTI_CACHE_VERSION, dataclasses.asdict(spec)],
                      sort_keys=True, default=float)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def kitti_dir(cache_root: str, wl: Workload) -> str:
    return os.path.join(cache_root, f"{wl.name}-{_spec_key(wl.spec)}")


def world_offset(seed: int) -> np.ndarray:
    """Seeded x/y shift of a KITTI drive; seed 0 keeps the synthetic frame."""
    if seed == 0:
        return np.zeros(3)
    xy = np.random.default_rng(seed).uniform(-2.0, 2.0, size=2)
    return np.array([xy[0], xy[1], 0.0])


def _poses_path(path: str, seed: int) -> str:
    return os.path.join(path, f"poses-seed{seed}.txt")


def ensure_kitti(cache_root: str, wl: Workload) -> dict:
    """Write the workload's scans, labels and seed poses once; returns the
    dataset's metadata, including how long generation took."""
    path = kitti_dir(cache_root, wl)
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        _generate(cache_root, wl, path)
    os.utime(path)
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    seed_poses = _poses_path(path, wl.seed)
    if not os.path.exists(seed_poses):
        shift = world_offset(wl.seed)
        poses = [Pose(p.rotation, p.translation + shift) for p in
                 io_formats.read_poses(os.path.join(path, "poses.txt"))]
        tmp = f"{seed_poses}.tmp{os.getpid()}"
        io_formats.write_poses(tmp, poses)
        os.replace(tmp, seed_poses)
    return meta


def _generate(cache_root: str, wl: Workload, path: str):
    os.makedirs(cache_root, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    frames = synth_frames(wl)
    os.makedirs(os.path.join(tmp, "velodyne"))
    os.makedirs(os.path.join(tmp, "labels"))
    poses = []
    for i, (scan, pose, mask) in enumerate(frames):
        io_formats.write_kitti_scan(
            os.path.join(tmp, "velodyne", f"{i:06d}.bin"), scan.points)
        # class 252 (moving car) marks dynamic returns, 0 static
        io_formats.write_labels(os.path.join(tmp, "labels", f"{i:06d}.label"),
                                np.where(mask, 252, 0).astype(np.uint32))
        poses.append(pose)
    io_formats.write_poses(os.path.join(tmp, "poses.txt"), poses)
    meta = {"frames": len(frames), "generate_s": time.perf_counter() - t0}
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    os.replace(tmp, path)
    _evict(cache_root, keep=path)


def _evict(cache_root: str, keep: str):
    entries = [os.path.join(cache_root, n) for n in os.listdir(cache_root)]
    entries = [p for p in entries if os.path.isdir(p) and p != keep]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[KITTI_CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def kitti_frames(path: str, seed: int):
    """Stream (Scan, Pose, dynamic_mask) back as `rhmap run --scans` does.

    Readers are looked up on ``io_formats`` at call time, so a tracer that
    wraps them there sees every read.
    """
    scans = sorted(n for n in os.listdir(os.path.join(path, "velodyne"))
                   if n.endswith(".bin"))
    poses = io_formats.read_poses(_poses_path(path, seed))
    for i, name in enumerate(scans):
        scan = io_formats.read_kitti_scan(os.path.join(path, "velodyne", name))
        scan.timestamp = float(i) * FRAME_DT
        label = os.path.join(path, "labels", name[:-4] + ".label")
        mask = io_formats.read_labels(label, expected_count=len(scan))
        yield scan, poses[i], mask


def frame_source(wl: Workload, cache_root: str):
    """The frames handed to ``run_pipeline``: a list, or a lazy reader."""
    if wl.kitti:
        return kitti_frames(kitti_dir(cache_root, wl), wl.seed)
    return synth_frames(wl)
