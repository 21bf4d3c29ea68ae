"""Shared fixtures: benchmark scenes, session-scoped pipeline runs, a
global guard that counts any ground cube killed by region removal, and
helpers that group points and build scan contexts the way the pipeline
does, run the pipeline's map-free jobs on its worker thread or at once,
keep and score the truth point by point as the histogram's oracle, and
insert and read single cubes and regions through the batch map API."""

from __future__ import annotations

import shutil
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from rhmap import map_core, pipeline
from rhmap.cli import main
from rhmap.config import PipelineConfig
from rhmap.evaluate import (EvalResult, count_dynamic_cubes, evaluate,
                            f1_score)
from rhmap.geometry import Pose, transform_scan
from rhmap.io_formats import write_kitti_scan, write_poses
from rhmap.indexing import (ScanCubes, bitmap_cubes, column_of, column_slots,
                            cube_indices, find_sorted, pack3,
                            region_key_mask, region_major_of_indices,
                            run_starts, sorted_unique, z_of_keys)
from rhmap.pipeline import run_pipeline
from rhmap.range_image import build_range_image
from rhmap.removal import scan_contexts, sensor_bounds
from rhmap.synth import MovingBox, SceneSpec, bench_scene, synth_scene

# ---------------------------------------------------------------------------
# Ground-preservation guard.  Every call to remove_regions_nonground, the
# one removal entry point of the map, which scan-to-map removal and the
# back end both go through, is checked anywhere in the test session: every
# ground cube of the map before the call must still be a cube of the map
# afterwards.  The guard compares the ground bitmaps before the call with
# the occupancy bitmaps after it, region by region; a ground region that
# left the table lost all its ground cubes.  Violations accumulate in
# GROUND_KILLS for an exact-count assertion.

GROUND_KILLS = {"count": 0, "calls": 0}

_orig_remove = map_core.RHMap.remove_regions_nonground


def _guarded_remove(self, region_keys):
    rows = np.flatnonzero(self._ground.any(axis=1))
    rkeys, ground = self._rkeys[rows], self._ground[rows]
    removed = _orig_remove(self, region_keys)
    pos, found = find_sorted(self._rkeys, rkeys)
    occ = np.zeros_like(ground)
    occ[found] = self._occ[pos[found]]
    GROUND_KILLS["calls"] += 1
    GROUND_KILLS["count"] += int(np.bitwise_count(ground & ~occ).sum())
    return removed


map_core.RHMap.remove_regions_nonground = _guarded_remove


# ---------------------------------------------------------------------------
# Scan input as the pipeline builds it.  The map and the ground stage take a
# frame's world points grouped by cube (ScanCubes); scan-to-map removal takes
# the frame's scan contexts.

def identity_pose() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def point_to_indices(points, cfg):
    """Quantise points (meters) to (global, region, cube-local) indexes."""
    gidx = cube_indices(points, cfg.cube_size)
    return gidx, gidx & ~cfg.mask, gidx & cfg.mask


def integrate(map_, points_world) -> int:
    """Integrate world points, grouped at the map's own config."""
    return map_.integrate_points(ScanCubes(points_world, map_.config))


def force_overlap(monkeypatch, overlap: bool):
    """Make run_pipeline run every frame's map-free jobs on its worker
    thread (True) or at once on the main thread (False), whatever the scan
    size and CPU count."""
    monkeypatch.setattr(pipeline, "OVERLAP_MIN_POINTS",
                        0 if overlap else sys.maxsize)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)


def frame_contexts(scan, pose, fcfg, map_cfg):
    """A posed scan's two scan contexts, built as run_pipeline builds them."""
    cubes = ScanCubes(transform_scan(scan, pose), map_cfg)
    image = build_range_image(scan.points, fcfg.image_rows, fcfg.image_cols,
                              fcfg.fov)
    return scan_contexts(sensor_bounds(image, fcfg), cubes)


# ---------------------------------------------------------------------------
# Point-by-point truth, the oracle of the truth histogram: the cloud as
# run_pipeline kept it before the histogram (each labeled point's cube key
# and label, in frame and scan order), its histogram by one argsort, and
# the scoring that read it.

class PointTruth:
    """Each labeled point's packed cube key and dynamic label, in frame and
    scan order, in two buffers grown in place."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.mask = np.empty(0, dtype=bool)
        self.n = 0

    def append(self, cubes: ScanCubes, mask):
        end = self.n + len(cubes.point_cube)
        if end > len(self.keys):
            cap = max(end, len(self.keys) * 5 // 4)
            self.keys.resize(cap, refcheck=False)
            self.mask.resize(cap, refcheck=False)
        self.keys[self.n:end] = cubes.cube_keys[cubes.point_cube]
        self.mask[self.n:end] = np.asarray(
            mask, dtype=bool).reshape(end - self.n)
        self.n = end

    def cloud(self):
        """(keys, mask) of the points appended so far."""
        return self.keys[:self.n], self.mask[:self.n]


def point_truth(frames, map_cfg) -> PointTruth:
    """The point-by-point truth of (scan, pose, mask) frames, grouped at
    ``map_cfg`` as run_pipeline groups them."""
    truth = PointTruth()
    for scan, pose, mask in frames:
        truth.append(ScanCubes(transform_scan(scan, pose), map_cfg), mask)
    return truth


def truth_histogram(keys, dynamic_mask):
    """The truth histogram of a point-by-point cloud, by one argsort of its
    packed keys: the sorted distinct keys and an (n, 2) int64 array of the
    static and dynamic points under each.  The oracle of
    ``TruthHistogram``, which counts per cube of each frame's grouping."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = run_starts(keys)
    counts = np.empty((2, len(starts)), dtype=np.int64)
    counts[0] = np.diff(starts, append=len(keys))
    counts[1] = np.add.reduceat(dynamic_mask[order], starts, dtype=np.int64)
    counts[0] -= counts[1]
    return keys[starts], counts.T


def evaluate_points(map_, keys, dynamic_mask) -> EvalResult:
    """Point-by-point scoring of a truth cloud given as each point's packed
    cube key and dynamic label."""
    _, hit = find_sorted(map_.occupied_keys(), keys)
    n_sta = int((~dynamic_mask).sum())
    n_dyn = int(dynamic_mask.sum())
    n_tn = int(hit[~dynamic_mask].sum())
    n_tp = int(hit[dynamic_mask].sum())
    pr = n_tn / n_sta if n_sta else None
    rr = 1.0 - n_tp / n_dyn if n_dyn else None
    f1 = f1_score(pr, rr) if pr is not None and rr is not None else None
    return EvalResult(pr, rr, f1, n_sta, n_dyn, n_tn, n_tp)


def count_dynamic_cubes_points(map_, keys, dynamic_mask) -> int:
    """Occupied cubes holding a dynamic point, from a point-by-point cloud."""
    _, hit = find_sorted(map_.occupied_keys(),
                         sorted_unique(keys[dynamic_mask]))
    return int(hit.sum())


# ---------------------------------------------------------------------------
# Single-cube access for unit tests.  The map's API is batched; these insert
# a hit through a point at each cube's centre, read cubes by decoding the
# map's occupancy bitmaps and mark and read ground cubes through its ground
# bitmaps.  Tests reach the map's tables only through these helpers.

def hit_cubes(map_, idx) -> int:
    """One hit on each cube index of ``idx`` ((3,) or (N, 3)); returns the
    count of new cubes."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
    return integrate(map_, (idx + 0.5) * map_.config.cube_size)


def region_major(keys, mask_bits):
    """Region-major keys of packed cube keys: integer order is region
    order, then cube order (``indexing.region_major_of_indices`` of the
    keys' three fields)."""
    k = np.asarray(keys, dtype=np.int64)
    return region_major_of_indices(k >> 42, k >> 21, k, mask_bits)


def table_keys(map_):
    """Packed keys of the map's cubes, in region-major order."""
    return map_._cubes(slice(None))[0]


def _bits_set(map_, words, keys) -> np.ndarray:
    """Whether each packed cube key's bit is set in a bitmap of the map
    (``_occ`` or ``_ground``): the bit of its local z index in its slot's
    word of its region's row; False when the region is absent."""
    bits = map_.config.mask_bits
    keys = np.asarray(keys, dtype=np.int64)
    rows, found = find_sorted(map_._rkeys, keys & region_key_mask(bits))
    _, slot = column_slots(column_of(keys), bits)
    z = (z_of_keys(keys) & map_.config.mask).astype(words.dtype)
    found[found] &= ((words[rows[found], slot[found]] >> z[found]) & 1) == 1
    return found


def has_cubes(map_, keys) -> np.ndarray:
    """Whether each packed cube key is a cube of the map."""
    return _bits_set(map_, map_._occ, keys)


def ground_keys(map_):
    """Sorted packed keys of the map's ground cubes (every ground cube is
    occupied; see ``unoccupied_ground``)."""
    bits = map_.config.mask_bits
    return np.sort(bitmap_cubes(map_._rkeys, map_._ground, bits)[0])


def unoccupied_ground(map_) -> int:
    """Count of the map's ground bits whose cube is not occupied: 0 when
    every ground cube is a cube of the map."""
    return int(np.bitwise_count(map_._ground & ~map_._occ).sum())


def unfitted_ground(map_) -> int:
    """Count of the map's ground bits in regions without a ground plane:
    0 when every region holding ground is fitted, as it is when ground is
    marked only in regions whose fit has passed."""
    return int(np.bitwise_count(map_._ground[~map_._fitted]).sum())


def mark_ground_keys(map_, keys):
    """Mark cubes of the map as ground, by packed key, through
    ``RHMap.mark_ground``; every key must be a cube of the map."""
    keys = np.asarray(keys, dtype=np.int64)
    assert has_cubes(map_, keys).all()
    map_.mark_ground(keys)


def cube_state(map_, idx):
    """Whether the cube at index ``idx`` is ground, or None when the cube
    is not in the map."""
    x, y, z = idx
    key = pack3([x], [y], [z])
    if not has_cubes(map_, key)[0]:
        return None
    return bool(_bits_set(map_, map_._ground, key)[0])


def region(map_, rkey) -> SimpleNamespace:
    """One row of the map's region table; KeyError when ``rkey`` is absent.

    ``keys`` are the packed keys of the region's cubes in key order and
    ``occupied_count`` their count (the table keeps no count: its bitmap
    does).
    ``z_min`` and ``z_max`` are the extent of their centre heights
    (``region_bands``) and ``fitted`` whether a ground fit passed.  The
    map keeps no plane: ``fit_ground_planes`` returns the planes it fits.
    """
    i = int(np.searchsorted(map_._rkeys, rkey))
    if i == len(map_._rkeys) or map_._rkeys[i] != rkey:
        raise KeyError(rkey)
    rkeys = np.array([rkey], dtype=np.int64)
    keys = map_._cubes(np.array([i]))[0]
    (z_min,), (z_max,) = map_.region_bands(rkeys)
    return SimpleNamespace(
        keys=keys, z_min=float(z_min), z_max=float(z_max),
        occupied_count=len(keys), fitted=bool(map_._fitted[i]))


# ---------------------------------------------------------------------------
# The DOR benchmark scene: flat ground, two tall static boxes, two low static
# slabs, and two box-shaped movers crossing the sensor's path.  The sensor
# drives down +x at 1 m/s for 20 s.  Both movers finish crossing well before
# the run ends so their trails can be cleaned from later viewpoints.

def dor_scene() -> SceneSpec:
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


# A long drive-by where one mover crosses far behind the sensor: front-end
# returns out there are too sparse to flag its trail, so the residue survives
# until a keyframe recorded near the crossing point is replayed.

def residue_scene() -> SceneSpec:
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


@pytest.fixture(scope="session")
def dor_frames():
    return synth_scene(dor_scene(), seed=0)


@pytest.fixture(scope="session")
def dor_runs(dor_frames):
    """Full-pipeline DOR runs at 0.4 / 0.8 / 1.6 m region sizes.

    Returns {mask_bits: (PipelineResult, EvalResult, wall_seconds)}.
    """
    runs = {}
    for bits in (2, 3, 4):
        t0 = time.perf_counter()
        result = run_pipeline(dor_config(bits), dor_frames)
        wall = time.perf_counter() - t0
        ev = evaluate(result.map, result.truth_points, result.truth_mask)
        runs[bits] = (result, ev, wall)
    return runs


@pytest.fixture(scope="session")
def dor_rerun(dor_frames):
    """A second, independent run of the 0.8 m DOR benchmark."""
    result = run_pipeline(dor_config(3), dor_frames)
    ev = evaluate(result.map, result.truth_points, result.truth_mask)
    return result, ev


@pytest.fixture(scope="session")
def dor_kitti_map(dor_frames, tmp_path_factory):
    """The bytes of the 0.8 m DOR map that ``rhmap run`` builds from the DOR
    frames written as KITTI scans, whose float32 coordinates round the
    synthetic points."""
    root = tmp_path_factory.mktemp("dor_kitti")
    scans, poses, out = root / "velodyne", root / "poses.txt", root / "map.ply"
    scans.mkdir()
    for i, (scan, _, _) in enumerate(dor_frames):
        write_kitti_scan(scans / f"{i:06d}.bin", scan.points)
    write_poses(poses, [pose for _, pose, _ in dor_frames])
    fe = dor_config(3).frontend
    flags = {"mask_bits": 3, "image_rows": fe.image_rows,
             "image_cols": fe.image_cols, "fov_down_deg": fe.fov_down_deg,
             "fov_up_deg": fe.fov_up_deg, "r_max": fe.r_max}
    argv = ["run", "--scans", str(scans), "--poses", str(poses),
            "--out", str(out)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    shutil.rmtree(scans)
    return out.read_bytes()


@pytest.fixture(scope="session")
def residue_runs():
    """(front-end-only dynamic cube count, full-pipeline count, wall s,
    {backend_enabled: map})."""
    frames = synth_scene(residue_scene(), seed=0)
    t0 = time.perf_counter()
    counts, maps = {}, {}
    for enabled in (False, True):
        result = run_pipeline(residue_config(enabled), frames)
        counts[enabled] = count_dynamic_cubes(
            result.map, result.truth_points, result.truth_mask)
        maps[enabled] = result.map
    wall = time.perf_counter() - t0
    return counts[False], counts[True], wall, maps


def bench_config() -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.frontend.image_rows = 64
    cfg.frontend.image_cols = 1600
    cfg.frontend.r_max = 60.0
    return cfg


@pytest.fixture(scope="session")
def bench_run():
    """Throughput run on ~100k-point 64-beam scans at 0.1 m cubes."""
    frames = synth_scene(bench_scene(30), seed=0)
    t0 = time.perf_counter()
    result = run_pipeline(bench_config(), frames)
    wall = time.perf_counter() - t0
    points_per_frame = float(np.mean([len(s) for s, _, _ in frames]))
    return result, points_per_frame, wall
