"""Dataset ingestion (KITTI-style binaries, poses, labels) and map export."""

from __future__ import annotations

import itertools

import numpy as np

from .geometry import Pose, Scan

# SemanticKITTI's moving classes: moving car, bicyclist, person,
# motorcyclist, on-rails, bus, truck and other vehicle
MOVING_CLASSES = np.arange(252, 260, dtype=np.uint32)


class FormatError(ValueError):
    """Raised for malformed dataset files, with a positioned diagnostic."""


def read_kitti_scan(path) -> Scan:
    """Read little-endian float32 (x, y, z, intensity) quadruples; a
    non-finite coordinate is a :class:`FormatError` naming the file."""
    raw = np.fromfile(path, dtype=np.uint8)
    if len(raw) % 16 != 0:
        raise FormatError(
            f"{path}: truncated scan, {len(raw)} bytes is not a multiple of 16 "
            f"(stops at byte {len(raw) - len(raw) % 16})")
    data = raw.view("<f4").reshape(-1, 4)
    try:
        return Scan(points=data[:, :3].astype(np.float64))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def write_kitti_scan(path, points: np.ndarray):
    data = np.zeros((len(points), 4), dtype="<f4")
    data[:, :3] = points
    data.tofile(path)


def read_poses(path) -> list[Pose]:
    """Read one row-major 3x4 pose per line; drifted rotations get fixed.

    A rotation block whose orthonormality error exceeds 1e-6 is projected
    back to SO(3) via SVD before the Pose is built.  A line with a
    non-finite value is rejected.
    """
    poses = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 12:
                raise FormatError(f"{path}:{lineno}: expected 12 values, "
                                  f"got {len(parts)}")
            try:
                vals = np.array([float(v) for v in parts]).reshape(3, 4)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
            if not np.isfinite(vals).all():
                raise FormatError(f"{path}:{lineno}: non-finite pose value")
            rot, t = vals[:, :3], vals[:, 3]
            if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-6:
                u, _, vt = np.linalg.svd(rot)
                rot = u @ vt
                if np.linalg.det(rot) < 0:
                    rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt
            poses.append(Pose(rot, t))
    return poses


def read_times(path) -> list[float]:
    """Read one finite timestamp in seconds per line (KITTI ``times.txt``)."""
    times = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                t = float(line)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
            if not np.isfinite(t):
                raise FormatError(f"{path}:{lineno}: timestamp {t} is not finite")
            times.append(t)
    return times


def write_times(path, times):
    """Write one timestamp per line, as ``repr(float)`` so that
    :func:`read_times` reads back the same floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(repr(float(t)) + "\n" for t in times)


def write_poses(path, poses):
    with open(path, "w", encoding="utf-8") as fh:
        for pose in poses:
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            fh.write(" ".join(repr(float(v)) for v in mat.ravel()) + "\n")


def read_labels(path, expected_count: int | None = None) -> np.ndarray:
    """Per-point dynamic mask from uint32 labels (low 16 bits = class id):
    a point is dynamic when its class is one of ``MOVING_CLASSES``."""
    raw = np.fromfile(path, dtype=np.uint8)
    if len(raw) % 4 != 0:
        raise FormatError(f"{path}: label file length {len(raw)} is not a "
                          f"multiple of 4")
    labels = raw.view("<u4")
    if expected_count is not None and len(labels) != expected_count:
        raise FormatError(f"{path}: {len(labels)} labels for "
                          f"{expected_count} scan points")
    classes = labels & 0xFFFF
    return np.isin(classes, MOVING_CLASSES)


def write_labels(path, labels: np.ndarray):
    np.asarray(labels, dtype="<u4").tofile(path)


def write_map_ply(map_, path):
    """ASCII PLY export of occupied cube centers with a ground flag."""
    points, ground = map_.export_occupied_points()
    # Python floats and ints format faster than numpy scalars, same bytes
    body = "".join(f"{x:.6f} {y:.6f} {z:.6f} {g}\n" for x, y, z, g in
                   zip(*points.T.tolist(), ground.astype(np.uint8).tolist()))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ply\nformat ascii 1.0\n"
                     f"element vertex {len(points)}\n"
                     "property float x\nproperty float y\nproperty float z\n"
                     "property uchar is_ground\nend_header\n")
            fh.write(body)
    except OSError as e:
        raise FormatError(f"{path}: {e}") from e


def read_map_ply(path):
    """Parse the PLY written by :func:`write_map_ply`.

    Returns (points (N, 3), is_ground (N,) bool).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "ply":
            raise FormatError(f"{path}: not a PLY file")
        count = None
        while True:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: missing end_header")
            line = line.strip()
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            elif line == "end_header":
                break
        if count is None:
            raise FormatError(f"{path}: missing vertex element")
        # exactly the next ``count`` lines, each "x y z is_ground"; a blank,
        # short or malformed line leaves fewer or ragged rows
        try:
            rows = (np.loadtxt(itertools.islice(fh, count), ndmin=2,
                               comments=None) if count > 0
                    else np.zeros((0, 4)))
        except ValueError as e:
            raise FormatError(f"{path}: bad vertex data: {e}") from e
    if rows.shape != (count, 4):
        raise FormatError(f"{path}: bad vertex data: {rows.shape[0]} rows of "
                          f"{rows.shape[1]} values for {count} vertices of 4")
    return rows[:, :3].copy(), rows[:, 3] != 0
