"""Dataset file formats: scans, poses, labels and the PLY map export."""

import numpy as np
import pytest

from rhmap.config import MapConfig
from rhmap.geometry import Pose
from rhmap.io_formats import (FormatError, read_kitti_scan, read_labels,
                              read_map_ply, read_poses, write_kitti_scan,
                              write_labels, write_map_ply, write_poses)
from rhmap.map_core import RHMap

from conftest import hit_cubes, integrate, mark_ground_keys, table_keys


def test_scan_empty_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    assert len(read_kitti_scan(p)) == 0


def test_scan_single_point(tmp_path):
    p = tmp_path / "one.bin"
    np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tofile(p)
    scan = read_kitti_scan(p)
    assert np.allclose(scan.points, [[1.0, 2.0, 3.0]])


def test_scan_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3)).astype(np.float32).astype(np.float64)
    p = tmp_path / "rt.bin"
    write_kitti_scan(p, pts, intensity=rng.random(500))
    scan = read_kitti_scan(p)
    assert np.array_equal(scan.points, pts)


def test_scan_truncated_reports_offset(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 16"):
        read_kitti_scan(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_non_finite_coordinate_names_the_file(tmp_path, bad):
    p = tmp_path / "000007.bin"
    data = np.ones((3, 4), dtype="<f4")
    data[1, 2] = bad
    data.tofile(p)
    with pytest.raises(FormatError, match=r"000007\.bin: .*non-finite"):
        read_kitti_scan(p)
    # a non-finite intensity is not a coordinate
    data[1, 2], data[2, 3] = 0.0, bad
    data.tofile(p)
    assert len(read_kitti_scan(p)) == 3


def test_poses_identity_and_translation(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                 "1 0 0 5 0 1 0 -2 0 0 1 0.5\n")
    poses = read_poses(p)
    assert len(poses) == 2
    assert np.array_equal(poses[0].rotation, np.eye(3))
    assert np.allclose(poses[1].translation, [5.0, -2.0, 0.5])


def test_poses_repr_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    poses = []
    for _ in range(20):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        poses.append(Pose(q, rng.normal(size=3)))
    p = tmp_path / "poses.txt"
    write_poses(p, poses)
    back = read_poses(p)
    for a, b in zip(poses, back):
        assert np.allclose(a.rotation, b.rotation, atol=1e-9)
        assert np.allclose(a.translation, b.translation, atol=1e-9)


def test_poses_malformed_line_number(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 2 3\n")
    with pytest.raises(FormatError, match=":2:"):
        read_poses(p)
    p.write_text("1 0 0 0 0 x 0 0 0 0 1 0\n")
    with pytest.raises(FormatError, match=":1:"):
        read_poses(p)


@pytest.mark.parametrize("col", [5, 7])     # a rotation entry, a translation
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_poses_non_finite_value_line_number(tmp_path, col, bad):
    vals = "1 0 0 0 0 1 0 0 0 0 1 0".split()
    vals[col] = bad
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" + " ".join(vals) + "\n")
    with pytest.raises(FormatError, match=":2: non-finite"):
        read_poses(p)


def test_poses_drifted_rotation_reorthonormalized(tmp_path):
    rot = np.eye(3) + 1e-2 * np.array([[0.0, -1.0, 0.0],
                                       [1.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0]])
    vals = np.hstack([rot, np.zeros((3, 1))]).ravel()
    p = tmp_path / "poses.txt"
    p.write_text(" ".join(repr(float(v)) for v in vals) + "\n")
    (pose,) = read_poses(p)
    err = np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max()
    assert err < 1e-12


def test_labels_static_and_moving(tmp_path):
    p = tmp_path / "labels.bin"
    write_labels(p, np.array([0, 252, 40, 259, 251], dtype=np.uint32))
    mask = read_labels(p)
    assert mask.tolist() == [False, True, False, True, False]


def test_labels_instance_bits_ignored(tmp_path):
    # high 16 bits carry an instance id; class id is the low half
    p = tmp_path / "labels.bin"
    write_labels(p, np.array([(7 << 16) | 253, (9 << 16) | 40],
                             dtype=np.uint32))
    assert read_labels(p).tolist() == [True, False]


def test_labels_matches_brute_force(tmp_path):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 300, size=1000).astype(np.uint32)
    p = tmp_path / "labels.bin"
    write_labels(p, labels)
    mask = read_labels(p, expected_count=1000)
    expect = [252 <= int(v) <= 259 for v in labels]
    assert mask.tolist() == expect


def test_labels_length_errors(tmp_path):
    p = tmp_path / "labels.bin"
    p.write_bytes(b"\x00" * 6)
    with pytest.raises(FormatError, match="multiple of 4"):
        read_labels(p)
    write_labels(p, np.zeros(3, dtype=np.uint32))
    with pytest.raises(FormatError, match="3 labels for 4"):
        read_labels(p, expected_count=4)


def test_ply_empty_map(tmp_path):
    map_ = RHMap(MapConfig())
    p = tmp_path / "map.ply"
    write_map_ply(map_, p)
    pts, ground = read_map_ply(p)
    assert len(pts) == 0 and len(ground) == 0


def test_ply_single_cube_center(tmp_path):
    map_ = RHMap(MapConfig())
    hit_cubes(map_, (0, 0, 0))
    p = tmp_path / "map.ply"
    write_map_ply(map_, p)
    pts, ground = read_map_ply(p)
    assert np.allclose(pts, [[0.05, 0.05, 0.05]])
    assert ground.tolist() == [False]


def test_ply_round_trip_with_ground_flags(tmp_path):
    rng = np.random.default_rng(3)
    map_ = RHMap(MapConfig())
    integrate(map_, rng.uniform(-2, 2, size=(800, 3)))
    keys = table_keys(map_)
    mark_ground_keys(map_, keys[: len(keys) // 2])
    p = tmp_path / "map.ply"
    write_map_ply(map_, p)
    pts, ground = read_map_ply(p)
    exp_pts, exp_ground = map_.export_occupied_points()
    assert np.allclose(pts, exp_pts, atol=1e-6)
    assert np.array_equal(ground, exp_ground)


def test_ply_bad_files_raise(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text("not a ply\n")
    with pytest.raises(FormatError, match="not a PLY"):
        read_map_ply(p)
    p.write_text("ply\nformat ascii 1.0\nelement vertex 2\nend_header\n"
                 "0 0 0 0\n")
    with pytest.raises(FormatError, match="bad vertex"):
        read_map_ply(p)
    for rows in ("0 0 0\n0 0 0 0\n", "0 0 x 0\n0 0 0 0\n",
                 "0 0 0 0\n\n0 0 0 0\n", "0 0 0 0\n0 0 0 0 0\n"):
        p.write_text("ply\nformat ascii 1.0\nelement vertex 2\nend_header\n"
                     + rows)
        with pytest.raises(FormatError, match="bad vertex"):
            read_map_ply(p)
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
    with pytest.raises(FormatError, match="end_header"):
        read_map_ply(p)


def _write_ply_vertices_by_row(points, ground) -> bytes:
    """Reference vertex writer: one f-string per row of numpy scalars."""
    return "".join(f"{x:.6f} {y:.6f} {z:.6f} {int(g)}\n"
                   for (x, y, z), g in zip(points, ground)).encode()


def test_ply_write_matches_row_writer_bit_for_bit(tmp_path):
    rng = np.random.default_rng(6)
    map_ = RHMap(MapConfig())
    # negative, positive and far-out centers, some with long mantissas
    integrate(map_, rng.uniform(-3000, 3000, size=(3000, 3)))
    integrate(map_, rng.uniform(-1, 1, size=(500, 3)))
    mark_ground_keys(map_, table_keys(map_)[::4])
    p = tmp_path / "map.ply"
    write_map_ply(map_, p)
    header, _, body = p.read_bytes().partition(b"end_header\n")
    assert header.endswith(b"is_ground\n")
    assert body == _write_ply_vertices_by_row(*map_.export_occupied_points())


def _read_ply_vertices_by_line(path):
    """Line-by-line reference parser for the vertex rows."""
    with open(path, encoding="utf-8") as fh:
        while fh.readline().strip() != "end_header":
            pass
        rows = [line.split() for line in fh]
    return (np.array([[float(v) for v in r[:3]] for r in rows]).reshape(-1, 3),
            np.array([r[3] != "0" for r in rows], dtype=bool))


def test_ply_read_matches_line_parser_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    map_ = RHMap(MapConfig())
    integrate(map_, rng.uniform(-40, 40, size=(3000, 3)))
    mark_ground_keys(map_, table_keys(map_)[::3])
    p = tmp_path / "map.ply"
    write_map_ply(map_, p)
    pts, ground = read_map_ply(p)
    ref_pts, ref_ground = _read_ply_vertices_by_line(p)
    assert pts.tobytes() == ref_pts.tobytes()
    assert np.array_equal(ground, ref_ground) and ground.any()
