"""Scan/pose containers and rigid transforms."""

import numpy as np
import pytest

from rhmap.geometry import Pose, Scan, transform_scan

from conftest import identity_pose


def rotz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_identity_pose_is_noop():
    scan = Scan(points=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    out = transform_scan(scan, identity_pose())
    assert np.array_equal(out, scan.points)


def test_pure_translation():
    scan = Scan(points=np.zeros((1, 3)))
    out = transform_scan(scan, Pose(np.eye(3), np.array([1.0, 2.0, 3.0])))
    assert np.allclose(out, [[1.0, 2.0, 3.0]])


def test_rotation_preserves_norms():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3))
    pose = Pose(rotz(0.7) @ np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0.0]]),
                np.zeros(3))
    out = transform_scan(Scan(points=pts), pose)
    assert np.allclose(np.linalg.norm(out, axis=1),
                       np.linalg.norm(pts, axis=1), atol=1e-9)


def test_transform_matches_direct_formula():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    pose = Pose(rotz(-1.2), np.array([3.0, -4.0, 0.5]))
    out = transform_scan(Scan(points=pts), pose)
    ref = (pose.rotation @ pts.T).T + pose.translation
    assert np.allclose(out, ref, atol=1e-12)


def test_bad_rotation_rejected():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["rotation", "translation"])
def test_non_finite_pose_rejected(part, bad):
    # NaN compares False, so it slipped past the orthonormality and
    # determinant checks
    rot, t = np.eye(3), np.zeros(3)
    if part == "rotation":
        rot[1, 2] = bad
    else:
        t[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Pose(rot, t)


def test_scan_validation():
    with pytest.raises(ValueError):
        Scan(points=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Scan(points=np.array([[0.0, 0.0, np.inf]]))
    assert len(Scan(points=np.zeros((4, 3)))) == 4


def test_pose_distance():
    a = Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
    b = Pose(rotz(1.0), np.array([3.0, 4.0, 0.0]))
    assert a.distance_to(b) == 5.0
