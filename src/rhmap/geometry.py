"""Scan and pose containers plus rigid-body transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_APPLY_BLOCK = 8192     # rows per matrix product in Pose.apply


@dataclass
class Scan:
    """One LiDAR sweep in the sensor frame."""

    points: np.ndarray                      # (N, 3) float64, meters
    timestamp: float = 0.0

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"scan points must be (N, 3), got {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise ValueError("scan contains non-finite coordinates")

    def __len__(self):
        return len(self.points)


@dataclass
class Pose:
    """SE(3) sensor-to-world transform."""

    rotation: np.ndarray                    # (3, 3)
    translation: np.ndarray                 # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        # a NaN compares False below, so it would pass both checks
        if not (np.isfinite(self.rotation).all()
                and np.isfinite(self.translation).all()):
            raise ValueError("pose contains non-finite values")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-6:
            raise ValueError(f"rotation is not orthonormal (max error {err:.2e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            return points @ self.rotation.T + self.translation
        # Row blocks keep each product on one BLAS thread: over a whole scan
        # OpenBLAS hands it to worker threads whose spin-waiting, on a host
        # with few cores, costs the frame far more than the product.  Blocks
        # are near-equal, so none is a single row, which numpy would send
        # down the matrix-vector path that rounds differently.
        out = np.empty(points.shape)
        rt = self.rotation.T
        bounds = np.linspace(0, len(points), -(-len(points) // _APPLY_BLOCK) + 1)
        bounds = bounds.astype(np.int64).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            np.matmul(points[a:b], rt, out=out[a:b])
        out += self.translation
        return out

    def distance_to(self, other: "Pose") -> float:
        return float(np.linalg.norm(self.translation - other.translation))


def transform_scan(scan: Scan, pose: Pose) -> np.ndarray:
    """World-frame coordinates of a scan, (N, 3)."""
    return pose.apply(scan.points)
