"""Map quality metrics (preservation/rejection rates) and timing summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import cube_indices, find_sorted, pack3, sorted_unique


@dataclass
class EvalResult:
    pr: float | None       # preservation rate of static points
    rr: float | None       # rejection rate of dynamic points
    f1: float | None
    n_sta: int
    n_dyn: int
    n_tn: int
    n_tp: int
    mean_ms: float = 0.0
    hz: float = 0.0

    def to_dict(self) -> dict:
        return {"PR": self.pr, "RR": self.rr, "F1": self.f1,
                "N_sta": self.n_sta, "N_dyn": self.n_dyn,
                "N_TN": self.n_tn, "N_TP": self.n_tp,
                "mean_ms": self.mean_ms, "hz": self.hz}


def f1_score(pr: float, rr: float) -> float:
    """Harmonic mean of the preservation and rejection rates."""
    if pr + rr == 0:
        return 0.0
    return 2.0 * pr * rr / (pr + rr)


def _cube_keys(points: np.ndarray, cube_size: float) -> np.ndarray:
    gidx = cube_indices(np.asarray(points).reshape(-1, 3), cube_size)
    return pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2])


def evaluate(map_, points: np.ndarray, dynamic_mask: np.ndarray) -> EvalResult:
    """Score a final map against a labeled ground-truth cloud.

    A ground-truth point counts as preserved when the cube containing it
    is occupied in the final map.  Metrics with an empty denominator are
    reported as None.
    """
    keys = _cube_keys(points, map_.config.cube_size)
    _, hit = find_sorted(map_.occupied_keys(), keys)
    dynamic_mask = np.asarray(dynamic_mask, dtype=bool)
    n_sta = int((~dynamic_mask).sum())
    n_dyn = int(dynamic_mask.sum())
    n_tn = int(hit[~dynamic_mask].sum())
    n_tp = int(hit[dynamic_mask].sum())
    pr = n_tn / n_sta if n_sta else None
    rr = 1.0 - n_tp / n_dyn if n_dyn else None
    f1 = f1_score(pr, rr) if pr is not None and rr is not None else None
    return EvalResult(pr, rr, f1, n_sta, n_dyn, n_tn, n_tp)


def count_dynamic_cubes(map_, points: np.ndarray,
                        dynamic_mask: np.ndarray) -> int:
    """Occupied cubes of the final map that contain a dynamic-labeled point."""
    dynamic_mask = np.asarray(dynamic_mask, dtype=bool)
    pts = np.asarray(points, dtype=np.float64)[dynamic_mask]
    if len(pts) == 0:
        return 0
    keys = sorted_unique(_cube_keys(pts, map_.config.cube_size))
    _, hit = find_sorted(map_.occupied_keys(), keys)
    return int(hit.sum())


def timing_report(frame_times_ms) -> dict:
    """Mean frame wall time and implied frequency over pipeline phases."""
    times = np.asarray(list(frame_times_ms), dtype=np.float64)
    if len(times) == 0:
        raise ValueError("timing report needs at least one frame")
    mean_ms = float(times.mean())
    return {"mean_ms": mean_ms, "hz": 1000.0 / mean_ms if mean_ms > 0 else float("inf")}
