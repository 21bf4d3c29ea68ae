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


def cube_keys(points: np.ndarray, cube_size: float) -> np.ndarray:
    """Packed int64 keys of the cubes holding (N, 3) points, in point order."""
    gidx = cube_indices(np.asarray(points).reshape(-1, 3), cube_size)
    return pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2])


def _truth(truth_keys, dynamic_mask):
    """Validated (keys, mask) pair of a ground-truth cloud."""
    keys = np.asarray(truth_keys)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise ValueError("truth must be a 1-D integer array of packed cube "
                         f"keys, got {keys.dtype} of shape {keys.shape}; "
                         "quantise points with cube_keys()")
    mask = np.asarray(dynamic_mask, dtype=bool)
    if mask.shape != keys.shape:
        raise ValueError(f"{len(keys)} truth keys but {mask.size} labels")
    return keys.astype(np.int64, copy=False), mask


def evaluate(map_, truth_keys: np.ndarray,
             dynamic_mask: np.ndarray) -> EvalResult:
    """Score a final map against a labeled ground-truth cloud.

    The cloud is given as the packed cube key of each point
    (:func:`cube_keys` at the map's cube size); only
    ``map_.occupied_keys()`` is read from the map.  A ground-truth point
    counts as preserved when the cube containing it is occupied in the
    final map.  Metrics with an empty denominator are reported as None.
    """
    keys, dynamic_mask = _truth(truth_keys, dynamic_mask)
    _, hit = find_sorted(map_.occupied_keys(), keys)
    n_sta = int((~dynamic_mask).sum())
    n_dyn = int(dynamic_mask.sum())
    n_tn = int(hit[~dynamic_mask].sum())
    n_tp = int(hit[dynamic_mask].sum())
    pr = n_tn / n_sta if n_sta else None
    rr = 1.0 - n_tp / n_dyn if n_dyn else None
    f1 = f1_score(pr, rr) if pr is not None and rr is not None else None
    return EvalResult(pr, rr, f1, n_sta, n_dyn, n_tn, n_tp)


def count_dynamic_cubes(map_, truth_keys: np.ndarray,
                        dynamic_mask: np.ndarray) -> int:
    """Occupied cubes of the final map that contain a dynamic-labeled point
    (truth given as packed cube keys, as for :func:`evaluate`)."""
    keys, dynamic_mask = _truth(truth_keys, dynamic_mask)
    dyn_cubes = sorted_unique(keys[dynamic_mask])
    _, hit = find_sorted(map_.occupied_keys(), dyn_cubes)
    return int(hit.sum())


def timing_report(frame_times_ms) -> dict:
    """Mean frame wall time and implied frequency over pipeline phases."""
    times = np.asarray(list(frame_times_ms), dtype=np.float64)
    if len(times) == 0:
        raise ValueError("timing report needs at least one frame")
    mean_ms = float(times.mean())
    return {"mean_ms": mean_ms, "hz": 1000.0 / mean_ms if mean_ms > 0 else float("inf")}
