"""Map quality metrics: preservation and rejection rates per cube, scored
from a histogram of the labeled truth (its static and dynamic points per
cube) rather than from the points themselves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import (cube_indices, find_sorted, from_region_major, pack3,
                       run_starts)

#: Keys converted at a time by :meth:`TruthHistogram.finish`, so the
#: conversion's temporaries stay small beside the table.
_CONVERT_CHUNK = 1 << 16


@dataclass
class EvalResult:
    pr: float | None       # preservation rate of static points
    rr: float | None       # rejection rate of dynamic points
    f1: float | None
    n_sta: int
    n_dyn: int
    n_tn: int
    n_tp: int

    def to_dict(self) -> dict:
        return {"PR": self.pr, "RR": self.rr, "F1": self.f1,
                "N_sta": self.n_sta, "N_dyn": self.n_dyn,
                "N_TN": self.n_tn, "N_TP": self.n_tp}


def f1_score(pr: float, rr: float) -> float:
    """Harmonic mean of the preservation and rejection rates."""
    if pr + rr == 0:
        return 0.0
    return 2.0 * pr * rr / (pr + rr)


def cube_keys(points: np.ndarray, cube_size: float) -> np.ndarray:
    """Packed int64 keys of the cubes holding (N, 3) points, in point order."""
    gidx = cube_indices(np.asarray(points).reshape(-1, 3), cube_size)
    return pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2])


def _histogram(keys, counts):
    """Validated (keys, counts) pair of a truth histogram."""
    keys, counts = np.asarray(keys), np.asarray(counts)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise ValueError("truth must be a 1-D integer array of packed cube "
                         f"keys, got {keys.dtype} of shape {keys.shape}; "
                         "quantise points with cube_keys()")
    if counts.shape != (len(keys), 2) or counts.dtype.kind not in "iu":
        raise ValueError(f"{len(keys)} truth keys need ({len(keys)}, 2) "
                         f"integer counts, got {counts.dtype} of shape "
                         f"{counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError("truth counts must not be negative")
    return keys.astype(np.int64, copy=False), counts


class TruthHistogram:
    """Static and dynamic point counts per cube of a labeled cloud, added
    a frame at a time: all that cube-level scoring reads of the cloud.

    A frame's part comes from its grouping (:class:`~.indexing.ScanCubes`):
    its sorted distinct region-major cube keys, at the histogram's
    ``mask_bits``, and one bincount of its points' cube ids per label.  The
    table is kept sorted by region-major key, with one count array per
    label.  A part's rows whose keys the table holds are added in place.
    The others wait in a pending list, folded in (one sort, one reduce, one
    sorted insert) once they are as many as the table's rows.  So table
    plus pending rows stay below twice the distinct keys added, and each
    fold is paid for by at least as many rows added since the last one.
    """

    def __init__(self, mask_bits: int):
        self._mask_bits = mask_bits
        self._reset()

    def _reset(self):
        self._keys = np.empty(0, dtype=np.int64)
        #: (2, n): static and dynamic counts of each table row
        self._counts = np.empty((2, 0), dtype=np.int64)
        #: (keys, static, dynamic) of the rows waiting to be folded in
        self._pending = []
        self._n_pending = 0

    @property
    def rows(self) -> int:
        """Table rows plus pending rows."""
        return len(self._keys) + self._n_pending

    def add(self, cube_rm: np.ndarray, point_cube: np.ndarray, mask):
        """Add a frame's labeled points, given its grouping's sorted
        region-major cube keys ``cube_rm``, each point's cube id
        ``point_cube`` and each point's dynamic label ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != len(point_cube):
            raise ValueError(f"{len(point_cube)} truth points but "
                             f"{mask.size} labels")
        n = len(cube_rm)
        counts = np.empty((2, n), dtype=np.int64)
        counts[0] = np.bincount(point_cube, minlength=n)
        counts[1] = np.bincount(point_cube[mask.reshape(-1)], minlength=n)
        counts[0] -= counts[1]
        pos, found = find_sorted(self._keys, cube_rm)
        at = pos[found]
        for row, part in zip(self._counts, counts):
            row[at] += part[found]
        if found.all():
            return
        new = ~found
        self._pending.append((cube_rm[new],
                              *(part[new] for part in counts)))
        self._n_pending += len(self._pending[-1][0])
        if self._n_pending >= len(self._keys):
            self._fold()

    def _fold(self):
        """Insert the pending rows into the table.  No pending key is in
        the table, but a key may be pending more than once.  Rows move by
        integer scatters: a boolean-mask assignment is several times
        slower at this size."""
        keys, *counts = (np.concatenate(col) for col in zip(*self._pending))
        self._pending, self._n_pending = [], 0
        order = np.argsort(keys)
        keys = keys[order]
        starts = run_starts(keys)
        keys = keys[starts]
        n, k = len(self._keys), len(keys)
        new = np.searchsorted(self._keys, keys) + np.arange(k)
        is_old = np.ones(n + k, dtype=bool)
        is_old[new] = False
        old = np.flatnonzero(is_old)
        grown = np.empty(n + k, dtype=np.int64)
        grown[new], grown[old] = keys, self._keys
        self._keys = grown
        grown = np.empty((2, n + k), dtype=np.int64)
        for row, part, table in zip(grown, counts, self._counts):
            row[new] = np.add.reduceat(part[order], starts)
            row[old] = table
        self._counts = grown

    def finish(self):
        """The histogram as (packed keys, (n, 2) counts), each key once, and
        the accumulator emptied.  The keys are converted from region-major
        keys in place, a chunk at a time, so they stay in region-major
        order, which is not packed order."""
        if self._pending:
            self._fold()
        keys, counts = self._keys, self._counts
        self._reset()
        for lo in range(0, len(keys), _CONVERT_CHUNK):
            chunk = keys[lo:lo + _CONVERT_CHUNK]
            chunk[:] = from_region_major(chunk, self._mask_bits)
        return keys, counts.T


def evaluate(map_, truth_keys: np.ndarray, counts: np.ndarray) -> EvalResult:
    """Score a final map against a labeled ground-truth cloud.

    The cloud is given as its truth histogram: distinct packed cube keys
    (at the map's cube size) and an (n, 2) integer array of the static and
    dynamic points in each (:class:`TruthHistogram`).  Only
    ``map_.occupied_keys()`` is read from the map.  A ground-truth point
    counts as preserved when the cube containing it is occupied in the
    final map.  Metrics with an empty denominator are reported as None.
    """
    keys, counts = _histogram(truth_keys, counts)
    _, hit = find_sorted(map_.occupied_keys(), keys)
    n_sta, n_dyn = (int(c.sum()) for c in counts.T)
    n_tn, n_tp = (int(c[hit].sum()) for c in counts.T)
    pr = n_tn / n_sta if n_sta else None
    rr = 1.0 - n_tp / n_dyn if n_dyn else None
    f1 = f1_score(pr, rr) if pr is not None and rr is not None else None
    return EvalResult(pr, rr, f1, n_sta, n_dyn, n_tn, n_tp)


def count_dynamic_cubes(map_, truth_keys: np.ndarray,
                        counts: np.ndarray) -> int:
    """Occupied cubes of the final map that contain a dynamic-labeled point
    (truth given as a histogram, as for :func:`evaluate`)."""
    keys, counts = _histogram(truth_keys, counts)
    _, hit = find_sorted(map_.occupied_keys(), keys[counts[:, 1] > 0])
    return int(hit.sum())
