"""Map quality metrics: preservation and rejection rates per cube, scored
from a histogram of the labeled truth (its static and dynamic points per
cube) rather than from the points themselves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import (cube_indices, find_sorted, from_region_major,
                       insert_rows, pack3, run_starts)

#: Keys converted at a time by :meth:`TruthHistogram.finish`, so the
#: conversion's temporaries stay small beside the table.  At 64k keys they
#: came to ~2 MB, 18 B a cube of a 121k-cube histogram, more than the
#: counts' copy; at 16k the conversion of 321k keys also ran faster (3.6
#: against 4.7 ms).
_CONVERT_CHUNK = 1 << 14


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


#: Largest count an int32 column holds.  No cube's count exceeds the
#: labeled points added so far, so the histogram widens its counts to int64
#: once that total would pass this.
COUNT_MAX = int(np.iinfo(np.int32).max)

#: Pending rows are folded into the truth table once they number at least
#: 1/FOLD_DIVISOR of its rows.  Most pending rows repeat a key (late in
#: the residue drive 235k pending rows held 58k distinct keys), so waiting
#: for as many as the table's rows doubled what a fold holds.  On that
#: 600-frame drive (2-vCPU host, one run each) the tracemalloc peak of the
#: run was 14.3, 13.0, 12.1 and 11.9 MB at divisors 1, 2, 4 and 8, in 10,
#: 14, 20 and 31 folds, and the largest fold fell 24.7 -> 8.0 ms from 1 to
#: 4 while the folds' total time held.  Beyond 4 the peak barely moves and the folds,
#: each a copy of the whole table, keep multiplying.
FOLD_DIVISOR = 4


class TruthHistogram:
    """Static and dynamic point counts per cube of a labeled cloud, added
    a frame at a time: all that cube-level scoring reads of the cloud.

    A frame's part comes from its grouping (:class:`~.indexing.ScanCubes`):
    its sorted distinct region-major cube keys, at the histogram's
    ``mask_bits``, and one bincount of its points' cube ids per label.  The
    table is kept sorted by region-major key, as three columns: the int64
    keys and the static and dynamic counts.  The counts are int32, so a row
    takes 16 B, until the labeled points added would pass
    :data:`COUNT_MAX`; then they widen to int64, once.  A part's rows whose
    keys the table holds are added in place.  The others wait in a pending
    list, folded in (one sort, one reduce, one sorted insert) once they
    number a quarter of the table's rows (:data:`FOLD_DIVISOR`).  So table
    plus pending rows stay within 1.25 times the distinct keys added, and
    each fold is paid for by at least a quarter as many rows added since
    the last one.  :meth:`finish` hands the counts over in the dtype they
    were kept in.
    """

    def __init__(self, mask_bits: int):
        self._mask_bits = mask_bits
        self._reset()

    def _reset(self):
        self._keys = np.empty(0, dtype=np.int64)
        #: static and dynamic counts of each table row
        self._counts = [np.empty(0, dtype=np.int32) for _ in range(2)]
        #: the rows waiting to be folded in, as parts of each column: keys,
        #: static counts, dynamic counts
        self._pending = ([], [], [])
        self._n_pending = 0
        #: labeled points added, which bounds every count
        self._n_points = 0

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
        self._n_points += len(point_cube)
        if self._n_points > COUNT_MAX and self._counts[0].dtype != np.int64:
            self._widen()
        n, dtype = len(cube_rm), self._counts[0].dtype
        dynamic = np.bincount(point_cube[mask.reshape(-1)], minlength=n)
        static = np.bincount(point_cube, minlength=n) - dynamic
        counts = [part.astype(dtype) for part in (static, dynamic)]
        pos, found = find_sorted(self._keys, cube_rm)
        at = pos[found]
        for row, part in zip(self._counts, counts):
            row[at] += part[found]
        if found.all():
            return
        new = ~found
        for col, part in zip(self._pending, (cube_rm, *counts)):
            col.append(part[new])
        self._n_pending += len(self._pending[0][-1])
        if self._n_pending * FOLD_DIVISOR >= len(self._keys):
            self._fold()

    def _widen(self):
        """Hold the counts, table and pending, as int64 from now on."""
        self._counts = [row.astype(np.int64) for row in self._counts]
        for col in self._pending[1:]:
            col[:] = [part.astype(np.int64) for part in col]

    def _fold(self):
        """Insert the pending rows into the table a column at a time: the
        keys, then the static counts, then the dynamic counts, each at the
        same rows of the grown table, which one destination index holds.
        A column's pending parts and its old table column are dropped as
        soon as its grown column exists.  No pending key is in the table,
        but a key may be pending more than once."""
        pending, self._pending = self._pending, ([], [], [])
        self._n_pending = 0
        keys = np.concatenate(pending[0])
        pending[0].clear()
        order = np.argsort(keys)
        keys = keys[order]
        starts = run_starts(keys)
        keys = keys[starts]
        dest = np.searchsorted(self._keys, keys)
        dest += np.arange(len(dest))
        [self._keys] = insert_rows([self._keys], dest, [keys])
        del keys
        for i, parts in enumerate(pending[1:]):
            part = np.concatenate(parts)
            parts.clear()
            part = np.add.reduceat(part[order], starts, dtype=part.dtype)
            [self._counts[i]] = insert_rows([self._counts[i]], dest, [part])

    def finish(self):
        """The histogram as (packed keys, (n, 2) counts), each key once,
        and the accumulator emptied.  The counts keep the histogram's
        dtype: int32, or int64 once :data:`COUNT_MAX` widened them.  The
        keys are converted from region-major keys in place, a chunk at a
        time, so they stay in region-major order, which is not packed
        order."""
        if self._n_pending:
            self._fold()
        keys, columns = self._keys, self._counts
        self._reset()
        for lo in range(0, len(keys), _CONVERT_CHUNK):
            chunk = keys[lo:lo + _CONVERT_CHUNK]
            chunk[:] = from_region_major(chunk, self._mask_bits)
        # each count column is copied, then dropped
        counts = np.empty((2, len(keys)), dtype=columns[0].dtype)
        for i in range(2):
            counts[i] = columns[i]
            columns[i] = None
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
    # int32 counts are summed as int64: their sums may pass COUNT_MAX
    n_sta, n_dyn = (int(c.sum(dtype=np.int64)) for c in counts.T)
    n_tn, n_tp = (int(c[hit].sum(dtype=np.int64)) for c in counts.T)
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
