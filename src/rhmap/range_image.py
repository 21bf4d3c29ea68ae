"""Spherical range-image projection of a LiDAR scan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RangeImage:
    """A scan's cells: each holds its nearest point's range and id.

    ``rng`` is exactly 0 in empty cells and positive in filled ones, so it
    reads as a filled mask and as per-cell ranges at once.  Anything else
    about a cell's point, its height say, is read from the scan by ``pid``.
    """

    rng: np.ndarray        # (rows, cols) meters, 0 = empty
    pid: np.ndarray        # (rows, cols) int32 source point id, -1 = empty
    dropped: int           # points outside the vertical FOV
    in_fov: np.ndarray     # (N,) per input point, False for dropped points

    @property
    def rows(self) -> int:
        return self.rng.shape[0]

    @property
    def cols(self) -> int:
        return self.rng.shape[1]

    def filled(self) -> np.ndarray:
        return self.pid >= 0


def build_range_image(points: np.ndarray, rows: int, cols: int,
                      fov: tuple[float, float]) -> RangeImage:
    """Project sensor-frame points; on cell conflicts the nearer point wins.

    Row index grows with elevation (row 0 at fov[0]); column index grows
    with azimuth measured from +x, so a point on the +x axis lands in
    column 0.
    """
    if rows < 1 or cols < 1:
        raise ValueError("range image needs at least one row and column")
    points = np.asarray(points, dtype=np.float64)
    rng = np.zeros((rows, cols))
    pid = np.full((rows, cols), -1, dtype=np.int32)
    if len(points) == 0:
        return RangeImage(rng, pid, 0, np.zeros(0, dtype=bool))

    # the arithmetic of np.linalg.norm(points, axis=1), whose three-term
    # reduction adds left to right, without its per-row reduction overhead;
    # in place, so a frame holds few (N,) temporaries at once
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    depth = x * x
    tmp = y * y
    depth += tmp
    np.multiply(z, z, out=tmp)
    depth += tmp
    np.sqrt(depth, out=depth)
    valid = depth > 0
    tmp.fill(0.0)
    np.divide(z, depth, out=tmp, where=valid)
    np.clip(tmp, -1.0, 1.0, out=tmp)
    elev = np.arcsin(tmp, out=tmp)
    lo, hi = fov
    valid &= elev >= lo
    valid &= elev <= hi
    ids = np.flatnonzero(valid)
    dropped = len(points) - len(ids)

    # row, column and cell of the in-FOV points only
    elev = elev[ids]
    del tmp
    elev -= lo
    elev *= rows
    elev /= hi - lo
    cell = elev.astype(np.int64)
    del elev
    np.minimum(cell, rows - 1, out=cell)
    azim = np.arctan2(y[ids], x[ids])
    azim[azim < 0] += 2.0 * np.pi
    azim *= cols
    azim /= 2.0 * np.pi
    col = azim.astype(np.int64)
    del azim
    np.minimum(col, cols - 1, out=col)
    cell *= cols
    cell += col
    del col

    # the nearest point of a cell wins; ties go to the highest point id,
    # which is the highest position in ids
    d = depth[ids]
    del depth
    nearest = np.full(rows * cols, np.inf)
    np.minimum.at(nearest, cell, d)
    win = np.flatnonzero(d == nearest[cell])
    del nearest
    winner = np.full(rows * cols, -1, dtype=np.int64)
    np.maximum.at(winner, cell[win], win)
    del cell, win
    hit = np.flatnonzero(winner >= 0)
    winner = winner[hit]
    rng.reshape(-1)[hit] = d[winner]
    pid.reshape(-1)[hit] = ids[winner]
    return RangeImage(rng, pid, dropped, valid)


def extract_max_ring(image: RangeImage) -> np.ndarray:
    """Point ids of the per-column farthest return (the sensor's max ring).

    Empty cells read range 0, below any return, so a column's maximum is
    a filled cell unless the whole column is empty.
    """
    best = np.argmax(image.rng, axis=0)
    ids = image.pid[best, np.arange(image.cols)]
    return ids[ids >= 0].astype(np.int64)


def extract_sup_inf(image: RangeImage, r1: float, r2: float,
                    max_search: int = 10):
    """Per-point occlusion bounds found across vertical range jumps.

    For each filled cell, scan upward until the range difference to a
    filled cell exceeds ``r1`` in absolute value; that cell's point becomes
    the upper bound.  The downward scan with ``r2`` gives the lower bound.

    Returns ``(sup_ids, sup_bound_ids, inf_ids, inf_bound_ids)`` where the
    bound ids reference the point whose height defines the bound.  Both
    scans share one range difference per step; empty cells read NaN, so
    they never jump.
    """
    rows = image.rows
    filled = image.filled()
    rng = np.where(filled, image.rng, np.nan)
    open_up, open_down = filled.copy(), filled.copy()   # cells still searching
    sup, sup_b, inf, inf_b = [], [], [], []
    for t in range(1, min(max_search, rows - 1) + 1):
        low, high = slice(0, rows - t), slice(t, rows)
        size = np.abs(rng[low] - rng[high])
        up = open_up[low] & (size > r1)    # (i, j) bounded from above by (i + t, j)
        open_up[low] ^= up
        down = open_down[high] & (size > r2)
        open_down[high] ^= down            # (i + t, j) bounded from below by (i, j)
        sup.append(image.pid[low][up])
        sup_b.append(image.pid[high][up])
        inf.append(image.pid[high][down])
        inf_b.append(image.pid[low][down])

    def _ids(parts):
        return np.concatenate(parts + [np.empty(0, dtype=np.int32)]).astype(np.int64)

    return _ids(sup), _ids(sup_b), _ids(inf), _ids(inf_b)
