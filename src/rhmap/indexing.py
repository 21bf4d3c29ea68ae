"""Signed integer cube indexing, packed 64-bit keys and sorted-key lookup.

A point is quantised to a global cube index ``I = floor(p / cube_size)``
per axis.  Applying the per-axis binary mask ``m = 2^mask_bits - 1`` splits
``I`` into a region index ``I_r = I & ~m`` and a cube-local index
``I_c = I & m``; the two concatenate back to ``I``.  All bit operations use
two's-complement semantics so negative coordinates group correctly
(e.g. m=7: I=-1 lives in region -8 with local offset 7).

Indexes are packed into a single int64 key with 21 bits per axis, which
keeps region extraction a single AND on the packed value.  A region's
column key is its packed key shifted right by 21 (the z field dropped).
Only indexes in ``[-2**20, 2**20)`` fit a field; :func:`cube_indices`
rejects the rest.

This is how the paper's two-layer region-wise hash is realised: the map
keeps every table as a sorted array of exact packed keys and looks keys
up with ``searchsorted``.  There is no probe table and no hash function,
so two distinct indexes never collide.  The helpers at the end of this
module are the grouping and lookup primitives over those arrays.
"""

from __future__ import annotations

import numpy as np

AXIS_BITS = 21
AXIS_MASK = (1 << AXIS_BITS) - 1
_SIGN = 1 << (AXIS_BITS - 1)


def pack3(ix, iy, iz) -> np.ndarray:
    """Pack per-axis indexes into int64 keys (21 bits per axis)."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    iz = np.asarray(iz, dtype=np.int64)
    return ((ix & AXIS_MASK) << 42) | ((iy & AXIS_MASK) << 21) | (iz & AXIS_MASK)


def unpack3(key) -> np.ndarray:
    """Inverse of :func:`pack3`; returns an (..., 3) int64 array."""
    key = np.asarray(key, dtype=np.int64)
    out = np.empty(key.shape + (3,), dtype=np.int64)
    for axis, shift in enumerate((42, 21, 0)):
        v = (key >> shift) & AXIS_MASK
        out[..., axis] = v - ((v & _SIGN) << 1)
    return out


def z_of_keys(key) -> np.ndarray:
    """The z indexes of packed keys; the last column of :func:`unpack3`."""
    v = np.asarray(key, dtype=np.int64) & AXIS_MASK
    return v - ((v & _SIGN) << 1)


def pack2(ix, iy) -> np.ndarray:
    """Pack a 2D (x, y) index into an int64 key."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    return ((ix & AXIS_MASK) << 21) | (iy & AXIS_MASK)


def region_major(keys, mask_bits: int) -> np.ndarray:
    """Re-pack cube keys so that integer order is region order, then cube order.

    The 63 key bits become, from most to least significant, the region
    fields of x, y and z (``21 - mask_bits`` bits each) followed by the
    cube-local fields (``mask_bits`` each).  Sorting by this key sorts by
    (packed region key, packed cube key), so a region's cubes occupy the
    range ``[region_major(rkey), region_major(rkey) + 2**(3 * mask_bits))``
    and a region column's cubes the range starting at
    ``region_major(col << 21)`` of width ``2**(AXIS_BITS + 2 * mask_bits)``.
    """
    k = np.asarray(keys, dtype=np.int64)
    b, hb = mask_bits, AXIS_BITS - mask_bits
    hmask, lmask = (1 << hb) - 1, (1 << b) - 1
    hi = ((((k >> (42 + b)) & hmask) << (2 * hb))
          | (((k >> (21 + b)) & hmask) << hb) | ((k >> b) & hmask))
    lo = (((k >> 42) & lmask) << (2 * b)) | (((k >> 21) & lmask) << b) | (k & lmask)
    return (hi << (3 * b)) | lo


def from_region_major(rm, mask_bits: int) -> np.ndarray:
    """Inverse of :func:`region_major`."""
    rm = np.asarray(rm, dtype=np.int64)
    b, hb = mask_bits, AXIS_BITS - mask_bits
    hmask, lmask = (1 << hb) - 1, (1 << b) - 1
    hi, lo = rm >> (3 * b), rm
    x = (((hi >> (2 * hb)) & hmask) << b) | ((lo >> (2 * b)) & lmask)
    y = (((hi >> hb) & hmask) << b) | ((lo >> b) & lmask)
    z = ((hi & hmask) << b) | (lo & lmask)
    return (x << 42) | (y << 21) | z


def cube_local_key_mask(mask_bits: int) -> int:
    m = (1 << mask_bits) - 1
    return (m << 42) | (m << 21) | m


def region_key_mask(mask_bits: int) -> int:
    """AND with a packed key to obtain the packed region key."""
    return ~cube_local_key_mask(mask_bits)


def cube_indices(points, cube_size: float) -> np.ndarray:
    """Global cube indexes ``floor(p / cube_size)`` of (3,) or (N, 3) points.

    Non-finite coordinates are rejected, and so are indexes outside
    ``[-2**20, 2**20)``, which a packed key cannot hold (about 104.8 km
    from the origin at 0.1 m cubes).
    """
    p = np.asarray(points, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("non-finite point coordinate")
    idx = np.floor(p / cube_size)
    if idx.size and (idx.min() < -_SIGN or idx.max() >= _SIGN):
        raise ValueError(
            f"point more than {_SIGN * cube_size:g} m from the origin on an "
            f"axis: its cube index does not fit a packed key")
    return idx.astype(np.int64)


def cube_centers(keys, cube_size: float) -> np.ndarray:
    """World-frame centers of packed cube keys, shape (N, 3)."""
    return (unpack3(keys) + 0.5) * cube_size


# --------------------------------------------------------- sorted-key tools

def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a sorted array."""
    n = len(sorted_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values; a sort plus a neighbour compare.

    Cheaper than a value-only ``np.unique``, which takes a hash path on
    recent numpy releases.
    """
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    return keys[run_starts(keys)]


def _dense_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Run number of each of ``n`` elements, given the run starts."""
    head = np.zeros(n, dtype=np.int64)
    head[starts] = 1
    return np.cumsum(head) - 1


def find_sorted(sorted_keys: np.ndarray, queries: np.ndarray):
    """Positions of queries in a sorted key array and whether they occur."""
    pos = np.searchsorted(sorted_keys, queries)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == queries[found]
    return pos, found


def gather_runs(starts: np.ndarray, ends: np.ndarray):
    """Concatenated ``arange(s, e)`` over paired runs.

    Returns ``(positions, owner)`` where ``owner`` gives the run index of
    each position.
    """
    lens = ends - starts
    owner = np.repeat(np.arange(len(starts)), lens)
    offset = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return offset + np.arange(len(owner)), owner


class ScanCubes:
    """A scan's world-frame points grouped by cube, region and region column.

    One argsort of the points' region-major keys (:func:`region_major`)
    orders the points so that every cube, every region and every region
    column is a contiguous run.  Each level is numbered densely in key
    order, so per-group reductions are plain ``reduceat`` or ``ufunc.at``
    calls and the distinct keys of each level come out sorted.

    Every array of a grouping is read-only: the pipeline's two threads
    read one at once, so a write on either side raises instead of racing.
    """

    def __init__(self, points_world: np.ndarray, cfg):
        self.config = cfg
        self.points = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        bits = cfg.mask_bits
        gidx = cube_indices(self.points, cfg.cube_size)
        rm = region_major(pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2]), bits)
        n = len(rm)
        #: argsort of the points by region-major key
        self.order = np.argsort(rm)
        rm = rm[self.order]
        starts = run_starts(rm)
        #: per cube: sorted region-major keys and packed keys
        self.cube_rm = rm[starts]
        self.cube_keys = from_region_major(self.cube_rm, bits)
        #: dense cube id of each point
        self.point_cube = np.empty(n, dtype=np.int64)
        self.point_cube[self.order] = _dense_ids(starts, n)

        n_cubes = len(self.cube_rm)
        rmask = region_key_mask(bits)
        rstarts = run_starts(self.cube_rm >> (3 * bits))
        #: sorted packed region keys, and the dense region id of each cube
        self.region_keys = self.cube_keys[rstarts] & rmask
        self.cube_region = _dense_ids(rstarts, n_cubes)
        cstarts = run_starts(self.cube_rm >> (AXIS_BITS + 2 * bits))
        #: sorted region-column keys, the dense column id of each cube, and
        #: where each column's run of points starts in ``order``
        self.column_keys = (self.cube_keys[cstarts] & rmask) >> 21
        self.cube_column = _dense_ids(cstarts, n_cubes)
        self.column_start = starts[cstarts]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
