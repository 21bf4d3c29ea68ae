"""Signed integer cube indexing, packed 64-bit keys and sorted-key lookup.

A point is quantised to a global cube index ``I = floor(p / cube_size)``
per axis.  Applying the per-axis binary mask ``m = 2^mask_bits - 1`` splits
``I`` into a region index ``I_r = I & ~m`` and a cube-local index
``I_c = I & m``; the two concatenate back to ``I``.  All bit operations use
two's-complement semantics so negative coordinates group correctly
(e.g. m=7: I=-1 lives in region -8 with local offset 7).

Indexes are packed into a single int64 key with 21 bits per axis, which
keeps region extraction a single AND on the packed value.  A key's column
key drops its z field (:func:`column_of`): a column's keys are one run of
a sorted table.  Only indexes in ``[-2**20, 2**20)`` fit a field;
:func:`cube_indices` rejects the rest.

This is how the paper's two-layer region-wise hash is realised: the map
keeps every table as a sorted array of exact packed keys and looks keys
up with ``searchsorted``.  There is no probe table and no hash function,
so two distinct indexes never collide.  The helpers at the end of this
module are the grouping, lookup and row primitives over those arrays.
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


def from_region_major(rm, mask_bits: int) -> np.ndarray:
    """Packed keys of region-major keys (:func:`region_major_of_indices`)."""
    rm = np.asarray(rm, dtype=np.int64)
    b, hb = mask_bits, AXIS_BITS - mask_bits
    hmask, lmask = (1 << hb) - 1, (1 << b) - 1
    hi, lo = rm >> (3 * b), rm
    x = (((hi >> (2 * hb)) & hmask) << b) | ((lo >> (2 * b)) & lmask)
    y = (((hi >> hb) & hmask) << b) | ((lo >> b) & lmask)
    z = ((hi & hmask) << b) | (lo & lmask)
    return (x << 42) | (y << 21) | z


def region_major_of_indices(x, y, z, mask_bits: int) -> np.ndarray:
    """Region-major keys of per-axis int64 cube indexes: cube keys
    re-packed so that integer order is region order, then cube order.

    The 63 key bits are, from most to least significant, the region
    fields of x, y and z (``21 - mask_bits`` bits each) followed by the
    cube-local fields (``mask_bits`` each).  Sorting by this key sorts by
    (packed region key, packed cube key), so a region's cubes are one run
    of ``2**(3 * mask_bits)`` keys, ordered by slot and z
    (:func:`cube_slots`).

    Only the low 21 bits of each axis are read, so the indexes may be
    signed indexes in ``[-2**20, 2**20)`` (two's complement keeps the bits
    a 21-bit field holds) or a packed key shifted to put the axis's field
    lowest.  An axis's region bits (``mask_bits`` up to 20) move to its
    region field and its cube-local bits to its local field.
    """
    b = mask_bits
    local = (1 << b) - 1
    region = AXIS_MASK & ~local
    rm = (x & region) << 42
    rm |= (y & region) << (AXIS_BITS + b)
    rm |= (z & region) << (2 * b)
    rm |= (x & local) << (2 * b)
    rm |= (y & local) << b
    rm |= z & local
    return rm


def word_dtype(mask_bits: int) -> np.dtype:
    """The unsigned dtype of a cube column's word: one bit for each of the
    ``2**mask_bits`` local z indexes of a region, so uint8 up to
    ``mask_bits`` 3 and uint16 at 4, the most that
    :class:`~rhmap.config.MapConfig` allows."""
    return np.dtype(f"u{max(1, (1 << mask_bits) // 8)}")


def cube_slots(rm, mask_bits: int):
    """``(slot, z)`` of region-major keys: the cube's (x, y) cube
    column within its region, numbered ``(lx << mask_bits) | ly`` from its
    local x and y indexes, and its local z index, the bit of that column's
    word that holds it.  A region's cubes in region-major order are in
    slot order, then z order."""
    local = np.asarray(rm, dtype=np.int64) & ((1 << 3 * mask_bits) - 1)
    return local >> mask_bits, local & ((1 << mask_bits) - 1)


def column_slots(cols, mask_bits: int):
    """``(region column, slot)`` of (x, y) cube column keys
    (:func:`column_of` of cube keys): the region column holding each, as
    :func:`column_of` of its region keys, and its slot there
    (:func:`cube_slots`)."""
    m = (1 << mask_bits) - 1
    cols = np.asarray(cols, dtype=np.int64)
    slot = (((cols >> AXIS_BITS) & m) << mask_bits) | (cols & m)
    return cols & ~((m << AXIS_BITS) | m), slot


def slot_keys(rkeys, slot, z, mask_bits: int) -> np.ndarray:
    """Packed keys of cubes given by their region key, slot and local z
    index (:func:`cube_slots`)."""
    m = (1 << mask_bits) - 1
    return (np.asarray(rkeys, dtype=np.int64)
            | ((slot >> mask_bits) << 2 * AXIS_BITS)
            | ((slot & m) << AXIS_BITS) | z)


def column_words(rm: np.ndarray, mask_bits: int):
    """The cube-column words of sorted region-major keys (repeats
    allowed): ``(starts, slot, words)``, where each run of keys sharing a
    region and a slot starts, its slot, and the OR of its cubes' z bits
    (:func:`word_dtype`)."""
    starts = run_starts(rm >> mask_bits)
    slot, z = cube_slots(rm, mask_bits)
    words = np.bitwise_or.reduceat(z_bits(z, mask_bits), starts)
    return starts, slot[starts], words


def z_bits(z, mask_bits: int) -> np.ndarray:
    """Words (:func:`word_dtype`) with only bit ``z`` set, for local z
    indexes ``z``."""
    dtype = word_dtype(mask_bits)
    return np.left_shift(dtype.type(1), np.asarray(z).astype(dtype))


def word_bits(words: np.ndarray, mask_bits: int) -> np.ndarray:
    """The (n, 2**mask_bits) bool bits of n words, in z order."""
    side = 1 << mask_bits
    words = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder("<"))
    as_bytes = words.view(np.uint8).reshape(len(words), words.itemsize)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :side]
    return bits.view(bool)


def bitmap_cubes(rkeys: np.ndarray, words: np.ndarray, mask_bits: int):
    """The cubes whose bits are set in a bitmap of regions: ``rkeys``, the
    packed keys of n regions, and ``words``, their (n, 2**(2 mask_bits))
    cube-column words.  Returns ``(keys, i, slot, z)``: each cube's packed
    key, row, slot and local z index, in row, slot, z order, which is
    region-major order when ``rkeys`` are sorted."""
    # flat indexes: a 2-D nonzero is several times slower
    at = np.flatnonzero(words)
    i, slot = np.divmod(at, words.shape[1])
    at = np.flatnonzero(word_bits(words.reshape(-1)[at], mask_bits))
    j, z = np.divmod(at, 1 << mask_bits)
    i, slot = i[j], slot[j]
    return slot_keys(rkeys[i], slot, z, mask_bits), i, slot, z


def column_of(keys) -> np.ndarray:
    """The (x, y) column keys of packed keys: their z field dropped."""
    return np.asarray(keys, dtype=np.int64) >> AXIS_BITS


def column_start(cols) -> np.ndarray:
    """The first packed key of each column.  The last is ``column_start(c)
    | AXIS_MASK``: ``column_start(c + 1)`` overflows for the top column,
    ``2**42 - 1``."""
    return np.asarray(cols, dtype=np.int64) << AXIS_BITS


def column_runs(sorted_keys: np.ndarray, cols):
    """``(starts, ends)``: each column's run of sorted packed keys."""
    lo = column_start(cols)
    return (np.searchsorted(sorted_keys, lo),
            np.searchsorted(sorted_keys, lo | AXIS_MASK, side="right"))


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
    from the origin at 0.1 m cubes).  An (N, 3) result is column-major:
    each axis is a contiguous column.
    """
    p = np.asarray(points, dtype=np.float64)
    idx = p / cube_size
    np.floor(idx, out=idx)
    # NaN fails both comparisons, so one min and one max check everything
    if idx.size and not (idx.min() >= -_SIGN and idx.max() < _SIGN):
        if not np.isfinite(p).all():
            raise ValueError("non-finite point coordinate")
        raise ValueError(
            f"point more than {_SIGN * cube_size:g} m from the origin on an "
            f"axis: its cube index does not fit a packed key")
    return idx.T.astype(np.int64, order="C").T


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


def dense_ids(starts: np.ndarray, n: int) -> np.ndarray:
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


def insert_rows(columns, pos, values) -> list[np.ndarray]:
    """Parallel ``columns`` of any dtypes and row shapes with ``values[i]``
    inserted into ``columns[i]`` before the ascending positions ``pos``, as
    ``np.insert(..., axis=0)`` would.  Old rows move by a boolean-mask
    assignment, which needs no table-sized index array.  On a 2-vCPU host
    it beats an integer scatter through ``flatnonzero`` on a frame's few
    new rows (300k rows, 530 new: 0.47 vs 3.52 ms; 650k, 5.5k new: 1.06 vs
    5.46 ms).  On the truth folds, whose new rows come in runs, it takes
    0.97-1.15x the scatter's time and peaks 0.8-2.2 MiB lower; new rows
    scattered one by one would make it ~3x slower."""
    n, k = len(columns[0]), len(pos)
    dest = pos + np.arange(k)
    old = np.ones(n + k, dtype=bool)
    old[dest] = False
    grown = [np.empty((n + k,) + c.shape[1:], dtype=c.dtype) for c in columns]
    for out, vals in zip(grown, values):
        out[dest] = vals
    del dest    # the old rows' move touches most of the table: no index then
    for out, col in zip(grown, columns):
        out[old] = col
    return grown


def delete_rows(columns, gone) -> list[np.ndarray]:
    """The parallel ``columns`` of one table without rows ``gone``, as
    ``np.delete(..., axis=0)`` would, with one keep mask for them all."""
    keep = np.ones(len(columns[0]), dtype=bool)
    keep[gone] = False
    return [col[keep] for col in columns]


def gather_runs(starts: np.ndarray, ends: np.ndarray):
    """Concatenated ``arange(s, e)`` over paired runs.

    Returns ``(positions, owner)`` where ``owner`` gives the run index of
    each position.
    """
    lens = ends - starts
    owner = np.repeat(np.arange(len(starts)), lens)
    offset = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return offset + np.arange(len(owner)), owner


def group_cubes(points: np.ndarray, cfg):
    """The cube level of a grouping of (N, 3) points at ``cfg``'s cube
    size and region width: ``(order, starts, cube_rm, point_cube)``, the
    argsort of the points by region-major key, where each cube's
    run of sorted points starts, each cube's region-major key (sorted,
    distinct) and each point's dense cube id."""
    gidx = cube_indices(points, cfg.cube_size)
    rm = region_major_of_indices(*gidx.T, cfg.mask_bits)
    n = len(rm)
    order = np.argsort(rm)
    rm = rm[order]
    starts = run_starts(rm)
    point_cube = np.empty(n, dtype=np.int64)
    point_cube[order] = dense_ids(starts, n)
    return order, starts, rm[starts], point_cube


class ScanCubes:
    """A scan's world-frame points grouped by cube, region and region column.

    One argsort of the points' region-major keys
    orders the points so that every cube, every region and every region
    column is a contiguous run.  Each level is numbered densely in key
    order, so per-group reductions are plain ``reduceat`` calls over the
    sorted points and the distinct keys of each level come out sorted.
    The cube level is :func:`group_cubes`, which scoring calls alone.

    Every array of a grouping is read-only: the pipeline's two threads
    read one at once, so a write on either side raises instead of racing.
    """

    def __init__(self, points_world: np.ndarray, cfg):
        self.config = cfg
        self.points = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        bits = cfg.mask_bits
        #: argsort of the points by region-major key; per cube, the sorted
        #: region-major keys; the dense cube id of each point
        self.order, starts, self.cube_rm, self.point_cube = group_cubes(
            self.points, cfg)
        #: per cube: packed keys
        self.cube_keys = from_region_major(self.cube_rm, bits)

        n_cubes = len(self.cube_rm)
        rmask = region_key_mask(bits)
        rstarts = run_starts(self.cube_rm >> (3 * bits))
        #: sorted packed region keys, and the dense region id of each cube
        self.region_keys = self.cube_keys[rstarts] & rmask
        self.cube_region = dense_ids(rstarts, n_cubes)
        #: where each region's run of points starts in ``order``
        self.region_start = starts[rstarts]
        cstarts = run_starts(self.cube_rm >> (AXIS_BITS + 2 * bits))
        #: sorted region-column keys, the dense column id of each cube, and
        #: where each column's run of points starts in ``order``
        self.column_keys = column_of(self.cube_keys[cstarts] & rmask)
        self.cube_column = dense_ids(cstarts, n_cubes)
        self.column_start = starts[cstarts]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
