"""Two-layer region-wise hash map with occupancy and ground bookkeeping.

The map stores occupancy at cube resolution inside fixed-extent regions
of ``2**b`` cubes a side, ``b`` being ``mask_bits``.  Its first layer is
the region table, sorted by packed region key; its second layer lives in
the table's rows, as two bitmaps a region.  A row holds:

* the packed region key, the int64 z-index extent of the region's cubes
  and whether a ground fit of the region has passed; 25 B.  The fitted
  plane is not kept.  The extent is what the occupancy bits give, kept
  because the band queries of removal read it every frame;
* the bitmaps ``occ`` and ``ground``: one unsigned word per (x, y) cube
  column of the region (its slot, :func:`~rhmap.indexing.cube_slots`),
  whose bit ``k`` is set when the column's cube at local z index ``k`` is
  occupied, or ground (:func:`~rhmap.indexing.word_dtype`).  Each bitmap
  has ``2**(3 b)`` bits, so a region takes ``2 * 2**(3 b) / 8`` B for
  both: 128 B at the default ``b`` = 3, a region of 8**3 cubes.  A word
  is at least a byte, so at ``b`` = 1 and 2 a region takes 8 and 32 B.
  They take these bytes whatever a region's fill, so
  :class:`~rhmap.config.MapConfig` stops ``b`` at 4, 1 KB a region.

A cube enters with the first point that falls in it and leaves when
removal deletes it; one seen again later is a new cube.  Every ground
cube is an occupied cube: removal keeps ``occ & ground``, so ground cubes
never leave the map.  A region's cube count is the popcount of its
words, and its cubes decode in region, slot, z order, which is
region-major order (:func:`~rhmap.indexing.region_major_of_indices`).
Nothing read from the table depends on the order cubes arrive in.

No table holds a row per cube.  A frame looks up, reads and writes the
rows of the regions its scan touches; the table is copied only when
regions enter or leave it, through :func:`~rhmap.indexing.insert_rows`
and :func:`~rhmap.indexing.delete_rows`.  The regions of one region
column (:func:`~rhmap.indexing.column_of` of their keys) are a
contiguous run of the table: a column's z band is the min/max of its
regions' z extents, and an (x, y) cube column's ground cubes are its
slot's ground words in those regions.

The paper's hash lookup is realised as ``searchsorted`` on the sorted
region keys.  Region keys are exact packed indexes, so two distinct
indexes can never alias each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import MapConfig
from .indexing import (
    ScanCubes,
    bitmap_cubes,
    column_of,
    column_runs,
    column_slots,
    column_words,
    cube_centers,
    delete_rows,
    dense_ids,
    find_sorted,
    gather_runs,
    insert_rows,
    region_key_mask,
    run_starts,
    sorted_unique,
    word_bits,
    word_dtype,
    z_bits,
    z_of_keys,
)


class RegionCubes(NamedTuple):
    """Cubes of some regions, grouped by region, in region-major order
    within one, with each region's cube count and z-index sum taken over
    those cubes."""

    rkeys: np.ndarray    # the regions, sorted
    z_sum: np.ndarray    # int64 sum of each region's cube z indices
    count: np.ndarray    # each region's cube count
    keys: np.ndarray     # each cube's packed key
    owner: np.ndarray    # index into rkeys of each cube's region


class RHMap:
    def __init__(self, config: MapConfig):
        self.config = config.validate()
        bits = self.config.mask_bits
        self._rkeys = np.empty(0, dtype=np.int64)
        self._rz_lo = np.empty(0, dtype=np.int64)      # z-index extent
        self._rz_hi = np.empty(0, dtype=np.int64)
        self._fitted = np.empty(0, dtype=bool)         # a fit passed
        words = np.zeros((0, 1 << 2 * bits), dtype=word_dtype(bits))
        self._occ = words                              # occupied z bits
        self._ground = words.copy()                    # ground z bits
        self._count = 0                                # occupied cubes

    def _table(self) -> list[np.ndarray]:
        """The region table's parallel columns, bitmaps included."""
        return [self._rkeys, self._rz_lo, self._rz_hi, self._fitted,
                self._occ, self._ground]

    def _set_table(self, columns):
        (self._rkeys, self._rz_lo, self._rz_hi, self._fitted,
         self._occ, self._ground) = columns

    def _zc(self, kz) -> np.ndarray:
        """Cube-centre heights of z indices."""
        return (kz + 0.5) * self.config.cube_size

    def _cubes(self, rows):
        """The cubes of region-table ``rows`` (an index array, or a slice)
        in region, slot, z order, which is region-major order: ``(keys, i,
        slot, z)``, each cube's packed key, index into ``rows``, slot and
        local z index."""
        return bitmap_cubes(self._rkeys[rows], self._occ[rows],
                            self.config.mask_bits)

    # ------------------------------------------------------------------ lookup

    def __len__(self):
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes held by the map's tables."""
        return sum(col.nbytes for col in self._table())

    # --------------------------------------------------------------- insertion

    def check_grouping(self, cubes: ScanCubes):
        """Reject a scan grouped at another cube size or region width:
        its keys would name other cubes of this map."""
        got, want = cubes.config, self.config
        if (got.cube_size, got.mask_bits) != (want.cube_size, want.mask_bits):
            raise ValueError(
                f"scan grouped at cube_size {got.cube_size}, mask_bits "
                f"{got.mask_bits}; the map uses {want.cube_size}, "
                f"{want.mask_bits}")

    def integrate_points(self, cubes: ScanCubes) -> int:
        """Occupy the cubes a scan's world points (grouped by cube) fall
        in.

        The scan's regions not in the table enter it unfitted, with empty
        bitmaps.  Each region's z extent widens to the extent of its scan
        cubes, which is exact: its old cubes lie inside the old extent.
        The scan cubes' z bits are ORed into their columns' words, one
        word per (region, slot) run of the grouping's sorted cubes.  Cubes
        not in the map enter as non-ground cubes; returns their count.
        """
        self.check_grouping(cubes)
        seg = run_starts(cubes.cube_region)
        kz = z_of_keys(cubes.cube_keys)
        lo = np.minimum.reduceat(kz, seg)
        hi = np.maximum.reduceat(kz, seg)
        pos, found = find_sorted(self._rkeys, cubes.region_keys)
        new = ~found
        if new.any():
            empty = np.zeros((int(new.sum()),) + self._occ.shape[1:],
                             dtype=self._occ.dtype)
            self._set_table(insert_rows(
                self._table(), pos[new],
                [cubes.region_keys[new], lo[new], hi[new],
                 np.zeros(len(empty), dtype=bool), empty, empty]))
        # each scan region's row, the new regions before it counted
        rows = pos + np.cumsum(new) - new
        self._rz_lo[rows] = np.minimum(self._rz_lo[rows], lo)
        self._rz_hi[rows] = np.maximum(self._rz_hi[rows], hi)

        starts, slot, words = column_words(cubes.cube_rm,
                                           self.config.mask_bits)
        rows = rows[cubes.cube_region[starts]]
        old = self._occ[rows, slot]
        self._occ[rows, slot] = old | words
        added = int(np.bitwise_count(words & ~old).sum())
        self._count += added
        return added

    # ---------------------------------------------------------------- regions

    def region_bands(self, rkeys: np.ndarray):
        """(z_min, z_max) cube-centre heights of existing regions' cubes."""
        pos = np.searchsorted(self._rkeys, rkeys)
        return self._zc(self._rz_lo[pos]), self._zc(self._rz_hi[pos])

    def regions_in_columns(self, cols: np.ndarray):
        """Region keys of the given region columns.

        Returns ``(rkeys, owner)``: the regions grouped by column in the
        order of ``cols``, and the index into ``cols`` of each region's
        column.
        """
        pos, owner = gather_runs(*column_runs(self._rkeys, cols))
        return self._rkeys[pos], owner

    def column_bands(self, cols: np.ndarray):
        """Cube z bands of region columns, from their regions' extents.

        Returns ``(lo, hi, known)``; columns without cubes are not known
        and read NaN.
        """
        cols = np.asarray(cols, dtype=np.int64)
        # a column's regions are one run of the region table
        pos, owner = gather_runs(*column_runs(self._rkeys, cols))
        lo = np.full(cols.shape, np.nan)
        hi = np.full(cols.shape, np.nan)
        known = np.zeros(cols.shape, dtype=bool)
        if len(pos):
            seg = run_starts(owner)
            i = owner[seg]
            lo[i] = self._zc(np.minimum.reduceat(self._rz_lo[pos], seg))
            hi[i] = self._zc(np.maximum.reduceat(self._rz_hi[pos], seg))
            known[i] = True
        return lo, hi, known

    @property
    def region_count(self) -> int:
        """Count of the regions holding cubes."""
        return len(self._rkeys)

    @property
    def regions(self) -> np.ndarray:
        """Sorted keys of the regions holding cubes (a copy)."""
        return self._rkeys.copy()

    # ----------------------------------------------------------- ground fits

    def planeless(self, rkeys: np.ndarray) -> np.ndarray:
        """Whether each given region has no ground plane: an absent
        region, or one whose fits all failed, has none."""
        pos, found = find_sorted(self._rkeys, rkeys)
        out = np.ones(len(rkeys), dtype=bool)
        out[found] = ~self._fitted[pos[found]]
        return out

    def unfitted_region_cubes(self, rkeys) -> RegionCubes:
        """Cubes of the given regions that have no ground plane yet.

        Absent keys are ignored.  Returns the regions' cubes, with each
        region's count and z-index sum summed over them.
        """
        rkeys = sorted_unique(np.atleast_1d(rkeys))
        at, found = find_sorted(self._rkeys, rkeys)
        at = at[found]
        at = at[~self._fitted[at]]
        count = np.bitwise_count(self._occ[at]).sum(axis=1, dtype=np.int64)
        keys, owner, _, _ = self._cubes(at)
        # every region holds a cube, so each run starts a reduceat segment
        z_sum = np.add.reduceat(z_of_keys(keys), np.cumsum(count) - count)
        return RegionCubes(self._rkeys[at], z_sum, count, keys, owner)

    def record_plane_fits(self, rkeys: np.ndarray, ok: np.ndarray):
        """Mark the existing regions whose ground fit passed (``ok``) as
        fitted: they are never offered a fit again."""
        self._fitted[np.searchsorted(self._rkeys, rkeys[ok])] = True

    def mark_ground(self, keys: np.ndarray):
        """Mark cubes of the map, by packed key, as ground: their z bits
        join their columns' ground words.  Keys of cubes not in the map
        are ignored, so every ground cube stays an occupied one; marking a
        cube again, in one call or a later one, changes nothing."""
        bits = self.config.mask_bits
        keys = np.asarray(keys, dtype=np.int64)
        rows, found = find_sorted(self._rkeys, keys & region_key_mask(bits))
        keys, rows = keys[found], rows[found]
        _, slot = column_slots(column_of(keys), bits)
        zbits = z_bits(z_of_keys(keys) & self.config.mask, bits)
        np.bitwise_or.at(self._ground, (rows, slot),
                         zbits & self._occ[rows, slot])

    def ground_columns(self, cols: np.ndarray):
        """Each given (x, y) cube column's int64 sum of its ground cubes'
        z indices, and their count.

        ``cols`` are column keys (a cube key shifted past its z field) in
        any order, repeats included; each query is answered on its own,
        and a column without ground cubes reads (0, 0).  A query reads
        its slot's ground word in each region of its region column.
        """
        bits = self.config.mask_bits
        cols = np.asarray(cols, dtype=np.int64)
        # a scan's cubes come region by region and slot by slot, so equal
        # queries come in runs: each run is answered once
        heads = run_starts(cols)
        rcols, slot = column_slots(cols[heads], bits)
        rows, owner = gather_runs(*column_runs(self._rkeys, rcols))
        words = self._ground[rows, slot[owner]]
        ground = np.flatnonzero(words)
        rows, owner, words = rows[ground], owner[ground], words[ground]
        count = np.bitwise_count(words).astype(np.int64)
        z_sum = (word_bits(words, bits) @ np.arange(1 << bits)
                 + count * z_of_keys(self._rkeys[rows]))
        out_sum = np.zeros(len(heads), dtype=np.int64)
        out_count = np.zeros(len(heads), dtype=np.int64)
        if len(rows):
            seg = run_starts(owner)
            out_sum[owner[seg]] = np.add.reduceat(z_sum, seg)
            out_count[owner[seg]] = np.add.reduceat(count, seg)
        run = dense_ids(heads, len(cols))
        return out_sum[run], out_count[run]

    # ---------------------------------------------------------------- removal

    def remove_regions_nonground(self, region_keys) -> int:
        """Delete every non-ground cube of the given regions in one masked
        pass: each region's words become ``occ & ground``.

        Absent region keys are ignored.  Regions that lose cubes get their
        z extents recomputed from the OR of their kept words, or leave the
        table when none are kept.  Returns the removed cube count.
        """
        rkeys = sorted_unique(np.atleast_1d(region_keys))
        rows, found = find_sorted(self._rkeys, rkeys)
        rows = rows[found]
        occ = self._occ[rows]
        kept = occ & self._ground[rows]
        hit = (occ != kept).any(axis=1)
        if not hit.any():
            return 0
        rows, occ, kept = rows[hit], occ[hit], kept[hit]
        removed = int(np.bitwise_count(occ ^ kept).sum())
        self._count -= removed
        self._occ[rows] = kept

        # each hit region's z bits, lowest first
        bits = self.config.mask_bits
        zbits = word_bits(np.bitwise_or.reduce(kept, axis=1), bits)
        live = zbits.any(axis=1)
        at, zbits = rows[live], zbits[live]
        z0 = z_of_keys(self._rkeys[at])
        self._rz_lo[at] = z0 + zbits.argmax(axis=1)
        top = zbits.shape[1] - 1
        self._rz_hi[at] = z0 + top - zbits[:, ::-1].argmax(axis=1)
        if not live.all():
            self._set_table(delete_rows(self._table(), rows[~live]))
        return removed

    # ------------------------------------------------------------------ export

    def occupied_keys(self) -> np.ndarray:
        """Sorted packed keys of occupied cubes."""
        return np.sort(self._cubes(slice(None))[0])

    def export_occupied_points(self):
        """Occupied cube centers sorted by region then cube key.

        Returns (points (N, 3), is_ground (N,)); a cube is ground when its
        bit of the ground bitmap is set.
        """
        keys, i, slot, z = self._cubes(slice(None))
        ground = self._ground[i, slot]
        is_ground = ((ground >> z.astype(ground.dtype)) & 1).astype(bool)
        return cube_centers(keys, self.config.cube_size), is_ground
