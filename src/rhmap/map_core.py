"""Two-layer region-wise hash map with occupancy and ground bookkeeping.

The map stores occupancy at cube resolution inside fixed-extent regions.
Every table is a sorted int64 key array, with flat numpy arrays in
parallel where a row holds more than its key:

* the cube table: the sorted region-major keys
  (:func:`~rhmap.indexing.region_major`) of the occupied cubes, 8 B a
  cube and nothing else.  A cube enters it with the first point that
  falls in it and leaves it when removal deletes it; one seen again later
  is a new cube.  The table answers batch lookups, and each region's
  cubes form one contiguous run of it, in key order;
* the region table, sorted by packed region key, 32 B a region: the
  int64 z-index extent of the region's cubes and one ground-fit state:
  -1 fitted, 0 never fitted, ``n > 0`` when the last fit failed at ``n``
  cubes.  The fitted plane is not kept, nor a region's cube count or
  z-index sum: its run of the cube table answers those.  Integer
  extents do not depend on the order cubes arrive in, so neither does
  anything computed from the table.  The regions of one region column
  (:func:`~rhmap.indexing.column_of` of their keys) are a contiguous run
  of the table as well, and a column's z band is the min/max of its
  regions' z extents;
* the ground keys: the sorted packed keys of the ground cubes, the
  map's one record of which cubes are ground.  Every ground key is a cube
  of the cube table: ground cubes never leave the map, so removal, which
  looks its cubes up here, keeps them, and the exported ground flags are
  the same lookup.  In packed key order the ground cubes of one (x, y)
  cube column are one run, so a column's ground height comes from exact
  integer sums over that run.

Cube-table positions never leave :class:`RHMap`: its methods take and
return packed keys.  Every table grows and shrinks through
:func:`~rhmap.indexing.insert_rows` and :func:`~rhmap.indexing.delete_rows`.

The paper's hash lookup is realised as ``searchsorted`` on these sorted
keys.  Region and cube keys are exact packed indexes, so two distinct
indexes can never alias each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import MapConfig
from .indexing import (
    ScanCubes,
    column_of,
    column_runs,
    column_start,
    cube_centers,
    delete_rows,
    find_sorted,
    from_region_major,
    gather_runs,
    insert_rows,
    region_major,
    run_starts,
    sorted_unique,
    z_of_keys,
)


class RegionCubes(NamedTuple):
    """Cubes of some regions, grouped by region, in key order within one,
    with each region's cube count and z-index sum taken over those cubes."""

    rkeys: np.ndarray    # the regions, sorted
    z_sum: np.ndarray    # int64 sum of each region's cube z indices
    count: np.ndarray    # each region's cube count
    keys: np.ndarray     # each cube's packed key
    owner: np.ndarray    # index into rkeys of each cube's region


class RHMap:
    def __init__(self, config: MapConfig):
        self.config = config.validate()
        self._skeys = np.empty(0, dtype=np.int64)     # region-major, sorted
        self._rkeys = np.empty(0, dtype=np.int64)
        self._rz_lo = np.empty(0, dtype=np.int64)      # z-index extent
        self._rz_hi = np.empty(0, dtype=np.int64)
        self._rfit = np.empty(0, dtype=np.int64)       # fit state
        self._gkeys = np.empty(0, dtype=np.int64)      # ground cubes, sorted

    def _keys_at(self, pos) -> np.ndarray:
        """Packed keys of cube-table positions."""
        return from_region_major(self._skeys[pos], self.config.mask_bits)

    def _zc(self, kz) -> np.ndarray:
        """Cube-centre heights of z indices."""
        return (kz + 0.5) * self.config.cube_size

    # ------------------------------------------------------------------ lookup

    def __len__(self):
        return len(self._skeys)

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

        Cubes not in the table enter it as non-ground cubes (every ground
        key is a cube of the table) and widen their region's z extent;
        returns their count.
        """
        self.check_grouping(cubes)
        pos, present = find_sorted(self._skeys, cubes.cube_rm)
        new = np.flatnonzero(~present)
        if len(new):
            [self._skeys] = insert_rows([self._skeys], pos[new],
                                        [cubes.cube_rm[new]])
            self._register_new(cubes, new)
        return len(new)

    def _register_new(self, cubes: ScanCubes, new: np.ndarray):
        """Fold a grouping's new cubes, given by ascending cube id, into the
        region table: the z extents of their regions widen, and new regions
        enter unfitted."""
        region = cubes.cube_region[new]
        seg = run_starts(region)
        kz = z_of_keys(cubes.cube_keys[new])
        lo = np.minimum.reduceat(kz, seg)
        hi = np.maximum.reduceat(kz, seg)
        rkeys = cubes.region_keys[region[seg]]
        pos, found = find_sorted(self._rkeys, rkeys)
        i = pos[found]
        self._rz_lo[i] = np.minimum(self._rz_lo[i], lo[found])
        self._rz_hi[i] = np.maximum(self._rz_hi[i], hi[found])
        new = ~found
        if new.any():
            self._rkeys, self._rz_lo, self._rz_hi, self._rfit = insert_rows(
                [self._rkeys, self._rz_lo, self._rz_hi, self._rfit], pos[new],
                [rkeys[new], lo[new], hi[new], np.zeros_like(lo[new])])

    # ---------------------------------------------------------------- regions

    def _region_runs(self, rkeys: np.ndarray):
        """``(starts, ends)``: the run of the cube table holding each given
        region's cubes; ``ends - starts`` is its cube count."""
        lo = region_major(rkeys, self.config.mask_bits)
        # the last key of a span can be the largest int64; span - 1 stays in range
        hi = lo + ((1 << 3 * self.config.mask_bits) - 1)
        return (np.searchsorted(self._skeys, lo),
                np.searchsorted(self._skeys, hi, side="right"))

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

    def occupied_columns(self) -> np.ndarray:
        """Sorted keys of the region columns holding at least one region."""
        rcols = column_of(self._rkeys)
        return rcols[run_starts(rcols)]

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
        out[found] = self._rfit[pos[found]] >= 0
        return out

    def unfitted_region_cubes(self, rkeys) -> tuple[RegionCubes, int]:
        """Cubes of the given regions that still want a ground plane.

        A region wants one while it has none, unless its last fit failed
        at its current cube count, the length of its cube-table run: a
        retry is pointless until the region gains or loses cubes.  Absent
        keys are ignored.  Returns the wanting regions' cubes, with each
        region's count and z-index sum summed over them, and the count of
        regions skipped for a pointless retry.
        """
        rkeys = sorted_unique(np.atleast_1d(rkeys))
        at, found = find_sorted(self._rkeys, rkeys)
        at = at[found]
        at = at[self._rfit[at] >= 0]
        starts, ends = self._region_runs(self._rkeys[at])
        count = ends - starts
        want = self._rfit[at] != count
        count = count[want]
        pos, owner = gather_runs(starts[want], ends[want])
        keys = self._keys_at(pos)
        # every region holds a cube, so each run starts a reduceat segment
        z_sum = np.add.reduceat(z_of_keys(keys), np.cumsum(count) - count)
        cubes = RegionCubes(self._rkeys[at[want]], z_sum, count, keys, owner)
        return cubes, int((~want).sum())

    def record_plane_fits(self, rkeys: np.ndarray, ok: np.ndarray):
        """Store the outcome of ground fits on existing regions.

        A region whose fit passed (``ok``) is fitted (-1) and is never
        offered a fit again; one whose fit failed records its cube count,
        the length of its cube-table run, so that
        :meth:`unfitted_region_cubes` skips it until the count changes.
        """
        at = np.searchsorted(self._rkeys, rkeys)
        starts, ends = self._region_runs(rkeys[~ok])
        self._rfit[at[ok]] = -1
        self._rfit[at[~ok]] = ends - starts

    def mark_ground(self, keys: np.ndarray):
        """Mark cubes of the table, by packed key, as ground: the keys not
        ground yet join the sorted ground keys once each."""
        keys = sorted_unique(keys)
        pos, ground = find_sorted(self._gkeys, keys)
        [self._gkeys] = insert_rows([self._gkeys], pos[~ground],
                                    [keys[~ground]])

    def ground_columns(self, cols: np.ndarray):
        """Each given (x, y) cube column's int64 sum of its ground cubes'
        z indices, and their count.

        ``cols`` are column keys (a cube key shifted past its z field) in
        any order, repeats included; each query is answered on its own,
        and a column without ground cubes reads (0, 0).
        """
        g = self._gkeys
        cols = np.asarray(cols, dtype=np.int64)
        z_sum = np.zeros(len(cols), dtype=np.int64)
        count = np.zeros(len(cols), dtype=np.int64)
        # in key order a column's ground cubes are one run from its first
        # key on; most runs are one cube long, so each pass extends only
        # the runs whose next key is still in their column
        i, at = np.arange(len(cols)), np.searchsorted(g, column_start(cols))
        while len(i):
            ok = at < len(g)
            ok[ok] = column_of(g[at[ok]]) == cols[i[ok]]
            i, at = i[ok], at[ok]
            z_sum[i] += z_of_keys(g[at])
            count[i] += 1
            at += 1
        return z_sum, count

    # ---------------------------------------------------------------- removal

    def remove_regions_nonground(self, region_keys) -> int:
        """Delete every non-ground cube of the given regions in one masked pass.

        A cube is ground when its key is one of the ground keys.  Absent
        region keys are ignored.  Regions that lose cubes get their z
        extents recomputed over their surviving (ground) cubes, or leave
        the table when none survive; a failed fit's count then no longer
        matches, so the region wants a fit again.  Returns the removed cube
        count.
        """
        rkeys = sorted_unique(np.atleast_1d(region_keys))
        rkeys = rkeys[find_sorted(self._rkeys, rkeys)[1]]
        # by region, in key order within one: not in the order cubes arrived
        pos, owner = gather_runs(*self._region_runs(rkeys))
        keys = self._keys_at(pos)
        doomed = ~find_sorted(self._gkeys, keys)[1]
        if not doomed.any():
            return 0

        hit = np.zeros(len(rkeys), dtype=bool)
        hit[owner[doomed]] = True
        keep = ~doomed & hit[owner]
        kept_owner = owner[keep]
        if len(kept_owner):
            seg = run_starts(kept_owner)
            kz = z_of_keys(keys[keep])
            i = np.searchsorted(self._rkeys, rkeys[kept_owner[seg]])
            self._rz_lo[i] = np.minimum.reduceat(kz, seg)
            self._rz_hi[i] = np.maximum.reduceat(kz, seg)
        hit[kept_owner] = False               # the hit regions left empty
        emptied = np.searchsorted(self._rkeys, rkeys[hit])
        if len(emptied):
            self._rkeys, self._rz_lo, self._rz_hi, self._rfit = delete_rows(
                [self._rkeys, self._rz_lo, self._rz_hi, self._rfit], emptied)
        gone = pos[doomed]
        [self._skeys] = delete_rows([self._skeys], gone)
        return len(gone)

    # ------------------------------------------------------------------ export

    def occupied_keys(self) -> np.ndarray:
        """Sorted packed keys of occupied cubes."""
        return np.sort(self._keys_at(slice(None)))

    def export_occupied_points(self):
        """Occupied cube centers sorted by region then cube key.

        Returns (points (N, 3), is_ground (N,)); a cube is ground when its
        key is one of the ground keys.
        """
        keys = self._keys_at(slice(None))
        return (cube_centers(keys, self.config.cube_size),
                find_sorted(self._gkeys, keys)[1])
