"""Scan-to-map removal: height-band descriptors, ratio tests and deletion.

The current scan is summarised per region column (2D context) and per
region (3D context built from occlusion-bounded points).  Both contexts
are struct-of-arrays sorted by packed key, and neither reads the map, so
a frame's contexts are built once and can be replayed against the map
later.  Columns whose scan height band shrinks well below the map's
recorded band, and regions whose band shrinks below their map region's
band, are flagged dynamic and stripped of their non-ground cubes in one
masked pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FrontendConfig
from .indexing import ScanCubes, find_sorted, sorted_unique, z_of_keys
from .map_core import RHMap
from .range_image import RangeImage, extract_max_ring, extract_sup_inf


@dataclass
class ScanContext2D:
    """Scan height band per region column; arrays align with ``keys``."""

    keys: np.ndarray       # sorted packed region-column keys
    z_max: np.ndarray
    z_min: np.ndarray
    count: np.ndarray      # scan points in the column
    max_ring: np.ndarray   # the column holds a max-ring point

    def __len__(self):
        return len(self.keys)


@dataclass
class ScanContext3D:
    """Scan height band and occlusion bounds per region; arrays align with ``keys``."""

    keys: np.ndarray       # sorted packed region keys
    z_max: np.ndarray
    z_min: np.ndarray
    sup: np.ndarray
    inf: np.ndarray

    def __len__(self):
        return len(self.keys)


@dataclass
class SensorBounds:
    """What a frame's contexts take from its range image: point ids only."""

    in_fov: np.ndarray     # (N,) bool, the point is inside the vertical FOV
    max_ring: np.ndarray   # ids of the per-column farthest returns
    sup: np.ndarray        # ids of points bounded from above ...
    sup_bound: np.ndarray  # ... by the height of these points
    inf: np.ndarray        # ids of points bounded from below ...
    inf_bound: np.ndarray  # ... by the height of these points


@dataclass
class RemovalReport:
    columns_flagged: int = 0
    regions_flagged: int = 0
    cubes_removed: int = 0


def build_scan_context_2d(cubes: ScanCubes, max_ring: np.ndarray,
                          roi: np.ndarray | None = None) -> ScanContext2D:
    """Per region-column height extrema of the scan, with max-ring flags.

    ``roi`` masks the points to summarise (all by default); columns without
    a point in it are left out.  ``max_ring`` are point ids of ``cubes``,
    as in :func:`build_scan_context_3d`: a column is flagged max-ring when
    one of those points falls into it, which the grouping already knows.
    """
    z = cubes.points[cubes.order, 2]
    starts = cubes.column_start
    if roi is None:
        in_roi = np.ones(len(z), dtype=bool)
    else:
        in_roi = np.asarray(roi, dtype=bool)[cubes.order]
    count = np.add.reduceat(in_roi.astype(np.int64), starts)
    seen = count > 0
    keys = cubes.column_keys[seen]
    z_max = np.maximum.reduceat(np.where(in_roi, z, -np.inf), starts)[seen]
    z_min = np.minimum.reduceat(np.where(in_roi, z, np.inf), starts)[seen]
    ring = np.zeros(len(starts), dtype=bool)
    ring[cubes.cube_column[cubes.point_cube[max_ring]]] = True
    return ScanContext2D(keys, z_max, z_min, count[seen], ring[seen])


def _flag_columns(ctx: ScanContext2D, map_: RHMap,
                  fcfg: FrontendConfig) -> np.ndarray:
    """Sorted keys of the columns failing the 2D ratio test.

    ratio1 is the scan band over the map's column band; a max-ring column
    compares against the scan's own top instead of the map's, discounting
    structure beyond the sensor's reach.  Missing map columns and
    degenerate denominators score 1 (no removal), and a column needs at
    least ``min_flag_points`` scan points before it may flag.
    """
    lo, hi, known = map_.column_bands(ctx.keys)
    denom = np.where(ctx.max_ring, ctx.z_max - lo, hi - lo)
    safe = known & (denom >= fcfg.eps_div)
    ratio = np.ones(len(ctx))
    ratio[safe] = (ctx.z_max - ctx.z_min)[safe] / denom[safe]
    return ctx.keys[(ctx.count >= fcfg.min_flag_points) & (ratio < fcfg.delta1)]


def build_scan_context_3d(cubes: ScanCubes, sup_ids: np.ndarray,
                          sup_heights: np.ndarray, inf_ids: np.ndarray,
                          inf_heights: np.ndarray) -> ScanContext3D:
    """Per-region extrema plus occlusion bounds of the sup/inf point sets.

    ``sup_ids`` and ``inf_ids`` index the points of ``cubes``.  ``sup`` is
    the minimum upper bound over the region's sup points and ``inf`` the
    maximum lower bound over its inf points; both default to the region's
    own height extrema when one side is absent.
    """
    n_regions = len(cubes.region_keys)
    sup_reg = cubes.cube_region[cubes.point_cube[sup_ids]]
    inf_reg = cubes.cube_region[cubes.point_cube[inf_ids]]
    reg = np.concatenate([sup_reg, inf_reg])
    z = cubes.points[np.concatenate([sup_ids, inf_ids]).astype(np.int64), 2]
    z_max = np.full(n_regions, -np.inf)
    z_min = np.full(n_regions, np.inf)
    np.maximum.at(z_max, reg, z)
    np.minimum.at(z_min, reg, z)
    sup = z_max.copy()
    inf = z_min.copy()
    np.minimum.at(sup, sup_reg, np.asarray(sup_heights, dtype=np.float64))
    np.maximum.at(inf, inf_reg, np.asarray(inf_heights, dtype=np.float64))
    seen = np.bincount(reg, minlength=n_regions) > 0
    return ScanContext3D(cubes.region_keys[seen], z_max[seen], z_min[seen],
                         sup[seen], inf[seen])


def select_candidate_regions(ctx: ScanContext3D, map_: RHMap) -> np.ndarray:
    """Sorted keys of map regions whose z block intersects an entry's [inf, sup].

    A map region is matched against the context entries of its own
    region column.
    """
    rkeys, owner = map_.regions_in_columns(ctx.keys >> 21)
    lo = z_of_keys(rkeys) * map_.config.cube_size
    hi = lo + map_.config.region_size
    keep = (lo <= ctx.sup[owner]) & (hi >= ctx.inf[owner])
    return sorted_unique(rkeys[keep])


def _flag_regions(ctx: ScanContext3D, map_: RHMap, candidates: np.ndarray,
                  fcfg: FrontendConfig) -> np.ndarray:
    """Candidates failing the 3D ratio test.

    ratio2 is the scan band over the map region's band.  A candidate the
    context never observed scores 0, and a degenerate map band scores 1.
    """
    pos, seen = find_sorted(ctx.keys, candidates)
    z_min, z_max = map_.region_bands(candidates)
    denom = z_max - z_min
    ratio = np.zeros(len(candidates))
    ratio[seen & (denom < fcfg.eps_div)] = 1.0
    ok = seen & (denom >= fcfg.eps_div)
    ratio[ok] = (ctx.z_max[pos[ok]] - ctx.z_min[pos[ok]]) / denom[ok]
    return candidates[ratio < fcfg.delta2]


def sensor_bounds(image: RangeImage, fcfg: FrontendConfig) -> SensorBounds:
    """The range-image part of a frame's contexts: max ring and sup/inf.

    It reads only the range image of the sensor-frame scan, never the map
    or the world points, so it can run while the map is being updated.
    """
    return SensorBounds(image.in_fov, extract_max_ring(image),
                        *extract_sup_inf(image, fcfg.r1, fcfg.r2,
                                         fcfg.max_search))


def scan_contexts(bounds: SensorBounds, cubes: ScanCubes
                  ) -> tuple[ScanContext2D, ScanContext3D]:
    """The map-free half of scan-to-map removal: one frame's two contexts.

    ``bounds`` come from the frame's range image (:func:`sensor_bounds`)
    and ``cubes`` are its world points grouped by cube, in the same point
    order.  The 2D context summarises the points inside the vertical
    field of view, with the max-ring flags; the 3D context summarises the
    sup/inf points with their occlusion bounds.  The contexts share no
    memory with their inputs.
    """
    pw = cubes.points
    return (build_scan_context_2d(cubes, bounds.max_ring, roi=bounds.in_fov),
            build_scan_context_3d(cubes, bounds.sup, pw[bounds.sup_bound, 2],
                                  bounds.inf, pw[bounds.inf_bound, 2]))


def s2m_removal(map_: RHMap, contexts: tuple[ScanContext2D, ScanContext3D],
                fcfg: FrontendConfig) -> RemovalReport:
    """The map half of scan-to-map removal: replay a frame's contexts.

    Scan-to-map removal runs in two halves.  :func:`scan_contexts` builds
    a frame's 2D and 3D contexts from its range-image bounds and cube
    grouping without reading the map; this half compares them with the
    map as it is now.  It flags columns by the 2D ratio test and regions
    by the 3D one, then strips non-ground cubes from every flagged region
    and from all regions of flagged columns.  Ground cubes are never
    deleted.  The front end replays a frame's contexts at once, the back
    end replays a keyframe's later.
    """
    ctx2, ctx3 = contexts
    report = RemovalReport()
    flagged_cols = _flag_columns(ctx2, map_, fcfg)
    candidates = select_candidate_regions(ctx3, map_)
    flagged_regions = _flag_regions(ctx3, map_, candidates, fcfg)
    report.columns_flagged = len(flagged_cols)
    report.regions_flagged = len(flagged_regions)

    column_regions, _ = map_.regions_in_columns(flagged_cols)
    report.cubes_removed = map_.remove_regions_nonground(
        np.concatenate([flagged_regions, column_regions]))
    return report
