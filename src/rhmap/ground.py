"""Region-wise ground plane estimation and ground-cube marking.

Ground handling works in cube-index space: candidate regions are elected
from scan points lying below the column ground reference, each elected
region gets a PCA plane fitted to its low cubes, and cubes within a
distance margin of the plane are marked as ground.  Marked ground cubes
survive all later dynamic-region removal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FrontendConfig
from .indexing import ScanCubes, find_sorted, group_sorted, pack2, unpack3
from .map_core import RHMap


@dataclass
class GroundReport:
    regions_elected: int = 0
    regions_fitted: int = 0
    planes_failed: int = 0
    ground_cubes_added: int = 0


def elect_candidate_ground_regions(map_: RHMap, points_world: np.ndarray,
                                   fcfg: FrontendConfig,
                                   cubes: ScanCubes | None = None) -> list[int]:
    """Region keys worth a ground fit, given the freshly inserted scan.

    A cube of the scan votes for its region when its height sits below the
    column's ground reference: the running ground mean G when available,
    otherwise the minimum scan height of the whole region column plus a
    bootstrap margin (the wider footprint keeps isolated flat rooftops
    from looking like fresh ground).  Regions whose eight neighbouring
    columns are all empty are discarded as isolated noise.  ``cubes`` is
    the scan already grouped by cube; it is built here when absent.
    """
    if len(points_world) == 0:
        return []
    cfg = map_.config
    if cubes is None:
        cubes = ScanCubes(points_world, cfg)
    idx = unpack3(cubes.cube_keys)
    okeys = pack2(idx[:, 0], idx[:, 1])
    order, starts, inv = group_sorted(okeys)
    gmean, found = map_.ground_mean(okeys[order[starts]])
    cminz = np.minimum.reduceat(cubes.points[cubes.order, 2], cubes.column_start)

    ref = np.where(found[inv], gmean[inv],
                   cminz[cubes.cube_column] + fcfg.bootstrap_margin)
    below = idx[:, 2] * cfg.cube_size < ref
    voted = np.zeros(len(cubes.region_keys), dtype=bool)
    voted[cubes.cube_region[below]] = True
    rkeys = cubes.region_keys[voted]

    if len(rkeys) == 0:
        return []
    step = cfg.mask + 1
    occ_cols = map_.occupied_columns()
    rxy = unpack3(rkeys)
    offs = np.array([(dx, dy) for dx in (-step, 0, step)
                     for dy in (-step, 0, step) if dx or dy], dtype=np.int64)
    nkeys = pack2(rxy[:, None, 0] + offs[:, 0], rxy[:, None, 1] + offs[:, 1])
    _, hit = find_sorted(occ_cols, nkeys)
    return rkeys[hit.any(axis=1)].tolist()


def fit_ground_planes(map_: RHMap, rkeys: np.ndarray, fcfg: FrontendConfig,
                      report: GroundReport):
    """Fit ground planes to existing regions and mark their ground cubes.

    A region's plane is the PCA fit, in cube-index units, of its low cubes
    (centers at or below the region's mean height): the normal is the
    smallest-eigenvalue direction of their covariance, oriented upward,
    and the offset is the normal dotted with their mean index.  A fit
    fails for fewer than three low cubes, for a rank-deficient (collinear)
    configuration, or for a normal steeper than
    ``fcfg.min_ground_normal_z`` allows (walls are not ground); a failed
    region records its live-cube count in its ``fit_failed_at``.

    Every live cube of a fitted region within ``fcfg.r_gro`` of the plane
    is marked as ground, so staircase levels above the mean on sloped
    terrain count too, and its z-center is folded into the ground height
    table G.  All regions' fits, checks and markings run as single array
    operations over one stacked eigendecomposition.
    """
    rkeys = np.asarray(rkeys, dtype=np.int64)
    at = np.searchsorted(map_._rkeys, rkeys)
    n_reg = len(rkeys)
    rows_cat, gid = map_._region_rows(rkeys)
    live = map_._alive[rows_cat]
    rows_cat, gid = rows_cat[live], gid[live]
    if len(rows_cat) == 0:
        map_._rfail_at[at] = map_._rcount[at]
        report.planes_failed += n_reg
        return
    cube_size = map_.config.cube_size
    idx_cat = unpack3(map_._keys[rows_cat])
    zmean = map_._rz_sum[at] / map_._rcount[at]

    zc_all = (idx_cat[:, 2] + 0.5) * cube_size
    low = zc_all <= zmean[gid] + 1e-12
    gid_all, pts_all = gid, idx_cat.astype(np.float64)
    gid = gid[low]

    counts = np.bincount(gid, minlength=n_reg)
    pts = pts_all[low]
    sums = np.zeros((n_reg, 3))
    np.add.at(sums, gid, pts)
    means = sums / np.maximum(counts, 1)[:, None]
    centered = pts - means[gid]
    outer = centered[:, :, None] * centered[:, None, :]
    cov = np.zeros((n_reg, 3, 3))
    np.add.at(cov, gid, outer)
    cov /= np.maximum(counts, 1)[:, None, None]

    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]
    flip = (normals[:, 2] < 0) | (
        (normals[:, 2] == 0) & ((normals[:, 0] < 0) |
                                ((normals[:, 0] == 0) & (normals[:, 1] < 0))))
    normals[flip] = -normals[flip]
    ok = ((counts >= 3)
          & (evals[:, 1] > 1e-9 * np.maximum(evals[:, 2], 1.0))
          & (normals[:, 2] >= fcfg.min_ground_normal_z))
    d = np.einsum("ij,ij->i", normals, means)

    map_._rnormal[at[ok]] = normals[ok]
    map_._rd[at[ok]] = d[ok]
    map_._rfitted[at[ok]] = True
    map_._rfail_at[at[~ok]] = map_._rcount[at[~ok]]
    report.regions_fitted += int(ok.sum())
    report.planes_failed += int((~ok).sum())

    # margin extraction runs over every live cube of the fitted regions
    good = ok[gid_all]
    gid_all, rows_cat, idx_cat, pts_all, zc_all = (
        a[good] for a in (gid_all, rows_cat, idx_cat, pts_all, zc_all))
    dist = np.abs(np.einsum("ij,ij->i", pts_all, normals[gid_all])
                  - d[gid_all])
    within = dist < fcfg.r_gro
    rows_cat, idx_cat, zc_all = (rows_cat[within], idx_cat[within],
                                 zc_all[within])
    map_._is_ground[rows_cat] = True
    map_.update_ground_samples(pack2(idx_cat[:, 0], idx_cat[:, 1]), zc_all)
    report.ground_cubes_added += int(len(rows_cat))


def r_gpe(map_: RHMap, points_world: np.ndarray, fcfg: FrontendConfig,
          cubes: ScanCubes | None = None) -> GroundReport:
    """Run ground estimation for a freshly inserted scan.

    Only regions elected this scan and not yet fitted get a plane; fits
    on already-fitted regions are never repeated, and a failed fit is
    retried only after the region's cube population changes.  ``cubes``
    is the scan already grouped by cube (see
    :func:`elect_candidate_ground_regions`).
    """
    report = GroundReport()
    elected = np.asarray(
        elect_candidate_ground_regions(map_, points_world, fcfg, cubes),
        dtype=np.int64)
    report.regions_elected = len(elected)
    at, exists = find_sorted(map_._rkeys, elected)
    elected, at = elected[exists], at[exists]
    unfitted = ~map_._rfitted[at]
    retry_pointless = unfitted & (map_._rfail_at[at] == map_._rcount[at])
    report.planes_failed += int(retry_pointless.sum())
    pending = elected[unfitted & ~retry_pointless]
    if len(pending):
        fit_ground_planes(map_, pending, fcfg, report)
    return report
