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
from .indexing import (ScanCubes, find_sorted, pack2, run_starts, unpack3,
                       z_of_keys)
from .map_core import RHMap

# Two covariance eigenvalues closer than this, relative to the largest (or
# to 1), tie: the plane normal between them is undefined.
_TIE_TOL = 1e-9


@dataclass
class GroundReport:
    regions_elected: int = 0
    regions_fitted: int = 0
    planes_failed: int = 0
    ground_cubes_added: int = 0


def elect_candidate_ground_regions(map_: RHMap, cubes: ScanCubes,
                                   fcfg: FrontendConfig) -> np.ndarray:
    """Sorted int64 region keys worth a ground fit, given the freshly
    inserted scan's world points grouped by cube.

    A cube of the scan at z index ``k`` votes for its region when it sits
    below the ground reference of its (x, y) cube column: the mean centre
    height of the map's ``n`` ground cubes there, tested exactly as
    ``2 n k < 2 sum_k + n``, or in a column without any, the minimum scan
    height of the whole region column plus a bootstrap margin (the wider
    footprint keeps isolated flat rooftops from looking like fresh
    ground).  Regions whose eight neighbouring columns are all empty are
    discarded as isolated noise.
    """
    map_.check_grouping(cubes)
    cfg = map_.config
    kz = z_of_keys(cubes.cube_keys)
    # each cube's (x, y) cube column's ground sum and count
    z_sum, n = map_.ground_columns(cubes.cube_keys >> 21)
    cminz = np.minimum.reduceat(cubes.points[cubes.order, 2], cubes.column_start)

    below = np.where(
        n > 0, 2 * n * kz < 2 * z_sum + n,
        kz * cfg.cube_size < cminz[cubes.cube_column] + fcfg.bootstrap_margin)
    voted = np.zeros(len(cubes.region_keys), dtype=bool)
    voted[cubes.cube_region[below]] = True
    rkeys = cubes.region_keys[voted]

    if len(rkeys) == 0:
        return rkeys
    step = cfg.mask + 1
    occ_cols = map_.occupied_columns()
    rxy = unpack3(rkeys)
    offs = np.array([(dx, dy) for dx in (-step, 0, step)
                     for dy in (-step, 0, step) if dx or dy], dtype=np.int64)
    nkeys = pack2(rxy[:, None, 0] + offs[:, 0], rxy[:, None, 1] + offs[:, 1])
    _, hit = find_sorted(occ_cols, nkeys)
    return rkeys[hit.any(axis=1)]


def fit_ground_planes(map_: RHMap, rkeys: np.ndarray, fcfg: FrontendConfig,
                      report: GroundReport):
    """Fit ground planes to the given regions and mark their ground cubes.

    Only regions that want a plane are fitted (see
    :meth:`RHMap.unfitted_region_cubes`): absent and already fitted
    regions are skipped, and so is a region whose last fit failed at its
    current cube count, which counts as a failed plane.

    A region's plane is the PCA fit, in cube-index units, of its low
    cubes.  A cube is low when its z index ``k`` is at most the
    region's mean, tested exactly in integers as ``n * k <= sum_k`` over
    the region's ``n`` cubes.  The covariance of the ``m`` low cubes
    comes from raw moments of their integer index offsets from the region
    origin, ``(m S2 - S1 S1^T) / m^2``: every sum is an integer, so it is
    exact and does not depend on the order of the cubes.  The normal is
    the smallest-eigenvalue direction, oriented upward, and the offset is
    the normal dotted with the low cubes' mean index.  A fit fails for
    fewer than three low cubes; when the two smallest eigenvalues tie
    within ``_TIE_TOL`` of the largest (or of 1), since the normal is then
    any direction of a plane (collinear cubes tie at zero); or for a
    normal steeper than ``fcfg.min_ground_normal_z`` allows (walls are
    not ground).

    Every cube of a fitted region within ``fcfg.r_gro`` of the plane
    is marked as ground, so staircase levels above the mean on sloped
    terrain count too, and joins the map's ground keys, the ground
    reference of later elections.  All regions' fits, checks and markings
    run as single array operations over one stacked eigendecomposition.

    Returns ``(rkeys, ok, normals, d)``: the regions fitted now, whether
    each fit passed, and each plane ``n . i = d`` in cube-index units.
    The map keeps only the outcome, not the plane.
    """
    cubes, skipped = map_.unfitted_region_cubes(rkeys)
    report.planes_failed += skipped
    if len(cubes.rkeys) == 0:
        return cubes.rkeys, np.zeros(0, dtype=bool), np.zeros((0, 3)), np.zeros(0)
    owner = cubes.owner
    idx = unpack3(cubes.keys)
    low = cubes.count[owner] * idx[:, 2] <= cubes.z_sum[owner]

    # a region's lowest cube is always low, so every region owns one
    # run of the low cubes
    off = idx[low] & map_.config.mask     # offsets from the region origin
    seg = run_starts(owner[low])
    m = np.diff(np.append(seg, len(off)))
    s1 = np.add.reduceat(off, seg)
    s2 = np.add.reduceat(off[:, :, None] * off[:, None, :], seg)
    cov = ((m[:, None, None] * s2 - s1[:, :, None] * s1[:, None, :])
           / (m * m)[:, None, None])
    means = (m[:, None] * unpack3(cubes.rkeys) + s1) / m[:, None]

    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]
    flip = (normals[:, 2] < 0) | (
        (normals[:, 2] == 0) & ((normals[:, 0] < 0) |
                                ((normals[:, 0] == 0) & (normals[:, 1] < 0))))
    normals[flip] = -normals[flip]
    ok = ((m >= 3)
          & (evals[:, 1] - evals[:, 0] > _TIE_TOL * np.maximum(evals[:, 2], 1.0))
          & (normals[:, 2] >= fcfg.min_ground_normal_z))
    d = np.einsum("ij,ij->i", normals, means)
    map_.record_plane_fits(cubes.rkeys, ok)
    report.regions_fitted += int(ok.sum())
    report.planes_failed += int((~ok).sum())

    # margin extraction runs over every cube of the fitted regions
    good = ok[owner]
    owner, pos, pts = owner[good], cubes.pos[good], idx[good].astype(np.float64)
    dist = np.abs(np.einsum("ij,ij->i", pts, normals[owner]) - d[owner])
    within = dist < fcfg.r_gro
    map_.mark_ground(pos[within])
    report.ground_cubes_added += int(within.sum())
    return cubes.rkeys, ok, normals, d


def r_gpe(map_: RHMap, cubes: ScanCubes, fcfg: FrontendConfig) -> GroundReport:
    """Run ground estimation for a freshly inserted scan, grouped by cube.

    Regions elected this scan get a plane when they want one: fits on
    already-fitted regions are never repeated, and a failed fit is
    retried only after the region's cube population changes.
    """
    report = GroundReport()
    elected = elect_candidate_ground_regions(map_, cubes, fcfg)
    report.regions_elected = len(elected)
    fit_ground_planes(map_, elected, fcfg, report)
    return report
