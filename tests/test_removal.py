"""Scan contexts, ratio tests and the scan-to-map removal pass."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rhmap.config import FrontendConfig, MapConfig
from rhmap.geometry import Pose, Scan, transform_scan
from rhmap.ground import r_gpe
from rhmap.indexing import ScanCubes, pack2, pack3
from rhmap.map_core import RHMap
from rhmap.removal import (ScanContext3D, _flag_columns, _flag_regions,
                           build_scan_context_2d, build_scan_context_3d,
                           select_candidate_regions, s2m_removal)

from conftest import (cube_state, frame_contexts, ground_keys, has_cubes,
                      hit_cubes, identity_pose, integrate, region)


CFG = MapConfig(cube_size=0.1, mask_bits=3)
FCFG = FrontendConfig()


def col_key(x, y):
    return int(pack2(np.int64(x), np.int64(y)))


def sorted_z(cubes):
    """The grouping's point heights in its sorted order, as
    ``scan_contexts`` gathers them for both contexts."""
    return cubes.points[cubes.order, 2]


def ctx_2d(points_roi_w):
    """2D context of a point set, every point inside the region of interest."""
    cubes = ScanCubes(points_roi_w, CFG)
    return build_scan_context_2d(cubes, np.ones(len(points_roi_w), dtype=bool),
                                 sorted_z(cubes))


def ctx_3d(sup_w, sup_heights, inf_w, inf_heights):
    """3D context of separate sup and inf point sets."""
    cubes = ScanCubes(np.concatenate([sup_w, inf_w]), CFG)
    n_sup = len(sup_w)
    return build_scan_context_3d(cubes, np.arange(n_sup), sup_heights,
                                 n_sup + np.arange(len(inf_w)), inf_heights,
                                 sorted_z(cubes))


# Scalar oracles of the two ratio tests, one column / one region at a time.

def compute_ratio1(ctx, map_, col_key):
    """Scan-to-map height band ratio of one region column.

    Missing map columns and denominators ``<= 0`` yield 1 (no removal).
    """
    lo, hi, known = map_.column_bands(np.array([col_key]))
    if not known[0]:
        return 1.0
    i = ctx.keys.tolist().index(col_key)
    dh = ctx.z_max[i] - ctx.z_min[i]
    denom = hi[0] - lo[0]
    if denom <= 0:
        return 1.0
    return dh / denom


def compute_ratio2(ctx, map_, region_key):
    """Scan-to-map band ratio of one candidate region; unobserved -> 0,
    and a map band ``<= 0`` -> 1."""
    keys = ctx.keys.tolist()
    if region_key not in keys:
        return 0.0
    i = keys.index(region_key)
    r = region(map_, region_key)
    denom = r.z_max - r.z_min
    if denom <= 0:
        return 1.0
    return (ctx.z_max[i] - ctx.z_min[i]) / denom


def test_ctx2d_single_point():
    ctx = ctx_2d(np.array([[0.1, 0.1, 0.7]]))
    assert len(ctx) == 1
    assert ctx.z_max[0] == ctx.z_min[0] == 0.7
    assert ctx.count[0] == 1


def test_ctx2d_band_and_count():
    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 1.9]])
    ctx = ctx_2d(pts)
    (i,) = np.flatnonzero(ctx.keys == col_key(0, 0))
    assert (ctx.z_max[i], ctx.z_min[i]) == (1.9, 0.1)
    assert ctx.count[i] == 2


def test_ctx2d_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(4000, 3))
    ctx = ctx_2d(pts)
    gidx = np.floor(pts / 0.1).astype(np.int64)
    m = CFG.mask
    groups = {}
    for (x, y, _), z in zip(gidx, pts[:, 2]):
        groups.setdefault(col_key(x & ~m, y & ~m), []).append(z)
    assert set(ctx.keys.tolist()) == set(groups)
    for i, k in enumerate(ctx.keys.tolist()):
        zs = groups[k]
        assert ctx.z_max[i] == max(zs) and ctx.z_min[i] == min(zs)
        assert ctx.count[i] == len(zs)


def _map_with_column_band(lo_idx, hi_idx):
    map_ = RHMap(CFG)
    hit_cubes(map_, [(0, 0, lo_idx), (0, 0, hi_idx)])
    return map_


def test_ratio1_perfect_match_is_one():
    map_ = _map_with_column_band(0, 19)
    ctx = ctx_2d(np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 1.95]]))
    assert abs(compute_ratio1(ctx, map_, col_key(0, 0)) - 1.0) < 1e-12


def test_ratio1_thin_scan_band():
    map_ = _map_with_column_band(0, 19)   # map band 0.05 .. 1.95
    ctx = ctx_2d(np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.25]]))
    ratio = compute_ratio1(ctx, map_, col_key(0, 0))
    assert abs(ratio - 0.2 / 1.9) < 1e-12


def test_ratio1_missing_column_and_degenerate_band():
    map_ = RHMap(CFG)
    pts = np.array([[0.0, 0.0, 0.5]])
    ctx = ctx_2d(pts)
    assert compute_ratio1(ctx, map_, col_key(0, 0)) == 1.0
    hit_cubes(map_, (0, 0, 5))          # single cube, zero-height band
    assert compute_ratio1(ctx, map_, col_key(0, 0)) == 1.0


def _column_points(rng, col, n, z_lo, z_hi):
    """``n`` points spread over region column ``col``, an (x, y) pair of
    region indexes, with heights in ``[z_lo, z_hi]``."""
    xy = (np.array(col) + rng.uniform(0.05, 0.95, size=(n, 2))) * CFG.region_size
    return np.column_stack([xy, rng.uniform(z_lo, z_hi, n)])


def _region_col_key(col):
    side = CFG.mask + 1
    return col_key(side * col[0], side * col[1])


def test_flag_columns_matches_per_column_reference():
    # a map of tall column bands, 0 to 3 m, over 6 x 6 region columns and a
    # scan of thin bands over them, about half thin enough to flag
    rng = np.random.default_rng(1)
    map_ = RHMap(CFG)
    grid = [(cx, cy) for cx in range(-3, 3) for cy in range(-3, 3)]
    integrate(map_, np.concatenate([_column_points(rng, col, 120, 0.0, 3.0)
                                    for col in grid]))
    scan = []
    for col in grid:
        z_lo, h = rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.2)
        scan.append(_column_points(rng, col, int(rng.integers(6, 20)),
                                   z_lo, z_lo + h))
    # a thin band of one point too few, in a tall map column
    few = (3, 0)
    integrate(map_, _column_points(rng, few, 40, 0.0, 3.0))
    scan.append(_column_points(rng, few, FCFG.min_flag_points - 1, 1.0, 1.1))
    # a map band of one cube level, and a column the map lacks
    flat, missing = (4, 0), (5, 0)
    hit_cubes(map_, [(32 + i, i, 12) for i in range(8)])
    scan.append(_column_points(rng, flat, 20, 1.0, 1.1))
    scan.append(_column_points(rng, missing, 20, 1.0, 1.1))

    ctx = ctx_2d(np.concatenate(scan))
    got = _flag_columns(ctx, map_, FCFG)
    counts = dict(zip(ctx.keys.tolist(), ctx.count.tolist()))
    expect = [k for k in sorted(counts)
              if counts[k] >= FCFG.min_flag_points
              and compute_ratio1(ctx, map_, k) < FCFG.delta1]
    assert got.tolist() == expect
    assert 0 < len(got) < len(ctx)
    # the column of too few points fails its count alone, the other two
    # score 1
    few, flat, missing = map(_region_col_key, (few, flat, missing))
    assert counts[few] == FCFG.min_flag_points - 1
    assert compute_ratio1(ctx, map_, few) < FCFG.delta1
    assert compute_ratio1(ctx, map_, flat) == 1.0
    assert compute_ratio1(ctx, map_, missing) == 1.0
    assert not {few, flat, missing} & set(got.tolist())


def test_ctx3d_single_sup_point():
    ctx = ctx_3d(np.array([[0.1, 0.1, 0.5]]), np.array([2.5]),
                 np.empty((0, 3)), np.empty(0))
    assert len(ctx) == 1
    assert ctx.z_max[0] == ctx.z_min[0] == 0.5
    assert ctx.sup[0] == 0.5            # bound above z_max has no effect
    assert ctx.inf[0] == 0.5            # initialized to Z_min


def test_ctx3d_sup_is_minimum_of_bounds():
    sup_w = np.array([[0.1, 0.1, 0.5], [0.2, 0.2, 0.6]])
    ctx = ctx_3d(sup_w, np.array([0.55, 0.52]), np.empty((0, 3)), np.empty(0))
    assert len(ctx) == 1
    assert ctx.sup[0] == 0.52


def test_ctx3d_matches_brute_force_group_by():
    rng = np.random.default_rng(2)
    sup_w = rng.uniform(-2, 2, size=(800, 3))
    inf_w = rng.uniform(-2, 2, size=(700, 3))
    sup_h = rng.uniform(0, 5, size=800)
    inf_h = rng.uniform(-5, 0, size=700)
    ctx = ctx_3d(sup_w, sup_h, inf_w, inf_h)
    m = CFG.mask
    groups = {}
    for pts, bounds, kind in ((sup_w, sup_h, "sup"), (inf_w, inf_h, "inf")):
        gidx = np.floor(pts / 0.1).astype(np.int64) & ~m
        for (x, y, z), p, b in zip(gidx, pts, bounds):
            k = int(pack3(np.int64(x), np.int64(y), np.int64(z)))
            g = groups.setdefault(k, {"z": [], "sup": [], "inf": []})
            g["z"].append(p[2])
            g[kind].append(b)
    assert set(ctx.keys.tolist()) == set(groups)
    for i, k in enumerate(ctx.keys.tolist()):
        g = groups[k]
        assert ctx.z_max[i] == max(g["z"]) and ctx.z_min[i] == min(g["z"])
        assert ctx.sup[i] == min(g["sup"] + [max(g["z"])])
        assert ctx.inf[i] == max(g["inf"] + [min(g["z"])])


def scatter_context_3d(cubes, sup_ids, sup_heights, inf_ids, inf_heights):
    """The 3D context as four ``ufunc.at`` scatters over the bound points'
    regions, with a ``bincount`` for the regions seen: the oracle of
    :func:`build_scan_context_3d`, which reduces over the sorted points."""
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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 400), st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.floats(0.05, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_ctx3d_matches_the_scatter_oracle_bit_for_bit(n, seed, bits, spread,
                                                      p_sup, p_inf):
    # points around the origin, so regions of negative indexes occur; each
    # side is a random set of distinct ids, as extract_sup_inf's are, which
    # may be empty, may share points with the other side and may leave
    # regions without a bound point.  Bounds are other points' heights, as
    # in a range image, so they tie with the extrema.  Signed zeros are
    # made positive: min and max of 0.0 and -0.0 depend on the order
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spread, spread, size=(n, 3)) + 0.0
    cubes = ScanCubes(pts, MapConfig(cube_size=0.1, mask_bits=bits))
    sup_ids = np.flatnonzero(rng.random(n) < p_sup)
    inf_ids = np.flatnonzero(rng.random(n) < p_inf)
    rng.shuffle(sup_ids)
    rng.shuffle(inf_ids)
    sup_h = pts[rng.integers(0, max(n, 1), len(sup_ids)), 2]
    inf_h = pts[rng.integers(0, max(n, 1), len(inf_ids)), 2]
    got = build_scan_context_3d(cubes, sup_ids, sup_h, inf_ids, inf_h,
                                sorted_z(cubes))
    want = scatter_context_3d(cubes, sup_ids, sup_h, inf_ids, inf_h)
    for name in ("keys", "z_max", "z_min", "sup", "inf"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_ctx3d_leaves_out_regions_without_a_bound_point():
    # three regions hold points; only the first two hold bound points, one
    # point on both sides
    pts = np.array([[0.05, 0.05, 0.15], [0.05, 0.05, 0.45],
                    [-0.35, 0.05, 0.25], [0.95, 0.05, 0.05]])
    cubes = ScanCubes(pts, CFG)
    assert len(cubes.region_keys) == 3
    ctx = build_scan_context_3d(cubes, np.array([0, 2]), np.array([0.3, 9.0]),
                                np.array([2]), np.array([0.2]), sorted_z(cubes))
    want = scatter_context_3d(cubes, np.array([0, 2]), np.array([0.3, 9.0]),
                              np.array([2]), np.array([0.2]))
    assert len(ctx) == 2
    for name in ("keys", "z_max", "z_min", "sup", "inf"):
        assert np.array_equal(getattr(ctx, name), getattr(want, name))
    (i,) = np.flatnonzero(ctx.keys == int(pack3(np.int64(-8), np.int64(0),
                                                np.int64(0))))
    assert (ctx.z_min[i], ctx.z_max[i], ctx.sup[i], ctx.inf[i]) == (
        0.25, 0.25, 0.25, 0.25)


def test_select_candidates_simple_and_stacked():
    map_ = RHMap(CFG)
    hit_cubes(map_, [(0, 0, z) for z in (0, 10, 20, 40)])
    # entry with a narrow span inside the lowest region only
    ctx = ctx_3d(np.array([[0.0, 0.0, 0.3]]), np.array([0.4]),
                 np.empty((0, 3)), np.empty(0))
    got = select_candidate_regions(ctx, map_)
    assert got.tolist() == [int(pack3(np.int64(0), np.int64(0), np.int64(0)))]
    # widen the span across the three lower regions
    ctx.sup[0] = 2.3
    ctx.inf[0] = 0.1
    got = select_candidate_regions(ctx, map_)
    assert got.tolist() == [int(pack3(np.int64(0), np.int64(0), np.int64(z)))
                   for z in (0, 8, 16)]


def test_select_candidates_matches_brute_force():
    rng = np.random.default_rng(3)
    map_ = RHMap(CFG)
    integrate(map_, rng.uniform(-2, 2, size=(4000, 3)))
    sup_w = rng.uniform(-2, 2, size=(300, 3))
    ctx = ctx_3d(sup_w, rng.uniform(0, 3, size=300),
                 sup_w[:100], rng.uniform(-3, 0, size=100))
    got = set(select_candidate_regions(ctx, map_).tolist())
    from rhmap.indexing import unpack3
    expect = set()
    for k, sup, inf in zip(ctx.keys.tolist(), ctx.sup, ctx.inf):
        kx, ky, _ = unpack3(np.int64(k))
        for rkey in map_.regions:
            rx, ry, rz = unpack3(np.int64(rkey))
            if (rx, ry) != (kx, ky):
                continue
            lo = rz * CFG.cube_size           # the region block's z extent
            hi = lo + CFG.region_size
            if lo <= sup and hi >= inf:
                expect.add(rkey)
    assert got == expect


def test_ratio2_cases():
    map_ = RHMap(CFG)
    hit_cubes(map_, [(0, 0, 0), (0, 0, 5)])   # region band 0.05 .. 0.55
    rkey = int(pack3(np.int64(0), np.int64(0), np.int64(0)))
    pts = np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.55]])
    ctx = ctx_3d(pts, np.array([9.0, 9.0]), np.empty((0, 3)), np.empty(0))
    assert abs(compute_ratio2(ctx, map_, rkey) - 1.0) < 1e-12
    # thin scan band: 0.1 over the 0.5 region band
    thin = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.2]])
    ctx = ctx_3d(thin, np.array([9.0, 9.0]), np.empty((0, 3)), np.empty(0))
    assert abs(compute_ratio2(ctx, map_, rkey) - 0.2) < 1e-12
    # candidate never observed in the context
    empty = ctx_3d(np.empty((0, 3)), np.empty(0), np.empty((0, 3)),
                   np.empty(0))
    assert compute_ratio2(empty, map_, rkey) == 0.0


def _flat_ground_scan(sensor_z=1.0, n=4000, radius=6.0, seed=0):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.04, 1.0, size=n)) * radius
    a = rng.uniform(0, 2 * np.pi, size=n)
    return np.column_stack([r * np.cos(a), r * np.sin(a),
                            np.full(n, -sensor_z)])


def test_s2m_static_scene_steady_state():
    fcfg = FrontendConfig(image_rows=32, image_cols=180, fov_down_deg=-45.0,
                          fov_up_deg=10.0, r_max=10.0)
    map_ = RHMap(CFG)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    scan = Scan(points=_flat_ground_scan())
    cubes = ScanCubes(transform_scan(scan, pose), CFG)
    for _ in range(3):
        map_.integrate_points(cubes)
        r_gpe(map_, cubes, fcfg)
        report = s2m_removal(map_, frame_contexts(scan, pose, fcfg, CFG), fcfg)
    assert report.cubes_removed == 0


def test_s2m_removes_planted_trail_but_keeps_ground():
    fcfg = FrontendConfig(image_rows=32, image_cols=180, fov_down_deg=-45.0,
                          fov_up_deg=10.0, r_max=10.0)
    map_ = RHMap(CFG)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    scan = Scan(points=_flat_ground_scan())
    cubes = ScanCubes(transform_scan(scan, pose), CFG)
    map_.integrate_points(cubes)
    r_gpe(map_, cubes, fcfg)
    # plant a ghost trail: a 1.5 m tall stack of non-ground cubes
    trail = [(20, 10, z) for z in range(2, 15)]
    hit_cubes(map_, trail)
    ground = ground_keys(map_)
    assert len(ground) > 0 and has_cubes(map_, ground).all()
    removed_total = 0
    contexts = frame_contexts(scan, pose, fcfg, CFG)
    for _ in range(3):
        report = s2m_removal(map_, contexts, fcfg)
        removed_total += report.cubes_removed
    for idx in trail:
        assert cube_state(map_, idx) is None
    assert removed_total >= len(trail)
    # every marked ground cube survived the removal passes
    assert has_cubes(map_, ground).all()


def test_s2m_empty_scan_noop():
    map_ = RHMap(CFG)
    hit_cubes(map_, [(0, 0, z) for z in range(12)])
    ctx2, ctx3 = frame_contexts(Scan(points=np.zeros((0, 3))),
                                identity_pose(), FCFG, CFG)
    assert len(ctx2) == len(ctx3) == 0
    report = s2m_removal(map_, (ctx2, ctx3), FCFG)
    assert len(map_) == 12
    assert report.cubes_removed == 0
    assert report.columns_flagged == 0


def test_s2m_deterministic_report_and_map():
    fcfg = FrontendConfig(image_rows=32, image_cols=180, fov_down_deg=-45.0,
                          fov_up_deg=10.0, r_max=10.0)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    scan = Scan(points=_flat_ground_scan(seed=5))
    outputs = []
    for _ in range(2):
        map_ = RHMap(CFG)
        cubes = ScanCubes(transform_scan(scan, pose), CFG)
        map_.integrate_points(cubes)
        r_gpe(map_, cubes, fcfg)
        hit_cubes(map_, [(12, -6, z) for z in range(2, 12)])
        report = s2m_removal(map_, frame_contexts(scan, pose, fcfg, CFG), fcfg)
        pts, ground = map_.export_occupied_points()
        outputs.append((report.columns_flagged, report.regions_flagged,
                        report.cubes_removed, pts.tobytes(),
                        ground.tobytes()))
    assert outputs[0] == outputs[1]


def test_s2m_flags_only_observed_columns():
    fcfg = FrontendConfig(image_rows=32, image_cols=180, fov_down_deg=-45.0,
                          fov_up_deg=10.0, r_max=10.0)
    map_ = RHMap(CFG)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    scan = Scan(points=_flat_ground_scan())
    integrate(map_, transform_scan(scan, pose))
    # a trail far outside the scan's reach must be untouched
    far = [(400, 400, z) for z in range(2, 15)]
    hit_cubes(map_, far)
    s2m_removal(map_, frame_contexts(scan, pose, fcfg, CFG), fcfg)
    for idx in far:
        assert cube_state(map_, idx) is False


def test_flag_regions_matches_per_region_reference():
    rng = np.random.default_rng(12)
    map_ = RHMap(CFG)
    integrate(map_, rng.uniform(-2, 2, size=(4000, 3)))
    integrate(map_, np.array([[0.05, 0.05, 3.05]]))   # one-cube region
    sup_w = rng.uniform(-2, 2, size=(300, 3))
    ctx = ctx_3d(sup_w, rng.uniform(0, 3, size=300),
                 sup_w[:100], rng.uniform(-3, 0, size=100))
    candidates = select_candidate_regions(ctx, map_)
    candidates = np.append(candidates, int(pack3(np.int64(0), np.int64(0),
                                                 np.int64(24))))
    got = _flag_regions(ctx, map_, candidates, FCFG).tolist()
    expect = [k for k in candidates.tolist()
              if compute_ratio2(ctx, map_, k) < FCFG.delta2]
    assert got == expect
    assert 0 < len(got) < len(candidates)
