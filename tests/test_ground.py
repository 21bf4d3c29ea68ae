"""Ground region election, plane fitting and ground-cube marking."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhmap import pipeline
from rhmap.config import FrontendConfig, MapConfig
from rhmap.ground import (GroundReport, elect_candidate_ground_regions,
                          fit_ground_planes, r_gpe)
from rhmap.indexing import ScanCubes, pack2, pack3, unpack3
from rhmap.io_formats import write_map_ply
from rhmap.map_core import RHMap
from rhmap.pipeline import run_pipeline
from rhmap.synth import synth_frames

from conftest import (cube_state, dor_config, ground_keys, hit_cubes,
                      integrate, mark_ground_keys, region, residue_config,
                      residue_scene)


FCFG = FrontendConfig()


def make_map(mask_bits=3):
    return RHMap(MapConfig(cube_size=0.1, mask_bits=mask_bits))


def fit_all(map_, fcfg=FCFG) -> GroundReport:
    """Run fit_ground_planes over every region of the map."""
    return fit_all_planes(map_, fcfg)[0]


def fit_all_planes(map_, fcfg=FCFG):
    """Run fit_ground_planes over every region of the map; returns the
    report and the plane ``(n, d)`` of each passed fit by region key."""
    report = GroundReport()
    rkeys, ok, normals, d = fit_ground_planes(map_, map_.regions, fcfg, report)
    return report, planes_by_region(rkeys, ok, normals, d)


def planes_by_region(rkeys, ok, normals, d):
    """The passed fits of a ``fit_ground_planes`` return, by region key."""
    return {int(k): (n, dk) for k, n, dk in zip(rkeys[ok], normals[ok], d[ok])}


def assert_fit_failed(map_, report):
    (rkey,) = map_.regions
    r = region(map_, rkey)
    assert not r.fitted
    assert report.regions_fitted == 0 and report.planes_failed == 1
    assert r.fit_failed_at == r.occupied_count
    assert report.ground_cubes_added == 0
    assert len(ground_keys(map_)) == 0


# Scalar oracle of fit_ground_planes, one region at a time.

def fit_region_plane(map_, region_key, min_normal_z):
    """PCA plane (n, d) of a region's low cubes in index units, or None.

    The low cubes are those whose z index is at most the mean z index of
    the region's live cubes; the normal is the smallest-eigenvalue
    direction, oriented upward.  Fewer than three low cubes, two smallest
    eigenvalues that tie within 1e-9 of the largest (or of 1; collinear
    cubes tie at zero), and normals steeper than ``min_normal_z`` allows
    give None.
    """
    r = region(map_, region_key)
    idx = unpack3(r.keys)
    pts = idx[idx[:, 2] <= idx[:, 2].mean()].astype(np.float64)
    if len(pts) < 3:
        return None
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] - evals[0] <= 1e-9 * max(evals[2], 1.0):
        return None
    n = evecs[:, 0]
    if n[2] < 0 or (n[2] == 0 and (n[0] < 0 or (n[0] == 0 and n[1] < 0))):
        n = -n
    if n[2] < min_normal_z:
        return None
    return n, float(n @ pts.mean(axis=0))


def extract_ground_cubes(map_, region_key, n, d, r_gro):
    """Keys of a region's live cubes within r_gro of a plane."""
    keys = region(map_, region_key).keys
    near = np.abs(unpack3(keys).astype(np.float64) @ n - d) < r_gro
    return keys[near]


def _lattice_map():
    map_ = make_map()
    hit_cubes(map_, [(x, y, 0) for x in range(8) for y in range(8)])
    return map_


def test_flat_lattice_plane():
    map_ = _lattice_map()
    report, planes = fit_all_planes(map_)
    (rkey,) = map_.regions
    r = region(map_, rkey)
    assert r.fitted and report.regions_fitted == 1
    n, d = planes[rkey]
    assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-9)
    assert abs(d) < 1e-9
    # every member cube satisfies the plane equation
    idx = unpack3(r.keys)
    assert np.abs(idx @ n - d).max() <= 1e-6


def test_tilted_lattice_plane():
    # index-space plane I_z = I_x / 5, i.e. z = 0.2 x in meters
    map_ = make_map(mask_bits=4)
    hit_cubes(map_, [(x, y, x // 5) for x in (0, 5, 10, 15)
                     for y in range(0, 16, 2)])
    _, planes = fit_all_planes(map_)
    (rkey,) = map_.regions
    r = region(map_, rkey)
    assert r.fitted
    expect = np.array([-0.2, 0.0, 1.0])
    expect /= np.linalg.norm(expect)
    assert np.allclose(planes[rkey][0], expect, atol=1e-6)


def test_collinear_cubes_rejected():
    map_ = make_map()
    hit_cubes(map_, [(x, 0, 0) for x in range(3)])
    assert_fit_failed(map_, fit_all(map_))


def test_too_few_cubes_rejected():
    map_ = make_map()
    hit_cubes(map_, [(0, 0, 0), (1, 1, 0)])
    assert_fit_failed(map_, fit_all(map_))


def test_tied_eigenvalues_rejected_by_oracle_and_batch():
    # the low cubes form a 4 x 2 x 2 bar with covariance diag(1.25, 0.25,
    # 0.25): the two smallest eigenvalues tie, so the normal could be any
    # direction of the y-z plane.  The two cubes at z index 7 lift the mean
    # z index to 22 / 18 without being low themselves.
    map_ = make_map()
    bar = [(x, y, z) for x in range(4) for y in range(2) for z in range(2)]
    hit_cubes(map_, bar + [(0, 5, 7), (3, 5, 7)])
    (rkey,) = map_.regions
    assert fit_region_plane(map_, rkey, 0.0) is None
    assert_fit_failed(map_, fit_all(map_, FrontendConfig(min_ground_normal_z=0.0)))


def test_steep_wall_rejected_by_normal_gate():
    map_ = make_map()
    hit_cubes(map_, [(3, y, z) for y in range(8) for z in range(8)])
    report = fit_all(map_, FrontendConfig(min_ground_normal_z=0.8))
    assert_fit_failed(map_, report)


def test_extract_flat_region_marks_all_low_cubes():
    map_ = _lattice_map()
    hit_cubes(map_, (0, 0, 5))  # above the mean; not in the low set
    report = fit_all(map_)
    assert report.ground_cubes_added == 64
    got = set(ground_keys(map_).tolist())
    expect = {int(pack3(np.int64(x), np.int64(y), np.int64(0)))
              for x in range(8) for y in range(8)}
    assert got == expect
    assert cube_state(map_, (0, 0, 5)) is False
    assert cube_state(map_, (3, 3, 0)) is True
    # every marked ground cube entered the ground keys
    z_sum, count = map_.ground_columns(pack2([3], [3]))
    assert z_sum.tolist() == [0] and count.tolist() == [1]


def test_extract_excludes_displaced_cube():
    map_ = _lattice_map()
    hit_cubes(map_, (0, 0, 3))  # 3 cube units off the plane
    fit_all(map_, FrontendConfig(r_gro=1.25))
    got = set(ground_keys(map_).tolist())
    assert int(pack3(np.int64(0), np.int64(0), np.int64(3))) not in got
    assert len(got) == 64


def test_extract_matches_brute_force_filter():
    rng = np.random.default_rng(2)
    map_ = make_map()
    pts = np.column_stack([rng.uniform(0, 0.8, size=(150, 2)),
                           rng.uniform(0, 0.25, size=150)])
    integrate(map_, pts)
    _, planes = fit_all_planes(map_, FrontendConfig(r_gro=1.25))
    (rkey,) = map_.regions
    r = region(map_, rkey)
    if not r.fitted:
        pytest.skip("degenerate random draw")
    got = set(ground_keys(map_).tolist())
    idx = unpack3(r.keys)
    n, d = planes[rkey]
    near = idx[np.abs(idx @ n - d) < 1.25]
    expect = {int(pack3(*i)) for i in near}
    assert got == expect


def test_extract_without_plane_is_empty():
    map_ = make_map()
    hit_cubes(map_, (0, 0, 0))
    assert_fit_failed(map_, fit_all(map_))
    assert len(map_._gkeys) == 0


def test_election_isolated_region_excluded():
    map_ = make_map()
    pt = np.array([[5.05, 5.05, 0.05]])
    cubes = ScanCubes(pt, map_.config)
    map_.integrate_points(cubes)
    elected = elect_candidate_ground_regions(map_, cubes, FCFG)
    assert elected.dtype == np.int64 and len(elected) == 0


def test_election_rejects_a_grouping_of_another_shape():
    map_ = make_map()
    pts = np.column_stack([np.tile(np.arange(16) * 0.1, 16),
                           np.repeat(np.arange(16) * 0.1, 16),
                           np.zeros(256)])
    map_.integrate_points(ScanCubes(pts, map_.config))
    for cfg in (MapConfig(cube_size=0.2), MapConfig(mask_bits=2)):
        with pytest.raises(ValueError):
            elect_candidate_ground_regions(map_, ScanCubes(pts, cfg), FCFG)
        with pytest.raises(ValueError):
            r_gpe(map_, ScanCubes(pts, cfg), FCFG)
    assert len(map_._gkeys) == 0


def test_election_flat_disc_elects_all_touched_regions():
    rng = np.random.default_rng(3)
    r = np.sqrt(rng.uniform(0, 1, size=4000)) * 5.0
    a = rng.uniform(0, 2 * np.pi, size=4000)
    pts = np.column_stack([r * np.cos(a), r * np.sin(a), np.zeros_like(r)])
    map_ = make_map()
    cubes = ScanCubes(pts, map_.config)
    map_.integrate_points(cubes)
    elected = set(elect_candidate_ground_regions(map_, cubes, FCFG).tolist())
    # oracle: every region that received a point and has a live neighbor
    gidx = np.floor(pts / 0.1).astype(np.int64)
    m = map_.config.mask
    ridx = np.unique(gidx & ~m, axis=0)
    cols = {(int(x), int(y)) for x, y, _ in ridx}
    expect = set()
    for x, y, z in ridx.tolist():
        neigh = any((x + dx * 8, y + dy * 8) in cols
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    if (dx, dy) != (0, 0))
        if neigh:
            expect.add(int(pack3(np.int64(x), np.int64(y), np.int64(z))))
    assert elected == expect


def test_election_ignores_points_above_ground_reference():
    map_ = make_map()
    ground = np.column_stack([np.tile(np.arange(16) * 0.1, 16),
                              np.repeat(np.arange(16) * 0.1, 16),
                              np.zeros(256)])
    ground = ScanCubes(ground, map_.config)
    map_.integrate_points(ground)
    r_gpe(map_, ground, FCFG)  # ground cubes at z index 0, centres 0.05 m
    high = ScanCubes(np.array([[0.45, 0.45, 2.0]]), map_.config)
    map_.integrate_points(high)
    elected = elect_candidate_ground_regions(map_, high, FCFG)
    assert elected.dtype == np.int64 and len(elected) == 0


def test_election_tie_with_the_ground_mean_does_not_vote():
    # ground cubes at z indexes 8 and 9 put the column's mean ground height
    # at exactly (8.5 + 0.5) * 0.1 = 0.9 m, the height of cube 9: not below
    # it.  A float mean of the centres 0.85 and 0.95 rounds above 0.9.
    map_ = make_map()
    # cube (8, 0, 0) fills a neighbouring region column: the region of the
    # scan cube is not isolated
    hit_cubes(map_, [(0, 0, 8), (0, 0, 9), (8, 0, 0)])
    mark_ground_keys(map_, pack3([0, 0], [0, 0], [8, 9]))
    for z, votes in ((9, False), (8, True)):
        cubes = ScanCubes(np.array([[0.05, 0.05, (z + 0.5) * 0.1]]), map_.config)
        elected = elect_candidate_ground_regions(map_, cubes, FCFG)
        assert elected.tolist() == ([int(pack3(0, 0, 8))] if votes else [])


def test_rgpe_trigger_rule_fits_once():
    map_ = make_map()
    pts = np.column_stack([np.tile(np.arange(16) * 0.1, 16),
                           np.repeat(np.arange(16) * 0.1, 16),
                           np.zeros(256)])
    cubes = ScanCubes(pts, map_.config)
    map_.integrate_points(cubes)
    first = r_gpe(map_, cubes, FCFG)
    assert first.regions_fitted > 0
    again = r_gpe(map_, cubes, FCFG)
    assert again.regions_fitted == 0


def test_batch_fit_matches_per_region_path():
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(0, 4.0, size=(6000, 2)),
                           rng.uniform(0, 0.3, size=6000)])
    map_ = make_map()
    integrate(map_, pts)
    regions = map_.regions.tolist()

    # oracle first: it only reads the map
    planes, oracle_keys = {}, []
    for k in regions:
        planes[k] = fit_region_plane(map_, k, FCFG.min_ground_normal_z)
        if planes[k] is not None:
            oracle_keys.append(
                extract_ground_cubes(map_, k, *planes[k], FCFG.r_gro))
    report = GroundReport()
    fits = planes_by_region(
        *fit_ground_planes(map_, np.array(regions), FCFG, report))

    assert report.regions_fitted == sum(p is not None for p in planes.values())
    assert report.planes_failed == len(regions) - report.regions_fitted
    for k in regions:
        r = region(map_, k)
        assert r.fitted == (planes[k] is not None) == (k in fits)
        if r.fitted:
            assert np.allclose(fits[k][0], planes[k][0], atol=1e-9)
            assert abs(fits[k][1] - planes[k][1]) < 1e-9
    marked = ground_keys(map_)
    expect = np.sort(np.concatenate(oracle_keys))
    assert np.array_equal(marked, expect)
    assert np.array_equal(map_._gkeys, expect)


def test_sloped_terrain_ground_coverage():
    # 10 degree incline sampled on a dense grid; every cube is true ground
    slope = np.tan(np.radians(10.0))
    xy = np.stack(np.meshgrid(np.arange(0, 8, 0.05),
                              np.arange(0, 8, 0.05)), axis=-1).reshape(-1, 2)
    pts = np.column_stack([xy, slope * xy[:, 0]])
    map_ = make_map()
    cubes = ScanCubes(pts, map_.config)
    map_.integrate_points(cubes)
    r_gpe(map_, cubes, FCFG)
    marked = len(ground_keys(map_))
    total = len(map_)
    assert marked / total >= 0.95


def fit_outcome(map_, fits):
    """Every fit result of a map, as bytes: each region's fitted flag and
    failed-fit count, the planes of ``fits`` (a region key -> (n, d) dict)
    in key order, the ground keys and the exported PLY."""
    regions = [region(map_, k) for k in map_.regions]
    state = [(r.fitted, r.fit_failed_at) for r in regions]
    planes = [(k, fits[k][0].tobytes(), np.float64(fits[k][1]).tobytes())
              for k in sorted(fits)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.ply"
        write_map_ply(map_, path)
        ply = path.read_bytes()
    return state, planes, map_._gkeys.tobytes(), ply


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 3), min_size=256, max_size=256),
       st.lists(st.tuples(st.integers(-8, 7), st.integers(-8, 7),
                          st.integers(-4, 11)), max_size=60),
       st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_fits_do_not_depend_on_insertion_order(heights, clutter, seed, parts):
    # a bumpy 16 x 16 surface over four region columns plus clutter: the
    # same cubes, inserted at once, shuffled, or shuffled and split across
    # several integrations, give bit-identical fits, ground flags (in the
    # PLY), ground keys and exported map
    xy = np.stack(np.meshgrid(np.arange(-8, 8), np.arange(-8, 8)), -1).reshape(-1, 2)
    idx = np.unique(np.concatenate([np.column_stack([xy, heights]),
                                    np.array(clutter, dtype=np.int64).reshape(-1, 3)]),
                    axis=0)
    shuffled = idx[np.random.default_rng(seed).permutation(len(idx))]
    fcfg = FrontendConfig(min_ground_normal_z=0.0)
    outcomes = []
    for order, n_parts in ((idx, 1), (shuffled, 1), (shuffled, parts)):
        map_ = make_map()
        for chunk in np.array_split(order, n_parts):
            hit_cubes(map_, chunk)
        _, fits = fit_all_planes(map_, fcfg)
        outcomes.append(fit_outcome(map_, fits))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


# The ground reference against the map's ground cubes, after every frame of
# two full runs: the DOR scene at 0.4 m regions, and the residue scene with
# the back end replaying keyframes.

def ground_by_column(map_):
    """Brute force: the distinct (x, y) cube columns of the map's ground
    cubes, each column's int64 sum of z indices and its cube count."""
    keys = ground_keys(map_)
    cols, inv = np.unique(keys >> 21, return_inverse=True)
    z_sum = np.zeros(len(cols), dtype=np.int64)
    np.add.at(z_sum, inv, unpack3(keys)[:, 2])
    return cols, z_sum, np.bincount(inv, minlength=len(cols))


def assert_ground_reference_matches(map_):
    assert np.array_equal(map_._gkeys, ground_keys(map_))
    cols, z_sum, count = ground_by_column(map_)
    got_sum, got_count = map_.ground_columns(cols)
    assert np.array_equal(got_sum, z_sum)
    assert np.array_equal(got_count, count)


def run_checked(monkeypatch, cfg, frames, check):
    """Run the pipeline, calling ``check(map)`` after every frame."""
    maps = []

    class SpiedMap(RHMap):
        def __init__(self, config=None):
            super().__init__(config)
            maps.append(self)

    def checked_frames():
        # the pipeline asks for a frame only once the last one is done
        for frame in frames:
            if maps:
                check(maps[0])
            yield frame

    monkeypatch.setattr(pipeline, "RHMap", SpiedMap)
    result = run_pipeline(cfg, checked_frames())
    assert result.map is maps[0]
    check(result.map)
    return result


@pytest.mark.parametrize("scene", ["dor_0.4m", "residue_backend_on"])
def test_ground_reference_is_the_ground_cubes_after_every_frame(
        monkeypatch, dor_frames, scene):
    if scene == "dor_0.4m":
        cfg, frames = dor_config(2), dor_frames
    else:
        cfg, frames = residue_config(True), synth_frames(residue_scene())
    result = run_checked(monkeypatch, cfg, frames,
                         assert_ground_reference_matches)
    assert len(result.frames) >= 200
    assert len(ground_by_column(result.map)[0]) > 1000
