"""Range image projection and the sup/inf occlusion bounds."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rhmap.backend import information_content
from rhmap.range_image import RangeImage, build_range_image, extract_sup_inf

FOV = (-np.pi / 6, np.pi / 6)


def test_axis_point_lands_mid_row_col_zero():
    img = build_range_image(np.array([[10.0, 0.0, 0.0]]), 4, 8, FOV)
    assert img.pid[2, 0] == 0
    assert img.rng[2, 0] == 10.0
    assert img.dropped == 0


def test_nearer_point_wins_cell_conflict():
    pts = np.array([[8.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    img = build_range_image(pts, 4, 8, FOV)
    assert img.rng[2, 0] == 5.0
    assert img.pid[2, 0] == 1


def test_out_of_fov_dropped_and_counted():
    pts = np.array([[1.0, 0.0, 5.0], [1.0, 0.0, 0.0]])
    img = build_range_image(pts, 4, 8, FOV)
    assert img.dropped == 1
    assert img.in_fov.tolist() == [False, True]


def test_full_ring_fills_one_row():
    az = np.linspace(0, 2 * np.pi, 720, endpoint=False) + 1e-4
    pts = np.column_stack([np.cos(az), np.sin(az), np.zeros_like(az)]) * 7.0
    img = build_range_image(pts, 4, 360, FOV)
    assert img.filled()[2].all()
    assert np.allclose(img.rng[2], 7.0)


def information_with_empty_cells_masked(image, r_max):
    """The information content with every empty cell zeroed explicitly."""
    rng = np.where(image.filled(), image.rng, 0.0)
    return float(rng.max(axis=0).sum() / (r_max * image.cols) * 100.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 400), st.integers(1, 16), st.integers(1, 120),
       st.integers(0, 2**32 - 1), st.booleans())
def test_ranges_read_directly_match_masked_empty_cells(n, rows, cols, seed,
                                                       coarse):
    # few points over many columns leave whole columns empty; coarse
    # coordinates put equal ranges in one column, and the origin is dropped
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 20.0)
    if coarse:
        pts = np.round(pts)
    img = build_range_image(pts, rows, cols, FOV)
    filled = img.filled()
    assert (img.rng[~filled] == 0).all() and (img.rng[filled] > 0).all()
    assert (information_content(img, 25.0)
            == information_with_empty_cells_masked(img, 25.0))


def _column_image(ranges):
    """Build a single-column image directly from per-row ranges; the point
    of row i has id i."""
    rows = len(ranges)
    ranges = np.asarray(ranges, dtype=np.float64)
    filled = ranges > 0
    pid = np.where(filled, np.arange(rows), -1).astype(np.int32)
    return RangeImage(ranges[:, None], pid[:, None], 0, filled)


def test_sup_inf_uniform_column_empty():
    img = _column_image([10.0] * 6)
    sup_ids, sup_b, inf_ids, inf_b = extract_sup_inf(img, 1.0, 1.0, 10)
    assert len(sup_ids) == 0 and len(inf_ids) == 0


def test_sup_from_range_jump():
    heights = np.array([0.5, 4.0])        # of the points with ids 0 and 1
    img = _column_image([10.0, 25.0])
    sup_ids, sup_b, inf_ids, inf_b = extract_sup_inf(img, 1.0, 1.0, 10)
    assert sup_ids.tolist() == [0]
    assert sup_b.tolist() == [1]          # bound is the upper cell's point
    assert heights[sup_b[0]] == 4.0
    # downward scan from the upper cell sees the same jump
    assert inf_ids.tolist() == [1]
    assert inf_b.tolist() == [0]


def test_sup_inf_matches_brute_force():
    rng = np.random.default_rng(1)
    ranges = rng.uniform(0.0, 30.0, size=(12, 20))
    ranges[rng.random(ranges.shape) < 0.3] = 0.0
    filled = ranges > 0
    pid = np.where(filled, np.arange(ranges.size).reshape(ranges.shape),
                   -1).astype(np.int32)
    img = RangeImage(ranges, pid, 0, filled.ravel())
    sup_ids, sup_b, inf_ids, inf_b = extract_sup_inf(
        img, 1.5, 2.5, max_search=5)
    exp_sup, exp_inf = {}, {}
    for j in range(img.cols):
        for i in range(img.rows):
            if not filled[i, j]:
                continue
            for t in range(1, 6):
                if i + t >= img.rows or not filled[i + t, j]:
                    continue
                d = ranges[i, j] - ranges[i + t, j]
                if abs(d) > 1.5:
                    exp_sup[pid[i, j]] = pid[i + t, j]
                    break
            for t in range(1, 6):
                if i - t < 0 or not filled[i - t, j]:
                    continue
                d = ranges[i, j] - ranges[i - t, j]
                if abs(d) > 2.5:
                    exp_inf[pid[i, j]] = pid[i - t, j]
                    break
    assert dict(zip(sup_ids.tolist(), sup_b.tolist())) == exp_sup
    assert dict(zip(inf_ids.tolist(), inf_b.tolist())) == exp_inf
    # each side's ids are distinct, which build_scan_context_3d relies on
    assert len(sup_ids) == len(exp_sup) and len(inf_ids) == len(exp_inf)
