"""Range image projection, max ring and the sup/inf occlusion bounds."""

import numpy as np

from rhmap.range_image import (build_range_image, extract_max_ring,
                               extract_sup_inf)

FOV = (-np.pi / 6, np.pi / 6)


def test_axis_point_lands_mid_row_col_zero():
    img = build_range_image(np.array([[10.0, 0.0, 0.0]]), 4, 8, FOV)
    assert img.pid[2, 0] == 0
    assert img.rng[2, 0] == 10.0
    assert img.height[2, 0] == 0.0
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


def test_max_ring_simple_cases():
    # one point per column: every point selected
    az = (np.arange(8) + 0.5) * 2 * np.pi / 8
    pts = np.column_stack([np.cos(az), np.sin(az), np.zeros_like(az)]) * 3.0
    img = build_range_image(pts, 4, 8, FOV)
    assert sorted(extract_max_ring(img).tolist()) == list(range(8))

    # two ranges in one column (different rows): the farther return wins
    pts = np.array([[3.0, 0.0, 1.0], [20.0, 0.0, 0.0]])
    img = build_range_image(pts, 8, 8, FOV)
    assert extract_max_ring(img).tolist() == [1]


def test_max_ring_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(2000, 3)) * 10
    img = build_range_image(pts, 16, 90, FOV)
    got = set(extract_max_ring(img).tolist())
    expect = set()
    for j in range(img.cols):
        best, best_r = -1, -1.0
        for i in range(img.rows):
            if img.pid[i, j] >= 0 and img.rng[i, j] > best_r:
                best, best_r = img.pid[i, j], img.rng[i, j]
        if best >= 0:
            expect.add(int(best))
    assert got == expect


def _column_image(ranges, heights=None):
    """Build a single-column image directly from per-row ranges."""
    rows = len(ranges)
    from rhmap.range_image import RangeImage
    ranges = np.asarray(ranges, dtype=np.float64)
    filled = ranges > 0
    pid = np.where(filled, np.arange(rows), -1).astype(np.int32)
    heights = np.zeros(rows) if heights is None else np.asarray(heights)
    return RangeImage(ranges[:, None], heights[:, None], pid[:, None],
                      FOV, 0, filled)


def test_sup_inf_uniform_column_empty():
    img = _column_image([10.0] * 6)
    sup_ids, sup_b, inf_ids, inf_b = extract_sup_inf(img, 1.0, 1.0)
    assert len(sup_ids) == 0 and len(inf_ids) == 0


def test_sup_from_range_jump():
    img = _column_image([10.0, 25.0], heights=[0.5, 4.0])
    sup_ids, sup_b, inf_ids, inf_b = extract_sup_inf(img, 1.0, 1.0)
    assert sup_ids.tolist() == [0]
    assert sup_b.tolist() == [1]          # bound is the upper cell's point
    assert img.height.ravel()[sup_b[0]] == 4.0
    # downward scan from the upper cell sees the same jump
    assert inf_ids.tolist() == [1]
    assert inf_b.tolist() == [0]


def test_sup_inf_matches_brute_force():
    rng = np.random.default_rng(1)
    ranges = rng.uniform(0.0, 30.0, size=(12, 20))
    ranges[rng.random(ranges.shape) < 0.3] = 0.0
    from rhmap.range_image import RangeImage
    filled = ranges > 0
    pid = np.where(filled, np.arange(ranges.size).reshape(ranges.shape),
                   -1).astype(np.int32)
    img = RangeImage(ranges, rng.normal(size=ranges.shape), pid, FOV, 0,
                     filled.ravel())
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
