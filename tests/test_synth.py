"""Synthetic scene generator: ray casting, labels and determinism."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import residue_scene
from rhmap.synth import (MovingBox, SceneError, SceneSpec, _reach, _ray_box,
                         beam_directions, bench_scene, load_scene,
                         scene_from_dict, synth_frames, synth_scene)

# sha256 (first 16 hex chars) of the synthesized frames of the test-suite
# scenes: each frame's timestamp, point count, points, dynamic mask and
# pose, as float64/int64/bool bytes (`frames_sha256`).  The exported-map
# table quantizes to cubes, so only this one sees a change of a point's
# last bits.  A change to the ray caster must leave every entry as is.
FRAME_SHA256 = {
    "30-frame throughput scene": "56d69d8dd657e98e",
    "DOR scene": "2b7315ac4a79811e",
    "residue scene": "acb2e86669271f89",
}


def test_upward_fov_sees_nothing():
    spec = SceneSpec(fov_down_deg=1.0, fov_up_deg=5.0, frames=2)
    for scan, _, mask in synth_scene(spec):
        assert len(scan) == 0 and len(mask) == 0


def test_ground_ring_ranges_match_analytic_formula():
    spec = SceneSpec(sensor_start=(0.0, 0.0, 1.5), beam_rows=8,
                     beam_cols=90, fov_down_deg=-40.0, fov_up_deg=-5.0,
                     r_max=100.0)
    (scan, pose, mask) = synth_scene(spec)[0]
    assert not mask.any()
    dirs = beam_directions(spec)
    ranges = np.linalg.norm(scan.points, axis=1)
    # each return's range is sensor height over the sine of its depression
    elev = np.arcsin(np.clip(scan.points[:, 2] / ranges, -1, 1))
    assert np.allclose(ranges, 1.5 / np.sin(-elev), atol=1e-6)
    assert len(scan) == len(dirs)       # every downward beam hits ground


def test_points_are_sensor_frame_and_pose_holds_origin():
    spec = SceneSpec(sensor_start=(3.0, -2.0, 1.0),
                     sensor_velocity=(1.0, 0.0, 0.0), frames=3, dt=0.5)
    frames = synth_scene(spec)
    for f, (scan, pose, _) in enumerate(frames):
        assert np.allclose(pose.translation, [3.0 + 0.5 * f, -2.0, 1.0])
        # ground hits in world frame all land on z = 0
        world = (pose.rotation @ scan.points.T).T + pose.translation
        assert np.abs(world[:, 2]).max() < 1e-9


def test_static_box_hits_are_unlabeled():
    spec = SceneSpec(static_boxes=[((4.0, -1.0, 0.0), (5.0, 1.0, 2.0))])
    (scan, _, mask) = synth_scene(spec)[0]
    assert len(scan) > 0
    assert not mask.any()
    # some beams terminate on the front face at x = 4
    front = scan.points[np.abs(scan.points[:, 0] - 4.0) < 1e-9]
    assert len(front) > 0


def test_dynamic_labels_only_while_mover_active():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(6.0, -0.5, 0.0),
                      velocity=(0.0, 1.0, 0.0), t_start=0.5, t_end=1.0)
    spec = SceneSpec(moving_boxes=[mover], frames=16, dt=0.1)
    frames = synth_scene(spec)
    for f, (scan, _, mask) in enumerate(frames):
        t = f * 0.1
        if t < 0.5 or t > 1.0:
            assert not mask.any()
    active = [frames[i][2].any() for i in range(5, 11)]
    assert any(active)


def test_mover_position_uses_absolute_time():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(5.0, 0.0, 0.0),
                      velocity=(1.0, 0.0, 0.0))
    lo, hi = mover.corners(2.0)
    assert np.allclose(lo, [7.0, 0.0, 0.0])
    assert np.allclose(hi, [8.0, 1.0, 2.0])


def test_nearest_body_wins():
    spec = SceneSpec(static_boxes=[((4.0, -1.0, 0.0), (5.0, 1.0, 2.0)),
                                   ((8.0, -1.0, 0.0), (9.0, 1.0, 2.0))])
    (scan, _, _) = synth_scene(spec)[0]
    # along +x the nearer box occludes the farther one
    axis = scan.points[(np.abs(scan.points[:, 1]) < 0.05)
                       & (scan.points[:, 2] > 0.2)]
    assert len(axis) > 0
    assert axis[:, 0].max() < 8.0


def test_sensor_inside_box_raises():
    spec = SceneSpec(sensor_start=(0.0, 0.0, 1.0),
                     static_boxes=[((-1.0, -1.0, 0.0), (1.0, 1.0, 2.0))])
    with pytest.raises(SceneError):
        synth_scene(spec)


def test_generation_is_deterministic():
    mover = MovingBox(size=(1.0, 1.0, 2.0), start=(6.0, -3.0, 0.0),
                      velocity=(0.0, 1.0, 0.0))
    spec = SceneSpec(moving_boxes=[mover],
                     static_boxes=[((4.0, 2.0, 0.0), (5.0, 3.0, 1.0))],
                     frames=5)
    a = synth_scene(spec)
    # the streamed frames are the listed ones, bit for bit
    b = synth_frames(spec)
    assert iter(b) is b
    b = list(b)
    assert len(a) == len(b) == 5
    for (sa, pa, ma), (sb, pb, mb) in zip(a, b):
        assert sa.points.tobytes() == sb.points.tobytes()
        assert sa.timestamp == sb.timestamp
        assert pa.rotation.tobytes() == pb.rotation.tobytes()
        assert pa.translation.tobytes() == pb.translation.tobytes()
        assert ma.tobytes() == mb.tobytes()


def test_scene_from_dict_and_load(tmp_path):
    data = {"frames": 4, "dt": 0.2, "sensor_start": [1.0, 0.0, 1.2],
            "moving_boxes": [{"size": [1.0, 1.0, 1.5],
                              "start": [5.0, 0.0, 0.0],
                              "velocity": [0.0, 1.0, 0.0],
                              "t_start": 0.1, "t_end": 0.4}]}
    spec = scene_from_dict(data)
    assert spec.frames == 4
    assert isinstance(spec.moving_boxes[0], MovingBox)
    assert spec.moving_boxes[0].t_end == 0.4
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(data))
    loaded = load_scene(p)
    assert loaded.frames == spec.frames
    assert loaded.moving_boxes[0].start == spec.moving_boxes[0].start


def test_beam_directions_are_unit_and_cover_grid():
    spec = SceneSpec(beam_rows=16, beam_cols=120)
    dirs = beam_directions(spec)
    assert dirs.shape == (16 * 120, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def frames_sha256(frames) -> str:
    h = hashlib.sha256()
    for scan, pose, mask in frames:
        for a in (np.float64(scan.timestamp), np.int64(len(scan)),
                  scan.points, mask, pose.rotation, pose.translation):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_frames_match_sha_table(dor_frames):
    got = {"30-frame throughput scene": frames_sha256(
               synth_frames(bench_scene(30))),
           "DOR scene": frames_sha256(dor_frames),
           "residue scene": frames_sha256(synth_frames(residue_scene()))}
    assert got == FRAME_SHA256


def oracle_frames(spec: SceneSpec):
    """Plain-Python reference of `synth_frames`: per frame, the hit points
    and dynamic labels of each ray, in ray order, from a per-ray slab test
    with the same float operations in the same order."""
    dirs = beam_directions(spec).tolist()
    gx, gy = spec.ground_slope
    for f in range(spec.frames):
        t = f * spec.dt
        o = [s + v * t for s, v in zip(spec.sensor_start,
                                       spec.sensor_velocity)]
        bodies = [(lo, hi, False) for lo, hi in spec.static_boxes]
        for m in spec.moving_boxes:
            if m.t_start <= t <= m.t_end:
                lo = [s + v * t for s, v in zip(m.start, m.velocity)]
                bodies.append((lo, [a + b for a, b in zip(lo, m.size)], True))
        num = spec.ground_z + gx * o[0] + gy * o[1] - o[2]
        points, labels = [], []
        for d in dirs:
            den = d[2] - gx * d[0] - gy * d[1]
            best = num / den if den != 0.0 else math.inf
            if not math.isfinite(best) or best <= 1e-9:
                best = math.inf
            dyn = False
            for lo, hi, label in bodies:
                near, far = -math.inf, math.inf
                for a in range(3):
                    inv = (1.0 / d[a] if d[a] != 0.0
                           else math.copysign(math.inf, d[a]))
                    t1, t2 = (lo[a] - o[a]) * inv, (hi[a] - o[a]) * inv
                    if math.isnan(t1) or math.isnan(t2):
                        continue    # the ray runs in this axis's face plane
                    near, far = max(near, min(t1, t2)), min(far, max(t1, t2))
                if near <= far and far > 0.0 and near > 1e-9 and near < best:
                    best, dyn = near, label
            if best <= spec.r_max:
                points.append([c * best for c in d])
                labels.append(dyn)
        yield np.array(points, dtype=np.float64).reshape(-1, 3), labels


def _sensor_inside(spec: SceneSpec) -> bool:
    for f in range(spec.frames):
        t = f * spec.dt
        o = (np.asarray(spec.sensor_start)
             + np.asarray(spec.sensor_velocity) * t)
        boxes = [(np.asarray(lo), np.asarray(hi))
                 for lo, hi in spec.static_boxes]
        boxes += [m.corners(t) for m in spec.moving_boxes if m.active(t)]
        if any(np.all(o > lo) and np.all(o < hi) for lo, hi in boxes):
            return True
    return False


coord = st.floats(-20.0, 20.0)
extent = st.floats(0.0, 8.0)


@st.composite
def scenes(draw):
    """Small scenes at negative and positive coordinates.  An odd beam row
    count with a symmetric field of view has an exactly horizontal row
    (direction z == 0), and a box may put a face in the sensor's height
    plane, so those rays meet the 0 * inf slab bound.  Boxes may also sit
    within 1e-9 m of the sensor or coincide with a mover, so the oracle
    checks the near cut-off and which body wins a tie."""
    sensor = [draw(coord) for _ in range(3)]
    velocity = [draw(st.floats(-3.0, 3.0)) for _ in range(3)]
    rows = draw(st.integers(1, 5))
    if draw(st.booleans()):
        half = draw(st.floats(1.0, 40.0))
        fov = (-half, half)
    else:
        fov = (draw(st.floats(-60.0, 0.0)), draw(st.floats(0.0, 30.0)))

    def box():
        lo = [draw(coord) for _ in range(3)]
        return lo, [a + draw(extent) for a in lo]

    statics = [box() for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        # a box with a horizontal face in the sensor's starting height plane
        lo, hi = box()
        h = hi[2] - lo[2]
        lo[2], hi[2] = ((sensor[2], sensor[2] + h) if draw(st.booleans())
                        else (sensor[2] - h, sensor[2]))
        statics.append((lo, hi))
    if draw(st.booleans()):
        # a box in front of the sensor whose -x face lies about 1e-9 m
        # ahead of it
        lo = [sensor[0] + draw(st.floats(1e-12, 2e-9))]
        lo += [c - draw(st.floats(0.1, 4.0)) for c in sensor[1:]]
        hi = [lo[0] + draw(extent)]
        hi += [c + draw(st.floats(0.1, 4.0)) for c in sensor[1:]]
        statics.append((lo, hi))
    movers = []
    if draw(st.booleans()):
        # a resting mover that coincides with a static box: every ray that
        # meets one meets the other at the same distance, and the static
        # box, tested first, keeps it
        lo, hi = box()
        size = tuple(b - a for a, b in zip(lo, hi))
        movers.append(MovingBox(size=size, start=tuple(lo),
                                velocity=(0.0, 0.0, 0.0)))
        statics.append((lo, [a + b for a, b in zip(lo, size)]))
    for _ in range(draw(st.integers(0, 2))):
        lo, hi = box()
        t0 = draw(st.floats(-1.0, 1.0))
        movers.append(MovingBox(
            size=tuple(b - a for a, b in zip(lo, hi)), start=tuple(lo),
            velocity=tuple(draw(st.floats(-3.0, 3.0)) for _ in range(3)),
            t_start=t0, t_end=t0 + draw(st.floats(0.0, math.inf))))
    slope = (draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)))
    return SceneSpec(ground_z=draw(coord), ground_slope=slope,
                     static_boxes=statics, moving_boxes=movers,
                     sensor_start=tuple(sensor),
                     sensor_velocity=tuple(velocity),
                     frames=draw(st.integers(1, 3)),
                     dt=draw(st.floats(0.05, 1.0)), beam_rows=rows,
                     beam_cols=draw(st.integers(1, 24)),
                     fov_down_deg=fov[0], fov_up_deg=fov[1],
                     r_max=draw(st.floats(1.0, 60.0)))


# horizontal rays from (-3, -1, 1) run in the plane of the box's bottom
# face z = 1, so the box bounds them on x and y alone
FACE_PLANE = SceneSpec(static_boxes=[((2.0, -4.0, 1.0), (3.0, 2.0, 2.5))],
                       sensor_start=(-3.0, -1.0, 1.0), beam_rows=3,
                       beam_cols=24, fov_down_deg=-20.0, fov_up_deg=20.0,
                       r_max=40.0)


# a box and a mover across the +x axis, whose columns wrap past 0/2pi,
# and one behind the sensor
WRAP = SceneSpec(static_boxes=[((3.0, -1.0, 0.0), (4.0, 1.0, 2.0)),
                               ((-6.0, -0.5, 0.0), (-5.0, 0.5, 3.0))],
                 moving_boxes=[MovingBox((0.5, 2.0, 1.0), (2.0, -0.7, 0.5),
                                         (0.0, 0.3, 0.0))],
                 sensor_start=(0.0, 0.0, 1.0), frames=2, beam_rows=5,
                 beam_cols=24, fov_down_deg=-30.0, fov_up_deg=10.0)
# the sensor above a box's footprint: every column meets the box
OVER = SceneSpec(static_boxes=[((-1.0, -1.5, 0.0), (2.0, 1.0, 2.0))],
                 sensor_start=(0.0, 0.0, 3.0), beam_rows=6, beam_cols=16,
                 fov_down_deg=-80.0, fov_up_deg=0.0)
# rows past straight down would head opposite to their columns' azimuths:
# the field of view is rejected
PAST_NADIR = SceneSpec(static_boxes=[((1.0, -1.0, 0.0), (3.0, 2.0, 2.0))],
                       sensor_start=(0.5, 0.0, 4.0), beam_rows=7,
                       beam_cols=24, fov_down_deg=-150.0, fov_up_deg=-40.0)


@settings(max_examples=150, deadline=None)
@given(spec=scenes())
@example(spec=FACE_PLANE)
@example(spec=WRAP)
@example(spec=OVER)
def test_ray_caster_equals_the_scalar_slab_oracle(spec):
    assume(not _sensor_inside(spec))
    frames = list(synth_frames(spec))
    assert len(frames) == spec.frames
    for (scan, pose, mask), (points, labels) in zip(frames,
                                                    oracle_frames(spec)):
        assert scan.points.tobytes() == points.tobytes()
        assert mask.tolist() == labels


def test_ray_in_a_face_plane_hits_the_box():
    (scan, _, mask), = synth_scene(FACE_PLANE)
    # the horizontal row's returns: the 0 * inf bound on z is skipped, so
    # the rays that cross the box's x/y footprint stop on its x = 2 face
    flat = scan.points[scan.points[:, 2] == 0.0]
    assert np.isclose(flat[:, 0], 5.0, rtol=0.0, atol=1e-9).any()
    (points, labels), = oracle_frames(FACE_PLANE)
    assert scan.points.tobytes() == points.tobytes()


@st.composite
def cull_cases(draw):
    """A box (static or a mover, possibly of zero size on any axis), a
    sensor position and a beam grid.  The sensor is placed freely, on an
    edge, on a corner or over the footprint, or the box is put across
    the sensor's +x axis (its columns wrap past 0/2pi) or behind the
    sensor.  Fields of view reach up to straight down and straight up."""
    size = [draw(st.floats(0.0, 6.0)) for _ in range(3)]
    if draw(st.integers(0, 7)) == 0:
        size = [0.0, 0.0, 0.0]          # a mover of zero size
    lo = [draw(coord) for _ in range(3)]
    hi = [a + b for a, b in zip(lo, size)]
    # mostly at the box's height, so that near-level rows can meet it
    z = draw(st.floats(lo[2], hi[2]) | st.floats(lo[2] - 3.0, hi[2] + 3.0))
    place = draw(st.sampled_from(["free", "edge", "corner", "over",
                                  "wrap", "behind"]))
    if place == "free":
        x = draw(st.floats(lo[0] - 8.0, hi[0] + 8.0))
        y = draw(st.floats(lo[1] - 8.0, hi[1] + 8.0))
    elif place == "edge":
        x, y = draw(st.floats(lo[0], hi[0])), draw(st.sampled_from(
            [lo[1], hi[1]]))
        if draw(st.booleans()):
            x, y = draw(st.sampled_from([lo[0], hi[0]])), draw(
                st.floats(lo[1], hi[1]))
    elif place == "corner":
        x, y = (draw(st.sampled_from([lo[0], hi[0]])),
                draw(st.sampled_from([lo[1], hi[1]])))
    elif place == "over":
        x, y = draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))
        z = hi[2] + draw(st.floats(0.0, 5.0))
    else:
        y = draw(st.floats(lo[1], hi[1]))
        gap = draw(st.floats(0.0, 4.0))
        x = lo[0] - gap if place == "wrap" else hi[0] + gap
        # from above the box top, steep rows reach it
        z = draw(st.floats(lo[2], hi[2] + 4.0))
    fov = sorted([draw(st.floats(-90.0, 10.0)), draw(st.floats(-10.0,
                                                               90.0))])
    spec = SceneSpec(beam_rows=draw(st.integers(1, 6)),
                     beam_cols=draw(st.integers(1, 64)),
                     fov_down_deg=fov[0], fov_up_deg=fov[1])
    return spec, np.array([x, y, z]), np.array(lo), np.array(hi)


@settings(max_examples=300, deadline=None)
@given(case=cull_cases())
def test_cull_keeps_every_column_the_box_can_hit(case):
    spec, origin, lo, hi = case
    grid = (spec.beam_rows, spec.beam_cols)
    dirs = beam_directions(spec)
    with np.errstate(divide="ignore", over="ignore"):
        inv = [(1.0 / dirs[:, a]).reshape(grid) for a in range(3)]
    hit = _ray_box(origin, inv, lo, hi, np.full(grid, np.inf))
    cast = np.zeros(grid, dtype=bool)
    for cols in _reach(origin[0], origin[1], lo, hi, spec.beam_cols):
        cast[:, cols] = True
    assert not (hit & ~cast).any()


def test_cull_wraps_past_zero_and_casts_all_from_over_the_box():
    lo, hi = WRAP.static_boxes[0]
    wrap = _reach(0.0, 0.0, lo, hi, 24)
    assert len(wrap) == 2 and wrap[0].stop == 24 and wrap[1].start == 0
    # the box spans 2 * atan(1/3) of the turn: 2 columns plus one each side
    assert sum(c.stop - c.start for c in wrap) == 4
    # from behind, the columns around azimuth pi
    (back,) = _reach(0.0, 0.0, *WRAP.static_boxes[1], 24)
    assert back.start <= 11 and back.stop >= 13 and back.stop - back.start < 6
    lo, hi = OVER.static_boxes[0]
    for x, y in ((0.0, 0.0), (-1.0, 0.0), (-1.0, -1.5), (2.0, 1.0)):
        assert _reach(x, y, lo, hi, 16) == [slice(0, 16)]


@pytest.mark.parametrize("change", [
    {"sensor_start": (0.0, float("nan"), 1.0)},
    {"static_boxes": [((2.0, -1.0, 0.0), (-2.0, 1.0, 2.0))]},
    {"static_boxes": [((4.0, -1.0, 0.0), (5.0, 1.0, float("inf")))]},
    {"moving_boxes": [MovingBox((1.0, -1.0, 1.0), (5.0, 0.0, 0.0),
                                (0.0, 1.0, 0.0))]},
    {"moving_boxes": [MovingBox((1.0, 1.0, 1.0), (5.0, 0.0, 0.0),
                                (0.0, float("nan"), 0.0))]},
    {"moving_boxes": [MovingBox((1.0, 1.0, 1.0), (5.0, 0.0, 0.0),
                                (0.0, 1.0, 0.0), t_start=float("nan"))]},
    {"dt": float("inf")}, {"r_max": float("inf")}, {"r_max": "50"},
    {"beam_rows": 0}, {"beam_cols": 0}, {"frames": 2.0},
    {"fov_down_deg": -90.5}, {"fov_up_deg": 120.0},
    {"fov_down_deg": float("nan")},
])
def test_scenes_built_in_code_are_checked(change):
    with pytest.raises(SceneError):
        synth_frames(SceneSpec(**change))


def test_fields_of_view_past_straight_up_or_down_are_rejected():
    with pytest.raises(SceneError, match="fov_down_deg"):
        synth_frames(PAST_NADIR)
    # straight down and straight up are the limits, and are cast
    spec = SceneSpec(fov_down_deg=-90.0, fov_up_deg=90.0, beam_rows=9,
                     beam_cols=8, static_boxes=PAST_NADIR.static_boxes,
                     sensor_start=PAST_NADIR.sensor_start)
    (scan, _, _), = synth_scene(spec)
    (points, _), = oracle_frames(spec)
    assert len(scan) > 0 and scan.points.tobytes() == points.tobytes()


def test_infinite_mover_window_is_accepted():
    mover = MovingBox((1.0, 1.0, 1.0), (5.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                      t_start=-math.inf, t_end=math.inf)
    (_, _, mask), = synth_scene(SceneSpec(moving_boxes=[mover]))
    assert mask.any()
