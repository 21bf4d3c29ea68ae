"""Tests of the benchmark itself: tracer, metric table, inputs and checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rhmap import pipeline  # noqa: E402
from rhmap.synth import synth_scene  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_workload():
    """40 frames of the residue scene with a back end that replays early."""
    wl = workloads.make("long_residue", 0)
    wl.spec.frames = 40
    wl.config.backend.dist_keyframe = 0.5
    wl.config.backend.dist_away = 1.5
    return wl


def _originals():
    out = {}
    for module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"rhmap.{module}")
        name = attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(owner, cls)
        out[(module, attr)] = vars(owner)[name]
    return out


@pytest.fixture(scope="module")
def traced():
    wl = _small_workload()
    tr = tracer.Tracer().install()
    try:
        frames = workloads.synth_frames(wl)
        clock = child.FrameClock(tr)
        result = pipeline.run_pipeline(wl.config, clock.frames(frames))
    finally:
        tr.restore()
    return tr, result, clock


def test_spans_nest(traced):
    tr, _, clock = traced
    spans = tr.spans
    assert not tr.stack
    frames = [s for s in spans if s.name == "frame"]
    assert len(frames) == len(clock.ends) == 40
    assert [s.frame for s in frames] == list(range(40))
    for s in spans:
        assert s.start <= s.end
        if s.parent < 0:
            assert s.name == "frame" or s.frame < 0
            continue
        parent = spans[s.parent]
        assert parent.start <= s.start and s.end <= parent.end, s.name
        assert parent.frame == s.frame
    # siblings under one parent never overlap
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    for parent, group in by_parent.items():
        if parent < 0:
            continue
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            assert a.end <= b.start


def test_layer_busy_times_add_up_to_frame_time(traced):
    values = tracer.layer_metrics(traced[0])
    parts = [values[f"{layer}.busy_ms"] for layer in tracer.FRAME_LAYERS]
    assert all(p > 0 for p in parts)
    assert math.isclose(sum(parts) + values["pipeline.self_ms"],
                        values["pipeline.frame_ms"], rel_tol=1e-9)


def test_counts_from_return_values(traced):
    tr, result, _ = traced
    values = tracer.layer_metrics(tr)
    assert values["geometry.transform_calls_per_frame"] == 2
    replays = sum(len(f.backend_reports) for f in result.frames)
    assert replays >= 1 and values["backend.replays"] == replays
    assert values["backend.keyframes_added"] == sum(
        f.keyframe_added for f in result.frames)
    removed = sum(f.report.cubes_removed for f in result.frames)
    assert values["removal.cubes_removed"] * 40 == pytest.approx(removed)
    assert values["map_core.cubes_total"] == len(result.map)
    assert values["map_core.regions_total"] == len(result.map.regions)
    assert values["io_formats.read_scan_ms"] == 0.0
    assert values["synth.scene_s"] > 0
    assert not tr.absent and not tr.observe_errors


def test_wrappers_are_restored_even_after_a_failure():
    before = _originals()
    tr = tracer.Tracer().install()
    assert _originals() != before
    wl = _small_workload()
    good = synth_scene(wl.spec, 0)[0]
    bad = [good, (None, good[1])]   # the second frame raises mid-frame
    clock = child.FrameClock(tr)
    with pytest.raises(AttributeError):
        try:
            pipeline.run_pipeline(wl.config, clock.frames(bad))
        finally:
            tr.abandon_frame()
            tr.restore()
    assert _originals() == before
    assert len(clock.ends) == 1 and not tr.stack


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("removal", "no_such_function", "agg", None),
        ("no_such_module", "f", "span", None),
        ("map_core", "NoSuchClass.method", "span", None)))
    monkeypatch.delattr("rhmap.removal.compute_ratio2")
    tr = tracer.Tracer().install()
    tr.restore()
    assert set(tr.absent) == {"removal.no_such_function", "no_such_module.f",
                              "map_core.NoSuchClass.method",
                              "removal.compute_ratio2"}
    values = tracer.layer_metrics(tr)
    assert values["removal.ratio2_ms"] is None
    assert values["removal.ratio2_calls_per_frame"] is None
    assert values["removal.s2m_ms"] == 0.0


def test_benchmark_json_lists_every_emitted_metric():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.LAYER_METRICS]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    assert [n for n in run.WORKLOADS if workloads.make(n, 0).kitti] == list(
        run.KITTI_WORKLOADS)
    assert set(tracer.layer_metrics(tracer.Tracer())) == {
        name for name, _, _, _ in tracer.LAYER_METRICS}


def _fake_run(frames=200, sha="ab" * 32, **extra):
    out = {"attempted": frames, "failed": 0, "errors": [], "setup_s": 1.5,
           "wall_s": 10.0, "frames_done": frames,
           "frame_ms": [40.0 + i % 7 for i in range(frames)],
           "export_s": 0.5, "score_s": 0.4, "mem_peak_mb": 100.0,
           "pr": 0.9, "rr": None, "f1": None, "n_sta": 10, "n_dyn": 0,
           "n_tn": 9, "n_tp": 0, "dyn_cubes_left": 0, "map_sha": sha}
    out.update(extra)
    return out


def _main_with(monkeypatch, results, trace):
    calls = []

    def fake_child(mode, args, deadline):
        calls.append(mode)
        return results[mode]

    monkeypatch.setattr(run, "_child", fake_child)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "dense_static", "--seed", "0",
                         "--seconds", "5", "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1]), calls


def test_every_metric_is_printed_with_its_unit(monkeypatch):
    layers = tracer.layer_metrics(tracer.Tracer())
    results = {"run": _fake_run(), "probe": {"setup_s": 1.4},
               "trace": _fake_run(wall_s=12.0, layers=layers, absent=[],
                                  observe_errors={})}
    code, lines, out, calls = _main_with(monkeypatch, results, trace=0)
    assert code == 0 and calls == ["run", "probe", "probe"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 200 and out["failed"] == 0
    for m in BENCH["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    text = "\n".join(lines[:-1])
    for name, unit in run.E2E + run.E2E_PRINTED:
        assert f"  {name} " in text and unit in text

    code, lines, out, calls = _main_with(monkeypatch, results, trace=1)
    assert code == 0 and calls == ["run", "trace"]
    assert out["attempted"] == 400
    assert set(out["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    overhead = out["metrics"]["pipeline.trace_overhead_frac"]["value"]
    assert overhead == pytest.approx(12.0 / 10.0 - 1.0)


def test_map_mismatch_fails_the_run(monkeypatch):
    results = {"run": _fake_run(), "probe": {"setup_s": 1.4},
               "trace": _fake_run(sha="cd" * 32, layers=tracer.layer_metrics(
                   tracer.Tracer()), absent=[], observe_errors={})}
    code, lines, out, _ = _main_with(monkeypatch, results, trace=1)
    assert code == 1 and not out["correct"] and out["failed"] == 400
    assert any("different map" in line for line in lines)


def test_export_check_catches_a_dropped_cube(tmp_path, traced):
    from rhmap import io_formats
    from rhmap.evaluate import evaluate

    _, result, _ = traced
    ply = tmp_path / "map.ply"
    io_formats.write_map_ply(result.map, ply)
    points, _ = io_formats.read_map_ply(ply)
    truth = (result.truth_points, result.truth_mask)
    ev = evaluate(result.map, *truth)
    assert child._check_export(points, result.map, ev, *truth) == []
    errors = child._check_export(points[1:], result.map, ev, *truth)
    assert any("keys differ" in e for e in errors)


def test_seed_zero_is_the_test_suite_scene():
    spec = importlib.util.spec_from_file_location(
        "_rhmap_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    from rhmap import map_core
    map_core.RHMap.remove_region_nonground = conftest._orig_remove

    assert workloads.make("dor_kitti", 0).spec == conftest.dor_scene()
    assert workloads.make("dor_kitti", 0).config == conftest.dor_config(3)
    assert workloads.make("long_residue", 0).spec == conftest.residue_scene()
    assert (workloads.make("long_residue", 0).config
            == conftest.residue_config(True))
    dense = workloads.make("dense_static", 0)
    assert dense.config.frontend.image_cols == 1600
    assert dense.config.frontend.r_max == 60.0
    assert dense.spec.beam_cols == 1600 and not dense.spec.moving_boxes


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_varies_inputs_deterministically(name):
    a, b, c = (workloads.make(name, s) for s in (7, 7, 8))
    assert a.spec == b.spec and a.config == c.config
    if a.kitti:
        assert np.array_equal(workloads.world_offset(7), workloads.world_offset(7))
        assert not np.array_equal(workloads.world_offset(7),
                                  workloads.world_offset(8))
        assert not workloads.world_offset(0).any()
    else:
        assert a.spec != c.spec
        assert a.spec != workloads.make(name, 0).spec


def test_kitti_cache_round_trip(tmp_path):
    wl = workloads.make("dor_kitti", 5)
    wl.spec.frames, wl.spec.beam_rows, wl.spec.beam_cols = 3, 8, 36
    meta = workloads.ensure_kitti(str(tmp_path), wl)
    assert meta["frames"] == 3 and meta["generate_s"] > 0
    assert workloads.ensure_kitti(str(tmp_path), wl) == meta   # cached
    shift = workloads.world_offset(5)
    read = list(workloads.frame_source(wl, str(tmp_path)))
    for i, ((scan, pose, mask), (s0, p0, m0)) in enumerate(
            zip(read, synth_scene(wl.spec, 0))):
        assert np.allclose(scan.points, s0.points, atol=1e-5)
        assert np.array_equal(mask, m0)
        assert np.allclose(pose.translation, p0.translation + shift)
        assert scan.timestamp == pytest.approx(0.1 * i)
