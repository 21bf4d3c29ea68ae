"""Command line interface: subcommands, exit codes and file round trips."""

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from rhmap.cli import main
from rhmap.geometry import Pose
from rhmap.io_formats import (read_map_ply, write_kitti_scan, write_labels,
                               write_map_ply, write_poses, write_times)
from rhmap.pipeline import STAGES
from rhmap.synth import scene_from_dict, synth_scene

SCENE = {
    "ground_z": 0.0,
    "static_boxes": [[[10.0, 6.0, 0.0], [12.0, 8.0, 2.0]]],
    "moving_boxes": [{"size": [1.0, 1.0, 1.5], "start": [8.0, -6.0, 0.0],
                      "velocity": [0.0, 1.5, 0.0], "t_start": 0.5,
                      "t_end": 4.5}],
    "sensor_start": [0.0, 0.0, 1.2],
    "sensor_velocity": [1.0, 0.0, 0.0],
    "frames": 40,
    "dt": 0.1,
    "beam_rows": 32,
    "beam_cols": 360,
    "fov_down_deg": -30.0,
    "fov_up_deg": 5.0,
    "r_max": 25.0,
}

# the keys of each frame of `rhmap run --report`, in order
FRAME_KEYS = ["columns_flagged", "regions_flagged", "cubes_removed",
              "regions_elected", "regions_fitted", "planes_failed",
              "ground_cubes_added", "map_cubes", "map_regions", "map_bytes",
              "evicted", "elapsed_ms", "cpu_ms", "stages_ms",
              "backend_reports"]

CFG_FLAGS = ["--image_rows", "32", "--image_cols", "360",
             "--fov_down_deg", "-30", "--fov_up_deg", "5",
             "--r_max", "25"]


@pytest.fixture()
def scene_file(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return str(p)


def test_run_synthetic_with_report_and_map(tmp_path, scene_file, capsys,
                                           monkeypatch):
    import rhmap.cli as cli

    calls, runs = [], []
    real, real_run = cli.evaluate, cli.run_pipeline

    def counting(*args):
        calls.append(1)
        return real(*args)

    def run_spy(cfg, frames):
        runs.append(real_run(cfg, frames))
        return runs[-1]

    monkeypatch.setattr(cli, "evaluate", counting)
    monkeypatch.setattr(cli, "run_pipeline", run_spy)
    out_map = str(tmp_path / "map.ply")
    report = str(tmp_path / "report.json")
    # keyframes 1 m apart, replayed 2 m away: the 4 m drive replays twice
    rc = main(["run", "--synthetic", scene_file, "--out", out_map,
               "--report", report, "--dist_keyframe", "1",
               "--dist_away", "2"] + CFG_FLAGS)
    assert rc == 0
    assert len(calls) == 1          # the report and stdout share one score
    body = json.loads((tmp_path / "report.json").read_text())
    assert len(body["frames"]) == SCENE["frames"]
    assert all(list(f) == FRAME_KEYS for f in body["frames"])
    (result,) = runs
    assert [f["cpu_ms"] for f in body["frames"]] == [
        f.cpu_ms for f in result.frames]
    assert all(f["cpu_ms"] >= 0 for f in body["frames"])
    assert sum(f["cpu_ms"] for f in body["frames"]) > 0
    replays = [f["backend_reports"] for f in body["frames"]]
    assert replays == [[asdict(r) for r in f.backend_reports]
                       for f in result.frames]
    assert sum(map(len, replays)) == 2
    assert all(r["cubes_removed"] > 0 for rs in replays for r in rs)
    assert body["timing"]["mean_ms"] > 0
    assert all(list(f["stages_ms"]) == list(STAGES) for f in body["frames"])
    timing = body["timing"]
    assert list(timing["stages_ms"]) == list(STAGES)
    assert list(timing["stages_max_ms"]) == list(STAGES)
    assert all(timing["stages_max_ms"][k] == max(
        f["stages_ms"][k] for f in body["frames"]) for k in STAGES)
    assert 0 < timing["p50_ms"] <= timing["p95_ms"]
    assert timing["p95_ms"] <= timing["max_ms"] == max(
        f["elapsed_ms"] for f in body["frames"])
    assert 0.0 <= body["eval"]["PR"] <= 1.0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"PR", "RR", "F1", "N_sta", "N_dyn", "N_TN", "N_TP"}
    assert printed["PR"] == body["eval"]["PR"]
    pts, ground = read_map_ply(out_map)
    assert len(pts) > 0
    assert ground.any()
    last = body["frames"][-1]
    assert last["map_cubes"] == len(pts)
    assert 0 < last["map_regions"] <= last["map_cubes"]
    assert [f["map_bytes"] for f in body["frames"]] == [
        f.map_bytes for f in result.frames]
    # mask_bits 3: 25 B of key, z extent and fitted flag, and two 64 B
    # bitmaps a region
    assert last["map_bytes"] == 153 * last["map_regions"]
    assert sum(f["ground_cubes_added"] for f in body["frames"]) >= ground.sum()


def test_run_synthetic_streams_the_scene_into_the_same_map(tmp_path,
                                                           scene_file, capsys,
                                                           monkeypatch):
    import rhmap.cli as cli

    seen = []
    real = cli.run_pipeline

    def spy(cfg, frames):
        seen.append((cfg, frames))
        return real(cfg, frames)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    out_map = tmp_path / "map.ply"
    assert main(["run", "--synthetic", scene_file, "--out", str(out_map)]
                + CFG_FLAGS) == 0
    capsys.readouterr()
    (cfg, frames), = seen
    assert iter(frames) is frames          # frames are made as they are read
    listed = tmp_path / "listed.ply"
    write_map_ply(real(cfg, synth_scene(scene_from_dict(SCENE))).map, listed)
    assert out_map.read_bytes() == listed.read_bytes()


def test_synth_then_run_then_eval_round_trip(tmp_path, scene_file, capsys):
    data_dir = str(tmp_path / "data")
    rc = main(["synth", "--spec", scene_file, "--out", data_dir])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["frames"] == SCENE["frames"]

    out_map = str(tmp_path / "map.ply")
    rc = main(["run", "--scans", data_dir + "/velodyne",
               "--poses", data_dir + "/poses.txt",
               "--labels", data_dir + "/labels",
               "--out", out_map] + CFG_FLAGS)
    assert rc == 0
    run_eval = json.loads(capsys.readouterr().out)

    # scoring the exported map reproduces the pipeline's own counts, at
    # the run's region width (mask_bits 3) and at others: eval groups the
    # truth by region, and its counts must not depend on the width
    for bits in ([], ["--mask_bits", "1"], ["--mask_bits", "2"],
                 ["--mask_bits", "4"]):
        rc = main(["eval", "--map", out_map, "--truth", data_dir]
                  + CFG_FLAGS + bits)
        assert rc == 0
        scored = json.loads(capsys.readouterr().out)
        for count in ("N_sta", "N_dyn", "N_TN", "N_TP"):
            assert scored[count] == run_eval[count], (bits, count)
        assert scored["PR"] == pytest.approx(run_eval["PR"], abs=1e-12)


def test_synth_streams_the_scene_into_the_same_files(tmp_path, scene_file,
                                                     capsys, monkeypatch):
    import rhmap.cli as cli

    made = []
    real = cli.synth_frames

    def spy(spec):
        frames = real(spec)
        made.append(frames)
        return frames

    monkeypatch.setattr(cli, "synth_frames", spy)
    out = tmp_path / "data"
    assert main(["synth", "--spec", scene_file, "--out", str(out)]) == 0
    (frames,) = made
    assert iter(frames) is frames          # frames are made as they are written
    listed = synth_scene(scene_from_dict(SCENE))
    assert json.loads(capsys.readouterr().out) == {
        "frames": len(listed), "points": sum(len(s) for s, _, _ in listed)}
    expect = tmp_path / "expect"
    (expect / "velodyne").mkdir(parents=True)
    (expect / "labels").mkdir()
    for i, (scan, _, mask) in enumerate(listed):
        write_kitti_scan(expect / "velodyne" / f"{i:06d}.bin", scan.points)
        write_labels(expect / "labels" / f"{i:06d}.label",
                     np.where(mask, 252, 0).astype(np.uint32))
    write_poses(expect / "poses.txt", [pose for _, pose, _ in listed])
    write_times(expect / "times.txt", [scan.timestamp for scan, _, _ in listed])
    names = sorted(p.relative_to(expect) for p in expect.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(out) for p in out.rglob("*")
                           if p.is_file())
    assert all((out / n).read_bytes() == (expect / n).read_bytes()
               for n in names)


def test_synth_dataset_runs_with_the_scene_timestamps(tmp_path, monkeypatch,
                                                      capsys):
    import rhmap.cli as cli

    stamps = []
    real = cli.run_pipeline

    def spy(cfg, frames):
        frames = list(frames)
        stamps.append([frame[0].timestamp for frame in frames])
        return real(cfg, frames)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps({**SCENE, "frames": 7, "dt": 0.05}))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["run", "--synthetic", str(spec)] + CFG_FLAGS) == 0
    assert main(["run", "--scans", str(data / "velodyne"),
                 "--poses", str(data / "poses.txt")] + CFG_FLAGS) == 0
    synthetic, read = stamps
    assert read == synthetic == [i * 0.05 for i in range(7)]


def test_config_override_flags_change_behavior(tmp_path, scene_file, capsys):
    maps = {}
    for bits in ("2", "3"):
        out_map = str(tmp_path / f"map{bits}.ply")
        rc = main(["run", "--synthetic", scene_file, "--out", out_map,
                   "--mask_bits", bits, "--backend_enabled", "false"]
                  + CFG_FLAGS)
        assert rc == 0
        capsys.readouterr()
        maps[bits] = read_map_ply(out_map)[0]
    assert len(maps["2"]) != 0 and len(maps["3"]) != 0


def test_config_file_plus_flag_precedence(tmp_path, scene_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("image_rows = 32\nimage_cols = 360\n"
                   "fov_down_deg = -30\nfov_up_deg = 5\nr_max = 25\n"
                   "backend_enabled = false\n")
    out_map = str(tmp_path / "map.ply")
    rc = main(["run", "--synthetic", scene_file, "--config", str(cfg),
               "--out", out_map])
    assert rc == 0
    capsys.readouterr()
    assert len(read_map_ply(out_map)[0]) > 0


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["run"]) == 1                      # no inputs given
    assert main(["frobnicate"]) == 1               # unknown subcommand
    assert main(["run", "--synthetic", "x.json",
                 "--mask_bits", "zero"]) == 1      # bad config value
    assert main(["run", "--synthetic", "x.json",
                 "--mask_bits", "22"]) == 1        # past the region cap
    # keys of the removed log-odds occupancy are unknown
    assert main(["run", "--synthetic", "x.json",
                 "--occupied_threshold", "1"]) == 1
    # keys of the removed prime-xor hash and signed-jump option are unknown
    assert main(["run", "--synthetic", "x.json", "--table_size", "5"]) == 1
    assert main(["run", "--synthetic", "x.json",
                 "--signed_jump", "true"]) == 1
    # so is the seed, which the analytic scene generator never read
    assert main(["run", "--synthetic", "x.json", "--seed", "1"]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hash_prime_x = 3\n")
    assert main(["run", "--synthetic", "x.json", "--config", str(cfg)]) == 1
    capsys.readouterr()
    # paths are flags alone: `--out`, not a config key
    cfg.write_text("out_map = x.ply\n")
    assert main(["run", "--synthetic", "x.json", "--config", str(cfg)]) == 1
    assert "unknown config key 'out_map'" in capsys.readouterr().err


def test_data_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--synthetic", missing]) == 2
    bad_ply = tmp_path / "bad.ply"
    bad_ply.write_text("garbage\n")
    assert main(["eval", "--map", str(bad_ply),
                 "--truth", str(tmp_path)]) == 2
    # a pose 209715 m out puts the scan past the 21-bit cube index range
    (tmp_path / "velodyne").mkdir()
    write_kitti_scan(tmp_path / "velodyne" / "000000.bin",
                     np.array([[1.0, 0.0, -1.0], [2.0, 1.0, -1.0]]))
    write_poses(tmp_path / "poses.txt",
                [Pose(np.eye(3), np.array([209715.0, 0.0, 0.0]))])
    assert main(["run", "--scans", str(tmp_path / "velodyne"),
                 "--poses", str(tmp_path / "poses.txt")]) == 2
    assert "packed key" in capsys.readouterr().err
    # so does a map vertex there; packed unchecked it would score as cube 0
    (tmp_path / "labels").mkdir()
    write_labels(tmp_path / "labels" / "000000.label",
                 np.zeros(2, dtype=np.uint32))
    far_ply = tmp_path / "far.ply"
    far_ply.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                       "end_header\n209715.25 0.05 0.05 0\n")
    assert main(["eval", "--map", str(far_ply),
                 "--truth", str(tmp_path)]) == 2
    assert "packed key" in capsys.readouterr().err
    # a pose with a NaN would pass both rotation checks, which compare False
    (tmp_path / "poses.txt").write_text("1 0 0 nan 0 1 0 0 0 0 1 0\n")
    assert main(["run", "--scans", str(tmp_path / "velodyne"),
                 "--poses", str(tmp_path / "poses.txt")]) == 2
    assert "poses.txt:1: non-finite" in capsys.readouterr().err


def _mover(**change):
    return {"size": [1.0, 1.0, 1.5], "start": [8.0, -6.0, 0.0],
            "velocity": [0.0, 1.5, 0.0], **change}


@pytest.mark.parametrize("spec, message", [
    ({**SCENE, "framez": 3}, "framez"),
    ({**SCENE, "moving_boxes": [{"start": [8.0, -6.0, 0.0],
                                 "velocity": [0.0, 1.5, 0.0]}]}, "size"),
    ([SCENE], "JSON object"),
    ({**SCENE, "sensor_start": [0.0, float("nan"), 1.2]}, "sensor_start"),
    ({**SCENE, "static_boxes": [[[10.0, 6.0, 0.0],
                                 [12.0, 8.0, float("inf")]]]},
     "static_boxes[0] max corner"),
    ({**SCENE, "moving_boxes": [_mover(size=[1.0, float("nan"), 1.5])]},
     "moving_boxes[0].size"),
    ({**SCENE, "moving_boxes": [_mover(velocity=[float("inf"), 0.0, 0.0])]},
     "moving_boxes[0].velocity"),
    ({**SCENE, "dt": float("nan")}, "dt"),
    ({**SCENE, "r_max": float("inf")}, "r_max"),
    # x corners swapped around the sensor at (0, 0, 1.2): before the check,
    # it passed the sensor-inside test and cast nothing
    ({**SCENE, "static_boxes": [[[2.0, -1.0, 0.0], [-2.0, 1.0, 2.0]]]},
     "exceeds"),
    ({**SCENE, "moving_boxes": [_mover(size=[1.0, -1.0, 1.5])]}, "negative"),
    ({**SCENE, "beam_rows": 0}, "beam_rows"),
    ({**SCENE, "beam_cols": 0}, "beam_cols"),
    ({**SCENE, "fov_down_deg": -150.0}, "fov_down_deg"),
])
def test_bad_scene_specs_exit_two(tmp_path, capsys, spec, message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "data"
    for argv in (["synth", "--spec", str(path), "--out", str(out)],
                 ["run", "--synthetic", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("rhmap: data error:") and message in err
    assert not out.exists()       # nothing is written for a bad spec


@pytest.mark.parametrize("frames", ["0", "-2", "two"])
def test_bench_frames_must_be_a_positive_integer(capsys, frames):
    assert main(["bench", "--frames", frames]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: rhmap bench")
    assert "--frames: expected an integer >= 1" in err


def test_bench_rejects_a_non_finite_config_value(capsys):
    assert main(["bench", "--frames", "1", "--delta1", "nan"]) == 1
    assert "config error: delta1 must be finite" in capsys.readouterr().err


def test_bench_rejects_a_ground_normal_bound_past_one(capsys):
    # a fitted normal is a unit vector, so no ground fit could pass
    assert main(["bench", "--frames", "1",
                 "--min_ground_normal_z", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "config error: min_ground_normal_z must be in [0, 1]" in err


def test_bench_reports_throughput(capsys):
    rc = main(["bench", "--frames", "2"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["hz"] > 0
    assert 0 < body["p50_ms"] <= body["p95_ms"]
    assert body["p95_ms"] <= body["max_ms"]
    assert list(body["stages_ms"]) == list(STAGES)
    assert list(body["stages_max_ms"]) == list(STAGES)
    assert all(body["stages_max_ms"][k] >= body["stages_ms"][k]
               for k in STAGES)
    assert 0 < body["cpu_p50_ms"] and 0 < body["cpu_mean_ms"]
    assert body["points_per_frame"] > 50000
    assert body["scene_ms_mean"] > 0
    # the process's peak resident memory, in MB: more than the ~2 MB of one
    # 91k-point float64 scan, less than the whole 8 GB of a small host
    assert 2 < body["peak_rss_mb"] < 8192
    # the preservation rate of the run's own labeled frames
    assert 0 <= body["pr"] <= 1
    # the map's tables after the last frame: 153 B a region at mask_bits 3
    assert body["map_bytes"] > 0 and body["map_bytes"] % 153 == 0


def test_bench_streams_the_scene(monkeypatch, capsys):
    import rhmap.cli as cli
    from rhmap.synth import bench_scene

    seen = []
    real = cli.run_pipeline

    def spy(cfg, frames):
        seen.append(frames)
        return real(cfg, frames)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    assert main(["bench", "--frames", "2"]) == 0
    (frames,) = seen
    assert iter(frames) is frames          # frames are made as they are read
    body = json.loads(capsys.readouterr().out)
    listed = synth_scene(bench_scene(2))
    assert body["points_per_frame"] == float(
        np.mean([len(s) for s, _, _ in listed]))


def test_bench_times_the_scene_apart_from_the_frames(monkeypatch, capsys):
    import rhmap.cli as cli

    real = cli.synth_frames

    def slow(spec):
        for frame in real(spec):
            time.sleep(0.25)
            yield frame

    # a small scene, each frame of which takes at least 250 ms to make
    small = scene_from_dict({**SCENE, "frames": 3})
    monkeypatch.setattr(cli, "bench_scene", lambda frames: small)
    monkeypatch.setattr(cli, "synth_frames", slow)
    assert main(["bench", "--frames", "3"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["scene_ms_mean"] >= 250
    # the frame timings leave the scene's making out
    assert body["p95_ms"] < 250


def test_bench_front_end_follows_scene_unless_overridden(monkeypatch, capsys,
                                                          tmp_path):
    import rhmap.cli as cli

    seen = []
    real = cli.run_pipeline

    def spy(cfg, frames):
        seen.append(cfg.frontend)
        return real(cfg, frames)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text("image_cols = 800\n")
    assert main(["bench", "--frames", "1"]) == 0
    assert main(["bench", "--frames", "1", "--config", str(cfg_file),
                 "--r_max", "50"]) == 0
    scene, overridden = seen
    assert (scene.image_rows, scene.image_cols, scene.fov_down_deg,
            scene.fov_up_deg, scene.r_max) == (64, 1600, -24.8, 2.0, 60.0)
    assert (overridden.image_rows, overridden.image_cols,
            overridden.r_max) == (64, 800, 50.0)


def test_run_reads_kitti_times_beside_scans(monkeypatch, tmp_path, capsys):
    import rhmap.cli as cli

    stamps = []
    real = cli.run_pipeline

    def spy(cfg, frames):
        frames = list(frames)
        stamps.append([scan.timestamp for scan, _ in frames])
        return real(cfg, frames)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    seq = tmp_path / "sequences" / "00"
    (seq / "velodyne").mkdir(parents=True)
    for i in range(3):
        write_kitti_scan(seq / "velodyne" / f"{i:06d}.bin",
                         np.array([[1.0, 0.0, -1.0], [2.0, 1.0, -1.0]]))
    write_poses(seq / "poses.txt",
                [Pose(np.eye(3), np.array([float(i), 0.0, 0.0]))
                 for i in range(3)])
    run = ["run", "--scans", str(seq / "velodyne") + "/",
           "--poses", str(seq / "poses.txt")]
    assert main(run) == 0                   # no times.txt: 10 Hz
    (seq / "times.txt").write_text("0.000000e+00\n1.037783e-01\n\n"
                                   "3.500000e+00\n")
    assert main(run) == 0
    assert stamps == [[0.0, 0.1, 0.2], [0.0, 0.1037783, 3.5]]
    for bad in ("0.0\n0.1\n", "0.0\n0.1\nsoon\n", "0.0\n0.1\nnan\n"):
        (seq / "times.txt").write_text(bad)
        assert main(run) == 2               # short or unreadable stamps
        assert "times.txt" in capsys.readouterr().err
