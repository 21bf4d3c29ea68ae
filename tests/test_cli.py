"""Command line interface: subcommands, exit codes and file round trips."""

import json

import numpy as np
import pytest

from rhmap.cli import main
from rhmap.geometry import Pose
from rhmap.io_formats import (read_map_ply, write_kitti_scan, write_labels,
                               write_map_ply, write_poses)
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
              "ground_cubes_added", "map_cubes", "map_regions", "evicted",
              "elapsed_ms", "stages_ms"]

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

    calls = []
    real = cli.evaluate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "evaluate", counting)
    out_map = str(tmp_path / "map.ply")
    report = str(tmp_path / "report.json")
    rc = main(["run", "--synthetic", scene_file, "--out", out_map,
               "--report", report] + CFG_FLAGS)
    assert rc == 0
    assert len(calls) == 1          # the report and stdout share one score
    body = json.loads((tmp_path / "report.json").read_text())
    assert len(body["frames"]) == SCENE["frames"]
    assert all(list(f) == FRAME_KEYS for f in body["frames"])
    assert body["timing"]["mean_ms"] > 0
    assert all(list(f["stages_ms"]) == list(STAGES) for f in body["frames"])
    timing = body["timing"]
    assert list(timing["stages_ms"]) == list(STAGES)
    assert 0 < timing["p50_ms"] <= timing["p95_ms"]
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

    rc = main(["eval", "--map", out_map, "--truth", data_dir] + CFG_FLAGS)
    assert rc == 0
    scored = json.loads(capsys.readouterr().out)
    # scoring the exported map reproduces the pipeline's own counts
    assert scored["N_sta"] == run_eval["N_sta"]
    assert scored["N_dyn"] == run_eval["N_dyn"]
    assert scored["N_TN"] == pytest.approx(run_eval["N_TN"], abs=0)
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
    names = sorted(p.relative_to(expect) for p in expect.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(out) for p in out.rglob("*")
                           if p.is_file())
    assert all((out / n).read_bytes() == (expect / n).read_bytes()
               for n in names)


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
                 "--mask_bits", "22"]) == 1        # no region field left
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


def test_bench_reports_throughput(capsys):
    rc = main(["bench", "--frames", "2"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["hz"] > 0
    assert 0 < body["p50_ms"] <= body["p95_ms"]
    assert list(body["stages_ms"]) == list(STAGES)
    assert body["points_per_frame"] > 50000
    # the process's peak resident memory, in MB: more than the ~2 MB of one
    # 91k-point float64 scan, less than the whole 8 GB of a small host
    assert 2 < body["peak_rss_mb"] < 8192


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
