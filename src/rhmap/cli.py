"""Batch command line: run the pipeline, evaluate maps, generate scenes."""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np

from .config import (BackendConfig, ConfigError, FrontendConfig, MapConfig,
                     PipelineConfig, load_config, set_config_key)
from .evaluate import TruthHistogram, cube_keys, evaluate
from .indexing import ScanCubes, sorted_unique
from .io_formats import (FormatError, read_kitti_scan, read_labels, read_map_ply,
                         read_poses, read_times, write_kitti_scan, write_labels,
                         write_map_ply, write_poses, write_times)
from .pipeline import run_pipeline, timing_report
from .synth import bench_scene, load_scene, synth_frames

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    skip = {"map", "frontend", "backend",
            "scans_dir", "poses_file", "labels_dir", "out_map", "report"}
    seen = set()
    for section in (PipelineConfig, MapConfig, FrontendConfig, BackendConfig):
        for f in fields(section):
            if f.name in skip or f.name in seen:
                continue
            seen.add(f.name)
            parser.add_argument(f"--{f.name}", dest=f"cfg_{f.name}",
                                metavar="VALUE", help=argparse.SUPPRESS)


def _build_config(args, cfg: PipelineConfig | None = None) -> PipelineConfig:
    """The config of a subcommand: ``cfg`` (the defaults when None), then
    the ``--config`` file, then the per-key flags, each overriding the last."""
    cfg = cfg or PipelineConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for name, value in vars(args).items():
        if name.startswith("cfg_") and value is not None:
            set_config_key(cfg, name[4:], value)
    return cfg.validate()


def _sorted_files(directory, suffix):
    names = sorted(n for n in os.listdir(directory) if n.endswith(suffix))
    return [os.path.join(directory, n) for n in names]


def _dataset_frames(scans_dir, poses_file, labels_dir):
    """Frames of a KITTI-style sequence.  Timestamps come from the
    ``times.txt`` beside the scans directory when there is one (the layout
    ``sequences/NN/{velodyne,times.txt}``), else 0.1 s apart."""
    scan_paths = _sorted_files(scans_dir, ".bin")
    poses = read_poses(poses_file)
    if len(poses) < len(scan_paths):
        raise FormatError(f"{poses_file}: {len(poses)} poses for "
                          f"{len(scan_paths)} scans")
    times_file = os.path.join(os.path.dirname(os.path.abspath(scans_dir)),
                              "times.txt")
    times = (read_times(times_file) if os.path.exists(times_file)
             else [i * 0.1 for i in range(len(scan_paths))])
    if len(times) < len(scan_paths):
        raise FormatError(f"{times_file}: {len(times)} timestamps for "
                          f"{len(scan_paths)} scans")
    label_paths = _sorted_files(labels_dir, ".label") if labels_dir else None
    if label_paths is not None and len(label_paths) != len(scan_paths):
        raise FormatError(f"{labels_dir}: {len(label_paths)} label files for "
                          f"{len(scan_paths)} scans")
    for i, path in enumerate(scan_paths):
        scan = read_kitti_scan(path)
        scan.timestamp = times[i]
        if label_paths is None:
            yield scan, poses[i]
        else:
            yield scan, poses[i], read_labels(label_paths[i],
                                              expected_count=len(scan))


def _write_report(result, ev, path):
    reports = [{**asdict(f.report), **asdict(f.ground),
                "map_cubes": f.map_cubes, "map_regions": f.map_regions,
                "evicted": f.evicted, "elapsed_ms": f.elapsed_ms,
                "cpu_ms": f.cpu_ms, "stages_ms": f.stages_ms,
                "backend_reports": [asdict(r) for r in f.backend_reports]}
               for f in result.frames]
    body = {"frames": reports}
    if result.frames:
        body["timing"] = _timing(result)
    if ev is not None:
        body["eval"] = ev.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2)


def _timing(result) -> dict:
    return timing_report(result.frame_times_ms,
                         [f.stages_ms for f in result.frames])


def cmd_run(args) -> int:
    cfg = _build_config(args)
    if args.synthetic:
        frames = synth_frames(load_scene(args.synthetic))
    else:
        scans = args.scans or cfg.scans_dir
        poses = args.poses or cfg.poses_file
        if not scans or not poses:
            print("run: need --scans and --poses, or --synthetic", file=sys.stderr)
            return EXIT_USAGE
        frames = _dataset_frames(scans, poses, args.labels or cfg.labels_dir or None)
    result = run_pipeline(cfg, frames)
    out = args.out or cfg.out_map
    if out:
        write_map_ply(result.map, out)
    ev = None
    if result.truth_points is not None:
        ev = evaluate(result.map, result.truth_points, result.truth_mask)
    report = args.report or cfg.report
    if report:
        _write_report(result, ev, report)
    if ev is not None:
        print(json.dumps(ev.to_dict()))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    cube = cfg.map.cube_size
    map_keys = sorted_unique(cube_keys(read_map_ply(args.map)[0], cube))
    truth = args.truth
    scans_dir = os.path.join(truth, "velodyne")
    labels_dir = os.path.join(truth, "labels")
    poses_file = os.path.join(truth, "poses.txt")
    # each truth scan is grouped by cube as `rhmap run` groups it
    truth = TruthHistogram(cfg.map.mask_bits)
    for scan, pose, mask in _dataset_frames(scans_dir, poses_file, labels_dir):
        cubes = ScanCubes(pose.apply(scan.points), cfg.map)
        truth.add(cubes.cube_rm, cubes.point_cube, mask)
    res = evaluate(SimpleNamespace(occupied_keys=lambda: map_keys),
                   *truth.finish())
    print(json.dumps(res.to_dict()))
    return EXIT_OK


def cmd_synth(args) -> int:
    frames = synth_frames(load_scene(args.spec))
    scans_dir = os.path.join(args.out, "velodyne")
    labels_dir = os.path.join(args.out, "labels")
    os.makedirs(scans_dir, exist_ok=True)
    os.makedirs(labels_dir, exist_ok=True)
    poses, times, points = [], [], 0
    # each frame is written as it is made, so only one is held at a time
    for i, (scan, pose, mask) in enumerate(frames):
        write_kitti_scan(os.path.join(scans_dir, f"{i:06d}.bin"), scan.points)
        # moving-class id 252 marks dynamic returns, 0 static
        write_labels(os.path.join(labels_dir, f"{i:06d}.label"),
                     np.where(mask, 252, 0).astype(np.uint32))
        poses.append(pose)
        times.append(scan.timestamp)
        points += len(scan)
    write_poses(os.path.join(args.out, "poses.txt"), poses)
    # beside velodyne/, where `rhmap run --scans` looks for the stamps
    write_times(os.path.join(args.out, "times.txt"), times)
    print(json.dumps({"frames": len(poses), "points": points}))
    return EXIT_OK


def _counted(frames, points: list, scene_ms: list):
    """Yield ``frames`` as they come, appending each scan's point count
    to ``points`` and the milliseconds ``frames`` took to make it to
    ``scene_ms``."""
    frames = iter(frames)
    while True:
        t0 = time.perf_counter()
        frame = next(frames, None)
        if frame is None:
            return
        scene_ms.append((time.perf_counter() - t0) * 1e3)
        points.append(len(frame[0]))
        yield frame


def cmd_bench(args) -> int:
    scene = bench_scene(args.frames)
    # the front end sees the scene's beam pattern unless told otherwise
    base = PipelineConfig()
    fe = base.frontend
    fe.image_rows, fe.image_cols = scene.beam_rows, scene.beam_cols
    fe.fov_down_deg, fe.fov_up_deg = scene.fov_down_deg, scene.fov_up_deg
    fe.r_max = scene.r_max
    cfg = _build_config(args, base)
    points, scene_ms = [], []
    result = run_pipeline(cfg, _counted(synth_frames(scene), points,
                                        scene_ms))
    body = _timing(result)
    cpu_ms = [f.cpu_ms for f in result.frames]
    body["cpu_mean_ms"] = float(np.mean(cpu_ms))
    body["cpu_p50_ms"] = float(np.median(cpu_ms))
    body["points_per_frame"] = float(np.mean(points))
    body["scene_ms_mean"] = float(np.mean(scene_ms))
    body["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(body))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """An integer >= 1, for argparse; any other value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="rhmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build a static map from scans")
    p_run.add_argument("--scans", help="directory of .bin scans")
    p_run.add_argument("--poses", help="pose text file")
    p_run.add_argument("--labels", help="directory of .label files")
    p_run.add_argument("--synthetic", help="synthetic scene spec (JSON)")
    p_run.add_argument("--out", help="output PLY map path")
    p_run.add_argument("--report", help="output JSON report path")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a map against labeled truth")
    p_eval.add_argument("--map", required=True)
    p_eval.add_argument("--truth", required=True,
                        help="dir with velodyne/, labels/, poses.txt")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput")
    p_bench.add_argument("--frames", type=_positive_int, default=20)
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"rhmap: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, FileNotFoundError, ValueError) as e:
        print(f"rhmap: data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
