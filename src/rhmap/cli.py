"""Batch command line: run the pipeline, evaluate maps, generate scenes."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from .config import (BackendConfig, ConfigError, FrontendConfig, MapConfig,
                     PipelineConfig, load_config, set_config_key)
from .evaluate import cube_keys, evaluate, timing_report
from .indexing import sorted_unique
from .io_formats import (FormatError, read_kitti_scan, read_labels, read_map_ply,
                         read_poses, write_kitti_scan, write_labels,
                         write_map_ply, write_poses)
from .pipeline import run_pipeline
from .synth import SceneSpec, load_scene, synth_scene

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
    scan_paths = _sorted_files(scans_dir, ".bin")
    poses = read_poses(poses_file)
    if len(poses) < len(scan_paths):
        raise FormatError(f"{poses_file}: {len(poses)} poses for "
                          f"{len(scan_paths)} scans")
    label_paths = _sorted_files(labels_dir, ".label") if labels_dir else None
    if label_paths is not None and len(label_paths) != len(scan_paths):
        raise FormatError(f"{labels_dir}: {len(label_paths)} label files for "
                          f"{len(scan_paths)} scans")
    for i, path in enumerate(scan_paths):
        scan = read_kitti_scan(path)
        scan.timestamp = float(i) * 0.1
        if label_paths is None:
            yield scan, poses[i]
        else:
            yield scan, poses[i], read_labels(label_paths[i],
                                              expected_count=len(scan))


def _write_report(result, ev, path):
    reports = [{"columns_flagged": f.report.columns_flagged,
                "regions_flagged": f.report.regions_flagged,
                "cubes_removed": f.report.cubes_removed,
                "ground_cubes_added": f.report.ground_cubes_added,
                "elapsed_ms": f.elapsed_ms} for f in result.frames]
    body = {"frames": reports}
    if result.frames:
        body["timing"] = timing_report(result.frame_times_ms)
    if ev is not None:
        body["eval"] = ev.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2)


def cmd_run(args) -> int:
    cfg = _build_config(args)
    if args.synthetic:
        scene = load_scene(args.synthetic)
        frames = synth_scene(scene, cfg.seed)
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
    keys, masks = [], []
    for scan, pose, mask in _dataset_frames(scans_dir, poses_file, labels_dir):
        keys.append(cube_keys(pose.apply(scan.points), cube))
        masks.append(mask)
    res = evaluate(SimpleNamespace(occupied_keys=lambda: map_keys),
                   np.concatenate(keys), np.concatenate(masks))
    print(json.dumps(res.to_dict()))
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _build_config(args)
    scene = load_scene(args.spec)
    frames = synth_scene(scene, cfg.seed)
    scans_dir = os.path.join(args.out, "velodyne")
    labels_dir = os.path.join(args.out, "labels")
    os.makedirs(scans_dir, exist_ok=True)
    os.makedirs(labels_dir, exist_ok=True)
    poses = []
    for i, (scan, pose, mask) in enumerate(frames):
        write_kitti_scan(os.path.join(scans_dir, f"{i:06d}.bin"), scan.points)
        # moving-class id 252 marks dynamic returns, 0 static
        write_labels(os.path.join(labels_dir, f"{i:06d}.label"),
                     np.where(mask, 252, 0).astype(np.uint32))
        poses.append(pose)
    write_poses(os.path.join(args.out, "poses.txt"), poses)
    print(json.dumps({"frames": len(frames),
                      "points": int(sum(len(s) for s, _, _ in frames))}))
    return EXIT_OK


def _bench_scene(frames: int) -> SceneSpec:
    """The built-in throughput scene: ~91k-point 64x1600 scans out to 60 m."""
    return SceneSpec(
        ground_z=0.0,
        static_boxes=[([8, -12, 0], [12, -8, 3]), ([-14, 6, 0], [-8, 10, 4])],
        sensor_start=(0.0, 0.0, 1.5),
        sensor_velocity=(1.0, 0.0, 0.0),
        frames=frames,
        beam_rows=64,
        beam_cols=1600,
        fov_down_deg=-24.8,
        fov_up_deg=2.0,
        r_max=60.0,
    )


def cmd_bench(args) -> int:
    scene = _bench_scene(args.frames)
    # the front end sees the scene's beam pattern unless told otherwise
    base = PipelineConfig()
    fe = base.frontend
    fe.image_rows, fe.image_cols = scene.beam_rows, scene.beam_cols
    fe.fov_down_deg, fe.fov_up_deg = scene.fov_down_deg, scene.fov_up_deg
    fe.r_max = scene.r_max
    cfg = _build_config(args, base)
    frames = synth_scene(scene, cfg.seed)
    result = run_pipeline(cfg, frames)
    body = timing_report(result.frame_times_ms)
    body["points_per_frame"] = float(np.mean([len(s) for s, _, _ in frames]))
    print(json.dumps(body))
    return EXIT_OK


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
    _add_config_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput")
    p_bench.add_argument("--frames", type=int, default=20)
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
