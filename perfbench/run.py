"""rhmap pipeline benchmark.

    python3 perfbench/run.py --workload dense_static --seed 0 --seconds 10 --trace 0

Runs one workload through the library path of ``rhmap run``: synthesise
or read scans, ``run_pipeline``, ``write_map_ply``, ``evaluate``.  Every
run is a fresh child process (``child.py``), started one after another,
with BLAS threads capped at the number of usable cores.  Loading is
closed-loop: the pipeline pulls the next scan only when it has finished
the previous one, so a 10 Hz sensor is a 100 ms budget on frame_ms_p95.

--trace 0  full runs until --seconds of pipeline time is measured (at
           least one), plus set-up probes for two or three set-up samples;
           prints the end-to-end metrics.
--trace 1  one untraced and one traced run; prints the per-layer metrics
           and the tracing overhead.

Every run's exported map is read back and re-scored; the counts must
match the in-memory ones and the map's sha256 must agree across the runs
of one invocation.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
(frames) and ``metrics``.  Exit status: 0 when every check passed, 1 when
a run failed (the result is still printed), 2 when the benchmark could
not run at all (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
OUTDIR = HERE / ".out"

WORKLOADS = ("dense_static", "dor_kitti", "long_residue")
KITTI_WORKLOADS = ("dor_kitti",)
TIME_LIMIT_S = 170       # the whole command must end within 180 s
SETUP_SAMPLES = 3        # set-ups wanted per invocation: at least two,
PROBE_BUDGET_S = 3.0     # a third while the probes fit in this budget

# (name, unit) of the end-to-end metrics in the JSON line; never zero.
E2E = (
    ("scans_per_s", "scans/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
    ("pr", "fraction"),
)
# Printed only.  export_s and score_s time a few seconds of work each, and
# on a 2-core host with busy neighbours their spread over ten seeds reaches
# 0.2-0.37 of the median, above any bound the JSON line may carry.  The
# others are absent or zero on some workload.
E2E_PRINTED = (
    ("export_s", "s"),
    ("score_s", "s"),
    ("rr", "fraction"),
    ("f1", "fraction"),
    ("dyn_cubes_left", "count"),
    ("fail_frac", "fraction"),
    ("frames", "count"),
    ("map_sha16", "hex"),
    ("kitti_gen_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(mode: str, args, deadline: float) -> dict:
    out = OUTDIR / f"{mode}-{args.workload}-{args.seed}.json"
    out.unlink(missing_ok=True)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--cache", str(CACHE), "--outdir", str(OUTDIR), "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} run")
    try:
        # run() kills and reaps the child on timeout or interrupt
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{mode} run exited with status {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(runs, setups, gen) -> tuple[dict, list[str]]:
    """End-to-end metrics of the untraced runs, plus consistency errors."""
    errors = []
    frame_ms = [ms for r in runs for ms in r.get("frame_ms", ())]
    timed = [r for r in runs if "wall_s" in r]
    done = [r for r in runs if "map_sha" in r]
    values = {
        "scans_per_s": (sum(r["frames_done"] for r in timed)
                        / sum(r["wall_s"] for r in timed) if timed else None),
        "frame_ms_p50": _percentile(frame_ms, 50) if len(frame_ms) > 1 else None,
        "frame_ms_p95": _percentile(frame_ms, 95) if len(frame_ms) > 1 else None,
        "setup_s": statistics.median(setups) if setups else None,
        "fail_frac": (sum(r["failed"] for r in runs)
                      / sum(r["attempted"] for r in runs)),
        "frames": len(frame_ms),
        "kitti_gen_s": gen.get("generate_s"),
    }
    for key in ("export_s", "score_s", "mem_peak_mb"):
        vals = [r[key] for r in runs if key in r]
        values[key] = statistics.median(vals) if vals else None
    if done:
        first = done[0]
        for key in ("pr", "rr", "f1", "dyn_cubes_left"):
            values[key] = first[key]
        values["map_sha16"] = first["map_sha"][:16]
        for r in done[1:]:
            if r["map_sha"] != first["map_sha"]:
                errors.append("exported map differs between runs: "
                              f"{r['map_sha'][:16]} vs {first['map_sha'][:16]}")
    return values, errors


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="scene variation; 0 is the test-suite scene")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="pipeline time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rhmap" / "__init__.py").is_file():
        print(f"perfbench: no rhmap sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUTDIR.mkdir(exist_ok=True)
    try:
        gen = (_child("gen", args, deadline)
               if args.workload in KITTI_WORKLOADS else {})
        runs = [_child("run", args, deadline)]
        while (not args.trace and not runs[-1]["errors"]
               and sum(r["wall_s"] for r in runs) < args.seconds):
            runs.append(_child("run", args, deadline))
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        probe_s = 0.0
        while (not args.trace and setups and len(setups) < SETUP_SAMPLES
               and (len(setups) < 2 or probe_s + statistics.median(setups)
                    <= PROBE_BUDGET_S)):
            probe_s += statistics.median(setups)
            setups.append(_child("probe", args, deadline)["setup_s"])
        traced = _child("trace", args, deadline) if args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    values, errors = _end_to_end(runs, setups, gen)
    full = runs + ([traced] if traced else [])
    for r in full:
        errors += r["errors"]
    if traced and "map_sha" in traced and "map_sha16" in values \
            and traced["map_sha"][:16] != values["map_sha16"]:
        errors.append("traced run exported a different map: "
                      f"{traced['map_sha'][:16]} vs {values['map_sha16']}")
    attempted = sum(r["attempted"] for r in full)
    failed = sum(r["failed"] for r in full)
    if errors and not failed:
        failed = attempted

    print(f"workload {args.workload} seed {args.seed}: {len(runs)} untraced "
          f"run(s), {len(setups)} set-up(s)" + (", 1 traced run" if traced else ""))
    print("end-to-end (untraced):")
    for name, unit in E2E + E2E_PRINTED:
        print(f"  {name:<18} {_fmt(values.get(name)):>16} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}

    if traced:
        layers = traced["layers"]
        layers["pipeline.untraced_scans_per_s"] = values["scans_per_s"]
        if "wall_s" in traced and values["scans_per_s"]:
            traced_sps = traced["frames_done"] / traced["wall_s"]
            layers["pipeline.trace_overhead_frac"] = (
                values["scans_per_s"] / traced_sps - 1.0)
        idle = set(tracer.idle_layer_metrics(layers))
        print("per-layer (traced run; ms values are per frame):")
        for name, unit, _, _ in tracer.LAYER_METRICS:
            note = " (idle)" if name in idle else ""
            print(f"  {name:<38} {_fmt(layers.get(name)):>14} {unit}{note}")
        if traced["absent"]:
            print("  absent targets: " + ", ".join(traced["absent"]))
        if traced["observe_errors"]:
            print(f"  unreadable return values: {traced['observe_errors']}")
        metrics = {name: {"value": layers.get(name) or 0.0, "unit": unit}
                   for name, unit, _, _ in tracer.LAYER_METRICS}

    for err in errors:
        print(f"CHECK FAILED: {err}")
    for entry in metrics.values():
        if entry["value"] is None:
            entry["value"] = 0.0
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors or failed else 0


if __name__ == "__main__":
    sys.exit(main())
