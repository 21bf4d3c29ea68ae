"""One benchmark run in a fresh process, started by ``run.py``.

Modes:
  gen    write the workload's KITTI files into the cache (dor_kitti only)
  probe  set up, hand over the first frame, stop: one more set-up sample
  run    set up, ``run_pipeline``, ``write_map_ply``, ``evaluate``, check
  trace  as run, with the tracer's wrappers installed

The result goes to ``--out`` as JSON.  The process exits non-zero only
when it cannot start (for example when ``rhmap`` is not importable); a
pipeline that raises or fails the output check still writes a result,
with its frames counted as failed.
"""

import time

T0 = time.perf_counter()  # child start: set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# export and score repeat until this much time is spent, for a steadier median
REPEAT_S = 1.5
REPEAT_MAX = 5


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class FrameClock:
    """Times frames from outside ``run_pipeline``.

    Frame i runs from the moment the generator hands it over until the
    pipeline asks for frame i+1, so producing a frame (synthesis or file
    reads) falls outside it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rss_setup_mb = 0.0

    def frames(self, source):
        for i, frame in enumerate(source):
            if i == 0:
                self.rss_setup_mb = _rss_mb()
            t = time.perf_counter()
            self.starts.append(t)
            if self.tracer is not None:
                self.tracer.begin_frame(i, t)
            yield frame
            t = time.perf_counter()
            self.ends.append(t)
            if self.tracer is not None:
                self.tracer.end_frame(t)


def _unlink(path):
    if os.path.exists(path):
        os.remove(path)


def _timed_repeats(fn, before=None):
    """Call fn until REPEAT_S seconds or REPEAT_MAX calls; (median s, result).

    ``before`` runs untimed ahead of every call.
    """
    times, result = [], None
    while True:
        if before is not None:
            before()
        t = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t)
        if sum(times) >= REPEAT_S or len(times) >= REPEAT_MAX:
            return statistics.median(times), result


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_export(points, map_, ev, truth_points, truth_mask):
    """Re-score the read-back PLY points through occupied keys, as `rhmap
    eval` does; returns the list of mismatches (empty when the export is
    right)."""
    import numpy as np
    from rhmap import evaluate as evaluate_mod
    from rhmap.indexing import pack3

    cube = map_.config.cube_size
    gidx = np.floor(points / cube).astype(np.int64)
    keys = np.unique(pack3(gidx[:, 0], gidx[:, 1], gidx[:, 2]))
    view = SimpleNamespace(config=SimpleNamespace(cube_size=cube),
                           occupied_keys=lambda: keys)
    ev2 = evaluate_mod.evaluate(view, truth_points, truth_mask)
    errors = []
    if not np.array_equal(keys, map_.occupied_keys()):
        errors.append(f"exported keys differ from the map ({len(keys)} read "
                      f"back, {len(map_.occupied_keys())} in memory)")
    for field in ("n_sta", "n_dyn", "n_tn", "n_tp"):
        if getattr(ev2, field) != getattr(ev, field):
            errors.append(f"re-scored {field} {getattr(ev2, field)} != "
                          f"in-memory {getattr(ev, field)}")
    return errors


def run(args, workloads, trace: bool) -> dict:
    from rhmap import evaluate as evaluate_mod
    from rhmap import io_formats, pipeline

    import tracer

    tr = tracer.Tracer().install() if trace else None
    wl = workloads.make(args.workload, args.seed)
    out = {"attempted": wl.frames, "failed": wl.frames, "errors": []}
    clock = FrameClock(tr)
    try:
        source = workloads.frame_source(wl, args.cache)
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(wl.config, clock.frames(source))
        wall = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del source
        out.update(setup_s=clock.starts[0] - T0, wall_s=wall,
                   frames_done=len(result.frames),
                   frame_ms=[(e - s) * 1e3 for s, e in
                             zip(clock.starts, clock.ends)],
                   mem_peak_mb=peak_mb - clock.rss_setup_mb)
        if len(result.frames) != wl.frames:
            out["errors"].append(f"{len(result.frames)} of {wl.frames} "
                                 "frames processed")

        ply = os.path.join(args.outdir,
                           f"map-{args.workload}-{args.seed}-{args.mode}.ply")
        # Each export writes a new file: rewriting a truncated one makes the
        # filesystem flush the old pages first, which is not export work.
        out["export_s"], _ = _timed_repeats(
            lambda: io_formats.write_map_ply(result.map, ply),
            before=lambda: _unlink(ply))
        truth = (result.truth_points, result.truth_mask)
        out["score_s"], ev = _timed_repeats(
            lambda: evaluate_mod.evaluate(result.map, *truth))
        points, _ = io_formats.read_map_ply(ply)
        if tr is not None:
            tr.restore()  # the check below is not part of the trace
        out["errors"] += _check_export(points, result.map, ev, *truth)
        out.update(pr=ev.pr, rr=ev.rr, f1=ev.f1, n_sta=ev.n_sta,
                   n_dyn=ev.n_dyn, n_tn=ev.n_tn, n_tp=ev.n_tp,
                   dyn_cubes_left=evaluate_mod.count_dynamic_cubes(
                       result.map, *truth),
                   map_sha=_sha256(ply))
        _unlink(ply)
        out["failed"] = wl.frames if out["errors"] else 0
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        traceback.print_exc()
        out["errors"].append(f"{type(exc).__name__}: {exc}")
        # a raise mid-run fails the remaining frames; after the last frame
        # the outputs are unchecked, so every frame fails
        out["failed"] = (wl.frames - len(clock.ends)) or wl.frames
    finally:
        if tr is not None:
            tr.abandon_frame()
            tr.restore()
    if tr is not None:
        out["layers"] = tracer.layer_metrics(tr)
        out["absent"] = tr.absent
        out["observe_errors"] = tr.observe_errors
        tr.write_spans(os.path.join(
            args.outdir, f"spans-{args.workload}-{args.seed}.jsonl"))
    return out


def probe(args, workloads) -> dict:
    wl = workloads.make(args.workload, args.seed)
    source = workloads.frame_source(wl, args.cache)
    next(iter(source))
    return {"setup_s": time.perf_counter() - T0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("gen", "probe", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import rhmap
    src = ROOT / "src"
    if not Path(rhmap.__file__).resolve().is_relative_to(src.resolve()):
        print(f"rhmap imported from {rhmap.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import workloads

    if args.mode == "gen":
        result = workloads.ensure_kitti(args.cache,
                                        workloads.make(args.workload, args.seed))
    elif args.mode == "probe":
        result = probe(args, workloads)
    else:
        result = run(args, workloads, trace=args.mode == "trace")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
