"""Span tracer that wraps rhmap's public functions from outside.

Only the traced run installs it.  Each target is replaced at the name its
caller looks up (``rhmap.pipeline.s2m_removal``, ``RHMap.integrate_points``
...) by a wrapper that records a span: name, start, end, parent span and
frame id.  Per-region calls (``compute_ratio2``, ``column_band``,
``remove_region_nonground``) are too frequent for one span each; they are
folded into a call count, a time total and a returned-value total on the
enclosing span.  ``restore`` puts every original back.

A target that no longer exists is listed in ``absent`` and skipped, so the
benchmark keeps running when a refactor deletes a function; the metrics
that depend only on absent targets are reported as absent.

Counts come from values the calls already return (``GroundReport``,
``RemovalReport``, candidate lists, back-end report lists, the keyframe
queue) and from ``len(map)`` / ``len(map.regions)`` after each frame.
Spans live in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "parent", "frame", "start", "end", "info",
                 "agg")

    def __init__(self, sid, name, parent, frame):
        self.sid, self.name, self.parent, self.frame = sid, name, parent, frame
        self.start = self.end = 0.0
        self.info = {}
        self.agg = {}     # name -> [calls, seconds, returned-value total]

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "frame": self.frame, "start": self.start, "end": self.end,
                "info": self.info, "agg": self.agg}


# ----------------------------------------------------------------- observers
# Each reads counts from a call's arguments and return value into span.info.

def _obs_integrate(tracer, span, args, result):
    tracer.map = args[0]
    span.info["new"] = int(result)


def _obs_ground(tracer, span, args, result):
    span.info.update(elected=result.regions_elected,
                     fitted=result.regions_fitted,
                     failed=result.planes_failed,
                     added=result.ground_cubes_added)


def _obs_image(tracer, span, args, result):
    span.info.update(points=len(args[0]), dropped=int(result.dropped))


def _obs_s2m(tracer, span, args, result):
    span.info.update(cols=result.columns_flagged,
                     regions=result.regions_flagged,
                     removed=result.cubes_removed)


def _obs_len(tracer, span, args, result):
    span.info["n"] = len(result)


def _obs_select(tracer, span, args, result):
    span.info["added"] = bool(result)


def _obs_backend(tracer, span, args, result):
    queue = args[1]
    span.info.update(replays=len(result),
                     useful=sum(1 for r in result if r.cubes_removed > 0),
                     queue_len=len(queue) + len(result),  # length on entry
                     evicted=queue.evicted)


# (module under rhmap, attribute, kind, observer).  "agg" targets fold into
# their enclosing span; an int observer sums the returned values.
TARGETS = (
    ("pipeline", "transform_scan", "span", None),
    ("pipeline", "r_gpe", "span", _obs_ground),
    ("pipeline", "build_range_image", "span", _obs_image),
    ("pipeline", "s2m_removal", "span", _obs_s2m),
    ("pipeline", "information_content", "span", None),
    ("pipeline", "keyframe_select", "span", _obs_select),
    ("pipeline", "backend_step", "span", _obs_backend),
    ("removal", "transform_scan", "span", None),
    ("removal", "build_range_image", "span", _obs_image),
    ("removal", "extract_max_ring", "span", None),
    ("removal", "extract_sup_inf", "span", None),
    ("removal", "build_scan_context_2d", "span", None),
    ("removal", "build_scan_context_3d", "span", None),
    ("removal", "select_candidate_regions", "span", _obs_len),
    ("removal", "compute_ratio2", "agg", None),
    ("backend", "s2m_removal", "span", _obs_s2m),
    ("ground", "elect_candidate_ground_regions", "span", None),
    ("map_core", "RHMap.integrate_points", "span", _obs_integrate),
    ("map_core", "RHMap.remove_region_nonground", "agg", int),
    ("map_core", "RHMap.column_band", "agg", None),
    ("io_formats", "read_kitti_scan", "span", None),
    ("io_formats", "read_labels", "span", None),
    ("io_formats", "write_map_ply", "span", None),
    ("io_formats", "read_map_ply", "span", None),
    ("evaluate", "evaluate", "span", None),
    ("synth", "synth_scene", "span", None),
)

# Layer of each span name; everything under backend_step belongs to backend.
LAYER = {
    "frame": "pipeline",
    "transform_scan": "geometry",
    "integrate_points": "map_core",
    "column_band": "map_core",
    "remove_region_nonground": "map_core",
    "r_gpe": "ground",
    "elect_candidate_ground_regions": "ground",
    "build_range_image": "range_image",
    "extract_max_ring": "range_image",
    "extract_sup_inf": "range_image",
    "s2m_removal": "removal",
    "build_scan_context_2d": "removal",
    "build_scan_context_3d": "removal",
    "select_candidate_regions": "removal",
    "compute_ratio2": "removal",
    "information_content": "backend",
    "keyframe_select": "backend",
    "backend_step": "backend",
    "read_kitti_scan": "io_formats",
    "read_labels": "io_formats",
    "write_map_ply": "io_formats",
    "read_map_ply": "io_formats",
    "evaluate": "evaluate",
    "synth_scene": "synth",
}

# Layers whose spans run inside frames; their busy times plus
# pipeline.self_ms add up to pipeline.frame_ms.
FRAME_LAYERS = ("geometry", "map_core", "ground", "range_image", "removal",
                "backend")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.frame = -1
        self.map = None
        self.absent: list[str] = []
        self.observe_errors: dict[str, int] = {}
        self._saved = []

    # ------------------------------------------------------------ wrapping

    def install(self):
        for module, attr, kind, observer in TARGETS:
            label = f"{module}.{attr}"
            try:
                mod = importlib.import_module(f"rhmap.{module}")
            except ModuleNotFoundError:
                self.absent.append(label)
                continue
            owner, name = mod, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(label)
                continue
            make = self._agg_wrapper if kind == "agg" else self._span_wrapper
            self._saved.append((owner, name, original))
            setattr(owner, name, make(name, original, observer))
        return self

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _span_wrapper(self, name, fn, observer):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1].sid if stack else -1
            span = Span(len(spans), name, parent, self.frame)
            spans.append(span)
            stack.append(span)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if observer is not None:
                self._observe(observer, name, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _agg_wrapper(self, name, fn, value):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
            if stack:
                entry = stack[-1].agg.get(name)
                if entry is None:
                    entry = stack[-1].agg[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += dt
                if value is not None:
                    entry[2] += value(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, observer, name, span, args, result):
        try:
            observer(self, span, args, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            # a refactor changed the call's signature or report type
            self.observe_errors[name] = self.observe_errors.get(name, 0) + 1

    # -------------------------------------------------------------- frames

    def begin_frame(self, frame_id: int, t: float):
        span = Span(len(self.spans), "frame", -1, frame_id)
        span.start = t
        self.spans.append(span)
        self.stack.append(span)
        self.frame = frame_id

    def end_frame(self, t: float):
        span = self.stack.pop()
        if span.name != "frame":
            raise RuntimeError(f"span {span.name} still open at frame end")
        span.end = t
        self.frame = -1
        if self.map is not None:
            span.info.update(cubes=len(self.map), regions=len(self.map.regions))

    def abandon_frame(self):
        """Drop open spans after the pipeline raised mid-frame."""
        self.stack.clear()
        self.frame = -1

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ------------------------------------------------------------------ metrics
# (name, unit, better, targets).  A metric whose targets are all absent is
# reported as absent.  "_ms" values are per-frame means over the run;
# "_s" values are single calls outside the frame loop.

_PIPE = ("pipeline.transform_scan", "removal.transform_scan")

LAYER_METRICS = (
    ("pipeline.frame_ms", "ms", "lower", ()),
    ("pipeline.self_ms", "ms", "lower", ()),
    ("pipeline.trace_overhead_frac", "fraction", "lower", ()),
    ("pipeline.untraced_scans_per_s", "scans/s", "higher", ()),
    ("geometry.transform_ms", "ms", "lower", _PIPE),
    ("geometry.transform_calls_per_frame", "count", "lower", _PIPE),
    ("geometry.busy_ms", "ms", "lower", _PIPE),
    ("map_core.integrate_ms", "ms", "lower", ("map_core.RHMap.integrate_points",)),
    ("map_core.cubes_new_per_frame", "count", "lower", ("map_core.RHMap.integrate_points",)),
    ("map_core.cubes_total", "count", "lower", ("map_core.RHMap.integrate_points",)),
    ("map_core.regions_total", "count", "lower", ("map_core.RHMap.integrate_points",)),
    ("map_core.remove_calls_per_frame", "count", "lower", ("map_core.RHMap.remove_region_nonground",)),
    ("map_core.remove_ms", "ms", "lower", ("map_core.RHMap.remove_region_nonground",)),
    ("map_core.cubes_removed_per_call", "count", "lower", ("map_core.RHMap.remove_region_nonground",)),
    ("map_core.column_band_calls_per_frame", "count", "lower", ("map_core.RHMap.column_band",)),
    ("map_core.column_band_ms", "ms", "lower", ("map_core.RHMap.column_band",)),
    ("map_core.busy_ms", "ms", "lower", ("map_core.RHMap.integrate_points",)),
    ("ground.r_gpe_ms", "ms", "lower", ("pipeline.r_gpe",)),
    ("ground.elect_ms", "ms", "lower", ("ground.elect_candidate_ground_regions",)),
    ("ground.fit_ms", "ms", "lower", ("pipeline.r_gpe",)),
    ("ground.regions_elected", "count", "lower", ("pipeline.r_gpe",)),
    ("ground.regions_fitted", "count", "higher", ("pipeline.r_gpe",)),
    ("ground.planes_failed", "count", "lower", ("pipeline.r_gpe",)),
    ("ground.fit_attempts", "count", "lower", ("pipeline.r_gpe",)),
    ("ground.fit_yield", "fraction", "higher", ("pipeline.r_gpe",)),
    ("ground.cubes_added", "count", "higher", ("pipeline.r_gpe",)),
    ("ground.busy_ms", "ms", "lower", ("pipeline.r_gpe",)),
    ("range_image.build_ms", "ms", "lower", ("pipeline.build_range_image",)),
    ("range_image.max_ring_ms", "ms", "lower", ("removal.extract_max_ring",)),
    ("range_image.sup_inf_ms", "ms", "lower", ("removal.extract_sup_inf",)),
    ("range_image.points_per_frame", "count", "higher", ("pipeline.build_range_image",)),
    ("range_image.dropped_frac", "fraction", "lower", ("pipeline.build_range_image",)),
    ("range_image.busy_ms", "ms", "lower", ("pipeline.build_range_image",)),
    ("removal.s2m_ms", "ms", "lower", ("pipeline.s2m_removal",)),
    ("removal.ctx2d_ms", "ms", "lower", ("removal.build_scan_context_2d",)),
    ("removal.ctx3d_ms", "ms", "lower", ("removal.build_scan_context_3d",)),
    ("removal.candidates_ms", "ms", "lower", ("removal.select_candidate_regions",)),
    ("removal.ratio2_ms", "ms", "lower", ("removal.compute_ratio2",)),
    ("removal.ratio2_calls_per_frame", "count", "lower", ("removal.compute_ratio2",)),
    ("removal.self_ms", "ms", "lower", ("pipeline.s2m_removal",)),
    ("removal.columns_flagged", "count", "lower", ("pipeline.s2m_removal",)),
    ("removal.regions_flagged", "count", "lower", ("pipeline.s2m_removal",)),
    ("removal.candidates_per_frame", "count", "lower", ("removal.select_candidate_regions",)),
    ("removal.flag_yield", "fraction", "lower", ("removal.select_candidate_regions",)),
    ("removal.cubes_removed", "count", "lower", ("pipeline.s2m_removal",)),
    ("removal.busy_ms", "ms", "lower", ("pipeline.s2m_removal",)),
    ("backend.step_ms", "ms", "lower", ("pipeline.backend_step",)),
    ("backend.replays", "count", "higher", ("pipeline.backend_step",)),
    ("backend.replay_s2m_ms", "ms", "lower", ("backend.s2m_removal",)),
    ("backend.replay_yield", "fraction", "higher", ("pipeline.backend_step",)),
    ("backend.keyframes_added", "count", "lower", ("pipeline.keyframe_select",)),
    ("backend.queue_len_max", "count", "lower", ("pipeline.backend_step",)),
    ("backend.evicted", "count", "lower", ("pipeline.backend_step",)),
    ("backend.info_ms", "ms", "lower", ("pipeline.information_content",)),
    ("backend.select_ms", "ms", "lower", ("pipeline.keyframe_select",)),
    ("backend.busy_ms", "ms", "lower", ("pipeline.backend_step",)),
    ("io_formats.read_scan_ms", "ms", "lower", ("io_formats.read_kitti_scan",)),
    ("io_formats.read_labels_ms", "ms", "lower", ("io_formats.read_labels",)),
    ("io_formats.write_ply_s", "s", "lower", ("io_formats.write_map_ply",)),
    ("io_formats.read_ply_s", "s", "lower", ("io_formats.read_map_ply",)),
    ("evaluate.score_s", "s", "lower", ("evaluate.evaluate",)),
    ("synth.scene_s", "s", "lower", ("synth.synth_scene",)),
)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a finished traced run; None marks absent ones.

    ``pipeline.trace_overhead_frac`` and ``pipeline.untraced_scans_per_s``
    need the untraced run and are left for the caller to fill in.
    """
    spans = tracer.spans
    frames = [s for s in spans if s.name == "frame"]
    n_frames = max(len(frames), 1)
    backend = [False] * len(spans)       # span runs under backend_step
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            backend[s.sid] = backend[s.parent] or spans[s.parent].name == "backend_step"
            child_time[s.parent] += s.dur

    def layer(s):
        return "backend" if backend[s.sid] else LAYER[s.name]

    busy = dict.fromkeys(FRAME_LAYERS, 0.0)
    front, outside = {}, {}     # name -> spans, front end in-frame / outside
    agg = {}                    # front-end agg name -> [calls, seconds, value]
    self_time = {}
    for s in spans:
        if s.name == "frame":
            continue
        own = s.dur - child_time[s.sid] - sum(a[1] for a in s.agg.values())
        self_time[s.sid] = own
        if s.frame < 0:
            outside.setdefault(s.name, []).append(s)
            continue
        busy[layer(s)] += own
        in_backend = layer(s) == "backend"
        for name, (calls, secs, value) in s.agg.items():
            busy["backend" if in_backend else LAYER[name]] += secs
            if not in_backend:
                tot = agg.setdefault(name, [0, 0.0, 0])
                tot[0] += calls
                tot[1] += secs
                tot[2] += value
        if not backend[s.sid]:
            front.setdefault(s.name, []).append(s)

    def ms(name):          # per-frame ms of front-end spans
        return 1e3 * sum(s.dur for s in front.get(name, ())) / n_frames

    def count(name, key=None):  # per-frame count of calls or of an info key
        group = front.get(name, ())
        if key is None:
            return len(group) / n_frames
        if any(key not in s.info for s in group):
            return None
        return sum(s.info[key] for s in group) / n_frames

    def total(name, key):
        group = front.get(name, ())
        if any(key not in s.info for s in group):
            return None
        return sum(s.info[key] for s in group)

    def first_s(name):
        group = outside.get(name, ())
        return group[0].dur if group else 0.0

    def agg_of(name):
        return agg.get(name, [0, 0.0, 0])

    steps = front.get("backend_step", ())
    replays = total("backend_step", "replays")
    replay_s2m = [s for s in spans if s.name == "s2m_removal" and backend[s.sid]]
    fitted = total("r_gpe", "fitted")
    failed = total("r_gpe", "failed")
    attempts = None if fitted is None or failed is None else fitted + failed
    flagged = total("s2m_removal", "regions")
    candidates = total("select_candidate_regions", "n")
    points = total("build_range_image", "points")
    last = frames[-1].info if frames else {}
    rm_calls, rm_secs, rm_cubes = agg_of("remove_region_nonground")
    cb_calls, cb_secs, _ = agg_of("column_band")
    r2_calls, r2_secs, _ = agg_of("compute_ratio2")
    frame_ms = 1e3 * sum(s.dur for s in frames) / n_frames

    values = {
        "pipeline.frame_ms": frame_ms,
        "pipeline.self_ms": 1e3 * sum(
            s.dur - child_time[s.sid] - sum(a[1] for a in s.agg.values())
            for s in frames) / n_frames,
        "pipeline.trace_overhead_frac": None,
        "pipeline.untraced_scans_per_s": None,
        "geometry.transform_ms": ms("transform_scan"),
        "geometry.transform_calls_per_frame": count("transform_scan"),
        "map_core.integrate_ms": ms("integrate_points"),
        "map_core.cubes_new_per_frame": count("integrate_points", "new"),
        "map_core.cubes_total": last.get("cubes"),
        "map_core.regions_total": last.get("regions"),
        "map_core.remove_calls_per_frame": rm_calls / n_frames,
        "map_core.remove_ms": 1e3 * rm_secs / n_frames,
        "map_core.cubes_removed_per_call": _ratio(rm_cubes, rm_calls),
        "map_core.column_band_calls_per_frame": cb_calls / n_frames,
        "map_core.column_band_ms": 1e3 * cb_secs / n_frames,
        "ground.r_gpe_ms": ms("r_gpe"),
        "ground.elect_ms": ms("elect_candidate_ground_regions"),
        "ground.fit_ms": ms("r_gpe") - ms("elect_candidate_ground_regions"),
        "ground.regions_elected": count("r_gpe", "elected"),
        "ground.regions_fitted": count("r_gpe", "fitted"),
        "ground.planes_failed": count("r_gpe", "failed"),
        "ground.fit_attempts": _ratio(attempts, n_frames),
        "ground.fit_yield": _ratio(fitted, attempts),
        "ground.cubes_added": count("r_gpe", "added"),
        "range_image.build_ms": ms("build_range_image"),
        "range_image.max_ring_ms": ms("extract_max_ring"),
        "range_image.sup_inf_ms": ms("extract_sup_inf"),
        "range_image.points_per_frame": _ratio(points, n_frames),
        "range_image.dropped_frac": _ratio(total("build_range_image", "dropped"),
                                           points),
        "removal.s2m_ms": ms("s2m_removal"),
        "removal.ctx2d_ms": ms("build_scan_context_2d"),
        "removal.ctx3d_ms": ms("build_scan_context_3d"),
        "removal.candidates_ms": ms("select_candidate_regions"),
        "removal.ratio2_ms": 1e3 * r2_secs / n_frames,
        "removal.ratio2_calls_per_frame": r2_calls / n_frames,
        "removal.self_ms": 1e3 * sum(self_time[s.sid] for s in
                                     front.get("s2m_removal", ())) / n_frames,
        "removal.columns_flagged": count("s2m_removal", "cols"),
        "removal.regions_flagged": count("s2m_removal", "regions"),
        "removal.candidates_per_frame": count("select_candidate_regions", "n"),
        "removal.flag_yield": _ratio(flagged, candidates),
        "removal.cubes_removed": count("s2m_removal", "removed"),
        "backend.step_ms": 1e3 * sum(s.dur for s in steps) / n_frames,
        "backend.replays": replays,
        "backend.replay_s2m_ms": 1e3 * sum(s.dur for s in replay_s2m) / n_frames,
        "backend.replay_yield": _ratio(total("backend_step", "useful"), replays),
        "backend.keyframes_added": total("keyframe_select", "added"),
        "backend.queue_len_max": max((s.info.get("queue_len", 0) for s in steps),
                                     default=0),
        "backend.evicted": steps[-1].info.get("evicted") if steps else 0,
        "backend.info_ms": ms("information_content"),
        "backend.select_ms": ms("keyframe_select"),
        "io_formats.read_scan_ms": 1e3 * sum(
            s.dur for s in outside.get("read_kitti_scan", ())) / n_frames,
        "io_formats.read_labels_ms": 1e3 * sum(
            s.dur for s in outside.get("read_labels", ())) / n_frames,
        "io_formats.write_ply_s": first_s("write_map_ply"),
        "io_formats.read_ply_s": first_s("read_map_ply"),
        "evaluate.score_s": first_s("evaluate"),
        "synth.scene_s": first_s("synth_scene"),
    }
    for name in FRAME_LAYERS:
        values[f"{name}.busy_ms"] = 1e3 * busy[name] / n_frames

    absent = set(tracer.absent)
    for name, _, _, targets in LAYER_METRICS:
        if targets and all(t in absent for t in targets):
            values[name] = None
    return values


def idle_layer_metrics(values: dict) -> list[str]:
    """Layer time metrics that saw no call in this run."""
    return [name for name, unit, _, _ in LAYER_METRICS
            if unit in ("ms", "s") and values.get(name) == 0.0]
