"""Span tracing from outside the program.

A ``Tracer`` replaces public functions at their module attributes (where
callers look them up) with wrappers that record one span per call: name,
start, end, the span that was open when the call began, and optional
counters.  Nothing inside the program is instrumented, and the original
functions are restored when the traced block ends, so untraced runs
execute the program exactly as shipped.

Spans stay in memory; ``Tracer.dump`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

from checks import stack_header

_U32 = 4


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, info=None):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = info


class Tracer:
    """In-memory span recorder; times are integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, info: dict | None = None) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.info = info
        span.end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, func, name: str, counters=None):
        """Wrapper recording a span per call of ``func``.

        ``counters(args, kwargs, result)`` returns the span's counters; it
        runs inside the span, so its (small) cost is charged to the layer
        it describes rather than to the caller.
        """
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            info = None
            try:
                result = func(*args, **kwargs)
                if counters is not None:
                    info = counters(args, kwargs, result)
            finally:
                self.end(index, info)
            return result
        return traced

    def wrap_generator(self, func, name: str):
        """Wrapper for a generator function: one span per ``next``.

        The work of a lazy generator happens when its consumer pulls, so
        each step is a span under whatever span is open at that moment.
        """
        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)

            def steps():
                while True:
                    index = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(index)
                    yield item
            return steps()
        return traced

    @contextlib.contextmanager
    def installed(self, patches):
        """Install wrappers for ``(module, attr, name, kind, counters)``
        patches for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module, attr, name, kind, counters in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if kind == "generator":
                    wrapped = self.wrap_generator(original, name)
                else:
                    wrapped = self.wrap(original, name, counters)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        """Write all spans as JSON lines (times in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name,
                                     "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent,
                                     "info": s.info}) + "\n")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(k)
    out = []
    for k, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for c in sorted(children[k], key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def root_sum_residuals(spans, selfs) -> list[int]:
    """For each root span: sum of self times in its tree minus its duration."""
    root_of = []
    for s in spans:
        # Parents precede children, so the parent's root is already known.
        root_of.append(len(root_of) if s.parent is None else root_of[s.parent])
    totals: dict[int, int] = {}
    for k, r in enumerate(root_of):
        totals[r] = totals.get(r, 0) + selfs[k]
    return [totals[r] - (spans[r].end - spans[r].start) for r in totals]


# ---------------------------------------------------------------------------
# Layer boundaries of twincal and the metrics taken at them
# ---------------------------------------------------------------------------

def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _frames_arg(args, kwargs):
    return args[0] if args else kwargs["frames"]


def _render_counters(args, kwargs, frame):
    return {"kind": frame.kind}


def _stack_counters(args, kwargs, result):
    """u32 payload bytes, computed from the array shape in the header."""
    rows, cols, count = stack_header(Path(_path_arg(args, kwargs)))
    return {"bytes": count * rows * cols * _U32}


def _filter_counters(args, kwargs, result):
    kept, discarded = result
    return {"frames": len(kept) + len(discarded), "kept": len(kept)}


def _map_counters(args, kwargs, result):
    return {"frame_shifts": len(_frames_arg(args, kwargs)) * result.values.size}


def twincal_patches(simulate, io, estimate):
    """The wrapped public functions: (module, attr, span name, kind, counters)."""
    patches = [
        (simulate, "render_frame", "simulate.render_frame", "call",
         _render_counters),
        (simulate, "iter_stack", "simulate.iter_stack", "generator", None),
        (simulate, "generate_stack", "simulate.generate_stack", "call", None),
        (io, "write_stack", "io.write_stack", "call", _stack_counters),
        (io, "read_stack", "io.read_stack", "call", _stack_counters),
        (estimate, "cosmic_ray_filter", "estimate.cosmic_ray_filter", "call",
         _filter_counters),
        (estimate, "sigma_spatial_map", "estimate.sigma_spatial_map", "call",
         _map_counters),
    ]
    for attr in ("write_calibration_csv", "write_area_scan_csv",
                 "write_cs_map_csv", "write_batches_csv"):
        patches.append((io, attr, "io.csv", "call", None))
    for attr in ("build_series", "area_scan", "repeat_experiment",
                 "propagate_type_a"):
        patches.append((estimate, attr, f"estimate.{attr}", "call", None))
    return patches


COMMANDS = ("simulate", "find_cs", "area_scan", "calibrate", "reproduce_table1")


def root_name(command: str) -> str:
    """Root span name of a command as typed (``find-cs`` -> ``cli.find_cs``)."""
    return "cli." + command.replace("-", "_")


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit).

    Byte counts are computed from array sizes (frames x rows x cols x 4
    bytes of u32 payload), not measured at the device.
    """
    selfs = self_times(spans)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        self_ns[s.name] = self_ns.get(s.name, 0) + own
        calls[s.name] = calls.get(s.name, 0) + 1

    def info_sum(name, key):
        return sum(s.info[key] for s in spans
                   if s.name == name and s.info is not None)

    def renders(kind):
        """(frames, self ns) of render_frame calls of one frame kind."""
        owns = [own for s, own in zip(spans, selfs)
                if s.name == "simulate.render_frame"
                and s.info is not None and s.info["kind"] == kind]
        return len(owns), sum(owns)

    def sec(name):
        return self_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    pdc, pdc_ns = renders("pdc_on")
    bg, bg_ns = renders("background")
    write_b = info_sum("io.write_stack", "bytes")
    read_b = info_sum("io.read_stack", "bytes")
    filt_frames = info_sum("estimate.cosmic_ray_filter", "frames")
    filt_kept = info_sum("estimate.cosmic_ray_filter", "kept")
    shifts = info_sum("estimate.sigma_spatial_map", "frame_shifts")
    propagations = calls.get("estimate.propagate_type_a", 0)
    simulate_s = sum(sec(n) for n in ("simulate.render_frame",
                                      "simulate.iter_stack",
                                      "simulate.generate_stack"))
    m = {
        "simulate.render_frame.calls": (calls.get("simulate.render_frame", 0),
                                        "count"),
        "simulate.render_frame.pdc_frames": (pdc, "count"),
        "simulate.render_frame.bg_frames": (bg, "count"),
        "simulate.render_pdc_us_per_frame": (ratio(pdc_ns / 1e3, pdc), "us"),
        "simulate.render_bg_us_per_frame": (ratio(bg_ns / 1e3, bg), "us"),
        "simulate.self_s": (simulate_s, "s"),
        "io.write_stack.self_s": (sec("io.write_stack"), "s"),
        "io.write_stack.bytes": (write_b, "B_computed"),
        "io.write_stack.MBps": (ratio(write_b / 1e6, sec("io.write_stack")),
                                "MB/s"),
        "io.read_stack.self_s": (sec("io.read_stack"), "s"),
        "io.read_stack.bytes": (read_b, "B_computed"),
        "io.read_stack.MBps": (ratio(read_b / 1e6, sec("io.read_stack")),
                               "MB/s"),
        "io.csv.self_s": (sec("io.csv"), "s"),
        "estimate.cosmic_ray_filter.self_s": (
            sec("estimate.cosmic_ray_filter"), "s"),
        "estimate.cosmic_ray_filter.frames": (filt_frames, "count"),
        "estimate.cosmic_ray_filter.keep_ratio": (
            ratio(filt_kept, filt_frames), "ratio"),
        "estimate.sigma_spatial_map.self_s": (
            sec("estimate.sigma_spatial_map"), "s"),
        "estimate.sigma_spatial_map.frame_shifts": (shifts, "count"),
        "estimate.sigma_spatial_map.us_per_frame_shift": (
            ratio(self_ns.get("estimate.sigma_spatial_map", 0) / 1e3, shifts),
            "us"),
        "estimate.area_scan.self_s": (sec("estimate.area_scan"), "s"),
        "estimate.build_series.self_s": (sec("estimate.build_series"), "s"),
        "estimate.repeat_experiment.self_s": (
            sec("estimate.repeat_experiment"), "s"),
        "estimate.propagate_type_a.calls": (propagations, "count"),
        "estimate.propagate_type_a.us_per_batch": (
            ratio(self_ns.get("estimate.propagate_type_a", 0) / 1e3,
                  propagations), "us"),
    }
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (sec(f"cli.{command}"), "s")
    return m
