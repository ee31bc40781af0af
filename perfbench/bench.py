"""One benchmark run of one workload, in this process.

Runs the workload's commands through ``twincal.cli.main`` exactly as a
user types them, checks every output, and prints a summary followed by
one JSON result line.  ``run.py`` starts this in a child process so that
peak memory belongs to one workload run; run it through ``run.py``.

Timed mode (``--trace 0``) repeats the command chain until ``--seconds``
have passed and reports medians per command of the host-normalised time
(``hostspeed.py``): each command's wall time scaled by a fixed probe timed
right before and after it.  Traced mode (``--trace 1``) alternates an
untraced and a traced iteration of the same chain and reports per-layer
metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import io as _stdio
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import spans
from workloads import REFERENCE_KEYS, TABLE1_ETA_I, TABLE1_ETA_S, WORKLOADS

SETUP_REPEATS = 5
# Command order of one iteration; timed runs cycle through it.  simulate
# comes first because the others read its stacks.  The short commands run
# twice, spread over the iteration, so their medians rest on more samples
# taken over the same stretch of time as the long ones.
SCHEDULE = ("simulate", "area_scan", "calibrate", "find_cs", "area_scan",
            "calibrate", "reproduce_table1")
CHAIN = ("simulate", "find_cs", "area_scan", "calibrate")
RUN_DIR = Path(".perfbench-run")


def _libc_malloc_trim():
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    return getattr(libc, "malloc_trim", None)


_MALLOC_TRIM = _libc_malloc_trim()


def fresh_heap() -> None:
    """Free what earlier commands left behind, as a new process starts.

    A user runs each command in its own process.  Here they share one, so
    before each command cyclic garbage is collected and glibc hands free
    heap pages back to the kernel.  Otherwise peak RSS and page-fault
    work depend on which earlier command left the heap fragmented.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def probe_host() -> float:
    """Trim the heap, then time the host speed probe.

    The trim keeps the probe's own 32 MB block from adding to memory that
    an earlier command left behind, and so from raising peak RSS.
    """
    fresh_heap()
    return hostspeed.probe()


class Session:
    """Runs commands, checks their outputs and counts the operations."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self._probe_s = None

    def command(self, argv: list[str], outputs: list[Path], check) -> float:
        """Run one command; return its wall time in seconds.

        Stale outputs are removed first so a command that writes nothing
        cannot pass on an earlier iteration's files.
        """
        for path in outputs:
            path.unlink(missing_ok=True)
        fresh_heap()
        captured = _stdio.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    with self.tracer.span(spans.root_name(argv[0])):
                        code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += check(captured.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}",
                  file=sys.stderr)
        return elapsed

    def timed_command(self, argv, outputs, check) -> tuple[float, float]:
        """Run one command between two host speed probes.

        Returns (host-normalised seconds, wall seconds).  The probe after
        one command is the probe before the next.
        """
        before = self._probe_s if self._probe_s is not None else warm_probe()
        wall = self.command(argv, outputs, check)
        self._probe_s = probe_host()
        return hostspeed.normalise(wall, before, self._probe_s), wall

    def steps(self, config: dict, tag: str, expect_discards: bool) -> dict:
        """The commands on one run config: name -> (argv, outputs, check)."""
        base = self.work / tag
        data, results, t1 = base / "data", base / "results", base / "table1"
        run = base / "run.json"
        pdc, bg = str(data / "pdc.tbs"), str(data / "background.tbs")
        common = ["--config", str(run), "--out"]
        offset = self.workload.expected_offset
        z = config["analysis"]["z_batches"]
        exp = config["experiment"]
        steps = {
            "simulate": (["simulate", *common, str(data)],
             [data / "pdc.tbs", data / "background.tbs"],
             lambda out: checks.check_stacks(data, config)),
            "find_cs": (["find-cs", *common, str(results), "--stack", pdc],
             [results / "cs_map.csv"],
             lambda out: checks.check_find_cs(results, out, config, offset)),
            "area_scan": (["area-scan", *common, str(results), "--pdc", pdc,
                           "--background", bg],
             [results / "area_scan.csv"],
             lambda out: checks.check_area_scan(results, config)),
            "calibrate": (["calibrate", *common, str(results), "--pdc", pdc,
                           "--background", bg],
             [results / "calibration.csv", results / "batches.csv"],
             lambda out: checks.check_calibration(
                 results, out, z, exp["channel"]["eta_s"],
                 exp["channel"]["eta_i"], offset, expect_discards)),
            "reproduce_table1": (
                ["reproduce-table1", "--out", str(t1), "--seed", str(self.seed)],
                [t1 / "calibration.csv", t1 / "batches.csv",
                 t1 / "side_by_side.csv"],
                lambda out: checks.check_calibration(
                    t1, out, 8, TABLE1_ETA_S, TABLE1_ETA_I, (0, 0), False)
                + checks.check_side_by_side(t1, REFERENCE_KEYS)),
        }
        return steps

    def run(self, steps: dict, order) -> dict[str, list[float]]:
        """Run the commands named in ``order``; wall seconds per command."""
        times: dict[str, list[float]] = {}
        for name in order:
            times.setdefault(name, []).append(self.command(*steps[name]))
        return times


def write_config(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def setup(session: Session) -> None:
    """Generate the run configs and warm the code paths on few frames."""
    w, seed = session.workload, session.seed
    write_config(session.work / "run" / "run.json", w.run_config(seed))
    warm = w.warmup_config(seed)
    write_config(session.work / "warmup" / "run.json", warm)
    session.run(session.steps(warm, "warmup", expect_discards=False), CHAIN)


def warm_probe() -> float:
    """A probe time after one untimed call, which pays first-call costs."""
    probe_host()
    return probe_host()


def run_steps(session: Session) -> dict:
    w = session.workload
    return session.steps(w.run_config(session.seed), "run", w.expect_discards)


def timed(session: Session, seconds: float):
    """Cycle through SCHEDULE until ``seconds`` have passed.

    The first cycle always completes, so every command has a sample; after
    it the run stops at the first command boundary past ``seconds``.
    Returns host-normalised and wall seconds per command, and the peak
    resident memory in MB at the end of the first cycle.  Later cycles
    repeat the same commands; on large-frame about one run in six has one
    of them peak ~47 MB higher, for a reason not found, so the peak is
    read once every command has run.
    """
    steps = run_steps(session)
    times: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    start = time.perf_counter()
    k = 0
    while k < len(SCHEDULE) or time.perf_counter() - start < seconds:
        name = SCHEDULE[k % len(SCHEDULE)]
        normalised, wall = session.timed_command(*steps[name])
        times.setdefault(name, []).append(normalised)
        walls.setdefault(name, []).append(wall)
        k += 1
        if k == len(SCHEDULE):
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return times, walls, peak_mb


def traced(session: Session, seconds: float, modules):
    """Alternate untraced and traced iterations of SCHEDULE.

    A further pair starts only if it should end within ``seconds``.
    Returns (untraced iterations, traced iterations, their tracers).
    """
    steps = run_steps(session)
    plain, traced_runs, tracers = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(session.run(steps, SCHEDULE))
        tracer = spans.Tracer()
        session.tracer = tracer
        try:
            with tracer.installed(spans.twincal_patches(*modules)):
                traced_runs.append(session.run(steps, SCHEDULE))
        finally:
            session.tracer = None
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            return plain, traced_runs, tracers


def _summary(name: str, values: list[float], unit: str, note="") -> float:
    med = statistics.median(values)
    print(f"  {name:<45} {med:>14.6g} {unit:<10} "
          f"(median of {len(values)}, min {min(values):.6g}, "
          f"max {max(values):.6g}{note})")
    return med


def end_to_end(times, walls, peak_mb, setup_s, frames: int) -> dict:
    print(f"  {'setup_s':<45} {setup_s:>14.6g} s")
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for command in spans.COMMANDS:
        wall = statistics.median(walls[command])
        metrics[f"{command}_s"] = {
            "value": _summary(f"{command}_s", times[command], "s",
                              f"; wall median {wall:.6g} s"),
            "unit": "s"}
    chain_s = sum(metrics[f"{c}_s"]["value"] for c in CHAIN)
    metrics["pipeline_frames_per_s"] = {"value": frames / chain_s,
                                        "unit": "frames/s"}
    print(f"  {'pipeline_frames_per_s':<45} {frames / chain_s:>14.6g} "
          f"frames/s (frames / sum of the four command medians)")
    print(f"  {'peak_rss_mb':<45} {peak_mb:>14.6g} MB")
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    return metrics


def per_layer(plain, traced, tracers, span_dir: Path) -> dict:
    shutil.rmtree(span_dir, ignore_errors=True)
    per_iteration = []
    for k, tracer in enumerate(tracers):
        selfs = spans.self_times(tracer.spans)
        residuals = spans.root_sum_residuals(tracer.spans, selfs)
        if any(residuals):
            raise RuntimeError(f"self times do not sum to root durations: "
                               f"{residuals}")
        per_iteration.append(spans.layer_metrics(tracer.spans))
        tracer.dump(span_dir / f"iteration{k}.jsonl")
    metrics = {}
    for name, (_v, unit) in per_iteration[0].items():
        value = _summary(name, [m[name][0] for m in per_iteration], unit)
        if unit in ("count", "B_computed"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    def wall(iteration):
        return sum(sum(times) for times in iteration.values())

    overhead = (statistics.median(wall(t) for t in traced)
                / statistics.median(wall(t) for t in plain))
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    print(f"  {'trace.overhead_ratio':<45} {overhead:>14.6g} ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from twincal import cli, estimate, io, simulate
    import_s = time.perf_counter() - start
    probe_s = warm_probe()
    import_s = hostspeed.normalise(import_s, probe_s, probe_s)

    workload = WORKLOADS[args.workload]
    work = RUN_DIR / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    session = Session(cli, workload, args.seed, work)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            setup(session)
            wall = time.perf_counter() - start
            after = probe_host()
            setups.append(hostspeed.normalise(wall, probe_s, after))
            probe_s = after
        setup_s = import_s + statistics.median(setups)

        print(f"{args.workload} seed {args.seed}, trace {args.trace}:")
        if args.trace:
            plain, traced_runs, tracers = traced(session, args.seconds,
                                                 (simulate, io, estimate))
            metrics = per_layer(plain, traced_runs, tracers,
                                RUN_DIR / "spans" / args.workload)
        else:
            metrics = end_to_end(*timed(session, args.seconds), setup_s,
                                 workload.frames)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        # Failures in the run's operations, as a share that is 1 when all
        # pass (a metric of 0 has no relative bound).
        metrics["op_success_ratio"] = {
            "value": (session.attempted - session.failed) / session.attempted,
            "unit": "ratio"}
    print(json.dumps({"correct": session.failed == 0,
                      "attempted": session.attempted,
                      "failed": session.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
