"""Tests of the benchmark itself: span arithmetic, wrappers, output checks.

The output checks are exercised on real outputs of a small command chain
and then on deliberately wrong copies, so a check that accepts anything
fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent=None, info=None):
    s = spans.Span(name, start, parent, info)
    s.end = end
    return s


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    tree = [
        _span("cli.simulate", 0, 100),
        _span("io.write_stack", 10, 40, parent=0),
        _span("simulate.iter_stack", 20, 30, parent=1),
        _span("simulate.render_frame", 22, 28, parent=2),
        _span("io.csv", 50, 90, parent=0),
        _span("cli.find_cs", 200, 260),
        _span("io.read_stack", 200, 260, parent=5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [30, 20, 4, 6, 40, 0, 60]
    assert spans.root_sum_residuals(tree, selfs) == [0, 0]


def test_overlapping_children_are_covered_once():
    tree = [_span("root", 0, 100), _span("a", 10, 60, 0), _span("b", 40, 80, 0)]
    assert spans.self_times(tree)[0] == 30


def test_wrappers_nest_generator_steps_under_the_consumer():
    mod = types.SimpleNamespace()

    def produce(n):
        for k in range(n):
            yield mod.leaf(k)

    def leaf(k):
        return k

    def consume(items):
        return list(items)

    mod.produce, mod.leaf, mod.consume = produce, leaf, consume
    tracer = spans.Tracer()
    patches = [(mod, "produce", "p", "generator", None),
               (mod, "leaf", "l", "call", lambda a, k, r: {"k": r}),
               (mod, "consume", "c", "call", None)]
    with tracer.installed(patches):
        with tracer.span("root"):
            assert mod.consume(mod.produce(2)) == [0, 1]
    assert (mod.produce, mod.leaf, mod.consume) == (produce, leaf, consume)
    got = [(s.name, s.parent) for s in tracer.spans]
    assert got == [("root", None), ("c", 0), ("p", 1), ("l", 2), ("p", 1),
                   ("l", 4), ("p", 1)]
    assert [s.info for s in tracer.spans if s.name == "l"] == [{"k": 0},
                                                               {"k": 1}]
    selfs = spans.self_times(tracer.spans)
    assert spans.root_sum_residuals(tracer.spans, selfs) == [0]


def test_layer_metrics_from_a_synthetic_iteration():
    tree = [
        _span("cli.simulate", 0, 10_000),
        _span("simulate.render_frame", 0, 1_000, 0, {"kind": "pdc_on"}),
        _span("simulate.render_frame", 1_000, 4_000, 0, {"kind": "pdc_on"}),
        _span("io.write_stack", 4_000, 9_000, 0, {"bytes": 5_000}),
        _span("simulate.iter_stack", 5_000, 7_000, 3),
        _span("simulate.render_frame", 5_000, 6_000, 4, {"kind": "background"}),
        _span("cli.find_cs", 20_000, 30_000),
        _span("estimate.sigma_spatial_map", 20_000, 28_000, 6,
              {"frame_shifts": 16}),
    ]
    m = {k: v for k, (v, _unit) in spans.layer_metrics(tree).items()}
    assert m["simulate.render_frame.calls"] == 3
    assert m["simulate.render_frame.pdc_frames"] == 2
    assert m["simulate.render_frame.bg_frames"] == 1
    assert m["simulate.render_pdc_us_per_frame"] == pytest.approx(2.0)
    assert m["simulate.render_bg_us_per_frame"] == pytest.approx(1.0)
    # The lazily rendered frame inside write_stack is charged to simulate.
    assert m["io.write_stack.self_s"] == pytest.approx(3e-6)
    assert m["simulate.self_s"] == pytest.approx(6e-6)
    assert m["io.write_stack.MBps"] == pytest.approx(5e-3 / 3e-6)
    assert m["estimate.sigma_spatial_map.us_per_frame_shift"] == \
        pytest.approx(0.5)
    assert m["cli.simulate.self_s"] == pytest.approx(1e-6)
    assert m["cli.find_cs.self_s"] == pytest.approx(2e-6)
    assert m["estimate.propagate_type_a.calls"] == 0


# ---------------------------------------------------------------------------
# Output checks on real and on deliberately wrong outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_outputs(tmp_path_factory):
    """A small reference chain run through twincal.cli, and the stdout of
    its calibrate command."""
    from twincal import cli

    work = tmp_path_factory.mktemp("chain")
    session = bench.Session(cli, WORKLOADS["reference"], 7, work)
    config = WORKLOADS["reference"].warmup_config(7)
    base = work / "small"
    bench.write_config(base / "run.json", config)
    session.run(session.steps(config, "small", expect_discards=False),
                bench.CHAIN)
    assert (session.attempted, session.failed) == (4, 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["calibrate", "--config", str(base / "run.json"),
                         "--out", str(base / "results"),
                         "--pdc", str(base / "data" / "pdc.tbs"),
                         "--background", str(base / "data" / "background.tbs")])
    assert code == 0
    return base, config, out.getvalue()


def _calibration_problems(base, config, stdout, **overrides):
    kwargs = dict(z_batches=config["analysis"]["z_batches"],
                  eta_s_true=config["experiment"]["channel"]["eta_s"],
                  eta_i_true=config["experiment"]["channel"]["eta_i"],
                  expected_offset=(0, 0), expect_discards=False)
    kwargs.update(overrides)
    return checks.check_calibration(base / "results", stdout, **kwargs)


def test_real_outputs_pass(chain_outputs):
    base, config, stdout = chain_outputs
    assert checks.check_stacks(base / "data", config) == []
    assert checks.check_area_scan(base / "results", config) == []
    assert _calibration_problems(base, config, stdout) == []


def test_wrong_argmin_is_rejected(chain_outputs, tmp_path):
    base, config, _ = chain_outputs
    shutil.copy(base / "results" / "cs_map.csv", tmp_path / "cs_map.csv")
    stdout = "spatial-map minimum at offset (0, 0), value 0.4\n"
    assert checks.check_find_cs(tmp_path, stdout, config, (0, 0)) == []
    assert checks.check_find_cs(tmp_path, stdout, config, (1, -1)) != []
    # A map whose minimum moved off the configured offset.
    rows = (tmp_path / "cs_map.csv").read_text().splitlines()
    rows[0] = ",".join(["-1"] + rows[0].split(",")[1:])
    (tmp_path / "cs_map.csv").write_text("\n".join(rows) + "\n")
    assert checks.check_find_cs(tmp_path, stdout, config, (0, 0)) != []


def test_eta_off_by_ten_u_is_rejected(chain_outputs):
    base, config, stdout = chain_outputs
    m = re.search(r"eta_s\s+=\s+(\S+) \+- \S+ \(propagated (\S+)\)", stdout)
    eta_s, u = float(m[1]), float(m[2])
    eta_i = float(re.search(r"eta_i\s+=\s+(\S+)", stdout)[1])
    problems = _calibration_problems(base, config, stdout,
                                     eta_s_true=eta_s + 10 * u)
    assert any("eta_s" in p for p in problems)
    problems = _calibration_problems(base, config, stdout,
                                     eta_i_true=eta_i - 10 * u)
    assert any("eta_i" in p for p in problems)


def test_wrong_offset_and_missing_discards_are_rejected(chain_outputs):
    base, config, stdout = chain_outputs
    assert _calibration_problems(base, config, stdout,
                                 expected_offset=(1, -1)) != []
    assert _calibration_problems(base, config, stdout,
                                 expect_discards=True) != []
    assert _calibration_problems(base, config, stdout, z_batches=3) != []


def test_missing_or_short_tables_are_rejected(chain_outputs, tmp_path):
    base, config, stdout = chain_outputs
    copy = tmp_path / "copy"
    shutil.copytree(base, copy)
    (copy / "results" / "calibration.csv").unlink()
    assert any("missing" in p for p in
               _calibration_problems(copy, config, stdout))
    lines = (copy / "results" / "area_scan.csv").read_text().splitlines()
    (copy / "results" / "area_scan.csv").write_text("\n".join(lines[:-1]))
    assert checks.check_area_scan(copy / "results", config) != []
    (copy / "data" / "background.tbs").unlink()
    assert checks.check_stacks(copy / "data", config) != []
    assert _calibration_problems(base, config, "") != []


def test_side_by_side_needs_every_reference_key(tmp_path):
    keys = ("alpha", "eta_s")
    header = "quantity,reference,u_reference,simulated,u_simulated\n"
    (tmp_path / "side_by_side.csv").write_text(
        header + "alpha,1,0.1,0.99,nan\neta_s,0.6,0.01,0.61,0.01\n")
    assert checks.check_side_by_side(tmp_path, keys) == []
    (tmp_path / "side_by_side.csv").write_text(header + "alpha,1,0.1,0.99,nan\n")
    assert checks.check_side_by_side(tmp_path, keys) != []


def test_failed_command_counts_as_failed_operation(tmp_path):
    from twincal import cli

    session = bench.Session(cli, WORKLOADS["reference"], 1, tmp_path)
    session.command(["find-cs", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path), "--stack", "none.tbs"],
                    [], lambda out: [])
    assert (session.attempted, session.failed) == (1, 1)


# ---------------------------------------------------------------------------
# Host speed normalisation
# ---------------------------------------------------------------------------

def test_normalise_cancels_a_uniform_slowdown():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.normalise(2.0, ref, ref) == pytest.approx(2.0)
    # The host runs at half speed: the command and both probes double.
    assert hostspeed.normalise(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    # The speed changes during the command: the probes are averaged.
    assert hostspeed.normalise(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_timed_command_chains_the_probes(tmp_path, monkeypatch):
    from twincal import cli

    probes = iter([0.01, 0.02, 0.04])
    monkeypatch.setattr(bench, "probe_host", lambda: next(probes))
    monkeypatch.setattr(bench, "warm_probe", lambda: next(probes))
    session = bench.Session(cli, WORKLOADS["reference"], 1, tmp_path)
    monkeypatch.setattr(session, "command", lambda *a: 0.3)
    first, wall = session.timed_command([], [], None)
    assert wall == 0.3
    assert first == pytest.approx(hostspeed.normalise(0.3, 0.01, 0.02))
    # The probe after the first command is the one before the second.
    second, _ = session.timed_command([], [], None)
    assert second == pytest.approx(hostspeed.normalise(0.3, 0.02, 0.04))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_runner_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_spec_names_the_metrics_bench_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(spans.layer_metrics([])) | {"trace.overhead_ratio"}
