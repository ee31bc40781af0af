"""Rewrite tests/pinned_outputs.json, the sha256 of every output of one
fixed run, and print the outputs that moved.

Usage::

    python3 tools/pin_outputs.py

NEP 19 lets numpy's Generator streams change between releases, so the
record keeps the numpy and Python versions it was made with.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "pinned_outputs.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from twincal import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def pin() -> dict[str, str]:
    """{name: sha256 hex} of every CSV, stack, sidecar and stdout (the
    run's directory written as <tmp>) of simulate, find-cs, and area-scan
    and calibrate with and without --background, on both benchmark
    workloads at seed 1, and of reproduce-table1, run in process."""
    runs = [("reproduce-table1", ["reproduce-table1"])]
    with tempfile.TemporaryDirectory() as tmp:
        outputs = Path(tmp, "out")
        for name, workload in WORKLOADS.items():
            config = Path(tmp, f"{name}.json")
            sim = outputs / name / "simulate"
            config.write_text(json.dumps(workload.run_config(1)))
            cfg, pdc = f"--config={config}", f"--pdc={sim}/pdc.tbs"
            bg = f"--background={sim}/background.tbs"
            runs += [(f"{name}/{run}", [run.removesuffix("-bg"), cfg, *flags])
                     for run, flags in (
                         ("simulate", []),
                         ("find-cs", [f"--stack={sim}/pdc.tbs"]),
                         ("area-scan", [pdc]), ("area-scan-bg", [pdc, bg]),
                         ("calibrate", [pdc]), ("calibrate-bg", [pdc, bg]))]
        for name, argv in runs:
            out, printed = outputs / name, io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main([*argv, f"--out={out}"])
            if code:
                raise RuntimeError(f"{name}: exit {code}")
            (out / "stdout").write_text(
                printed.getvalue().replace(tmp, "<tmp>"))
        return {path.relative_to(outputs).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(outputs.rglob("*")) if path.is_file()}


def report(record: dict, digests: dict[str, str]) -> str:
    """A line per output of ``digests`` that is new, missing or moved
    against ``record``, and one naming both numpys when their major.minor
    differ; empty when no output moved."""
    old, numpy = record["outputs"], record["numpy"]
    lines = []
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            state = ("new" if name not in old else
                     "missing" if name not in digests else "moved")
            lines.append(f"{state}: {name}")
    if lines and numpy.split(".")[:2] != np.__version__.split(".")[:2]:
        lines.append(f"numpy {np.__version__} runs, the record was made with "
                     f"numpy {numpy}: NEP 19 lets Generator streams change")
    return "\n".join(lines)


if __name__ == "__main__":
    outputs = pin()
    print(report(json.loads(RECORD.read_text()), outputs) or "no output moved")
    RECORD.write_text(json.dumps(
        {"numpy": np.__version__, "python": platform.python_version(),
         "outputs": outputs}, indent=1, sort_keys=True) + "\n")
