"""Benchmark entry point: one workload run in its own child process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

The child (``bench.py``) imports twincal from ``src/`` of the checkout,
with BLAS and OpenMP limited to one thread, so the run measures this
source tree and one workload's peak memory.  The child's output is
passed on; its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170

_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "twincal" / "cli.py").is_file():
        print(f"error: no twincal sources under {src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2

    # Memory placement is pinned so that the same run keeps the same
    # footprint.  numpy asks the kernel for huge pages on large arrays by
    # default, and how many it gets depends on the host's free memory.
    # glibc raises its mmap threshold each time a large block is freed, so
    # whether a later buffer comes from the heap or from fresh pages
    # depends on the heap's history; fixing the threshold at its initial
    # 128 KiB turns that off.  Left dynamic, and without the heap trim
    # before each command in bench.py, peak RSS on large-frame switched
    # between 284 and 325 MB from run to run.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               NUMPY_MADVISE_HUGEPAGE="0", MALLOC_MMAP_THRESHOLD_="131072",
               **{name: "1" for name in _SINGLE_THREAD})
    child = [sys.executable, str(HERE / "bench.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(child, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"error: benchmark child exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1

    json.loads(lines[-1])   # a child that printed no result has failed
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
