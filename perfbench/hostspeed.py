"""Host speed probe: a fixed piece of work timed between commands.

On a shared host the CPU speed a process gets drifts by up to ~1.5x,
in phases from a second to minutes long.  A wall time alone then says as
much about the neighbours as about the program.  The benchmark therefore
times this probe right before and right after every command and scales
the command's wall time by how long the probe took around it:

    normalised_s = wall_s * REFERENCE_PROBE_S / mean(probe before, after)

That is the command's time on a host where the probe takes exactly
``REFERENCE_PROBE_S``.  The probe's work is fixed and lives here, outside
the program, so a change to the program moves the normalised time just
as it moves the wall time.

The probe mixes what the program spends its time on: per-frame Python
overhead around small numpy arrays, random draws, a reduction over a
larger array, a pure-Python loop, and filling and reading 32 MB of fresh
memory.
"""

from __future__ import annotations

import time

# Seconds the probe takes on the reference host; about its median on the
# 2-vCPU Xeon host the baseline was recorded on.
REFERENCE_PROBE_S = 0.030


_buffers: dict = {}


def probe(clock=time.perf_counter) -> float:
    """Run the fixed work once; return its wall time in seconds.

    The work writes into buffers allocated on the first call, except for
    one 32 MB block that it frees again, and keeps no new memory between
    calls: memory a probe left behind between two commands would raise the
    program's resident memory.  numpy is imported
    here, not at module level, so that the benchmark's own imports leave
    numpy's import time to the program's.
    """
    import numpy as np

    if not _buffers:
        _buffers.update(small=np.empty((13, 30)), counts=np.empty((13, 30)),
                        big=np.empty((8, 48, 128)),
                        total=np.empty((48, 128)))
    small, counts = _buffers["small"], _buffers["counts"]
    big, total = _buffers["big"], _buffers["total"]
    start = clock()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(1200):
        rng.random(out=small)
        np.multiply(small, 6.0, out=counts)
        np.floor(counts, out=counts)
        acc += float(counts[2:8, 3:20].sum()) - float(counts.mean())
    rng.standard_normal(out=big)
    np.sum(big, axis=0, out=total)
    acc += float(total.var())
    # Fresh pages, filled and read back: the page-fault and memory traffic
    # that reading a stack costs, which the cache-sized work above misses.
    scratch = np.ones(4 * 1024 * 1024)
    acc += float(scratch.sum())
    del scratch
    acc += sum(i * 0.5 for i in range(5000))
    return clock() - start


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` scaled to the reference probe time (see module doc)."""
    return wall_s * REFERENCE_PROBE_S * 2.0 / (before_s + after_s)
