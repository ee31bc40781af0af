"""Output checks for every command the benchmark runs.

Each check returns a list of problems; an empty list means the output is
correct.  A command with any problem counts as one failed operation.
The statistical checks compare against the configured ground truth: the
recovered efficiencies must lie within ``ETA_PULL_LIMIT`` propagated
standard uncertainties of the configured values.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from pathlib import Path

ETA_PULL_LIMIT = 5.0

# Stack-file header (the documented .tbs layout): magic, version, kind,
# flags, rows, cols, count, digest.
_TBS_HEADER = struct.Struct("<4sHBBIII32s")

_ETA_S = re.compile(r"eta_s\s+=\s+(\S+) \+- (\S+) \(propagated (\S+)\)")
_ETA_I = re.compile(r"eta_i\s+=\s+(\S+)")
_ALPHA_B = re.compile(r"alpha_b\s+=\s+(\S+) \+- (\S+)")
_OFFSET = re.compile(r"cs offset \((-?\d+), (-?\d+)\)")
_DISCARDED = re.compile(r"discarded (\d+)\+(\d+) frames")
_MAP_MIN = re.compile(r"spatial-map minimum at offset \((-?\d+), (-?\d+)\)")


def _table(path: Path, header: bool, width: int, problems: list[str]):
    """Rows of a numeric CSV, or None after recording why it is unusable."""
    if not path.is_file():
        problems.append(f"{path.name} missing")
        return None
    rows = list(csv.reader(path.read_text().splitlines()))
    if header:
        rows = rows[1:]
    values = []
    for row in rows:
        if len(row) != width:
            problems.append(f"{path.name}: row of {len(row)} cells, "
                            f"expected {width}")
            return None
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            problems.append(f"{path.name}: non-numeric cell in {row}")
            return None
    return values


def _search(pattern, text: str, what: str, problems: list[str]):
    match = pattern.search(text)
    if match is None:
        problems.append(f"stdout does not report {what}")
    return match


def stack_header(path: Path):
    """(rows, cols, count) from a stack file's header, or None if short."""
    with open(path, "rb") as fh:
        head = fh.read(_TBS_HEADER.size)
    if len(head) < _TBS_HEADER.size:
        return None
    _m, _v, _k, _f, rows, cols, count, _d = _TBS_HEADER.unpack(head)
    return rows, cols, count


def check_stacks(data: Path, config: dict) -> list[str]:
    """``simulate``: both stacks exist with the configured shape and count."""
    problems = []
    exp, ana = config["experiment"], config["analysis"]
    rows, cols = exp["geometry"]["rows"], exp["geometry"]["cols"]
    z = ana["z_batches"]
    for name, count in (("pdc.tbs", z * ana["frames_per_batch"]),
                        ("background.tbs",
                         z * ana["background_frames_per_batch"])):
        path = data / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        shape = stack_header(path)
        if shape != (rows, cols, count):
            problems.append(f"{name}: header gives (rows, cols, frames) "
                            f"{shape}, expected {(rows, cols, count)}")
        elif path.stat().st_size != _TBS_HEADER.size + 4 * rows * cols * count:
            problems.append(f"{name}: payload size disagrees with header")
    return problems


def check_find_cs(results: Path, stdout: str, config: dict,
                  expected_offset: tuple[int, int]) -> list[str]:
    """``find-cs``: the map has the search-grid shape and its minimum lies
    at the configured offset."""
    problems = []
    er, ec = config["analysis"]["cs_search_extent"]
    grid = _table(results / "cs_map.csv", header=False, width=2 * ec + 1,
                  problems=problems)
    if grid is None:
        return problems
    if len(grid) != 2 * er + 1:
        problems.append(f"cs_map.csv has {len(grid)} rows, "
                        f"expected {2 * er + 1}")
        return problems
    flat = [v for row in grid for v in row]
    k = flat.index(min(flat))
    argmin = (k // (2 * ec + 1) - er, k % (2 * ec + 1) - ec)
    if argmin != expected_offset:
        problems.append(f"cs_map.csv minimum at {argmin}, "
                        f"expected {expected_offset}")
    match = _search(_MAP_MIN, stdout, "the map minimum", problems)
    if match and (int(match[1]), int(match[2])) != expected_offset:
        problems.append(f"find-cs reports offset ({match[1]}, {match[2]}), "
                        f"expected {expected_offset}")
    return problems


def check_area_scan(results: Path, config: dict) -> list[str]:
    """``area-scan``: one finite row per configured area, in order."""
    problems = []
    areas = config["analysis"]["areas"]
    rows = _table(results / "area_scan.csv", header=True, width=5,
                  problems=problems)
    if rows is None:
        return problems
    if len(rows) != len(areas):
        problems.append(f"area_scan.csv has {len(rows)} rows, "
                        f"expected {len(areas)}")
        return problems
    for row, (h, w) in zip(rows, areas):
        if (row[0], row[1]) != (h, w):
            problems.append(f"area_scan.csv row for {row[:2]}, expected "
                            f"{[h, w]}")
        if not all(math.isfinite(v) for v in row[2:]):
            problems.append(f"area_scan.csv: non-finite value in {row}")
    return problems


def check_calibration(results: Path, stdout: str, z_batches: int,
                      eta_s_true: float, eta_i_true: float,
                      expected_offset: tuple[int, int],
                      expect_discards: bool) -> list[str]:
    """``calibrate`` and the calibration half of ``reproduce-table1``.

    The tables have their shapes, the chosen centre offset is the
    configured one, and eta_s and eta_i lie within ETA_PULL_LIMIT
    propagated uncertainties of the truth.  u(eta_i) follows from
    eta_i = alpha_b * eta_s with the reported u(eta_s) and u(alpha_b).
    """
    problems = []
    _table(results / "calibration.csv", header=True, width=9,
           problems=problems)
    batches = _table(results / "batches.csv", header=True, width=4,
                     problems=problems)
    if batches is not None and len(batches) != z_batches:
        problems.append(f"batches.csv has {len(batches)} rows, "
                        f"expected {z_batches}")

    offset = _search(_OFFSET, stdout, "the cs offset", problems)
    if offset and (int(offset[1]), int(offset[2])) != expected_offset:
        problems.append(f"calibrate chose offset ({offset[1]}, {offset[2]}), "
                        f"expected {expected_offset}")
    dropped = _search(_DISCARDED, stdout, "discarded frames", problems)
    if dropped and expect_discards and int(dropped[1]) + int(dropped[2]) < 1:
        problems.append("no frame discarded although cosmic rays were "
                        "injected")

    eta_s = _search(_ETA_S, stdout, "eta_s", problems)
    eta_i = _search(_ETA_I, stdout, "eta_i", problems)
    alpha = _search(_ALPHA_B, stdout, "alpha_b", problems)
    if eta_s and eta_i and alpha:
        es, u_es = float(eta_s[1]), float(eta_s[3])
        a, u_a = float(alpha[1]), float(alpha[2])
        u_ei = math.hypot(a * u_es, es * u_a)
        for name, value, truth, u in (("eta_s", es, eta_s_true, u_es),
                                      ("eta_i", float(eta_i[1]), eta_i_true,
                                       u_ei)):
            if not (u > 0.0 and abs(value - truth) <= ETA_PULL_LIMIT * u):
                problems.append(f"{name} = {value:.6g} is not within "
                                f"{ETA_PULL_LIMIT:g} u = {u:.3g} of the "
                                f"configured {truth:.6g}")
    return problems


def check_side_by_side(results: Path, keys) -> list[str]:
    """``reproduce-table1``: every reference quantity has a finite row."""
    problems = []
    path = results / "side_by_side.csv"
    if not path.is_file():
        return ["side_by_side.csv missing"]
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    simulated = {}
    for row in rows:
        if len(row) != 5:
            problems.append(f"side_by_side.csv: row of {len(row)} cells")
            continue
        try:
            simulated[row[0]] = float(row[3])
        except ValueError:
            problems.append(f"side_by_side.csv: bad value in {row}")
    for key in keys:
        if key not in simulated:
            problems.append(f"side_by_side.csv lacks {key}")
        elif not math.isfinite(simulated[key]):
            problems.append(f"side_by_side.csv: {key} is not finite")
    return problems
