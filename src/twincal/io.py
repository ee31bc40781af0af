"""Frame persistence, run-configuration files and tabular result output.

Stack file layout (little endian)::

    magic   4s   b"TBFS"
    version u16  1
    kind    u8   0 = pdc_on, 1 = background
    flags   u8   reserved, 0
    rows    u32
    cols    u32
    count   u32
    digest  32s  SHA-256 of the JSON sidecar written next to the stack
    payload count * rows * cols u32 counts, row-major, frame-major

``write_stack`` writes each block of frames at its place in the file
(``os.pwrite``), so the blocks of one stack may come from several
threads in any order, and packs the header last, once every frame has
been written exactly once.

``read_stack`` checks the header, the file size and the sidecar digest
before it reads any payload byte, and then that the box it is asked
for lies in the frame (``Region.check_inside``) and that the frames
have the shape asked for.  It returns the payload, or one box of rows
and columns of every frame, as a read-only ``<u4`` array of shape
(count, box rows, box cols), in a ``Stack`` of the header's kind; no
pulse energy is stored, in the file or the Stack.  The payload's tiles
of whole frames are dealt out to the workers of ``model._run_workers``,
which take them from one shared iterator, and the results are combined
without regard to order.  Each worker fills its one reused tile buffer,
one read budget, with one positional read (``os.preadv``) per tile it
takes, and copies the box of those frames into their frames of the
result.  The tiles are the same on any CPU count.  Only
the box's pixels are kept: the commands that analyse a few regions of
large frames hold those regions, not the stack.  There is no conversion
to float; analysis code casts the region blocks it needs to float64
itself.

The JSON sidecar (``<stack>.json``) carries the full run configuration;
the digest ties the two files together.  Serialisation is canonical
(sorted keys), so identical inputs produce byte-identical files.  A run
configuration document is made from the config dataclasses themselves:
every field is a key of its section, a nested dataclass is an object and
a tuple is a list; a region holds only its origin and extent, as the
half it lies on is the geometry's to decide.  It is read key by key: an
absent key takes the default declared on its dataclass, and an unknown
key, at the top level or in a section, is a ConfigError.  So is a value
that does not match its field's type hint: an int is no bool, a float
any finite number but a bool, a tuple a list of its length.  Each
message names the section (``experiment.channel``) and the key.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import uuid
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial, reduce
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import model
from .errors import (
    ConfigError,
    CorruptHeaderError,
    DigestMismatchError,
    GeometryError,
    StackFormatError,
    TruncatedPayloadError,
)
from .estimate import (
    AreaScanPoint,
    CalibrationDiagnostics,
    RepeatSummary,
    SpatialMapResult,
)
from .model import COUNT_DTYPE, Region, check_counts
from .simulate import _KIND_CODE, ExperimentConfig, Stack

_MAGIC = b"TBFS"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBIII32s")
# The most frames a stack file can hold: the largest value of the
# header's u32 count field.
MAX_FRAMES = (1 << 8 * struct.calcsize("<I")) - 1
_CODE_TO_KIND = {code: kind for kind, code in _KIND_CODE.items()}

_FMT = "{:.9g}"  # canonical table precision

# ``read_stack``'s read budget per worker: each worker reads the box of
# each frame through one reused buffer of whole frames of about this
# many bytes, filled by one positional read per tile.
_READ_TILE_BYTES = 1 << 19


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def config_bytes(config: dict) -> bytes:
    """Canonical serialisation of a configuration document."""
    return (json.dumps(config, sort_keys=True, indent=2) + "\n").encode()


def config_digest(config: dict) -> bytes:
    return hashlib.sha256(config_bytes(config)).digest()


# ---------------------------------------------------------------------------
# Stack files
# ---------------------------------------------------------------------------

def write_stack(path, blocks, config: dict, count: int | None = None) -> None:
    """Write blocks of frames as one stack file, and its JSON sidecar.

    ``blocks`` is an iterable of Stacks of one kind and frame shape, such
    as ``[stack]`` or the blocks of ``iter_stack``, written one after
    another as they come.  Given ``count``, it is instead a function
    ``fill(put)`` that calls ``put(first, block)``, from any thread, for
    each Stack ``block`` of a stack of ``count`` frames, ``first`` being
    the index of the block's first frame.  Each block is written at its
    frames' place in the file (``os.pwrite``; a short write is an
    OSError), and the header is packed only once every frame is written
    exactly once: a frame left unwritten, written twice or outside the
    stack raises StackFormatError.  A block whose counts are not a 3-D
    ``COUNT_DTYPE`` array, as after a reassignment of ``stack.counts``,
    raises StackFormatError; only the dtype and shape are checked, never
    the values.  Both files are written under temporary names in the
    target directory and renamed over ``path`` and its sidecar only once
    the header is packed: a failed write removes its temporary files and
    leaves whatever was at ``path`` untouched.
    """
    path = Path(path)
    side = sidecar_path(path)
    token = uuid.uuid4().hex
    tmp_stack, tmp_side = (p.with_name(f".{p.name}.{token}.tmp")
                           for p in (path, side))
    try:
        with open(tmp_stack, "xb") as fh:
            _write_payload_and_header(fh, blocks, config, count)
        tmp_side.write_bytes(config_bytes(config))
        os.replace(tmp_stack, path)
        os.replace(tmp_side, side)
    except BaseException:
        tmp_stack.unlink(missing_ok=True)
        tmp_side.unlink(missing_ok=True)
        raise


def _write_payload_and_header(fh, blocks, config: dict, count) -> None:
    """Write each block at its frames' offset after the header, check that
    the blocks agree and hold every frame once, then pack the header."""
    written, layouts = [], set()

    def put(first, stack):
        counts = stack.counts
        check_counts(counts)
        if stack.kind not in _KIND_CODE:
            raise StackFormatError(f"unknown frame kind {stack.kind!r}")
        if counts.size == 0 or first < 0:
            raise StackFormatError(f"cannot write {len(counts)} frames at "
                                   f"frame {first}")
        if os.pwrite(fh.fileno(), np.ascontiguousarray(counts).data,
                     _HEADER.size + first * counts[0].nbytes) != counts.nbytes:
            raise OSError(f"short write of frames {first}+{len(counts)}")
        written.append((first, len(counts)))
        layouts.add((stack.kind, counts.shape[1:]))
        return first + len(counts)

    if count is None:  # one block after another
        count = reduce(put, blocks, 0)
    else:
        blocks(put)
    written.sort()
    if [f for f, _ in written] + [count] != [0] + [f + n for f, n in written]:
        raise StackFormatError(f"the blocks do not hold each of the {count} "
                               "frames once")
    if not 0 < count <= MAX_FRAMES:
        raise StackFormatError(f"cannot write a stack of {count} frames")
    if len(layouts) > 1:
        raise StackFormatError("blocks disagree on kind or frame shape")
    (kind, (rows, cols)), = layouts
    fh.write(_HEADER.pack(_MAGIC, _VERSION, _KIND_CODE[kind], 0,
                          rows, cols, count, config_digest(config)))


def read_stack(path, box: Region | None = None, kind: str | None = None,
               shape: tuple[int, int] | None = None) -> tuple[Stack, str]:
    """Read a frame stack, or the ``box`` of each of its frames; returns
    (stack, config digest hex).

    The header, the file size (``os.fstat``) and the sidecar, when
    present, are checked before any payload byte is read, in that order;
    ``stack.digest_verified`` records whether the sidecar check ran.  A
    header of another kind than ``kind``, when given, raises
    StackFormatError with the header checks.  A ``box`` (a Region of the
    frame) leaving the frame then raises GeometryError, and so do frames
    of another (rows, cols) than ``shape``, when given; without a box the
    whole frame is read.  The payload's tiles of whole frames are dealt
    out to the workers of ``model._run_workers``, which take them from
    one shared iterator.  Each worker reuses one tile buffer of
    ``_READ_TILE_BYTES`` (or one frame if larger), fills it with one
    positional read (``os.preadv``) per tile it takes and copies the box
    of those frames into their frames of the result, so beyond the
    result each worker holds one budget.  A file
    that ends early raises TruncatedPayloadError at the smallest payload
    position a short read stopped at, so the message is the same on any
    CPU count and whichever worker read which tile, and nothing is
    returned.  The counts are a read-only (frames, box rows, box
    cols) u32 array.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptHeaderError(f"{path}: file shorter than the header")
        magic, version, kind_code, _flags, rows, cols, count, digest = \
            _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptHeaderError(f"{path}: unsupported version {version}")
        if kind_code not in _CODE_TO_KIND:
            raise CorruptHeaderError(f"{path}: unknown kind code {kind_code}")
        if kind not in (None, _CODE_TO_KIND[kind_code]):
            raise StackFormatError(f"{path}: header kind "
                                   f"{_CODE_TO_KIND[kind_code]!r}, "
                                   f"expected {kind!r}")
        if 0 in (count, rows, cols):
            raise CorruptHeaderError(f"{path}: empty stack {count}x{rows}x{cols}")
        expected = count * rows * cols * 4
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body < expected:
            raise TruncatedPayloadError(
                f"{path}: payload holds {body} bytes, header declares {expected}")
        if body > expected:
            raise CorruptHeaderError(f"{path}: {body - expected} trailing bytes")

        side = sidecar_path(path)
        verified = side.exists()
        if verified:
            if hashlib.sha256(side.read_bytes()).digest() != digest:
                raise DigestMismatchError(
                    f"{path}: sidecar does not match the stored config digest")

        if box is None:
            box = Region((0, 0), (rows, cols))
        box.check_inside((rows, cols), f"{path}: box")
        if shape not in (None, (rows, cols)):
            raise GeometryError(f"{path}: {rows}x{cols} frames, expected "
                                f"{shape[0]}x{shape[1]}")
        counts = np.empty((count, *box.extent), dtype=COUNT_DTYPE)
        size = max(1, _READ_TILE_BYTES // (rows * cols * 4))
        ends = model._run_workers(
            partial(_read_tiles, fh.fileno(), counts, box, (size, rows, cols)),
            range(0, count, size))
    short = [end for end in ends if end is not None]
    if short:
        raise TruncatedPayloadError(f"{path}: payload ended after "
                                    f"{min(short)} of {expected} bytes")
    counts.flags.writeable = False
    stack = Stack(counts=counts, kind=_CODE_TO_KIND[kind_code],
                  digest_verified=verified)
    return stack, digest.hex()


def _read_tiles(fd, counts, box: Region, tile_shape, firsts):
    """Read the tile of frames starting at each of ``firsts`` from the
    stack file ``fd`` into one buffer of ``tile_shape`` and copy the box
    of each frame into ``counts``.  Returns the payload byte at which a
    short read ended, or None when every tile was read whole."""
    tile = np.empty(tile_shape, dtype=COUNT_DTYPE)
    for first in firsts:
        frames = tile[:len(counts) - first]
        start = first * frames[0].nbytes
        got = os.preadv(fd, [frames], _HEADER.size + start)
        if got != frames.nbytes:  # short only at the end of the file
            return start + got
        counts[first:first + len(frames)] = \
            frames[:, box.row_slice, box.col_slice]
    return None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisParams:
    """Measurement-side parameters accompanying an experiment config."""

    region_s: Region
    z_batches: int = 2
    frames_per_batch: int = 100
    background_frames_per_batch: int = 0
    cs_search_extent: tuple[int, int] = (3, 3)
    areas: tuple[tuple[int, int], ...] = ()
    cosmic_mad_k: float = 10.0
    variance_ddof: int = 1
    tau_s: float = 1.0
    tau_i: float = 1.0

    def __post_init__(self) -> None:
        if self.z_batches < 1:
            raise ConfigError("z_batches must be >= 1")
        if self.frames_per_batch < 2:
            raise ConfigError("frames_per_batch must be >= 2")
        if self.background_frames_per_batch < 0:
            raise ConfigError("background_frames_per_batch must be >= 0")
        if self.background_frames_per_batch == 1:
            raise ConfigError("background_frames_per_batch must be 0 or >= 2")
        if not self.cosmic_mad_k > 0.0:
            raise ConfigError("cosmic_mad_k must be > 0")
        if self.variance_ddof not in (0, 1):
            raise ConfigError("variance_ddof must be 0 or 1")
        if not 0.0 < self.tau_s <= 1.0 or not 0.0 < self.tau_i <= 1.0:
            raise ConfigError("transmittances must be in (0, 1]")


# get_type_hints evaluates every annotation anew on each call, most of
# the time a run config took to load; a config class's hints never change.
_type_hints = cache(get_type_hints)


def _to_doc(obj):
    """A config dataclass as a JSON document: nested dataclasses become
    objects and tuples become lists."""
    if is_dataclass(obj):
        return {f.name: _to_doc(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_doc(v) for v in obj]
    return obj


def _from_doc(kind, doc, section: str):
    """The config dataclass ``kind`` built from its document, the inverse
    of ``_to_doc``, key by key: an absent key takes the dataclass
    default.  An unknown key, a document that is not an object and a
    value that does not match its field's type hint (``_checked``) are
    ConfigErrors naming ``section``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} section: expected an object, "
                          f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(kind)})
    if unknown:
        raise ConfigError(f"{section} section: unknown keys {unknown}")
    hints = _type_hints(kind)
    values = {key: (_from_doc(hints[key], value, f"{section}.{key}")
                    if is_dataclass(hints[key]) else
                    _checked(hints[key], value, f"{section} section: {key}"))
              for key, value in doc.items()}
    try:
        return kind(**values)
    except TypeError as exc:
        raise ConfigError(f"{section} section: {exc}") from exc


def _checked(hint, value, where: str):
    """``value`` read as the type ``hint`` of a config field, or a
    ConfigError naming ``where``.  A tuple is a list of its length, or of
    any length for ``tuple[X, ...]``; ``X | None`` takes null; an int is
    a float, but a bool is neither an int nor a float, and a float is
    finite (JSON's ``NaN`` and ``Infinity`` are refused)."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        any_length = args[-1] is Ellipsis
        if not (isinstance(value, list)
                and (any_length or len(value) == len(args))):
            length = "" if any_length else f" of {len(args)}"
            raise ConfigError(f"{where} must be a list{length}, "
                              f"got {value!r}")
        kinds = args[:1] * len(value) if any_length else args
        return tuple(_checked(k, v, f"{where}[{i}]")
                     for i, (k, v) in enumerate(zip(kinds, value)))
    if get_origin(hint) is UnionType:  # X | None
        if value is None:
            return value
        hint = args[0]
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or \
            not isinstance(value, allowed):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def run_config_to_dict(cfg: ExperimentConfig, params: AnalysisParams) -> dict:
    return {"experiment": _to_doc(cfg), "analysis": _to_doc(params)}


def run_config_from_dict(doc: dict) -> tuple[ExperimentConfig, AnalysisParams]:
    if not isinstance(doc, dict) or not {"experiment", "analysis"} <= doc.keys():
        raise ConfigError("run config needs 'experiment' and 'analysis' sections")
    unknown = sorted(doc.keys() - {"experiment", "analysis"})
    if unknown:
        raise ConfigError(f"run config: unknown top-level keys {unknown}")
    return (_from_doc(ExperimentConfig, doc["experiment"], "experiment"),
            _from_doc(AnalysisParams, doc["analysis"], "analysis"))


def load_run_config(path) -> tuple[ExperimentConfig, AnalysisParams]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return run_config_from_dict(doc)


# ---------------------------------------------------------------------------
# Result tables (CSV, RFC-4180 style: comma separated, dot decimal)
# ---------------------------------------------------------------------------

def _row(values) -> str:
    cells = []
    for v in values:
        if isinstance(v, str):
            cells.append(v)
        elif isinstance(v, (int, np.integer)):
            cells.append(str(int(v)))
        elif v is None:
            cells.append("nan")
        else:
            cells.append(_FMT.format(float(v)))
    return ",".join(cells) + "\n"


def write_calibration_csv(path, summary: RepeatSummary,
                          diagnostics: CalibrationDiagnostics) -> None:
    """One row: the Z-batch estimates with their empirical (standard
    error of the mean) uncertainties, E and the discarded frame count."""
    header = ("eta_s,u_eta_s,eta_i,alpha_b,u_alpha_b,sigma_ab,u_sigma_ab,"
              "E,discarded\n")
    discarded = len(diagnostics.dropped_pdc) + len(diagnostics.dropped_background)
    row = _row([summary.eta_s, summary.u_eta_empirical, summary.eta_i,
                summary.alpha_b, summary.u_alpha_empirical, summary.sigma_ab,
                summary.u_sigma_empirical, diagnostics.excess_noise_ratio,
                discarded])
    Path(path).write_text(header + row)


def write_area_scan_csv(path, points: list[AreaScanPoint]) -> None:
    header = "height,width,coherence_cells,sigma_alpha,sigma_alpha_b\n"
    rows = [_row([p.extent[0], p.extent[1], p.coherence_cells,
                  p.sigma_alpha, p.sigma_alpha_b]) for p in points]
    Path(path).write_text(header + "".join(rows))


def write_cs_map_csv(path, result: SpatialMapResult) -> None:
    # Bare matrix: one row per row displacement, one column per column
    # displacement, so the CSV dimensions equal the search grid.
    rows = [_row(row) for row in result.values]
    Path(path).write_text("".join(rows))


def write_batches_csv(path, summary: RepeatSummary) -> None:
    header = "batch,alpha_b,sigma_ab,eta_s\n"
    rows = [_row([k, a, s, e]) for k, (a, s, e) in enumerate(
        zip(summary.per_batch_alpha, summary.per_batch_sigma,
            summary.per_batch_eta))]
    Path(path).write_text(header + "".join(rows))


def write_side_by_side_csv(path, rows) -> None:
    """Rows of (quantity, reference, u_reference, simulated, u_simulated)."""
    header = "quantity,reference,u_reference,simulated,u_simulated\n"
    Path(path).write_text(header + "".join(_row(r) for r in rows))
