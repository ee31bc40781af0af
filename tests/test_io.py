"""Stack format, run-config and table serialisation tests."""

import dataclasses
import hashlib
import os
import struct
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twincal import io as tio
from twincal.errors import (
    ConfigError,
    CorruptHeaderError,
    DigestMismatchError,
    GeometryError,
    StackFormatError,
    TruncatedPayloadError,
)
from twincal.estimate import (
    AreaScanPoint,
    CalibrationDiagnostics,
    RepeatSummary,
    SpatialMapResult,
)
from twincal.io import (
    AnalysisParams,
    config_bytes,
    config_digest,
    load_run_config,
    read_stack,
    run_config_from_dict,
    run_config_to_dict,
    save_run_config,
    sidecar_path,
    write_area_scan_csv,
    write_calibration_csv,
    write_cs_map_csv,
    write_stack,
)
from twincal import model, presets
from twincal.model import Region
from twincal.simulate import KIND_BACKGROUND, KIND_PDC, Stack

from test_simulate import REFUSED_DTYPES, make_config, refused_counts

HEADER_SIZE = 52


def random_frames(rng, count, rows, cols, kind=KIND_PDC):
    counts = [rng.integers(0, 100_000, (rows, cols)).astype(np.uint32)
              for _ in range(count)]
    return Stack(counts=np.stack(counts), kind=kind)


def reassigned(counts):
    """A Stack whose ``counts`` were replaced after construction, where
    its own dtype check no longer runs."""
    stack = Stack(np.zeros((1, 1, 1), dtype=np.uint32))
    stack.counts = counts
    return stack


def a_config_doc():
    cfg = make_config()
    params = AnalysisParams(region_s=Region((4, 3), (5, 8)))
    return run_config_to_dict(cfg, params)


DELETE = object()

# Edits that make a run-config document refused: the path of the key, its
# new value (DELETE removes it) and the ConfigError message expected.
REFUSED_EDITS = {
    **{f"unknown-key-in-{'.'.join(path)}": (
        (*path, "bogus"), 1,
        rf"^{'[.]'.join(path)} section: unknown keys \['bogus'\]$")
       for path in (("experiment",), ("experiment", "channel"),
                    ("experiment", "modes"), ("experiment", "pulse"),
                    ("experiment", "background"), ("experiment", "geometry"),
                    ("analysis",), ("analysis", "region_s"))},
    "side-in-region_s": (("analysis", "region_s", "side"), "signal",
                         r"^analysis[.]region_s section: unknown keys"),
    "missing-section": (("analysis",), DELETE,
                        "needs 'experiment' and 'analysis' sections"),
    "missing-required-key": (("experiment", "channel", "eta_s"), DELETE,
                             r"^experiment[.]channel section: .*'eta_s'"),
    "missing-required-section": (("experiment", "geometry"), DELETE,
                                 r"^experiment section: .*'geometry'"),
    "list-for-object": (("experiment", "channel"), [0.6, 0.6],
                        r"^experiment[.]channel section: expected an object"),
    "list-for-region": (("analysis", "region_s"), [[4, 3], [5, 8]],
                        r"^analysis[.]region_s section: expected an object"),
    "number-for-list": (("experiment", "modes", "grid"), 5,
                        r"^experiment[.]modes section: "),
    "numbers-for-pairs": (("analysis", "areas"), [1, 2],
                          r"^analysis section: "),
    "unknown-top-level-key": (("extra",), 1,
                              r"^run config: unknown top-level keys \['extra'\]$"),
    # values that do not match their field's type hint
    "string-for-pair": (("analysis", "region_s", "origin"), "ab",
                        r"^analysis[.]region_s section: origin must be a "
                        r"list of 2, got 'ab'$"),
    "object-for-pair": (("analysis", "cs_search_extent"), {"a": 1, "b": 2},
                        r"^analysis section: cs_search_extent must be a "
                        r"list of 2, "),
    "three-for-pair": (("analysis", "cs_search_extent"), [3, 3, 3],
                       r"^analysis section: cs_search_extent must be a "
                       r"list of 2, got \[3, 3, 3\]$"),
    "one-for-pair": (("experiment", "cs_offset"), [1.0],
                     r"^experiment section: cs_offset must be a list of 2, "
                     r"got \[1[.]0\]$"),
    "bool-for-int": (("analysis", "z_batches"), True,
                     r"^analysis section: z_batches must be int, got True$"),
    "float-for-int": (("analysis", "frames_per_batch"), 500.0,
                      r"^analysis section: frames_per_batch must be int, "
                      r"got 500[.]0$"),
    "floats-for-ints": (("experiment", "modes", "grid"), [5.0, 8.0],
                        r"^experiment[.]modes section: grid\[0\] must be "
                        r"int, got 5[.]0$"),
    "bool-in-areas": (("analysis", "areas"), [[1, 1], [2, True]],
                      r"^analysis section: areas\[1\]\[1\] must be int, "
                      r"got True$"),
    "string-for-areas": (("analysis", "areas"), "ab",
                         r"^analysis section: areas must be a list, "
                         r"got 'ab'$"),
    "bool-for-float": (("experiment", "channel", "eta_s"), True,
                       r"^experiment[.]channel section: eta_s must be "
                       r"float, got True$"),
    "string-for-optional-float": (("experiment", "pulse", "gain_const"), "1",
                                  r"^experiment[.]pulse section: gain_const "
                                  r"must be float, got '1'$"),
    "int-for-bool": (("experiment", "background", "straylight_tracks_pulse"),
                     1, r"^experiment[.]background section: "
                        r"straylight_tracks_pulse must be bool, got 1$"),
    "number-for-string": (("experiment", "pulse", "gain_map"), 3,
                          r"^experiment[.]pulse section: gain_map must be "
                          r"str, got 3$"),
    "null-for-int": (("experiment", "master_seed"), None,
                     r"^experiment section: master_seed must be int, "
                     r"got None$"),
    # JSON's Infinity and NaN, which Python reads as floats
    "infinity-for-float": (("experiment", "pulse", "mean_mu"), float("inf"),
                           r"^experiment[.]pulse section: mean_mu must be "
                           r"finite, got inf$"),
    "nan-for-float": (("experiment", "cosmic_ray_rate"), float("nan"),
                      r"^experiment section: cosmic_ray_rate must be finite, "
                      r"got nan$"),
}


def edited_config_doc(path, value):
    """``a_config_doc()`` with the key at ``path`` set to ``value``, or
    removed when ``value`` is DELETE."""
    doc = a_config_doc()
    *parents, key = path
    section = doc
    for name in parents:
        section = section[name]
    if value is DELETE:
        del section[key]
    else:
        section[key] = value
    return doc


class TestStackRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = random_frames(rng, 10, 7, 12)
        path = tmp_path / "stack.tbs"
        write_stack(path, [frames], a_config_doc())
        back, digest = read_stack(path)
        assert len(back.counts) == 10
        assert digest == config_digest(a_config_doc()).hex()
        assert np.array_equal(frames.counts, back.counts)
        assert back.kind == KIND_PDC
        assert back.counts.shape == (10, 7, 12)
        assert back.digest_verified

    def test_file_size_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, 4000, 13, 30)
        path = tmp_path / "stack.tbs"
        write_stack(path, [frames], a_config_doc())
        assert path.stat().st_size == HEADER_SIZE + 4000 * 13 * 30 * 4

    def test_background_kind_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = random_frames(rng, 3, 4, 6, kind=KIND_BACKGROUND)
        path = tmp_path / "bg.tbs"
        write_stack(path, [frames], a_config_doc())
        back, _ = read_stack(path)
        assert back.kind == KIND_BACKGROUND

    def test_writes_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = random_frames(rng, 5, 6, 8)
        p1, p2 = tmp_path / "a.tbs", tmp_path / "b.tbs"
        write_stack(p1, [frames], a_config_doc())
        write_stack(p2, [frames], a_config_doc())
        assert p1.read_bytes() == p2.read_bytes()
        assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()

    def test_u32_block_is_written_as_its_bytes(self, tmp_path):
        # no value pass: the payload is the block's own bytes, extremes too
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 2 ** 32, (6, 5, 7), dtype=np.uint32)
        counts[0, 0, :2] = (0, 2 ** 32 - 1)
        path = tmp_path / "u32.tbs"
        write_stack(path, [Stack(counts)], a_config_doc())
        assert path.read_bytes()[HEADER_SIZE:] == counts.astype("<u4").tobytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(1, 8),
           count=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    def test_round_trip_property(self, tmp_path_factory, rows, cols, count, seed):
        rng = np.random.default_rng(seed)
        frames = Stack(np.stack([rng.integers(0, 2 ** 32, (rows, cols),
                                              dtype=np.uint64).astype(np.uint32)
                                 for _ in range(count)]))
        path = tmp_path_factory.mktemp("rt") / "stack.tbs"
        write_stack(path, [frames], {"seed": seed})
        back, _ = read_stack(path)
        assert np.array_equal(frames.counts, back.counts)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-10])


def _cut_header(path):
    path.write_bytes(path.read_bytes()[:20])


def _bad_magic(path):
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])


def _trailing(path):
    path.write_bytes(path.read_bytes() + b"xx")


def _tamper_sidecar(path):
    side = sidecar_path(path)
    side.write_text(side.read_text().replace("1234", "9999"))


def _zero_rows(path):
    path.write_bytes(path.read_bytes()[:8] + bytes(4)
                     + path.read_bytes()[12:HEADER_SIZE])


class TestStackErrors:
    def write_valid(self, tmp_path):
        rng = np.random.default_rng(4)
        frames = random_frames(rng, 4, 5, 6)
        path = tmp_path / "stack.tbs"
        write_stack(path, [frames], a_config_doc())
        return path

    def test_truncated_payload(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedPayloadError):
            read_stack(path)

    def test_truncated_header(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CorruptHeaderError):
            read_stack(path)

    def test_bad_magic(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeaderError):
            read_stack(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptHeaderError):
            read_stack(path)

    def test_digest_mismatch(self, tmp_path):
        path = self.write_valid(tmp_path)
        side = sidecar_path(path)
        side.write_text(side.read_text().replace("1234", "9999"))
        with pytest.raises(DigestMismatchError):
            read_stack(path)

    def test_missing_sidecar_is_tolerated(self, tmp_path):
        path = self.write_valid(tmp_path)
        sidecar_path(path).unlink()
        frames, digest = read_stack(path)
        assert len(frames.counts) == 4 and len(digest) == 64
        assert not frames.digest_verified

    def test_wrong_kind_is_refused_before_the_size_check(self, tmp_path):
        # the kind is a header check: a file one byte short reports the
        # kind, not its size
        path = self.write_valid(tmp_path)  # pdc_on
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(StackFormatError) as refused:
            read_stack(path, kind=KIND_BACKGROUND)
        assert type(refused.value) is StackFormatError
        assert str(refused.value) == (f"{path}: header kind 'pdc_on', "
                                      "expected 'background'")
        with pytest.raises(TruncatedPayloadError):
            read_stack(path, kind=KIND_PDC)

    def test_the_expected_kind_reads_the_stack(self, tmp_path):
        path = self.write_valid(tmp_path)
        whole, digest = read_stack(path)
        for kind in (None, KIND_PDC):
            back, back_digest = read_stack(path, kind=kind)
            assert np.array_equal(back.counts, whole.counts)
            assert back.kind == KIND_PDC and back_digest == digest

    def test_frame_ceiling_is_the_largest_header_count(self):
        fields = (b"TBFS", 1, 0, 0, 5, 6)  # magic .. cols
        tio._HEADER.pack(*fields, tio.MAX_FRAMES, bytes(32))
        with pytest.raises(struct.error):
            tio._HEADER.pack(*fields, tio.MAX_FRAMES + 1, bytes(32))
        assert tio.MAX_FRAMES == 2 ** 32 - 1

    def test_non_integral_counts_rejected(self, tmp_path):
        frame = reassigned(np.array([[[1.5, 2.0]]]))
        with pytest.raises(StackFormatError):
            write_stack(tmp_path / "x.tbs", [frame], {})

    def test_out_of_range_counts_rejected(self, tmp_path):
        frame = reassigned(np.array([[[float(2 ** 32), 0.0]]]))
        with pytest.raises(StackFormatError):
            write_stack(tmp_path / "x.tbs", [frame], {})

    @pytest.mark.parametrize("dtype", REFUSED_DTYPES)
    def test_counts_other_than_u32_are_refused(self, tmp_path, dtype):
        frame = reassigned(refused_counts(dtype, (2, 5, 6)))
        with pytest.raises(StackFormatError, match="<u4"):
            write_stack(tmp_path / "x.tbs", [frame], {})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5, 6)])
    @pytest.mark.parametrize("first", [True, False])
    def test_counts_that_are_not_3d_are_refused(self, tmp_path, shape, first):
        # a u32 array of the wrong rank, alone or after a good block
        blocks = [reassigned(np.zeros(shape, np.uint32))]
        if not first:
            blocks.insert(0, Stack(np.ones((3, 5, 6), np.uint32)))
        with pytest.raises(StackFormatError, match=r"\(frames, rows, cols\)"):
            write_stack(tmp_path / "x.tbs", blocks, a_config_doc())
        assert list(tmp_path.iterdir()) == []

    def test_empty_stack_rejected(self, tmp_path):
        for blocks in ([Stack(np.zeros((0, 2, 2), dtype=np.uint32))], []):
            with pytest.raises(StackFormatError):
                write_stack(tmp_path / "x.tbs", blocks, {})

    @pytest.mark.parametrize("second", [
        Stack(np.ones((2, 5, 6), np.uint32), kind=KIND_BACKGROUND),  # kind
        Stack(np.ones((2, 6, 5), np.uint32)),             # another shape
        reassigned(np.full((2, 5, 6), 0.5)),              # non-integral
        reassigned(np.full((2, 5, 6), -1.0)),             # out of range
        Stack(np.ones((0, 5, 6), np.uint32)),             # empty
    ])
    def test_failed_block_leaves_nothing_readable(self, tmp_path, second):
        # the first block is on disk when the second one fails its check;
        # it was written under a temporary name, which the failure removes
        path = tmp_path / "x.tbs"
        with pytest.raises(StackFormatError):
            write_stack(path, [Stack(np.ones((3, 5, 6), np.uint32)), second],
                        a_config_doc())
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(FileNotFoundError):
            read_stack(path)

    def test_failed_rewrite_keeps_the_old_stack(self, tmp_path):
        path = tmp_path / "x.tbs"
        old = Stack(np.arange(90, dtype=np.uint32).reshape(3, 5, 6))
        write_stack(path, [old], a_config_doc())
        before = path.read_bytes(), sidecar_path(path).read_bytes()
        with pytest.raises(StackFormatError):
            write_stack(path, [reassigned(np.full((2, 5, 6), 0.5))],
                        {"other": 1})
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        back, _ = read_stack(path)
        assert back.digest_verified and np.array_equal(back.counts, old.counts)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["x.tbs", "x.tbs.json"]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(StackFormatError, match="unknown frame kind"):
            write_stack(tmp_path / "x.tbs",
                        [Stack(np.ones((2, 5, 6), np.uint32), kind="dark")],
                        {})
        assert not sidecar_path(tmp_path / "x.tbs").exists()

    @pytest.mark.parametrize("field_offset", [8, 12, 16])  # rows, cols, count
    def test_empty_stack_header_rejected(self, tmp_path, field_offset):
        # A header declaring zero rows, columns or frames with the (empty)
        # payload it implies is as unreadable as the writer says it is.
        path = self.write_valid(tmp_path)
        header = bytearray(path.read_bytes()[:HEADER_SIZE])
        header[field_offset:field_offset + 4] = bytes(4)
        path.write_bytes(bytes(header))
        with pytest.raises(CorruptHeaderError, match="empty stack"):
            read_stack(path)

    @pytest.mark.parametrize("corrupt, error", [
        (_truncate, TruncatedPayloadError),
        (_cut_header, CorruptHeaderError),
        (_bad_magic, CorruptHeaderError),
        (_trailing, CorruptHeaderError),
        (_tamper_sidecar, DigestMismatchError),
        (_zero_rows, CorruptHeaderError),
    ])
    @pytest.mark.parametrize("box", [Region((1, 2), (3, 3)),
                                     Region((0, 0), (9, 9))])
    def test_file_errors_win_over_the_box(self, tmp_path, corrupt, error,
                                          box):
        # the same error, message included, with or without a box, and
        # before a box leaving the frame is noticed
        path = self.write_valid(tmp_path)
        corrupt(path)
        with pytest.raises(error) as whole:
            read_stack(path)
        with pytest.raises(error) as boxed:
            read_stack(path, box)
        assert str(boxed.value) == str(whole.value)

    @pytest.mark.parametrize("box", [
        Region((0, 0), (5, 7)), Region((0, 1), (5, 6)), Region((1, 0), (5, 6)),
        Region((-1, 0), (2, 2)), Region((0, -1), (2, 2)),
    ])
    def test_box_leaving_the_frame_raises(self, tmp_path, box):
        path = self.write_valid(tmp_path)  # 4 frames of 5x6
        with pytest.raises(GeometryError, match="leaves the 5x6 frame"):
            read_stack(path, box)

    @pytest.mark.parametrize("box", [None, Region((1, 1), (2, 3))])
    def test_frames_of_another_shape_are_refused_before_the_payload(
            self, tmp_path, monkeypatch, box):
        # frames that hold the box but are not of the expected shape are
        # refused with the header checks: no payload byte is read
        path = self.write_valid(tmp_path)  # 4 frames of 5x6
        whole = read_stack(path, box)[0].counts

        def payload_read(fd, buffers, offset):
            raise AssertionError("payload read")

        # the payload's one read call; the last read below shows the spy
        # sees a payload read
        monkeypatch.setattr(os, "preadv", payload_read)
        for shape in ((5, 7), (6, 6), (4, 6)):
            with pytest.raises(GeometryError) as refused:
                read_stack(path, box, shape=shape)
            assert str(refused.value) == (
                f"{path}: 5x6 frames, expected {shape[0]}x{shape[1]}")
        with pytest.raises(AssertionError, match="payload read"):
            read_stack(path, box, shape=(5, 6))
        monkeypatch.undo()
        assert np.array_equal(read_stack(path, box, shape=(5, 6))[0].counts,
                              whole)

    @pytest.mark.parametrize("box", [None, Region((1, 1), (2, 3))])
    def test_a_payload_that_ends_early_returns_nothing(self, tmp_path,
                                                       monkeypatch, box):
        # the file shrinks after its size was checked: a read comes up
        # short, and that is an error, not a part stack.  With 280 bytes
        # cut, three one-frame tiles come up short on up to three
        # workers, and the message still names where the payload ends.
        path = self.write_valid(tmp_path)
        full = path.stat().st_size
        payload = path.read_bytes()
        monkeypatch.setattr(os, "fstat",
                            lambda fd: types.SimpleNamespace(st_size=full))
        for workers in (1, 2, 3):
            monkeypatch.setattr(model, "_cpu_count", lambda: workers)
            monkeypatch.setattr(tio, "_READ_TILE_BYTES", 5 * 6 * 4)
            for cut, left in ((10, 470), (280, 200)):
                path.write_bytes(payload[:-cut])
                with pytest.raises(TruncatedPayloadError, match="payload "
                                   f"ended after {left} of 480 bytes"):
                    read_stack(path, box)




def fill_of(firsts, block):
    """A ``write_stack`` fill that puts ``block`` at each frame of
    ``firsts``, in that order."""
    def fill(put):
        for first in firsts:
            put(first, block)
    return fill


class TestPositionalWrites:
    def test_blocks_put_from_threads_in_any_order(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor
        frames = random_frames(np.random.default_rng(6), 9, 4, 6)
        firsts = [8, 2, 0, 6, 4]  # blocks of two frames, the last one of one

        def fill(put):
            with ThreadPoolExecutor(3) as pool:
                list(pool.map(lambda f: put(f, Stack(frames.counts[f:f + 2])),
                              firsts))

        write_stack(tmp_path / "pooled.tbs", fill, a_config_doc(), 9)
        write_stack(tmp_path / "whole.tbs", [frames], a_config_doc())
        assert (tmp_path / "pooled.tbs").read_bytes() == \
            (tmp_path / "whole.tbs").read_bytes()

    @pytest.mark.parametrize("firsts", [
        [0, 4], [4, 0], [0, 2], [],           # a frame left unwritten
        [0, 2, 2, 4], [0, 1, 3, 4], [0, 2, 4, 0],  # one written twice
        [0, 2, 5],                            # one past the end
    ])
    def test_a_frame_missed_or_written_twice_is_refused(self, tmp_path,
                                                         firsts):
        # the header is packed only for a payload every frame of which was
        # written once; a refused fill leaves the earlier stack as it was
        path = tmp_path / "x.tbs"
        old = Stack(np.arange(90, dtype=np.uint32).reshape(3, 5, 6))
        write_stack(path, [old], a_config_doc())
        before = path.read_bytes(), sidecar_path(path).read_bytes()
        block = Stack(np.ones((2, 5, 6), np.uint32))
        with pytest.raises(StackFormatError,
                           match="do not hold each of the 6 frames once"):
            write_stack(path, fill_of(firsts, block), {"other": 1}, 6)
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["x.tbs", "x.tbs.json"]

    def test_a_negative_frame_is_refused_before_it_is_written(self, tmp_path):
        block = Stack(np.ones((2, 5, 6), np.uint32))
        with pytest.raises(StackFormatError,
                           match="cannot write 2 frames at frame -2"):
            write_stack(tmp_path / "x.tbs", fill_of([0, -2, 2], block),
                        a_config_doc(), 4)
        assert list(tmp_path.iterdir()) == []

    def test_a_short_write_is_an_os_error(self, tmp_path, monkeypatch):
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset:
                            pwrite(fd, data, offset) - 1)
        block = Stack(np.ones((2, 5, 6), np.uint32))
        with pytest.raises(OSError, match=r"short write of frames 2[+]2"):
            write_stack(tmp_path / "x.tbs", fill_of([2], block),
                        a_config_doc(), 4)
        assert list(tmp_path.iterdir()) == []


class TestBoxRead:
    """``read_stack(path, box)`` against the box sliced from a whole read."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7),
           count=st.integers(1, 23), seed=st.integers(0, 2 ** 16),
           workers=st.integers(1, 3))
    def test_box_equals_the_slice_of_a_whole_read(
            self, tmp_path_factory, data, rows, cols, count, seed, workers):
        rng = np.random.default_rng(seed)
        frames = Stack(rng.integers(0, 2 ** 32, (count, rows, cols),
                                    dtype=np.uint64).astype(np.uint32))
        path = tmp_path_factory.mktemp("box") / "stack.tbs"
        write_stack(path, [frames], a_config_doc())
        r0 = data.draw(st.integers(0, rows - 1))
        c0 = data.draw(st.integers(0, cols - 1))
        box = Region((r0, c0), (data.draw(st.integers(1, rows - r0)),
                                data.draw(st.integers(1, cols - c0))))
        # tiles of 1 to 4 frames per worker, so most stacks end in a part
        # tile, dealt out to 1 to 3 workers
        tile = data.draw(st.integers(1, 4 * rows * cols * 4 + 3))
        whole, digest = read_stack(path)
        with mock.patch.object(tio, "_READ_TILE_BYTES", tile), \
                mock.patch.object(model, "_cpu_count", lambda: workers):
            back, box_digest = read_stack(path, box)
            assert np.array_equal(read_stack(path)[0].counts, frames.counts)
        assert np.array_equal(whole.counts, frames.counts)
        want = whole.counts[:, box.row_slice, box.col_slice]
        assert back.counts.dtype == np.dtype("<u4")
        assert back.counts.shape == want.shape
        assert np.array_equal(back.counts, want)
        assert not back.counts.flags.writeable
        assert (back.kind, back.digest_verified, box_digest) == \
            (whole.kind, whole.digest_verified, digest)

    def test_eight_readers_under_a_short_switch_interval(self, tmp_path,
                                                         monkeypatch):
        # eight workers copy the boxes of their one-frame tiles into one
        # shared result; a lost or misplaced frame changes the counts
        monkeypatch.setattr(model, "_cpu_count", lambda: 8)
        monkeypatch.setattr(tio, "_READ_TILE_BYTES", 7 * 9 * 4)
        frames = random_frames(np.random.default_rng(5), 301, 7, 9)
        path = tmp_path / "stack.tbs"
        write_stack(path, [frames], a_config_doc())
        box = Region((1, 2), (5, 6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            backs = [read_stack(path, box)[0].counts for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for back in backs:
            assert np.array_equal(back, frames.counts[:, 1:6, 2:8])


def round_trip(cfg, params):
    return run_config_from_dict(run_config_to_dict(cfg, params))


A_PARAMS = AnalysisParams(region_s=Region((4, 3), (5, 8)))


class TestRunConfig:
    def test_experiment_round_trip(self):
        cfg = make_config(jitter=0.1, straylight=300.0, tracks=True,
                          read_noise=4.0, binning=2, idler_ratio=0.89,
                          cs_offset=(1.5, -0.5), cosmic_rate=0.02, seed=77)
        assert round_trip(cfg, A_PARAMS)[0] == cfg

    def test_sinh2_pulse_round_trip(self):
        cfg = make_config(gain_map="sinh2", gain_const=1.06, jitter=0.1)
        assert round_trip(cfg, A_PARAMS)[0] == cfg

    def test_analysis_round_trip(self):
        params = AnalysisParams(region_s=Region((4, 3), (5, 8)),
                                z_batches=8, frames_per_batch=500,
                                background_frames_per_batch=500,
                                cs_search_extent=(2, 2),
                                areas=((1, 1), (5, 8)),
                                cosmic_mad_k=12.0, variance_ddof=0,
                                tau_s=0.95, tau_i=0.97)
        assert round_trip(make_config(), params)[1] == params

    def test_file_round_trip(self, tmp_path):
        cfg = make_config(seed=11)
        params = AnalysisParams(region_s=Region((4, 3), (5, 8)))
        path = tmp_path / "run.json"
        save_run_config(path, cfg, params)
        cfg2, params2 = load_run_config(path)
        assert cfg2 == cfg and params2 == params

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": }\n')
        with pytest.raises(ConfigError, match=r":2:"):
            load_run_config(path)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="sections"):
            run_config_from_dict({"experiment": {}})

    def test_unknown_keys_are_config_errors(self):
        for section, key in (("analysis", "frames_per_bach"),
                             ("experiment", "cosmic_rate")):
            doc = a_config_doc()
            doc[section][key] = 1
            with pytest.raises(ConfigError, match=key):
                run_config_from_dict(doc)
        for key, value in (("extnt", [1, 1]), ("side", "idler")):
            doc = a_config_doc()
            doc["analysis"]["region_s"][key] = value
            with pytest.raises(ConfigError, match=key):
                run_config_from_dict(doc)

    @pytest.mark.parametrize("path, value, message",
                             REFUSED_EDITS.values(), ids=REFUSED_EDITS)
    def test_refused_documents_name_their_section(self, path, value,
                                                  message):
        with pytest.raises(ConfigError, match=message):
            run_config_from_dict(edited_config_doc(path, value))

    def test_a_document_that_is_not_an_object_is_a_config_error(self):
        for doc in (["experiment", "analysis"], 5, None):
            with pytest.raises(ConfigError, match="sections"):
                run_config_from_dict(doc)

    def test_reference_document_digest_is_pinned(self):
        # the format of every sidecar and .tbs header digest
        doc = run_config_to_dict(presets.reference_experiment(),
                                 presets.reference_analysis())
        assert config_digest(doc).hex() == (
            "bb42741caf6d60d98a84499db34c5a75060b964f60b93ae0c52ac4c7fa073144")

    def test_absent_keys_take_the_dataclass_defaults(self):
        doc = a_config_doc()
        exp, ana = doc["experiment"], doc["analysis"]
        for key in ("cs_offset", "cosmic_ray_rate", "master_seed"):
            del exp[key]
        ana = {"region_s": ana["region_s"]}
        exp, ana = run_config_from_dict({"experiment": exp, "analysis": ana})
        assert exp == dataclasses.replace(make_config(), master_seed=0)
        assert ana == AnalysisParams(region_s=Region((4, 3), (5, 8)))

    def test_ints_load_as_floats_and_null_as_none(self):
        # an int where a float belongs is kept as it is, so the document
        # round-trips byte for byte
        doc = edited_config_doc(("experiment", "geometry", "cs"), [6, 14.5])
        doc["experiment"]["channel"]["eta_s"] = 1
        exp, ana = run_config_from_dict(doc)
        assert exp.geometry.cs == (6, 14.5) and exp.channel.eta_s == 1
        assert exp.pulse.gain_const is None
        assert config_bytes(run_config_to_dict(exp, ana)) == config_bytes(doc)

    def test_invalid_values_are_config_errors(self):
        doc = a_config_doc()
        doc["analysis"]["z_batches"] = 0
        with pytest.raises(ConfigError):
            run_config_from_dict(doc)

    def test_canonical_bytes_are_stable(self):
        doc = a_config_doc()
        assert config_bytes(doc) == config_bytes(
            dict(reversed(list(doc.items()))))


class TestTables:
    def result(self):
        per_batch = np.zeros(8)
        summary = RepeatSummary(
            eta_s=0.613211111, eta_i=0.609632222, alpha_b=0.994163333,
            sigma_ab=0.384744444, u_eta_empirical=0.011,
            u_alpha_empirical=4e-05, u_sigma_empirical=0.011,
            u_alpha_propagated=5e-05, u_sigma_propagated=0.012,
            u_eta_propagated=0.012, per_batch_alpha=per_batch,
            per_batch_sigma=per_batch, per_batch_eta=per_batch)
        cs_map = SpatialMapResult(values=np.zeros((1, 1)),
                                  argmin=(0, 0), min_value=0.0, ties=[(0, 0)],
                                  curvature=None)
        return summary, CalibrationDiagnostics(
            excess_noise_ratio=5123.4, thermal_excess=1.25,
            dropped_pdc=[5, 17, 230], dropped_background=[41], cs_map=cs_map)

    def test_calibration_schema(self, tmp_path):
        path = tmp_path / "calibration.csv"
        write_calibration_csv(path, *self.result())
        header, row = path.read_text().splitlines()
        assert header.split(",") == ["eta_s", "u_eta_s", "eta_i", "alpha_b",
                                     "u_alpha_b", "sigma_ab", "u_sigma_ab",
                                     "E", "discarded"]
        cells = row.split(",")
        assert cells[0] == "0.613211111"  # nine significant digits
        assert cells[-1] == "4"

    def test_area_scan_schema(self, tmp_path):
        points = [AreaScanPoint((1, 1), 0.25, 0.92, 0.91),
                  AreaScanPoint((5, 8), 10.0, 0.41, None)]
        path = tmp_path / "scan.csv"
        write_area_scan_csv(path, points)
        lines = path.read_text().splitlines()
        assert lines[0] == "height,width,coherence_cells,sigma_alpha,sigma_alpha_b"
        assert len(lines) == 3
        assert lines[2].endswith(",nan")

    def test_cs_map_dimensions(self, tmp_path):
        values = np.arange(15.0).reshape(3, 5)
        result = SpatialMapResult(values=values,
                                  argmin=(-1, -2), min_value=0.0,
                                  ties=[(-1, -2)], curvature=None)
        path = tmp_path / "map.csv"
        write_cs_map_csv(path, result)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 5 for line in lines)
