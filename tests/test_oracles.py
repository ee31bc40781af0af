"""Estimators against their reference implementations.

The vectorised stack estimators are checked against per-frame loops.
Every stack case is fed as the read-only ``<u4`` view ``read_stack``
returns, so an unsigned difference that wraps around would show up as a
mismatch.  The
analytic delta method is checked against the central-difference gradient
of the raw-moment formulas.  The chunked cosmic-ray filter is checked
against the former whole-stack filter, with the per-pixel shot-noise
floor, on any u32 counts, and the u32 middle pair its medians and MADs
come from against ``np.median``; the frames it drops on rendered stacks
are checked against the same seed rendered without cosmic rays.  The tiled spatial map is checked bit for bit against
the map's definition in Python integers, on any counts and any worker
count, and against the former ``np.var`` maps to a relative 1e-10 and
by the minimum they locate.
"""

import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twincal import estimate, model
from twincal.errors import (
    DegenerateDataError,
    DomainError,
    GeometryError,
    StackFormatError,
)
from twincal.estimate import (
    _middle_pair,
    anchored_region,
    area_pairs,
    area_scan,
    build_series,
    cosmic_ray_filter,
    estimate_alpha,
    estimate_alpha_b,
    estimate_sigma_alpha,
    estimate_sigma_alpha_b,
    propagate_type_a,
    RegionPairSeries,
    repeat_experiment,
    sigma_spatial_map,
)
from twincal.model import FrameGeometry, Region
from twincal.presets import reference_experiment
from twincal.io import read_stack, write_stack
from twincal.simulate import (
    KIND_BACKGROUND,
    KIND_PDC,
    Stack,
    generate_stack,
    iter_stack,
)

import reference_estimators as ref
from test_io import a_config_doc
from test_simulate import REFUSED_DTYPES, inject_cosmic_ray, refused_counts


def as_inputs(counts):
    """The counts as the stack inputs to test: a read-only little-endian
    u32 view."""
    u4 = np.frombuffer(counts.astype("<u4").tobytes(), dtype="<u4")
    return (u4.reshape(counts.shape),)


@st.composite
def stack_cases(draw, min_frames=1):
    """A mirrored frame geometry, a signal region, a search extent that
    keeps every displaced idler region inside its half, and counts."""
    rows = draw(st.integers(1, 7))
    half = draw(st.integers(1, 6))
    geometry = FrameGeometry(rows=rows, cols=2 * half,
                             cs=((rows - 1) / 2.0, half - 0.5),
                             beam_split=half)
    h = draw(st.integers(1, rows))
    w = draw(st.integers(1, half))
    region = Region((draw(st.integers(0, rows - h)),
                     draw(st.integers(0, half - w))), (h, w))
    conj = geometry.conjugate_region(region)
    er = draw(st.integers(0, min(conj.origin[0], rows - h - conj.origin[0])))
    ec = draw(st.integers(0, min(conj.origin[1] - half,
                                 2 * half - w - conj.origin[1])))
    frames = draw(st.integers(min_frames, 6))
    high = draw(st.sampled_from([3, 50, 2 ** 20, 2 ** 32]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, high, (frames, rows, 2 * half), dtype=np.uint64)
    return geometry, region, (er, ec), counts


@settings(max_examples=200, deadline=None)
@given(stack_cases())
def test_spatial_map_matches_per_frame_loop(case):
    # np.var's rounding can split an exact tie, so the minimum and its
    # ties come from the exact map
    geometry, region, extent, counts = case
    try:
        values, _, _ = ref.spatial_map(counts, region, geometry, extent)
    except DegenerateDataError:
        for frames in as_inputs(counts):
            with pytest.raises(DegenerateDataError):
                sigma_spatial_map(frames, region, geometry, extent)
        return
    exact = ref.exact_spatial_map(counts, region, geometry, extent)
    for frames in as_inputs(counts):
        result = sigma_spatial_map(frames, region, geometry, extent)
        np.testing.assert_allclose(result.values, values, rtol=1e-10, atol=0)
        assert result.argmin == exact.argmin
        assert result.ties == exact.ties


@settings(max_examples=200, deadline=None)
@given(stack_cases(min_frames=2), st.data())
def test_series_are_bit_identical(case, data):
    geometry, region, _, counts = case
    counts = np.maximum(counts, 1)  # positive means: estimators defined
    bg = counts[::-1] // 2
    conj = geometry.conjugate_region(region)
    # kept frames as cosmic_ray_filter returns them: ascending indices
    kept, bg_kept = (np.array(sorted(data.draw(st.sets(
        st.integers(0, len(counts) - 1), min_size=2)))) for _ in range(2))
    for frames, bg_frames in zip(as_inputs(counts), as_inputs(bg)):
        series = build_series(frames, region, conj, bg_frames)
        for got, want in ((series.n_s, ref.region_sums(counts, region)),
                          (series.n_i, ref.region_sums(counts, conj)),
                          (series.m_s, ref.region_sums(bg, region)),
                          (series.m_i, ref.region_sums(bg, conj))):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
        series = build_series(frames, region, conj, bg_frames, kept, bg_kept)
        for got, want in (
                (series.n_s, ref.region_sums(counts[kept], region)),
                (series.n_i, ref.region_sums(counts[kept], conj)),
                (series.m_s, ref.region_sums(bg[bg_kept], region)),
                (series.m_i, ref.region_sums(bg[bg_kept], conj))):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    h, w = region.extent
    extents = data.draw(st.lists(
        st.tuples(st.integers(1, h), st.integers(1, w)), min_size=1,
        max_size=4))
    extents.sort(key=lambda e: e[0] * e[1])
    pairs = area_pairs(geometry, region.center, extents)
    want = []
    for extent in extents:
        sub = anchored_region(region.center, extent)
        try:
            want.append(estimate_sigma_alpha(RegionPairSeries(
                ref.region_sums(counts, sub),
                ref.region_sums(counts, geometry.conjugate_region(sub)))))
        except DegenerateDataError:
            for frames in as_inputs(counts):
                with pytest.raises(DegenerateDataError):
                    area_scan(frames, None, pairs)
            return
    for frames in as_inputs(counts):
        points = area_scan(frames, None, pairs)
        assert [p.sigma_alpha for p in points] == want


@settings(max_examples=200, deadline=None)
@given(stack_cases(), st.sampled_from([1, 2, 4, None]))
def test_spatial_map_matches_whole_stack_kernel_bit_for_bit(case, tile):
    # tiles of 1, 2 and 4 frames split stacks of 1-6 frames into one-frame
    # tiles and partial last tiles; None keeps the default budget
    geometry, region, extent, counts = case
    budget = estimate._SPATIAL_TILE_ELEMENTS
    if tile is not None:
        budget = tile * (region.extent[0] + 2 * extent[0]) * (
            region.extent[1] + 2 * extent[1])
    try:
        want = ref.exact_spatial_map(counts, region, geometry, extent)
    except DegenerateDataError:
        want = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS", budget)
        for frames in as_inputs(counts):
            if want is None:
                with pytest.raises(DegenerateDataError):
                    sigma_spatial_map(frames, region, geometry, extent)
                continue
            got = sigma_spatial_map(frames, region, geometry, extent)
            assert np.array_equal(got.values, want.values)
            assert got.argmin == want.argmin
            assert got.ties == want.ties
            assert got.min_value == want.min_value
            assert got.curvature == want.curvature


@pytest.mark.parametrize("dtype", REFUSED_DTYPES)
def test_spatial_map_refuses_counts_other_than_u32(dtype):
    geometry = FrameGeometry(rows=4, cols=8, cs=(1.5, 3.5), beam_split=4)
    region = Region((1, 1), (2, 2))
    with pytest.raises(StackFormatError, match="<u4"):
        sigma_spatial_map(refused_counts(dtype, (5, 4, 8)), region, geometry,
                          (1, 0))


@pytest.mark.parametrize("shape", [(4, 8), (5, 4, 8, 1)])
def test_spatial_map_refuses_u32_counts_that_are_not_3d(shape):
    geometry = FrameGeometry(rows=4, cols=8, cs=(1.5, 3.5), beam_split=4)
    region = Region((1, 1), (2, 2))
    with pytest.raises(StackFormatError, match=r"\(frames, rows, cols\)"):
        sigma_spatial_map(np.zeros(shape, np.uint32), region, geometry, (1, 0))


def test_all_zero_region_pair_is_degenerate():
    geometry = FrameGeometry(rows=4, cols=8, cs=(1.5, 3.5), beam_split=4)
    region = Region((1, 1), (2, 2))
    counts = np.full((5, 4, 8), 9, dtype=np.uint64)
    conj = geometry.conjugate_region(region)
    counts[3, region.row_slice, region.col_slice] = 0
    counts[3, conj.row_slice, conj.col_slice] = 0
    for frames in as_inputs(counts):
        with pytest.raises(DegenerateDataError):
            sigma_spatial_map(frames, region, geometry, (0, 0))


def test_empty_stack_is_degenerate():
    geometry = FrameGeometry(rows=4, cols=8, cs=(1.5, 3.5), beam_split=4)
    with pytest.raises(DegenerateDataError):
        sigma_spatial_map(np.zeros((0, 4, 8), dtype=np.uint32),
                          Region((1, 1), (2, 2)),
                          geometry, (1, 0))


@st.composite
def twin_series(draw):
    """Twin-beam region sums with shared pulse jitter and straylight, from
    a few counts up to the reference scale, with or without a background
    series, and a variance convention."""
    n = draw(st.integers(20, 1000))
    mean = 10.0 ** draw(st.floats(1.0, np.log10(3e5)))
    jitter = draw(st.floats(0.0, 0.15))
    eta_s, eta_i = draw(st.floats(0.3, 0.9)), draw(st.floats(0.3, 0.9))
    stray = mean * draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    energy = np.maximum(rng.normal(1.0, jitter, n), 0.05)
    pairs = rng.poisson(mean * energy)
    kwargs = {}
    if draw(st.booleans()):
        m = draw(st.integers(20, 1000))
        kwargs = {"m_s": rng.poisson(stray, m).astype(float),
                  "m_i": rng.poisson(0.9 * stray, m).astype(float)}
    series = RegionPairSeries(
        (rng.binomial(pairs, eta_s) + rng.poisson(stray * energy)).astype(float),
        (rng.binomial(pairs, eta_i)
         + rng.poisson(0.9 * stray * energy)).astype(float), **kwargs)
    return series, draw(st.sampled_from([0, 1]))


def stacked(*series):
    """The batched series of ``series``, one experiment per row."""
    return RegionPairSeries(*(
        None if arrays[0] is None else np.stack(arrays)
        for arrays in zip(*((s.n_s, s.n_i, s.m_s, s.m_i) for s in series))))


@settings(max_examples=200, deadline=None)
@given(twin_series())
def test_delta_method_matches_finite_difference_reference(case):
    series, ddof = case
    corrected = series.has_background
    alpha_of, sigma_of = ((estimate_alpha_b, estimate_sigma_alpha_b)
                          if corrected else
                          (estimate_alpha, estimate_sigma_alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eta_s outside (0, 1]
        try:
            want = ref.point_estimates(series, corrected, ddof)
        except DegenerateDataError:
            for estimator in (sigma_of, propagate_type_a):
                with pytest.raises(DegenerateDataError):
                    estimator(series, ddof=ddof)
            return
        summary = repeat_experiment(stacked(series, series), ddof=ddof)
    got = (alpha_of(series), sigma_of(series, ddof=ddof),
           summary.per_batch_eta[0])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert summary.per_batch_alpha[0] == got[0]
    assert summary.per_batch_sigma[0] == got[1]

    u, u_ref = propagate_type_a(series, ddof), ref.propagate_type_a(series, ddof)
    np.testing.assert_allclose([u.u_alpha, u.u_sigma, u.u_eta],
                               [u_ref.u_alpha, u_ref.u_sigma, u_ref.u_eta],
                               rtol=1e-5, atol=0)


@settings(max_examples=200, deadline=None)
@given(twin_series(), st.integers(2, 9))
def test_batched_pass_is_each_batch_alone(case, z):
    # repeat_experiment's one pass over all Z batches against each
    # batch's own propagate_type_a, compared with ==: background on and
    # off, background batches of another length, Z past numpy's
    # 8-element pairwise-summation block
    series, ddof = case
    batches = series.batches(z)
    keys = ("alpha", "sigma", "eta", "u_alpha", "u_sigma", "u_eta")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eta_s outside (0, 1]
        try:
            alone = [propagate_type_a(batch, ddof) for batch in batches]
        except DegenerateDataError:
            for estimator in (propagate_type_a, repeat_experiment):
                with pytest.raises(DegenerateDataError):
                    estimator(batches, ddof)
            return
        together = propagate_type_a(batches, ddof)
        summary = repeat_experiment(batches, ddof)
    assert len(alone) == z and batches.n_frames == series.n_frames // z
    for key in keys:
        assert getattr(together, key).tolist() == [getattr(u, key)
                                                   for u in alone]
    for key, got in (("alpha", summary.per_batch_alpha),
                     ("sigma", summary.per_batch_sigma),
                     ("eta", summary.per_batch_eta)):
        assert got.tolist() == [getattr(u, key) for u in alone]
    for key in keys[3:]:
        want = float(np.sqrt(np.mean([getattr(u, key) ** 2 for u in alone])
                             / z))
        assert getattr(summary, f"{key}_propagated") == want


@st.composite
def median_rows(draw):
    """A (rows, length) u32 array, with odd and even lengths from 1 up,
    drawn from a few values (heavy ties) or from the whole u32 range."""
    rows = draw(st.integers(1, 4))
    length = draw(st.one_of(st.integers(1, 70), st.integers(71, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    high = draw(st.sampled_from([2, 3, 4, 2 ** 32]))
    return rng.integers(0, high, (rows, length), dtype=np.uint32)


@settings(max_examples=300, deadline=None)
@given(median_rows())
def test_median_rows_is_np_median_bit_for_bit(rows):
    # (a + b) / 2 of two u32 counts is exact in float64, even where a + b
    # would overflow the count type
    a, b = _middle_pair(rows.copy())
    assert a.dtype == b.dtype == np.uint32
    got = (a.astype(np.float64) + b) / 2.0
    want = np.median(rows, axis=1)
    assert want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def spiked_stack(n_frames, seed):
    """3x3 superpixels of Poisson counts with a common gain per frame and
    five frames spiked at random pixels."""
    rng = np.random.default_rng(seed)
    gain = rng.normal(1.0, 0.05, (n_frames, 1, 1))
    counts = rng.poisson(40.0 * gain, (n_frames, 3, 3)).astype(np.uint32)
    for k in rng.choice(n_frames, 5, replace=False):
        counts[k] = inject_cosmic_ray(counts[k], rng)
    return counts


def check_against_reference(counts, mad_k, regions, mask):
    want_kept, want_dropped = ref.cosmic_ray_filter(counts, mad_k, mask)
    for frames in as_inputs(counts):
        kept, dropped = cosmic_ray_filter(frames, mad_k, regions=regions)
        assert dropped == want_dropped
        assert frames[kept].dtype == frames.dtype
        assert np.array_equal(frames[kept], want_kept)
    return want_dropped


@pytest.mark.parametrize("n_frames", [149, 150])
@pytest.mark.parametrize("mad_k", [2.0, 10.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chunk_pixels", [2, 6, None])
def test_cosmic_ray_filter_matches_whole_stack_reference(
        monkeypatch, n_frames, mad_k, seed, chunk_pixels):
    # 3x3 superpixels: with mad_k = 2 a fifth to a third of the frames sit
    # above some threshold, so a wrong median or scale at any one pixel
    # changes the dropped list; mad_k = 10 drops the injected spikes alone
    counts = spiked_stack(n_frames, seed)
    if chunk_pixels is not None:
        # chunks of 2 pixels split each 3-pixel row in two; chunks of 6
        # take two whole rows and then one
        monkeypatch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS",
                            chunk_pixels * n_frames)
    dropped = check_against_reference(counts, mad_k,
                                      [Region((0, 0), (3, 3))], None)
    assert len(dropped) >= 5


@pytest.mark.parametrize("mad_k", [2.0, 10.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chunk_pixels", [1, None])
def test_cosmic_ray_filter_matches_reference_on_regions(
        monkeypatch, mad_k, seed, chunk_pixels):
    # two regions covering 5 of the 9 superpixels: a spike on one of the
    # other 4 keeps its frame
    counts = spiked_stack(150, seed)
    if chunk_pixels is not None:
        monkeypatch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS",
                            chunk_pixels * 150)
    regions = [Region((0, 0), (1, 3)), Region((1, 1), (2, 1))]
    mask = np.zeros((3, 3), dtype=bool)
    for region in regions:
        mask[region.row_slice, region.col_slice] = True
    dropped = check_against_reference(counts, mad_k, regions, mask)
    whole = ref.cosmic_ray_filter(counts, mad_k)[1]
    assert set(dropped) < set(whole)


@st.composite
def filter_cases(draw):
    """u32 counts of 3 to 300 frames of 4 x 5 pixels, drawn from a few
    values (heavy ties), the whole u32 range, within 4 of the largest
    count, or Poisson with spikes, and two regions inside the frame."""
    n = draw(st.one_of(st.integers(3, 40), st.integers(41, 300)))
    shape = (n, 4, 5)
    spread = draw(st.sampled_from(["ties", "wide", "top", "spiked"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if spread == "ties":
        counts = rng.integers(0, draw(st.integers(1, 3)) + 1, shape)
    elif spread == "wide":
        counts = rng.integers(0, 2 ** 32, shape, dtype=np.uint64)
    elif spread == "top":
        counts = 2 ** 32 - 1 - rng.integers(0, 5, shape)
    else:
        counts = rng.poisson(40.0 * rng.normal(1.0, 0.1, (n, 1, 1)), shape)
        spikes = rng.integers(0, counts.size, draw(st.integers(1, 5)))
        counts.reshape(-1)[spikes] += rng.integers(100, 10 ** 6, spikes.size)
    regions = []
    for _ in range(2):
        r0, c0 = draw(st.integers(0, 3)), draw(st.integers(0, 4))
        regions.append(Region((r0, c0), (draw(st.integers(1, 4 - r0)),
                                         draw(st.integers(1, 5 - c0)))))
    return counts.astype(np.uint32), regions


@settings(max_examples=200, deadline=None)
@given(filter_cases(), st.sampled_from([0.1, 1.0, 2.0, 10.0]),
       st.integers(1, 3), st.integers(1, 4))
def test_cosmic_ray_filter_matches_reference_on_any_counts(
        case, mad_k, chunk_pixels, workers):
    # Guards the lane statistics taken in the count type, whose MAD adds
    # (b - a) / 2 to the middle pair of the unsigned a - x and x - b, and
    # the comparison of only the lanes whose largest count crosses their
    # threshold: mad_k = 0.1 takes nearly every lane through it, counts
    # near 2^32 - 1 clip their thresholds.  Lane blocks of 1-3 pixels
    # split the regions' rows between 1-4 workers.
    counts, regions = case
    mask = np.zeros(counts.shape[1:], dtype=bool)
    for region in regions:
        mask[region.row_slice, region.col_slice] = True
    with pytest.MonkeyPatch.context() as patch:
        force_workers(patch, workers)
        patch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS",
                      chunk_pixels * len(counts))
        check_against_reference(counts, mad_k, regions, mask)


def large_frame_experiment(seed):
    """The reference physics on 48x128 frames with 2-px cells, an
    off-centre symmetry centre and straylight that does not follow the
    pump, as in the benchmark's large-frame workload."""
    cfg = reference_experiment(master_seed=seed)
    return dataclasses.replace(
        cfg,
        modes=dataclasses.replace(cfg.modes, coherence_cell_px=2,
                                  grid=(10, 16)),
        background=dataclasses.replace(cfg.background, straylight_mean=80.0,
                                       straylight_tracks_pulse=False),
        geometry=FrameGeometry(rows=48, cols=128, cs=(23.5, 63.5),
                               beam_split=64),
        cs_offset=(1.0, -1.0))


@pytest.mark.parametrize("frames, region_s, experiment", [
    (4000, Region((4, 3), (5, 8)), reference_experiment),
    (1000, Region((14, 16), (20, 32)), large_frame_experiment),
], ids=["reference", "large-frame"])
@pytest.mark.parametrize("kind", [KIND_PDC, KIND_BACKGROUND])
def test_cosmic_ray_filter_drops_exactly_the_analysed_hits(
        frames, region_s, experiment, kind):
    # Cosmic rays are the last draw of each block's stream, so the same
    # seed rendered without them differs at the struck pixels alone.
    cfg = dataclasses.replace(experiment(31), cosmic_ray_rate=0.02)
    hit = generate_stack(cfg, frames, kind).counts
    clean = generate_stack(dataclasses.replace(cfg, cosmic_ray_rate=0.0),
                           frames, kind).counts
    regions = [region_s, cfg.geometry.search_window(region_s, (3, 3))]
    analysed = np.zeros(cfg.geometry.shape, dtype=bool)
    for region in regions:
        analysed[region.row_slice, region.col_slice] = True
    struck = hit != clean
    kept, dropped = cosmic_ray_filter(hit, regions=regions)
    assert dropped == np.flatnonzero((struck & analysed).any(axis=(1, 2))
                                     ).tolist()
    assert dropped  # there were hits to find
    assert (struck & ~analysed)[kept].any()  # and hits to keep


# ---------------------------------------------------------------------------
# Worker counts
# ---------------------------------------------------------------------------

MAP_GEOMETRY = FrameGeometry(rows=13, cols=30, cs=(6.0, 14.5), beam_split=15)
MAP_REGION = Region((4, 3), (5, 8))
MAP_WINDOW = MAP_GEOMETRY.search_window(MAP_REGION, (3, 3))


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(model, "_cpu_count", lambda: workers)


def record_threads(monkeypatch, worker):
    """Patch the private worker ``estimate.<worker>`` to record the thread
    of every call, and of every call that raised."""
    calls, raised = [], []
    original = getattr(estimate, worker)

    def recorded(*args):
        calls.append(threading.get_ident())
        try:
            return original(*args)
        except Exception:
            raised.append(threading.get_ident())
            raise

    monkeypatch.setattr(estimate, worker, recorded)
    return calls, raised


def gained_counts(n_frames, shape, seed):
    """Poisson counts with a common gain per frame, as u32."""
    rng = np.random.default_rng(seed)
    gain = rng.normal(1.0, 0.1, (n_frames, 1, 1))
    return rng.poisson(40.0 * gain, (n_frames,) + shape).astype(np.uint32)


@pytest.mark.parametrize("tile", [7, None], ids=["tile7", "default-tile"])
@pytest.mark.parametrize("tiles, extra", [(0, 1), (1, -1), (1, 1), (3, 5)],
                         ids=["1", "tile-1", "tile+1", "3tile+5"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_spatial_map_is_bit_identical_on_any_worker_count(
        monkeypatch, workers, tiles, extra, tile):
    # frame counts that leave a partial last tile; every worker count
    # must give the exact map's values, with one call per worker on at
    # most W threads, the calling thread among them
    force_workers(monkeypatch, workers)
    if tile is None:
        tile = estimate._SPATIAL_TILE_ELEMENTS // MAP_WINDOW.area
    else:
        monkeypatch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS",
                            tile * MAP_WINDOW.area)
    n_frames = tiles * tile + extra
    counts = gained_counts(n_frames, MAP_GEOMETRY.shape, n_frames)
    want = ref.exact_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    threads, _ = record_threads(monkeypatch, "_map_tiles")
    got = sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert np.array_equal(got.values, want.values)
    assert got.argmin == want.argmin and got.ties == want.ties
    assert 1 <= len(threads) <= min(workers, -(-n_frames // tile))
    assert len(set(threads)) == len(threads)
    assert threading.get_ident() in threads


@pytest.mark.parametrize("chunk_pixels", [3, None])
@pytest.mark.parametrize("n_frames", [150, 151])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_cosmic_ray_filter_is_identical_on_any_worker_count(
        monkeypatch, workers, n_frames, chunk_pixels):
    # a region 2 pixels wide, narrower than a 3-lane chunk, and one 7
    # pixels wide, split within its rows; with mad_k = 2 a wrong median
    # or scale at any pixel changes the dropped frames
    force_workers(monkeypatch, workers)
    if chunk_pixels is not None:
        monkeypatch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS",
                            chunk_pixels * n_frames)
    counts = gained_counts(n_frames, (6, 9), workers)
    rng = np.random.default_rng(n_frames)
    for k in rng.choice(n_frames, 5, replace=False):
        counts[k] = inject_cosmic_ray(counts[k], rng)
    regions = [Region((0, 0), (4, 2)), Region((1, 2), (5, 7))]
    mask = np.zeros((6, 9), dtype=bool)
    for region in regions:
        mask[region.row_slice, region.col_slice] = True
    want_kept, want_dropped = ref.cosmic_ray_filter(counts, 2.0, mask)
    threads, _ = record_threads(monkeypatch, "_filter_lanes")
    kept, dropped = cosmic_ray_filter(counts, 2.0, regions=regions)
    assert dropped == want_dropped and len(dropped) >= 5
    assert np.array_equal(counts[kept], want_kept)
    chunks = 4 + 5 * 3 if chunk_pixels else 2  # lane blocks of both regions
    assert 1 <= len(threads) <= min(workers, chunks)
    assert len(set(threads)) == len(threads)
    assert threading.get_ident() in threads


def test_dealt_jobs_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    # each worker's read, lane and map budgets are fixed, so the read
    # tiles, lane blocks and map tiles are the same on 1, 2 and 4 CPUs;
    # 1000 frames of 13x30 make several jobs of each
    counts = gained_counts(1000, MAP_GEOMETRY.shape, 9)
    path = tmp_path / "stack.tbs"
    write_stack(path, [Stack(counts=counts)], a_config_doc())
    original, dealt = model._run_workers, []

    def recorded(work, jobs):
        dealt[-1].append([(job.shape, job.ctypes.data)
                          if isinstance(job, np.ndarray) else job
                          for job in jobs])
        return original(work, jobs)

    monkeypatch.setattr(model, "_run_workers", recorded)
    for workers in (1, 2, 4):
        force_workers(monkeypatch, workers)
        dealt.append([])
        read_stack(path)
        cosmic_ray_filter(counts, regions=[MAP_WINDOW])
        sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert [len(jobs) > 1 for jobs in dealt[0]] == [True] * 3
    assert dealt[1] == dealt[0] and dealt[2] == dealt[0]


SCAN_AREAS = [(1, 1), (2, 2), (2, 4), (3, 5), (5, 8)]


def reference_series(pdc, region_s, region_i, bg=None, kept=slice(None),
                     bg_kept=slice(None)):
    """The conjugate region pair's series from the loop region sums."""
    kwargs = {}
    if bg is not None:
        kwargs = {"m_s": ref.region_sums(bg, region_s)[bg_kept],
                  "m_i": ref.region_sums(bg, region_i)[bg_kept]}
    return RegionPairSeries(ref.region_sums(pdc, region_s)[kept],
                            ref.region_sums(pdc, region_i)[kept], **kwargs)


@pytest.mark.parametrize("background", [False, True])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_region_sums_are_identical_on_any_worker_count(
        monkeypatch, workers, background):
    # build_series deals its 2 or 4 sums, area_scan the sums of all its
    # areas in one call; every series and point is the loop oracle's,
    # with the points in areas order
    force_workers(monkeypatch, workers)
    pdc = gained_counts(203, MAP_GEOMETRY.shape, workers)
    bg = gained_counts(101, MAP_GEOMETRY.shape, 7) if background else None
    region_i = MAP_GEOMETRY.conjugate_region(MAP_REGION, shift=(1, -1))
    kept, bg_kept = np.arange(0, 203, 2), np.arange(1, 101)
    threads, _ = record_threads(monkeypatch, "_region_total")
    got = build_series(pdc, MAP_REGION, region_i, bg, kept, bg_kept)
    want = reference_series(pdc, MAP_REGION, region_i, bg, kept, bg_kept)
    for name in ("n_s", "n_i", "m_s", "m_i"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert len(threads) == (4 if background else 2)
    assert threading.get_ident() in threads  # worker 0

    threads.clear()
    anchor = MAP_REGION.center
    pairs = area_pairs(MAP_GEOMETRY, anchor, SCAN_AREAS)
    points = area_scan(pdc, bg, pairs, ddof=1)
    assert [p.extent for p in points] == SCAN_AREAS
    for point, (region_s, region_i) in zip(points, pairs):
        series = reference_series(pdc, region_s, region_i, bg)
        assert point.sigma_alpha == estimate_sigma_alpha(series)
        assert point.sigma_alpha_b == (
            estimate_sigma_alpha_b(series) if background else None)
    assert len(threads) == len(SCAN_AREAS) * (4 if background else 2)
    assert threading.get_ident() in threads


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 300), st.one_of(st.none(), st.integers(3, 300)),
       st.sampled_from([0, 1]), st.integers(0, 2 ** 32 - 1))
def test_area_scan_rows_are_each_pairs_estimates(frames, bg_frames, ddof,
                                                 seed):
    # area_scan's one pass over a row per pair against each pair's own
    # series and estimators, compared with ==
    rng = np.random.default_rng(seed)
    mean = rng.uniform(3.0, 3000.0)
    gain = np.maximum(rng.normal(1.0, 0.1, (frames, 1, 1)), 0.1)
    pdc = rng.poisson(mean * gain, (frames,) + MAP_GEOMETRY.shape
                      ).astype(np.uint32)
    bg = None
    if bg_frames is not None:
        bg = rng.poisson(0.2 * mean, (bg_frames,) + MAP_GEOMETRY.shape
                         ).astype(np.uint32)
    pairs = area_pairs(MAP_GEOMETRY, MAP_REGION.center, SCAN_AREAS)
    series = [build_series(pdc, region_s, region_i, bg)
              for region_s, region_i in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha_b < 0
        try:
            want = [(estimate_sigma_alpha(one, ddof=ddof),
                     None if bg is None
                     else estimate_sigma_alpha_b(one, ddof=ddof))
                    for one in series]
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                area_scan(pdc, bg, pairs, ddof=ddof)
            return
        points = area_scan(pdc, bg, pairs, ddof=ddof)
    assert [(p.sigma_alpha, p.sigma_alpha_b) for p in points] == want
    assert [p.extent for p in points] == SCAN_AREAS


def test_region_sums_of_counts_near_the_u32_top_are_exact():
    # u32 counts within 1000 of 2^32 - 1: a sum in the count type would
    # wrap, one in float32 would round; each frame's region sum is the
    # Python-integer sum, rounded once
    rng = np.random.default_rng(32)
    top = np.iinfo(np.uint32).max
    counts = (top - rng.integers(0, 1000, (7,) + MAP_GEOMETRY.shape)
              ).astype(np.uint32)
    region_i = MAP_GEOMETRY.conjugate_region(MAP_REGION)
    for frames in as_inputs(counts):
        series = build_series(frames, MAP_REGION, region_i)
        for got, region in ((series.n_s, MAP_REGION), (series.n_i, region_i)):
            want = [float(sum(int(x) for x in frame[region.row_slice,
                                                    region.col_slice].flat))
                    for frame in counts]
            assert got.tolist() == want


def test_degenerate_tile_of_a_second_worker_raises_unwrapped(monkeypatch):
    # one-frame tiles on two workers: the calling thread holds frame 0
    # until the pool thread has met frame 3, whose empty region pair
    # raises there, as itself
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS", 1)
    counts = gained_counts(6, MAP_GEOMETRY.shape, 1)
    counts[3] = 0
    raised, met = [], threading.Event()
    original, caller = estimate._map_tiles, threading.get_ident()

    def held(*args):
        if threading.get_ident() == caller:
            assert met.wait(10)
        try:
            return original(*args)
        except DegenerateDataError:
            raised.append(threading.get_ident())
            met.set()
            raise

    monkeypatch.setattr(estimate, "_map_tiles", held)
    with pytest.raises(DegenerateDataError) as info:
        sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert info.type is DegenerateDataError
    assert str(info.value) == "empty region pair in spatial map"
    assert len(raised) == 1 and raised[0] != threading.get_ident()


def test_refusals_and_single_workers_start_no_thread(monkeypatch):
    # a refused input raises before any thread starts; one CPU, one tile
    # or one lane block runs its worker in the calling thread
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    force_workers(monkeypatch, 4)
    floats = gained_counts(20, MAP_GEOMETRY.shape, 2).astype(np.float64)
    with pytest.raises(StackFormatError, match="<u4"):
        sigma_spatial_map(floats, MAP_REGION, MAP_GEOMETRY, (3, 3))
    with pytest.raises(StackFormatError, match="<u4"):
        cosmic_ray_filter(floats, regions=[MAP_REGION])
    with pytest.raises(DegenerateDataError, match="no frames supplied"):
        sigma_spatial_map(np.zeros((0, 13, 30), np.uint32), MAP_REGION,
                          MAP_GEOMETRY, (3, 3))
    with pytest.raises(DomainError, match="count must be >= 1"):
        next(iter_stack(reference_experiment(1), 0))
    counts = gained_counts(20, MAP_GEOMETRY.shape, 3)
    # a region leaving the frame is refused before any region sum is dealt
    threads, _ = record_threads(monkeypatch, "_region_total")
    with pytest.raises(GeometryError, match="leaves the 13x30 frame"):
        build_series(counts, MAP_REGION, Region((10, 20), (5, 8)), counts)
    with pytest.raises(GeometryError, match="leaves the 13x20 frame"):
        area_scan(counts[:, :, :20], None,
                  area_pairs(MAP_GEOMETRY, MAP_REGION.center, SCAN_AREAS))
    assert threads == []
    one_pixel = [Region((0, 0), (1, 1))]
    cosmic_ray_filter(counts, regions=one_pixel)  # one lane block
    sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))  # one tile
    force_workers(monkeypatch, 1)
    monkeypatch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS", MAP_WINDOW.area)
    monkeypatch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS", 20)
    want = ref.exact_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    got = sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert np.array_equal(got.values, want.values)  # 20 one-frame tiles
    cosmic_ray_filter(counts, regions=[MAP_WINDOW])  # 154 lane blocks


def test_more_workers_than_cores_under_a_short_switch_interval(monkeypatch):
    # eight workers share the map's per-frame table and each flags the
    # frames its own lane blocks reject; a worker writing outside its rows
    # or reading outside its pixels would change a value
    force_workers(monkeypatch, 8)
    monkeypatch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS", 3 * MAP_WINDOW.area)
    monkeypatch.setattr(estimate, "_FILTER_CHUNK_ELEMENTS", 2 * 301)
    counts = gained_counts(301, MAP_GEOMETRY.shape, 8)
    want_map = ref.exact_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    mask = np.zeros(MAP_GEOMETRY.shape, dtype=bool)
    mask[MAP_WINDOW.row_slice, MAP_WINDOW.col_slice] = True
    want_dropped = ref.cosmic_ray_filter(counts, 2.0, mask)[1]
    scan_pairs = area_pairs(MAP_GEOMETRY, MAP_REGION.center,
                            sorted(SCAN_AREAS * 2))
    want_scan = area_scan(counts, counts[::-1] // 4, scan_pairs)
    results = []

    def run():
        for _ in range(5):
            results.append((
                sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3)),
                cosmic_ray_filter(counts, 2.0, regions=[MAP_WINDOW])[1],
                area_scan(counts, counts[::-1] // 4, scan_pairs)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(results) == 5
    for got_map, got_dropped, got_scan in results:
        assert np.array_equal(got_map.values, want_map.values)
        assert got_dropped == want_dropped
        assert got_scan == want_scan


def count_product_sums(monkeypatch):
    """Record the operand dtype of every ``np.einsum`` call.  The map makes
    three per tile (the first window row sums of squares, Sss and the
    cross sums of every displacement): on float64 lanes on its float64
    route, on Python integers on the other."""
    calls = []
    einsum = np.einsum

    def recorded(*args, **kwargs):
        calls.append(args[1].dtype)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    return calls


def edge_case(p):
    """A 1 x ``p`` signal region at column 1 of a one-row frame, searched
    +-1 column: (geometry, region, first column of its search window)."""
    half = p + 2
    geometry = FrameGeometry(rows=1, cols=2 * half, cs=(0.0, half - 0.5),
                             beam_split=half)
    return geometry, Region((0, 1), (1, p)), p + 2


# The largest count range R, or largest count b + R, that keeps a tile of
# P pairs on the float64 route: float64 cross sums while P R^2 < 2^53,
# int64 N while 4 P^2 R^2 < 2^63, int64 P D while 2 P^2 (b + R) < 2^63.
# P = 2 meets the float64 bound first, P = 512 the bound on N, and
# P = 40000 with a large common count the bound on P D.
FLOAT_RANGE = math.isqrt(((1 << 53) - 1) // 2)
NUM_RANGE = math.isqrt(((1 << 63) - 1) // (4 * 512 ** 2))
DENOM_HIGH = ((1 << 63) - 1) // (2 * 40000 ** 2)


@pytest.mark.parametrize("p, low, high, on_float", [
    (2, 0, FLOAT_RANGE, True), (2, 0, FLOAT_RANGE + 1, False),
    (512, 0, NUM_RANGE, True), (512, 0, NUM_RANGE + 1, False),
    (40000, DENOM_HIGH - 1000, DENOM_HIGH, True),
    (40000, DENOM_HIGH - 999, DENOM_HIGH + 1, False)],
    ids=["float-inside", "float-outside", "num-inside", "num-outside",
         "denom-inside", "denom-outside"])
def test_spatial_map_is_exact_on_either_side_of_each_route_bound(
        monkeypatch, p, low, high, on_float):
    # counts of low or high put the moments near the largest values the
    # bound allows; just inside it the tile takes float64 cross sums and
    # int64 N and P D, just outside it Python integers, and both give the
    # exact map bit for bit
    assert (p * (high - low) ** 2 < 1 << 53
            and 4 * p * p * (high - low) ** 2 < 1 << 63
            and 2 * p * p * high < 1 << 63) == on_float
    geometry, region, window_col = edge_case(p)
    rng = np.random.default_rng(p)
    counts = low + rng.choice([0, high - low], (3,) + geometry.shape)
    counts[:, 0, 1] = high         # the tile's largest count
    counts[0, 0, window_col] = low  # and its smallest
    want = ref.exact_spatial_map(counts, region, geometry, (0, 1))
    calls = count_product_sums(monkeypatch)
    for frames in as_inputs(counts):
        got = sigma_spatial_map(frames, region, geometry, (0, 1))
        assert np.array_equal(got.values, want.values)
        assert got.ties == want.ties
    tiles = -(-len(counts) // max(1, estimate._SPATIAL_TILE_ELEMENTS
                                  // (p + 2)))
    route = np.float64 if on_float else object
    assert calls == [np.dtype(route)] * (3 * tiles)


def test_full_scale_signal_against_empty_idler_is_exact():
    # s = 2^32 - 1 and i = 0 at every pair: a range far beyond the int64
    # bound, and a zero variance that no rounding may disturb
    counts = np.zeros((3,) + MAP_GEOMETRY.shape, np.uint32)
    counts[:, MAP_REGION.row_slice, MAP_REGION.col_slice] = 2 ** 32 - 1
    want = ref.exact_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    got = sigma_spatial_map(counts, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert np.array_equal(got.values, want.values)
    assert not got.values.any()


def test_a_large_common_count_keeps_the_tile_on_int64(monkeypatch):
    # counts near the top of u32: less the tile's smallest count their
    # range is a few hundred, so the tile stays on float64 cross sums
    # and int64 N and P D, and its values are the exact map's.  The pair
    # differences are those of the unshifted counts, so frame by frame
    # each value is the unshifted one scaled by the ratio of the pair
    # sums.
    counts = gained_counts(8, MAP_GEOMETRY.shape, 5)
    common = 2 ** 32 - 1 - int(counts.max())
    shifted = counts + np.uint32(common)
    calls = count_product_sums(monkeypatch)
    got = sigma_spatial_map(shifted, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert calls == [np.dtype(np.float64)] * 3
    want = ref.exact_spatial_map(shifted, MAP_REGION, MAP_GEOMETRY, (3, 3))
    assert np.array_equal(got.values, want.values)
    conj = MAP_GEOMETRY.conjugate_region(MAP_REGION)
    for frame in range(len(counts)):
        one, one_shifted = counts[frame:frame + 1], shifted[frame:frame + 1]
        pair_sum = (ref.region_sums(one, MAP_REGION)
                    + ref.region_sums(one, conj))[0]
        scale = pair_sum / (pair_sum + 2 * MAP_REGION.area * common)
        unshifted = sigma_spatial_map(one, MAP_REGION, MAP_GEOMETRY, (0, 0))
        value = sigma_spatial_map(one_shifted, MAP_REGION, MAP_GEOMETRY,
                                  (0, 0)).values[0, 0]
        assert value == pytest.approx(unshifted.values[0, 0] * scale,
                                      rel=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("experiment, region_s", [
    (reference_experiment, Region((4, 3), (5, 8))),
    (lambda seed: dataclasses.replace(large_frame_experiment(seed),
                                      cosmic_ray_rate=0.02),
     Region((14, 16), (20, 32))),
], ids=["reference", "large-frame"])
def test_exact_map_keeps_the_np_var_minimum_on_rendered_stacks(
        experiment, region_s, seed):
    # the exact map may differ from np.var's in its last bits; on both
    # benchmark geometries, cosmic rays included, it must pick the same
    # symmetry centre
    cfg = experiment(seed)
    counts = generate_stack(cfg, 200).counts
    got = sigma_spatial_map(counts, region_s, cfg.geometry, (3, 3))
    want = ref.sigma_spatial_map(counts.astype(np.float64), region_s,
                                 cfg.geometry, (3, 3))
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0)
    assert got.argmin == want.argmin and got.ties == want.ties
