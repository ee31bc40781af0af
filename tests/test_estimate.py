"""Estimator tests against analytic identities, independent oracles and
simulator ground truth."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twincal.errors import (
    DegenerateDataError,
    DomainError,
    GeometryError,
    StackFormatError,
)
from twincal.estimate import (
    RegionPairSeries,
    anchored_region,
    area_pairs,
    area_scan,
    build_series,
    correct_for_transmittance,
    cosmic_ray_filter,
    estimate_alpha,
    estimate_alpha_b,
    estimate_sigma_alpha,
    estimate_sigma_alpha_b,
    estimate_sigma_raw,
    eta_from_sigma,
    excess_noise,
    propagate_type_a,
    repeat_experiment,
    sigma_spatial_map,
)
from twincal import model
from twincal.model import FrameGeometry, Region
from twincal.simulate import (
    KIND_BACKGROUND,
    generate_stack,
)

from test_simulate import (
    REFUSED_DTYPES,
    inject_cosmic_ray,
    make_config,
    refused_counts,
)


def poisson_series(mean=10_000.0, n=4000, seed=0, background=False):
    rng = np.random.default_rng(seed)
    kwargs = {}
    if background:
        kwargs = {"m_s": rng.poisson(mean / 20, n).astype(float),
                  "m_i": rng.poisson(mean / 20, n).astype(float)}
    return RegionPairSeries(rng.poisson(mean, n).astype(float),
                            rng.poisson(mean, n).astype(float), **kwargs)


class TestAlpha:
    def test_identical_series(self):
        s = RegionPairSeries(np.array([3.0, 5.0, 7.0]),
                             np.array([3.0, 5.0, 7.0]))
        assert estimate_alpha(s) == 1.0

    def test_zero_idler_raises(self):
        s = RegionPairSeries(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateDataError):
            estimate_alpha(s)

    def test_balanced_simulation(self):
        cfg = make_config(seed=101)
        rs = cfg.signal_region()
        series = build_series(generate_stack(cfg, 2000).counts, rs,
                              cfg.geometry.conjugate_region(rs))
        alpha = estimate_alpha(series)
        u = propagate_type_a(series).u_alpha
        assert abs(alpha - 1.0) < 3 * u


class TestSigmaAlpha:
    def test_zero_difference(self):
        s = RegionPairSeries(np.array([3.0, 5.0, 7.0]),
                             np.array([3.0, 5.0, 7.0]))
        assert estimate_sigma_raw(s) == 0.0

    def test_poisson_series_sit_at_shot_noise(self):
        s = poisson_series(seed=1)
        sigma = estimate_sigma_raw(s)
        u = propagate_type_a(s).u_sigma
        assert abs(sigma - 1.0) < 3 * u

    def test_ddof_conventions(self):
        rng = np.random.default_rng(2)
        s = RegionPairSeries(rng.poisson(100, 50).astype(float),
                             rng.poisson(100, 50).astype(float))
        biased = estimate_sigma_raw(s, ddof=0)
        unbiased = estimate_sigma_raw(s, ddof=1)
        assert biased == pytest.approx(unbiased * 49 / 50, rel=1e-12)

    def test_degenerate_denominator(self):
        s = RegionPairSeries(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateDataError):
            estimate_sigma_raw(s)

    def test_ddof_is_keyword_only(self):
        # a stale positional alpha is refused, not taken for ddof
        s = poisson_series(seed=1, background=True)
        for estimator in (estimate_sigma_alpha, estimate_sigma_raw,
                          estimate_sigma_alpha_b):
            with pytest.raises(TypeError):
                estimator(s, 1.0)


class TestBackgroundCorrected:
    def test_zero_background_reduces_to_uncorrected(self):
        rng = np.random.default_rng(3)
        s = RegionPairSeries(rng.poisson(500, 100).astype(float),
                             rng.poisson(500, 100).astype(float),
                             m_s=np.zeros(100), m_i=np.zeros(100))
        assert estimate_alpha_b(s) == estimate_alpha(s)
        assert estimate_sigma_alpha_b(s) == estimate_sigma_alpha(s)

    def test_negative_numerator_warns(self):
        s = RegionPairSeries(np.array([10.0, 12.0]), np.array([50.0, 52.0]),
                             m_s=np.array([30.0, 32.0]),
                             m_i=np.array([20.0, 22.0]))
        with pytest.warns(UserWarning, match="background exceeds"):
            estimate_alpha_b(s)

    def test_missing_background_raises(self):
        s = poisson_series(n=50, seed=4)
        with pytest.raises(DegenerateDataError):
            estimate_alpha_b(s)
        with pytest.raises(DegenerateDataError):
            estimate_sigma_alpha_b(s)

    def test_poisson_series_reach_the_classical_bound(self):
        # coherent-light analogue: independent equal-mean Poisson counts
        # with an independent Poisson background sit at sigma_alpha_b = 1
        rng = np.random.default_rng(12)
        n = 4000
        s = RegionPairSeries(rng.poisson(20_000, n).astype(float),
                             rng.poisson(20_000, n).astype(float),
                             m_s=rng.poisson(1000, n).astype(float),
                             m_i=rng.poisson(1000, n).astype(float))
        sigma = estimate_sigma_alpha_b(s)
        u = propagate_type_a(s).u_sigma
        assert abs(sigma - 1.0) < 3 * u

    def test_straylight_simulation_recovers_ground_truth_ratio(self):
        cfg = make_config(eta_s=0.6, eta_i=0.6, mu=1.0, m_t=500,
                          straylight=30.0, read_noise=2.0, seed=105)
        rs = cfg.signal_region()
        ri = cfg.geometry.conjugate_region(rs)
        series = build_series(generate_stack(cfg, 3000).counts, rs, ri,
                              generate_stack(cfg, 3000, KIND_BACKGROUND).counts)
        alpha_b = estimate_alpha_b(series)
        u = propagate_type_a(series).u_alpha
        assert abs(alpha_b - 1.0) < 3 * u
        sigma = estimate_sigma_alpha_b(series)
        u_s = propagate_type_a(series).u_sigma
        assert abs(sigma - 0.4) < 3 * u_s


class TestEtaInversion:
    def test_reference_point(self):
        eta_s, eta_i = eta_from_sigma(0.99416, 0.384)
        assert eta_s == pytest.approx(0.613, abs=1e-4)
        assert eta_i == pytest.approx(eta_s / 0.99416, rel=1e-12)

    def test_trivial_points(self):
        assert eta_from_sigma(1.0, 0.0) == (1.0, 1.0)
        with pytest.warns(UserWarning, match="outside"):
            eta_s, _ = eta_from_sigma(1.0, 1.0)
        assert eta_s == 0.0

    def test_definitional_ratio(self):
        eta_s, eta_i = eta_from_sigma(0.9876, 0.3)
        assert eta_s / eta_i == pytest.approx(0.9876, abs=1e-12)


class TestTransmittance:
    def test_identity(self):
        assert correct_for_transmittance(0.613, 1.0) == 0.613

    def test_two_element_path(self):
        # arithmetic oracle: 0.613 / 0.9025
        assert correct_for_transmittance(0.613, 0.9025) == pytest.approx(
            0.6792243767313019, rel=1e-12)

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning, match="exceeds 1"):
            assert correct_for_transmittance(0.5, 0.4) == pytest.approx(1.25)

    def test_domain(self):
        with pytest.raises(DomainError):
            correct_for_transmittance(0.5, 0.0)


class TestExcessNoise:
    def test_poisson_series_at_shot_noise(self):
        s = poisson_series(seed=5)
        ratio, thermal = excess_noise(s, 4)
        assert ratio == pytest.approx(1.0, abs=0.05)
        assert thermal == 0.5 * (s.n_s + s.n_i).mean() / 4

    def test_thermal_level_without_jitter(self):
        # Correlated twin beams: Var(N_s+N_i)/E[N_s+N_i] = 1 + eta + 2*eta*mu
        # (the pair correlation contributes alongside the per-arm excess);
        # the reported thermal comparison level is the per-arm <N>/m_tot.
        cfg = make_config(eta_s=0.6, eta_i=0.6, mu=0.1, seed=106)
        rs = cfg.signal_region()
        series = build_series(generate_stack(cfg, 3000).counts, rs,
                              cfg.geometry.conjugate_region(rs))
        m_tot = cfg.modes.total_modes(math.prod(cfg.modes.grid))
        ratio, thermal = excess_noise(series, m_tot)
        expected = 1.0 + 0.6 + 2 * 0.6 * 0.1
        se = expected * np.sqrt(2.0 / series.n_frames)
        assert abs(ratio - expected) < 4 * se
        assert thermal == pytest.approx(0.6 * 0.1, rel=0.05)

    def test_jitter_dominates_at_reference_counts(self):
        from twincal.presets import reference_experiment
        cfg = reference_experiment(master_seed=107)
        rs = cfg.signal_region()
        series = build_series(generate_stack(cfg, 800).counts, rs,
                              cfg.geometry.conjugate_region(rs))
        ratio, _ = excess_noise(
            series, cfg.modes.total_modes(math.prod(cfg.modes.grid)))
        assert 1e3 < ratio < 1e4

    def test_variance_follows_ddof(self):
        s = poisson_series(n=50, seed=9)
        total = s.n_s + s.n_i
        for ddof in (0, 1):
            ratio, _ = excess_noise(s, 1, ddof=ddof)
            assert ratio == np.var(total, ddof=ddof) / total.mean()
        assert excess_noise(s, 1, ddof=0)[0] < excess_noise(s, 1)[0]


class TestBalancingKillsJitter:
    def test_forced_unit_alpha_is_orders_of_magnitude_worse(self):
        # imbalanced channels + pump jitter: the raw difference inherits
        # the pulse fluctuation, the balanced one cancels it
        cfg = make_config(eta_s=0.72, eta_i=0.53, mu=1.80, jitter=0.10,
                          seed=108)
        rs = cfg.signal_region()
        series = build_series(generate_stack(cfg, 2000).counts, rs,
                              cfg.geometry.conjugate_region(rs))
        raw = estimate_sigma_raw(series)
        alpha = estimate_alpha(series)
        balanced = estimate_sigma_alpha(series)
        assert raw / balanced > 100.0
        u = propagate_type_a(series).u_sigma
        predicted = 0.5 * (1 + alpha) - 0.72
        assert abs(balanced - predicted) < 3 * u


class TestBackgroundCorrectionUnbiased:
    def test_paired_runs_with_and_without_background(self):
        # identical emission streams, background on/off: the recovered
        # efficiency must agree within the background-induced noise
        quiet = make_config(eta_s=0.613, eta_i=0.6166, mu=2.0, seed=109)
        noisy = dataclasses.replace(
            quiet, background=dataclasses.replace(
                quiet.background, straylight_mean=300.0,
                read_noise_std=4.0, straylight_idler_ratio=0.9))
        rs = quiet.signal_region()
        ri = quiet.geometry.conjugate_region(rs)
        n = 5000
        s_quiet = build_series(generate_stack(quiet, n).counts, rs, ri)
        s_noisy = build_series(generate_stack(noisy, n).counts, rs, ri,
                               generate_stack(noisy, n, KIND_BACKGROUND).counts)

        deltas = []
        for bq, bn in zip(s_quiet.batches(10), s_noisy.batches(10)):
            eta_q, _ = eta_from_sigma(estimate_alpha(bq),
                                      estimate_sigma_alpha(bq))
            eta_n, _ = eta_from_sigma(estimate_alpha_b(bn),
                                      estimate_sigma_alpha_b(bn))
            deltas.append(eta_n - eta_q)
        deltas = np.array(deltas)
        sem = deltas.std(ddof=1) / np.sqrt(deltas.size)
        assert abs(deltas.mean()) < 3 * sem


def whole(frames):
    """The whole frame as the one region to filter."""
    return [Region((0, 0), frames.shape[1:])]


class TestCosmicFilter:
    def test_clean_stacks_pass(self):
        # false-positive oracle: fraction of clean stacks losing any
        # frame, filtering the whole frame or calibrate's analysed pixels
        region_s = Region((4, 3), (5, 8))
        analysed = [region_s,
                    make_config().geometry.search_window(region_s, (3, 3))]
        flagged = {"whole": 0, "analysed": 0}
        for seed in range(1000):
            cfg = make_config(straylight=200.0, read_noise=3.0,
                              seed=20_000 + seed)
            frames = generate_stack(cfg, 5, KIND_BACKGROUND).counts
            for name, regions in (("whole", whole(frames)),
                                  ("analysed", analysed)):
                _, discarded = cosmic_ray_filter(frames, regions=regions)
                flagged[name] += bool(discarded)
        assert max(flagged.values()) <= 10  # >= 99% clean

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), root=st.integers(0, 65535),
           jump=st.one_of(st.integers(1, 40), st.just(200_000)),
           nudge=st.sampled_from([0.0, 1e-9, -1e-9, 2.0 ** -40, 0.25, -0.5]),
           n=st.integers(5, 12))
    def test_u32_comparison_equals_the_float_comparison(self, data, root,
                                                        jump, nudge, n):
        # A pixel at v = root**2 in most frames has MAD 0, so its threshold
        # is v + mad_k * max(root, 1): the integer v + jump, or next to it.
        # The other frames hold counts at and around that threshold, up to
        # the u32 maximum, where a threshold beyond it is clipped.
        v = root * root
        mad_k = (jump + nudge) / max(root, 1)
        threshold = v + mad_k * max(root, 1)
        near = {int(np.floor(threshold)) + d for d in (-1, 0, 1, 2)}
        near = sorted(x for x in near | {0xFFFFFFFF} if 0 <= x <= 0xFFFFFFFF)
        values = data.draw(st.lists(st.sampled_from(near), min_size=1,
                                    max_size=(n - 1) // 2))
        counts = np.full((n, 1, 2), v, dtype=np.uint32)
        counts[:, 0, 1] = 3
        struck = data.draw(st.permutations(range(n)))[:len(values)]
        counts[struck, 0, 0] = values
        kept, dropped = cosmic_ray_filter(counts, mad_k,
                                          regions=whole(counts))
        assert dropped == sorted(
            k for k, x in zip(struck, values) if x > threshold)
        assert sorted([*kept, *dropped]) == list(range(n))

    @pytest.mark.parametrize("mad_k", [float("nan"), float("inf"), 0.0, -5.0])
    def test_mad_k_not_finite_and_positive_refused(self, monkeypatch, mad_k):
        # such a threshold would keep every frame, the struck one too
        # (NaN, inf), or drop every frame (0, -5)
        frames = np.full((5, 4, 6), 7, dtype=np.uint32)
        frames[2, 1, 1] = 10_000
        monkeypatch.setattr(model, "_run_workers",
                            lambda *args: pytest.fail("a worker started"))
        with pytest.raises(DomainError, match="mad_k"):
            cosmic_ray_filter(frames, mad_k, regions=whole(frames))

    def test_identical_frames_not_discarded(self):
        frames = np.full((5, 4, 6), 7, dtype=np.uint32)
        kept, discarded = cosmic_ray_filter(frames, regions=whole(frames))
        assert discarded == [] and len(kept) == 5

    def test_round_trip_with_injection(self):
        cfg = make_config(straylight=300.0, read_noise=4.0, mu=2.0, seed=110)
        frames = generate_stack(cfg, 60).counts
        rng = np.random.default_rng(5)
        spiked_at = [7, 23, 41]
        for k in spiked_at:
            frames[k] = inject_cosmic_ray(frames[k], rng)
        kept, discarded = cosmic_ray_filter(frames, regions=whole(frames))
        assert discarded == spiked_at
        assert len(kept) == 57

    def test_round_trip_at_reference_conditions(self):
        # hardest case for the threshold: pump jitter swings whole frames
        # and spikes may land on bright emission pixels; 10^3 frames
        from twincal.presets import reference_experiment
        frames = generate_stack(reference_experiment(master_seed=73),
                                1000).counts
        rng = np.random.default_rng(6)
        spiked_at = sorted(int(k) for k in
                           rng.choice(1000, 12, replace=False))
        for k in spiked_at:
            frames[k] = inject_cosmic_ray(frames[k], rng)
        kept, discarded = cosmic_ray_filter(frames, regions=whole(frames))
        assert discarded == spiked_at
        assert len(kept) == 988

    def test_spike_on_a_dim_analysed_pixel_is_caught(self):
        # large-frame pdc: most analysed pixels are bright emission, whose
        # pump-jitter scale is ~20x that of the dim straylight ring of the
        # search window; a floor taken over the analysed pixels would
        # lift the ring's threshold above this spike
        cfg = make_config(cell_px=2, grid=(10, 16), rows=48, cols=128,
                          split=64, cs=(23.5, 63.5), cs_offset=(1.0, -1.0),
                          mu=2.0, jitter=0.1, straylight=80.0,
                          read_noise=4.0, seed=116)
        region_s = Region((14, 16), (20, 32))
        window = cfg.geometry.search_window(region_s, (3, 3))
        frames = generate_stack(cfg, 200).counts
        corner = window.origin  # outside the idler emission block
        assert frames[:, corner[0], corner[1]].max() < 150
        frames[50, corner[0], corner[1]] += 400
        kept, discarded = cosmic_ray_filter(frames,
                                            regions=[region_s, window])
        assert discarded == [50] and len(kept) == 199

    def test_needs_three_frames(self):
        frames = np.zeros((2, 2, 2), dtype=np.uint32)
        with pytest.raises(DegenerateDataError):
            cosmic_ray_filter(frames, regions=whole(frames))

    @pytest.mark.parametrize("origin", [(-1, 0), (0, 4), (3, 0)])
    def test_region_leaving_the_frame_raises(self, origin):
        frames = np.zeros((5, 4, 6), dtype=np.uint32)
        with pytest.raises(GeometryError):
            cosmic_ray_filter(frames, regions=[Region((0, 0), (2, 2)),
                                               Region(origin, (2, 3))])

    def test_no_region_raises(self):
        with pytest.raises(DomainError):
            cosmic_ray_filter(np.zeros((5, 4, 6), dtype=np.uint32),
                              regions=[])

    @pytest.mark.parametrize("dtype", REFUSED_DTYPES)
    def test_counts_other_than_u32_are_refused(self, dtype):
        frames = refused_counts(dtype, (50, 4, 6))
        with pytest.raises(StackFormatError, match="<u4"):
            cosmic_ray_filter(frames, regions=whole(frames))

    @pytest.mark.parametrize("shape", [(50, 6), (50, 4, 6, 1)])
    def test_u32_counts_that_are_not_3d_are_refused(self, shape):
        with pytest.raises(StackFormatError, match=r"\(frames, rows, cols\)"):
            cosmic_ray_filter(np.zeros(shape, np.uint32),
                              regions=[Region((0, 0), (2, 2))])

    def test_working_memory_is_bounded(self):
        # spiked frames are dropped and the kept ones come back as indices,
        # so the peak is the filter's own working memory
        frames = np.random.default_rng(2).poisson(
            40.0, (1000, 48, 128)).astype(np.uint32)
        frames[[3, 500, 999], 10, 20] = 10_000
        tracemalloc.start()
        try:
            kept, discarded = cosmic_ray_filter(frames, regions=whole(frames))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert discarded == [3, 500, 999] and len(kept) == 997
        assert peak < frames.nbytes / 2


class TestSpatialMap:
    # emission block of 11x11 cells so that every candidate region of the
    # +-3 search stays inside bright emission: the plateau then reflects
    # uncorrelated-but-equally-lit pairs, near 1 + excess noise
    def probe(self, offset, seed=111, frames=25):
        cfg = make_config(eta_s=0.613, eta_i=0.613, mu=1.7, m_t=1000,
                          grid=(11, 11), rows=19, cols=36, split=18,
                          cs=(9.0, 17.5), straylight=20.0, read_noise=4.0,
                          cs_offset=offset, seed=seed)
        region = anchored_region(cfg.signal_region().center, (5, 5))
        stack = generate_stack(cfg, frames).counts
        return sigma_spatial_map(stack, region, cfg.geometry, (3, 3))

    def test_centred_configuration(self):
        result = self.probe((0.0, 0.0))
        assert result.argmin == (0, 0)

    def test_injected_offsets_recovered(self):
        for offset in ((2.0, -1.0), (-3.0, 3.0)):
            result = self.probe(offset, seed=112)
            assert result.argmin == (int(offset[0]), int(offset[1]))

    def test_dip_well_below_plateau(self):
        result = self.probe((0.0, 0.0), seed=113)
        er, ec = 3, 3
        ring = [result.values[i, j]
                for i in range(7) for j in range(7)
                if max(abs(i - er), abs(j - ec)) == 3]
        plateau = float(np.median(ring))
        assert result.min_value < plateau / 2.0
        # uncorrelated displacements sit near 1 + per-cell excess noise
        excess = 0.613 * 1.7
        assert plateau == pytest.approx(1.0 + excess, rel=0.15)

    def test_search_leaving_idler_half_is_geometry_error(self):
        cfg = make_config(seed=114)
        region = cfg.signal_region()
        with pytest.raises(GeometryError):
            sigma_spatial_map(generate_stack(cfg, 3).counts, region, cfg.geometry,
                              (0, 6))

    def test_curvature_reported_at_interior_minimum(self):
        result = self.probe((0.0, 0.0), seed=115)
        assert result.curvature is not None and result.curvature > 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_spatial_map_working_memory_is_bounded(monkeypatch, workers):
    # large-frame's geometry, region and search: a whole-stack float64
    # copy of the signal block and search window alone would exceed the
    # bound.  Each worker holds tile buffers of its own, so the worker
    # count is fixed rather than the host's.
    monkeypatch.setattr(model, "_cpu_count", lambda: workers)
    geometry = FrameGeometry(rows=48, cols=128, cs=(23.5, 63.5), beam_split=64)
    region = Region((14, 16), (20, 32))
    frames = np.random.default_rng(3).poisson(
        40.0, (1000, 48, 128)).astype(np.uint32)
    tracemalloc.start()
    try:
        result = sigma_spatial_map(frames, region, geometry, (3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.values.shape == (7, 7)
    assert peak < frames.nbytes / 4


class TestAreaScan:
    def test_unsorted_areas_rejected(self):
        cfg = make_config(seed=116)
        with pytest.raises(DomainError):
            area_pairs(cfg.geometry, (6, 6), [(3, 3), (2, 2)])

    @pytest.mark.parametrize("cell_px", [0, -2])
    def test_cell_px_below_one_refused(self, monkeypatch, cell_px):
        cfg = make_config(seed=116)
        pairs = area_pairs(cfg.geometry, cfg.signal_region().center, [(2, 2)])
        frames = generate_stack(cfg, 4).counts
        monkeypatch.setattr(model, "_run_workers",
                            lambda *args: pytest.fail("a region sum was dealt"))
        with pytest.raises(DomainError, match="cell_px"):
            area_scan(frames, None, pairs, cell_px=cell_px)

    def test_curve_shape_and_asymptote(self):
        cfg = make_config(eta_s=0.5, eta_i=0.5, mu=1.0, m_t=200, cell_px=2,
                          grid=(8, 10), rows=22, cols=52, split=26,
                          cs=(10.5, 25.5), seed=117)
        # anchor at a cell corner: small regions straddle cells and lose
        # correlation, large ones approach the plain 1 - eta asymptote
        anchor = cfg.signal_region().center
        areas = [(1, 1), (3, 3), (5, 5), (9, 9), (15, 19)]
        pdc = generate_stack(cfg, 1200).counts
        points = area_scan(pdc, None, area_pairs(cfg.geometry, anchor, areas),
                           cell_px=2)
        values = [p.sigma_alpha for p in points]
        assert values[0] > values[-1] + 0.15
        assert all(p.sigma_alpha_b is None for p in points)
        # The 15x19 region on 2-px cells covers 63 full cells, 16 half
        # cells and 1 quarter cell.  A cell a fraction f of which lies in
        # the region adds f to both arms' means but f**2 to their
        # covariance, so E[sigma_alpha] = 1 - eta * sum(f**2) / sum(f)
        # = 1 - 0.5 * 67.0625 / 71.25 = 0.5294, not 1 - eta.
        assert points[-1].sigma_alpha == pytest.approx(
            1 - 0.5 * 67.0625 / 71.25, abs=0.05)
        assert points[-1].coherence_cells == pytest.approx(285 / 4)

    def test_background_corrected_curve(self):
        cfg = make_config(eta_s=0.6, eta_i=0.6, mu=1.0, m_t=300,
                          straylight=40.0, read_noise=2.0, seed=118)
        anchor = cfg.signal_region().center
        pdc = generate_stack(cfg, 800).counts
        bg = generate_stack(cfg, 800, KIND_BACKGROUND).counts
        points = area_scan(pdc, bg,
                           area_pairs(cfg.geometry, anchor, [(2, 2), (5, 8)]),
                           cell_px=1)
        final = points[-1]
        assert final.sigma_alpha_b == pytest.approx(0.4, abs=0.06)
        # uncorrected curve sits above the corrected one
        assert final.sigma_alpha > final.sigma_alpha_b

    def test_pairs_sharing_no_anchor_are_each_their_own_series(self):
        # two disjoint tiles of the emission block, the larger first, each
        # with its conjugate: no anchor or size order ties the pairs, and
        # each point is its own pair's estimate
        cfg = make_config(eta_s=0.6, eta_i=0.6, mu=1.0, m_t=300,
                          straylight=40.0, read_noise=2.0, seed=120)
        block = cfg.signal_region()
        (r0, c0), (h, w) = block.origin, block.extent
        tiles = [Region((r0, c0), (3, w // 2)),
                 Region((r0 + 3, c0 + w // 2), (h - 3, w // 2))]
        pairs = [(t, cfg.geometry.conjugate_region(t)) for t in tiles]
        pdc = generate_stack(cfg, 300).counts
        bg = generate_stack(cfg, 200, KIND_BACKGROUND).counts
        for frames in (None, bg):
            points = area_scan(pdc, frames, pairs, cell_px=1)
            assert [p.extent for p in points] == [t.extent for t in tiles]
            assert [p.coherence_cells for p in points] == [12.0, 8.0]
            for point, (region_s, region_i) in zip(points, pairs):
                series = build_series(pdc, region_s, region_i, frames)
                assert point.sigma_alpha == estimate_sigma_alpha(series)
                assert point.sigma_alpha_b == (
                    None if frames is None else estimate_sigma_alpha_b(series))


class TestRepeatExperiment:
    def build_batches(self, z=6, n=400, seed=119):
        cfg = make_config(eta_s=0.613, eta_i=0.6166, mu=2.0,
                          straylight=300.0, read_noise=4.0,
                          idler_ratio=0.895, jitter=0.1, seed=seed)
        rs = cfg.signal_region()
        ri = cfg.geometry.conjugate_region(rs)
        series = build_series(generate_stack(cfg, z * n).counts, rs, ri,
                              generate_stack(cfg, z * n, KIND_BACKGROUND).counts)
        return series.batches(z)

    def test_summary_consistency(self):
        summary = repeat_experiment(self.build_batches())
        assert len(summary.per_batch_alpha) == 6
        assert summary.eta_s / summary.eta_i == pytest.approx(
            summary.alpha_b, abs=1e-12)
        assert abs(summary.eta_s - 0.613) < 4 * summary.u_eta_empirical
        assert summary.u_eta_empirical > 0
        # the two uncertainty routes agree in scale
        assert summary.u_eta_propagated == pytest.approx(
            summary.u_eta_empirical, rel=1.0)

    def test_closed_loop_recovers_unequal_efficiencies(self):
        # alpha_b estimates eta_s/eta_i, so eta_i = eta_s/alpha_b; with
        # eta_s != eta_i an inverted relation lands far outside 4 u
        cfg = make_config(eta_s=0.72, eta_i=0.53, mu=1.0, m_t=500,
                          straylight=30.0, read_noise=2.0, jitter=0.1,
                          seed=121)
        rs = cfg.signal_region()
        ri = cfg.geometry.conjugate_region(rs)
        z, n = 8, 500
        series = build_series(generate_stack(cfg, z * n).counts, rs, ri,
                              generate_stack(cfg, z * n,
                                             KIND_BACKGROUND).counts)
        summary = repeat_experiment(series.batches(z))
        per_batch_eta_i = np.array([
            eta_from_sigma(a, s)[1] for a, s in
            zip(summary.per_batch_alpha, summary.per_batch_sigma)])
        u_eta_i = per_batch_eta_i.std(ddof=1) / np.sqrt(z)
        assert abs(summary.eta_s - 0.72) < 4 * summary.u_eta_empirical
        assert abs(summary.eta_i - 0.53) < 4 * u_eta_i

    def test_needs_two_batches(self):
        with pytest.raises(DegenerateDataError):
            repeat_experiment(self.build_batches(z=6)[:1])

    def test_each_batch_is_estimated_once(self, monkeypatch):
        from twincal import estimate
        batches = self.build_batches(z=3, n=100)
        calls = []
        real = estimate._estimates
        monkeypatch.setattr(estimate, "_estimates",
                            lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        summary = repeat_experiment(batches)
        # one pass over all three batches, the (3, frames) series itself
        assert calls == [batches]
        for k, batch in enumerate(batches):
            u = propagate_type_a(batch)
            assert (u.alpha, u.sigma, u.eta) == (
                summary.per_batch_alpha[k], summary.per_batch_sigma[k],
                summary.per_batch_eta[k])

    def test_population_std_shrinks_with_batch_size(self):
        cfg = make_config(seed=120)
        rs = cfg.signal_region()
        ri = cfg.geometry.conjugate_region(rs)
        series = build_series(generate_stack(cfg, 2400).counts, rs, ri)
        small = repeat_experiment(series.batches(24))
        large = repeat_experiment(series.batches(6))
        assert small.per_batch_sigma.std(ddof=1) > \
            large.per_batch_sigma.std(ddof=1)


class TestPropagation:
    def test_background_above_signal_raises_like_the_point_estimator(self):
        s = RegionPairSeries([5, 6, 7], [5, 6, 8], m_s=[9, 9, 9],
                             m_i=[5, 6, 7])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # alpha_b < 0
            warnings.simplefilter("error", RuntimeWarning)
            for estimator in (estimate_sigma_alpha_b, propagate_type_a):
                with pytest.raises(DegenerateDataError, match="signal mean"):
                    estimator(s)

    def test_zero_idler_mean_raises_without_runtime_warnings(self):
        s = RegionPairSeries([5.0, 6.0, 7.0], [0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="idler mean is zero"):
                propagate_type_a(s)

    def test_against_bootstrap(self):
        s = poisson_series(mean=5000.0, n=400, seed=8, background=True)
        prop = propagate_type_a(s)
        rng = np.random.default_rng(9)
        boot = {"alpha": [], "sigma": [], "eta": []}
        for _ in range(600):
            kn = rng.integers(0, s.n_frames, s.n_frames)
            km = rng.integers(0, s.m_s.size, s.m_s.size)
            r = RegionPairSeries(s.n_s[kn], s.n_i[kn],
                                 m_s=s.m_s[km], m_i=s.m_i[km])
            a = estimate_alpha_b(r)
            g = estimate_sigma_alpha_b(r)
            boot["alpha"].append(a)
            boot["sigma"].append(g)
            boot["eta"].append(0.5 * (1 + a) - g)
        assert prop.u_alpha == pytest.approx(np.std(boot["alpha"], ddof=1),
                                             rel=0.25)
        assert prop.u_sigma == pytest.approx(np.std(boot["sigma"], ddof=1),
                                             rel=0.25)
        assert prop.u_eta == pytest.approx(np.std(boot["eta"], ddof=1),
                                           rel=0.25)

    def test_scaling_with_series_length(self):
        long = poisson_series(n=8000, seed=10)
        short = RegionPairSeries(long.n_s[:2000], long.n_i[:2000])
        ratio = propagate_type_a(short).u_sigma / propagate_type_a(long).u_sigma
        assert ratio == pytest.approx(2.0, rel=0.15)


class TestSeriesContainer:
    def test_validation(self):
        with pytest.raises(DegenerateDataError):
            RegionPairSeries(np.array([1.0]), np.array([1.0]))
        with pytest.raises(DegenerateDataError):
            RegionPairSeries(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(DegenerateDataError):
            RegionPairSeries(np.array([1.0, -2.0]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateDataError):
            RegionPairSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                             m_s=np.array([1.0, 2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateDataError, match="finite"):
                RegionPairSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                                 m_s=np.array([1.0, 2.0]),
                                 m_i=np.array([1.0, bad]))

    def test_batching(self):
        s = poisson_series(n=100, seed=11, background=True)
        parts = s.batches(4)
        assert len(parts) == 4
        assert all(p.n_frames == 25 for p in parts)
        assert np.array_equal(np.concatenate([p.n_s for p in parts]), s.n_s)
