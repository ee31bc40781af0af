"""Simulator tests: sampling laws, frame assembly, determinism.

Monte-Carlo assertions use 3-standard-error bands around the closed-form
predictors, which double as the cross-checks of those predictors.
"""

import collections
import dataclasses
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from twincal.errors import DomainError, GeometryError, StackFormatError
from twincal.model import (
    COUNT_DTYPE,
    BackgroundModel,
    ChannelEfficiencies,
    FrameGeometry,
    ModeStructure,
    PulseModel,
    predict_covariance,
    predict_variance,
)
from twincal import model, simulate
from twincal.simulate import (
    KIND_BACKGROUND,
    KIND_PDC,
    ExperimentConfig,
    Stack,
    generate_stack,
    iter_stack,
    render_frame,
    sample_cell_pair,
    sample_pulse,
)


def make_config(eta_s=0.6, eta_i=0.6, mu=0.1, m_t=5000, grid=(5, 8),
                cell_px=1, jitter=0.0, gain_map="linear", gain_const=None,
                straylight=0.0, tracks=False, idler_ratio=1.0,
                read_noise=0.0, binning=1, cs_offset=(0.0, 0.0),
                cosmic_rate=0.0, seed=1234, rows=13, cols=30, split=15,
                cs=(6.0, 14.5)):
    return ExperimentConfig(
        channel=ChannelEfficiencies(eta_s, eta_i),
        modes=ModeStructure(temporal_modes=m_t, coherence_cell_px=cell_px,
                            grid=grid),
        pulse=PulseModel(mean_mu=mu, relative_energy_jitter=jitter,
                         gain_map=gain_map, gain_const=gain_const),
        background=BackgroundModel(straylight_mean=straylight,
                                   straylight_tracks_pulse=tracks,
                                   read_noise_std=read_noise, binning=binning,
                                   straylight_idler_ratio=idler_ratio),
        geometry=FrameGeometry(rows=rows, cols=cols, cs=cs, beam_split=split),
        cs_offset=cs_offset,
        cosmic_ray_rate=cosmic_rate,
        master_seed=seed,
    )


def render_blocks(cfg, kind, blocks):
    """(float64 counts, energies) of ``blocks``, block indices rendered one
    by one in this thread, each into fresh buffers of its own: the serial
    oracle of the pooled renders."""
    shape = cfg.geometry.shape
    counts, energies = [], []
    for b in blocks:
        counts.append(np.empty((simulate._BLOCK_FRAMES,) + shape))
        noise = np.empty((simulate._noise_frames(cfg.geometry),) + shape)
        energies.append(simulate._render_block(cfg, kind, b, counts[-1],
                                               noise))
    return np.concatenate(counts), np.concatenate(energies)


def rendered_energies(cfg, count, kind=KIND_PDC):
    """The pulse energies of a stack's first ``count`` frames, as
    ``render_stack`` hands them to its ``put``."""
    energies = np.full(count, np.nan)

    def put(first, counts, energy):
        energies[first:first + len(energy)] = energy

    simulate.render_stack(cfg, kind, count, put)
    return energies


def inject_cosmic_ray(frame, rng):
    """A u32 copy of one (rows, cols) frame with one cosmic-ray spike
    added by the simulator's spike law, re-quantised."""
    counts = frame.astype(np.float64)
    simulate._inject_spike(counts, rng)
    return np.rint(counts).astype(COUNT_DTYPE)


REFUSED_DTYPES = ["float64", "float64 with NaN", "int64", ">u4"]


def refused_counts(dtype, shape):
    """Counts of 9 of ``shape`` in one of REFUSED_DTYPES, the NaN case
    with one NaN."""
    if dtype == "float64 with NaN":
        counts = np.full(shape, 9.0)
        counts.flat[1] = np.nan
        return counts
    return np.full(shape, 9, dtype=dtype)


class TestStack:
    @pytest.mark.parametrize("dtype", REFUSED_DTYPES)
    def test_counts_other_than_u32_are_refused(self, dtype):
        with pytest.raises(StackFormatError, match="<u4"):
            Stack(refused_counts(dtype, (3, 4, 6)))

    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6, 1)])
    def test_u32_counts_that_are_not_3d_are_refused(self, shape):
        with pytest.raises(StackFormatError, match=r"\(frames, rows, cols\)"):
            Stack(np.zeros(shape, np.uint32))

    def test_a_list_of_counts_is_refused(self):
        with pytest.raises(StackFormatError):
            Stack([[[1, 2]]])


class TestSamplePulse:
    def test_no_jitter_is_exact(self):
        rng = np.random.default_rng(0)
        pulse = PulseModel(mean_mu=0.37)
        energies, mus = sample_pulse(pulse, rng, size=5)
        assert np.all(energies == 1.0) and np.all(mus == 0.37)

    def test_jitter_std_matches_linear_map(self):
        rng = np.random.default_rng(1)
        pulse = PulseModel(mean_mu=2.0, relative_energy_jitter=0.1)
        _, mus = sample_pulse(pulse, rng, size=100_000)
        # law-of-large-numbers oracle: std(mu) = jitter * mean_mu
        se = 0.1 * 2.0 / np.sqrt(2 * mus.size)
        assert abs(mus.std(ddof=1) - 0.2) < 3 * se

    def test_energy_always_positive_under_heavy_jitter(self):
        rng = np.random.default_rng(2)
        pulse = PulseModel(mean_mu=1.0, relative_energy_jitter=0.8)
        energies, _ = sample_pulse(pulse, rng, size=20_000)
        assert np.all(energies > 0)


class TestSampleCellPair:
    def test_unit_efficiency_is_perfectly_paired(self):
        rng = np.random.default_rng(3)
        ch = ChannelEfficiencies(1.0, 1.0)
        s, i = sample_cell_pair(0.5, 100, ch, rng, size=5000)
        assert np.array_equal(s, i)

    def test_mean_and_covariance_against_predictors(self):
        rng = np.random.default_rng(4)
        ch = ChannelEfficiencies(0.6, 0.6)
        n = 100_000
        s, i = sample_cell_pair(0.1, 5000, ch, rng, size=n)
        mean_th = 5000 * 0.6 * 0.1  # 300
        var_th = predict_variance(0.1, 0.6, 5000)  # 318
        cov_th = predict_covariance(0.1, 0.6, 0.6, 5000)  # 198
        assert abs(s.mean() - mean_th) < 3 * np.sqrt(var_th / n)
        cov = np.cov(s, i)[0, 1]
        se_cov = np.sqrt((var_th ** 2 + cov_th ** 2) / n)
        assert abs(cov - cov_th) < 3 * se_cov

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_cell_pair(0.0, 10, ChannelEfficiencies(0.5, 0.5), rng)
        with pytest.raises(DomainError):
            sample_cell_pair(0.1, 0, ChannelEfficiencies(0.5, 0.5), rng)


class TestRenderFrame:
    def test_noiseless_unit_efficiency_frame_is_point_symmetric(self):
        cfg = make_config(eta_s=1.0, eta_i=1.0, mu=1.0, m_t=50)
        counts = render_frame(cfg, 0).counts[0]
        cs_r, cs_c = cfg.geometry.cs
        region = cfg.signal_region()
        for r in range(region.origin[0], region.origin[0] + region.extent[0]):
            for c in range(region.origin[1], region.origin[1] + region.extent[1]):
                rc = int(round(2 * cs_r - r))
                cc = int(round(2 * cs_c - c))
                assert counts[r, c] == counts[rc, cc]

    def test_background_frame_statistics(self):
        # Poisson straylight + Gaussian read noise composition.
        lam, read, binning = 200.0, 2.0, 3
        cfg = make_config(straylight=lam, read_noise=read, binning=binning,
                          seed=77)
        frames = generate_stack(cfg, 300, KIND_BACKGROUND)
        values = frames.counts.ravel()
        var_th = lam + binning ** 2 * read ** 2 + 1.0 / 12.0  # + quantisation
        n = values.size
        assert abs(values.mean() - lam) < 3 * np.sqrt(var_th / n)
        assert abs(values.var(ddof=1) - var_th) < 3 * var_th * np.sqrt(2.0 / n)

    def test_background_kind_has_no_emission(self):
        cfg = make_config()
        frame = render_frame(cfg, 0, kind=KIND_BACKGROUND)
        assert frame.counts.sum() == 0.0

    def test_straylight_idler_ratio_scales_halves(self):
        cfg = make_config(straylight=400.0, idler_ratio=0.5, seed=5)
        stack = generate_stack(cfg, 200, KIND_BACKGROUND).counts
        split = cfg.geometry.beam_split
        mean_s = stack[:, :, :split].mean()
        mean_i = stack[:, :, split:].mean()
        assert mean_s == pytest.approx(400.0, rel=0.02)
        assert mean_i == pytest.approx(200.0, rel=0.02)

    def test_reference_scale_region_mean(self):
        from twincal.presets import reference_experiment
        from twincal.estimate import build_series
        cfg = reference_experiment(master_seed=11)
        region_s = cfg.signal_region()
        region_i = cfg.geometry.conjugate_region(region_s)
        series = build_series(generate_stack(cfg, 400).counts, region_s, region_i)
        assert series.n_s.mean() == pytest.approx(262710, rel=0.02)

    def test_offset_moves_idler_deposit(self):
        base = make_config(mu=1.0, m_t=100, seed=9)
        moved = dataclasses.replace(base, cs_offset=(2.0, -1.0))
        f0 = render_frame(base, 0).counts[0]
        f1 = render_frame(moved, 0).counts[0]
        split = base.geometry.beam_split
        # same stream: signal halves identical, idler half shifted
        assert np.array_equal(f0[:, :split], f1[:, :split])
        assert np.array_equal(np.roll(f0[:, split:], (2, -1), (0, 1)),
                              f1[:, split:])

    def test_offset_rounding_is_half_away_from_zero(self):
        cfg = make_config(cs_offset=(0.5, -0.5))
        assert cfg.idler_region().origin == (
            cfg.geometry.conjugate_region(cfg.signal_region()).origin[0] + 1,
            cfg.geometry.conjugate_region(cfg.signal_region()).origin[1] - 1)

    def test_offset_out_of_bounds_is_geometry_error(self):
        with pytest.raises(GeometryError):
            make_config(cs_offset=(0.0, 40.0))


class TestCellSpreading:
    def test_multi_superpixel_cells_conserve_counts(self):
        cfg = make_config(cell_px=2, grid=(3, 4), rows=17, cols=36, split=18,
                          cs=(8.0, 17.5), eta_s=1.0, eta_i=1.0, mu=2.0,
                          m_t=50, seed=21)
        counts = render_frame(cfg, 0).counts[0]
        region = cfg.signal_region()
        sig = counts[region.row_slice, region.col_slice]
        conj = cfg.geometry.conjugate_region(region)
        idl = counts[conj.row_slice, conj.col_slice][::-1, ::-1]
        # cell-block sums mirror exactly at unit efficiency
        cells_s = sig.reshape(3, 2, 4, 2).sum(axis=(1, 3))
        cells_i = idl.reshape(3, 2, 4, 2).sum(axis=(1, 3))
        assert np.array_equal(cells_s, cells_i)
        assert cells_s.sum() > 0  # the spread lands in the frame


class TestDeterminism:
    def test_identical_configs_give_identical_stacks(self):
        cfg = make_config(straylight=50.0, read_noise=2.0, jitter=0.05,
                          cosmic_rate=0.1, seed=31)
        a = generate_stack(cfg, 20)
        b = generate_stack(cfg, 20)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(rendered_energies(cfg, 20),
                              rendered_energies(cfg, 20))

    def test_block_boundaries_do_not_change_output(self):
        cfg = make_config(straylight=50.0, jitter=0.05, seed=32)
        full = generate_stack(cfg, 200)
        energies = rendered_energies(cfg, 200)
        for n in (1, 63, 64, 65, 130):
            part = generate_stack(cfg, n)
            assert np.array_equal(part.counts, full.counts[:n])
            assert np.array_equal(rendered_energies(cfg, n), energies[:n])
        for k in (0, 63, 64, 127, 199):
            frame = render_frame(cfg, k)
            assert frame.counts.dtype == COUNT_DTYPE
            assert np.array_equal(frame.counts, full.counts[k:k + 1])
        blocks = list(iter_stack(cfg, 200))
        assert [len(b.counts) for b in blocks] == [64, 64, 64, 8]
        streamed = np.concatenate([b.counts for b in blocks])
        assert np.array_equal(streamed, full.counts)

    def test_out_of_order_rendering_matches_stack(self):
        cfg = make_config(jitter=0.1, seed=33)
        stack = generate_stack(cfg, 10)
        for k in (7, 3, 9, 0, 5):
            frame = render_frame(cfg, k)
            assert np.array_equal(frame.counts, stack.counts[k:k + 1])

    def test_pdc_part_unchanged_by_background_fields(self):
        quiet = make_config(seed=34)
        noisy = dataclasses.replace(
            quiet, background=BackgroundModel(straylight_mean=100.0,
                                              read_noise_std=3.0))
        f_quiet = render_frame(quiet, 0).counts[0]
        f_noisy = render_frame(noisy, 0).counts[0]
        # emission draws come first in the stream, so the deposit pattern
        # is shared and the difference is pure background
        region = quiet.signal_region()
        diff = f_noisy.astype(np.int64) - f_quiet  # u32 would wrap
        assert f_quiet[region.row_slice, region.col_slice].sum() > 0
        assert diff.min() >= -3.0 * 3.0 * 4  # read noise only, quantised

    def test_mirrored_configuration_is_statistically_identical(self):
        # swapping the arms and mirroring the geometry must not change the
        # law of the region sums
        from twincal.estimate import build_series
        cfg_a = make_config(eta_s=0.7, eta_i=0.5, mu=0.5, m_t=200, seed=35)
        cfg_b = dataclasses.replace(
            cfg_a, channel=ChannelEfficiencies(0.5, 0.7), master_seed=36)
        rs = cfg_a.signal_region()
        ri = cfg_a.geometry.conjugate_region(rs)
        sa = build_series(generate_stack(cfg_a, 1500).counts, rs, ri)
        sb = build_series(generate_stack(cfg_b, 1500).counts, rs, ri)
        # signal sums of A vs idler sums of B (and vice versa)
        for x, y in ((sa.n_s, sb.n_i), (sa.n_i, sb.n_s)):
            assert scipy.stats.ks_2samp(x, y).pvalue > 0.01


def concurrent_config(**kwargs):
    """2-px cells, cosmic rays and an offset centre: every render path."""
    return make_config(cell_px=2, grid=(3, 4), rows=17, cols=36, split=18,
                       cs=(8.0, 17.5), cs_offset=(1.0, -1.0), mu=1.5, m_t=100,
                       jitter=0.05, straylight=50.0, read_noise=2.0,
                       cosmic_rate=0.3, **kwargs)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(model, "_cpu_count", lambda: workers)


def warm_pool(workers):
    """Grow the process-wide worker pool to ``workers`` - 1 threads, which
    then outlive every call."""
    model._run_workers(lambda dealt: list(dealt), range(workers))


class TestConcurrentRendering:
    @pytest.mark.parametrize("kind", [KIND_PDC, KIND_BACKGROUND])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_does_not_change_output(self, monkeypatch, workers,
                                                 kind):
        cfg = concurrent_config(seed=61)
        counts, energy = render_blocks(cfg, kind, range(16))
        force_workers(monkeypatch, workers)
        for n in (1, 63, 64, 65, 130, 1000):
            stack = generate_stack(cfg, n, kind)
            assert np.array_equal(stack.counts, counts[:n])
            assert np.array_equal(rendered_energies(cfg, n, kind), energy[:n])
            blocks = list(iter_stack(cfg, n, kind))
            assert np.array_equal(np.concatenate([b.counts for b in blocks]),
                                  counts[:n])

    def test_noise_chunks_do_not_change_output(self, monkeypatch):
        cfg = concurrent_config(seed=62)
        default = simulate._NOISE_CHUNK_ELEMENTS

        def blocks(chunk_elements):
            monkeypatch.setattr(simulate, "_NOISE_CHUNK_ELEMENTS",
                                chunk_elements)
            return [render_blocks(cfg, kind, [0])
                    for kind in (KIND_PDC, KIND_BACKGROUND)]

        whole = blocks(1 << 30)  # one draw over the whole block
        for chunk_elements in (1, 5000, default):
            for (c, e), (counts, energy) in zip(blocks(chunk_elements), whole):
                assert np.array_equal(c, counts)
                assert np.array_equal(e, energy)

    @pytest.mark.parametrize("chunk_elements",
                             [1, 5000, simulate._NOISE_CHUNK_ELEMENTS])
    @pytest.mark.parametrize("cell_px", [1, 2])
    @pytest.mark.parametrize("kind", [KIND_PDC, KIND_BACKGROUND])
    def test_dirty_work_buffers_render_the_fresh_block(self, monkeypatch, kind,
                                                       cell_px, chunk_elements):
        cfg = (concurrent_config(seed=67) if cell_px == 2 else
               make_config(mu=1.5, m_t=100, jitter=0.05, straylight=50.0,
                           read_noise=2.0, cosmic_rate=0.3, seed=67))
        monkeypatch.setattr(simulate, "_NOISE_CHUNK_ELEMENTS", chunk_elements)
        fresh, energy = render_blocks(cfg, kind, [2])
        shape = cfg.geometry.shape
        for fill in (np.nan, 1e300):
            work = np.full(fresh.shape, fill)
            noise = np.full((simulate._noise_frames(cfg.geometry),) + shape,
                            fill)
            e = simulate._render_block(cfg, kind, 2, work, noise)
            assert work.tobytes() == fresh.tobytes()
            assert e.tobytes() == energy.tobytes()

    @pytest.mark.parametrize("cell_px", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_kept_blocks_are_u32_and_share_no_memory(self, monkeypatch,
                                                     workers, cell_px):
        # 11 blocks run as tasks of several blocks on recycled work blocks;
        # a caller keeping every block must still see the serial render
        cfg = (concurrent_config(seed=68) if cell_px == 2 else
               make_config(straylight=50.0, read_noise=2.0, seed=68))
        count = 11 * 64 - 5
        counts, _ = render_blocks(cfg, KIND_PDC, range(11))
        force_workers(monkeypatch, workers)
        blocks = list(iter_stack(cfg, count))
        assert all(b.counts.dtype == np.dtype("<u4") for b in blocks)
        assert np.array_equal(np.concatenate([b.counts for b in blocks]),
                              counts[:count])
        for k, a in enumerate(blocks):
            for b in blocks[k + 1:]:
                assert not np.shares_memory(a.counts, b.counts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_beyond_u32_raise(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        cfg = make_config(straylight=5e9, seed=69)
        with pytest.raises(StackFormatError):
            generate_stack(cfg, 130, KIND_BACKGROUND)

    def test_short_stacks_start_no_thread(self, monkeypatch):
        # a fresh pool, as in a new process: one block runs in the calling
        # thread, and the first two-block stack starts the pool's thread
        monkeypatch.setattr(model, "_POOL", model._POOL)
        model._reset_pool()
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        force_workers(monkeypatch, 4)
        cfg = concurrent_config(seed=63)
        generate_stack(cfg, 5)
        generate_stack(cfg, 64, KIND_BACKGROUND)
        list(iter_stack(cfg, 5))
        render_frame(cfg, 100)
        assert started == []
        generate_stack(cfg, 65)  # two blocks: the pool does start
        assert started

    @pytest.mark.parametrize("workers", [2, 3])
    def test_streaming_memory_is_bounded(self, monkeypatch, workers):
        # 48x128 frames draw their noise in chunks of a block; a render's
        # own temporaries are then a fraction of the block it fills
        cfg = make_config(cell_px=2, grid=(5, 8), rows=48, cols=128,
                          split=64, cs=(23.5, 63.5), cs_offset=(1.0, -1.0),
                          mu=2.0, m_t=50, straylight=80.0, read_noise=4.0,
                          cosmic_rate=0.5, seed=64)
        block_bytes = 64 * 48 * 128 * 8 + 64 * 8
        force_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            collections.deque(iter_stack(cfg, 40 * 64), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (workers + 2) * block_bytes

    def test_closing_the_stream_stops_its_threads(self, monkeypatch):
        # each block renders in the calling thread before it is yielded,
        # and no thread beyond the pool's is left running
        force_workers(monkeypatch, 2)
        warm_pool(2)
        before = threading.active_count()
        stream = iter_stack(concurrent_config(seed=65), 640)
        next(stream)
        assert threading.active_count() == before
        stream.close()
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", [KIND_PDC, KIND_BACKGROUND])
    def test_cpu_count_changing_between_rounds_does_not_change_output(
            self, monkeypatch, kind):
        # every render_stack call, one per stack or one per iter_stack
        # block, reads the CPU count afresh; a worker handed several
        # blocks must keep their work blocks apart and their order
        cfg = concurrent_config(seed=70)
        counts, energy = render_blocks(cfg, kind, range(16))
        calls = itertools.count()
        monkeypatch.setattr(model, "_cpu_count",
                            lambda: (2, 1, 4, 3)[next(calls) % 4])
        for n in (130, 700, 1000):
            stack = generate_stack(cfg, n, kind)
            assert np.array_equal(stack.counts, counts[:n])
            assert np.array_equal(rendered_energies(cfg, n, kind), energy[:n])
            blocks = list(iter_stack(cfg, n, kind))
            assert np.array_equal(np.concatenate([b.counts for b in blocks]),
                                  counts[:n])
        assert next(calls) > 12  # one call per iter_stack block

    @pytest.mark.parametrize("count", [5, 640])
    def test_unknown_kind_raises_and_leaves_no_thread(self, monkeypatch,
                                                      count):
        force_workers(monkeypatch, 2)
        warm_pool(2)
        cfg = concurrent_config(seed=66)
        before = threading.active_count()
        with pytest.raises(DomainError):
            generate_stack(cfg, count, "dark")
        with pytest.raises(DomainError):
            list(iter_stack(cfg, count, "dark"))
        assert threading.active_count() == before


class TestCosmicRays:
    def test_zero_rate_leaves_frames_unchanged(self):
        cfg = make_config(cosmic_rate=0.0, straylight=100.0, seed=41)
        cfg_on = dataclasses.replace(cfg, cosmic_ray_rate=1e-12)
        a = render_frame(cfg, 0)
        b = render_frame(cfg_on, 0)
        assert np.array_equal(a.counts, b.counts)

    def test_injection_adds_single_spike(self):
        cfg = make_config(straylight=100.0, seed=42)
        frame = render_frame(cfg, 0, kind=KIND_BACKGROUND).counts[0]
        rng = np.random.default_rng(7)
        spiked = inject_cosmic_ray(frame, rng)
        delta = spiked - frame
        assert np.count_nonzero(delta) == 1
        assert delta.max() >= 20.0 * np.median(frame)
        # original untouched
        assert frame[np.unravel_index(delta.argmax(), delta.shape)] \
            != spiked[np.unravel_index(delta.argmax(), delta.shape)]


class TestBalancedSigmaConvergence:
    def test_empirical_sigma_matches_one_minus_eta(self):
        from twincal.estimate import (build_series, estimate_sigma_alpha,
                                      propagate_type_a)
        cfg = make_config(eta_s=0.6, eta_i=0.6, mu=0.1, seed=51)
        rs = cfg.signal_region()
        ri = cfg.geometry.conjugate_region(rs)
        series = build_series(generate_stack(cfg, 2000).counts, rs, ri)
        sigma = estimate_sigma_alpha(series)
        u = propagate_type_a(series).u_sigma
        assert abs(sigma - 0.4) < 3 * u
