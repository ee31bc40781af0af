"""Closed-form predictor tests.

Derived expected values are frozen from independent oracles computed here:
brute-force enumeration of the thermal photon-number law for single-mode
moments, plain arithmetic for the multimode identities.  Monte-Carlo
cross-checks of the same predictors live in test_simulate.py.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twincal import model
from twincal.errors import DomainError, GeometryError
from twincal.model import (
    ChannelEfficiencies,
    FrameGeometry,
    ModeStructure,
    PulseModel,
    Region,
    predict_covariance,
    predict_sigma,
    predict_sigma_alpha,
    predict_sigma_with_jitter,
    predict_variance,
)


def thermal_pmf(mu, nmax=4000):
    """Brute-force single-mode thermal law p(n) = mu^n / (1+mu)^(n+1)."""
    n = np.arange(nmax, dtype=np.float64)
    return n, np.exp(n * np.log(mu) - (n + 1.0) * np.log1p(mu))


def thermal_moments(mu):
    n, p = thermal_pmf(mu)
    assert p.sum() > 1.0 - 1e-12
    mean = (n * p).sum()
    var = ((n - mean) ** 2 * p).sum()
    return mean, var


class TestPredictVariance:
    def test_reference_point(self):
        assert predict_variance(0.1, 0.6, 5000) == pytest.approx(318.0, rel=1e-12)

    def test_shot_noise_limit(self):
        # m_tot -> inf with <N> fixed: the excess <N>/m_tot vanishes and
        # the variance converges to the shot-noise level <N>.
        mean = 300.0
        previous = np.inf
        for m_tot in (1e6, 1e9, 1e12):
            mu = mean / (0.5 * m_tot)
            var = predict_variance(mu, 0.5, m_tot)
            assert var == pytest.approx(mean, rel=2 * mean / m_tot + 1e-12)
            assert abs(var - mean) < abs(previous - mean)
            previous = var

    def test_single_mode_matches_enumeration(self):
        # Oracle: variance of the geometric (thermal) law at mu = 0.1.
        _, var = thermal_moments(0.1)
        assert var == pytest.approx(0.11, rel=1e-10)
        assert predict_variance(0.1, 1.0, 1) == pytest.approx(var, rel=1e-10)

    def test_thinned_single_mode_matches_enumeration(self):
        # Thinning a thermal mode: Var = eta(1-eta)E[n] + eta^2 Var[n].
        eta = 0.37
        mean, var = thermal_moments(0.2)
        oracle = eta * (1 - eta) * mean + eta * eta * var
        assert predict_variance(0.2, eta, 1) == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            predict_variance(-0.1, 0.6, 10)
        with pytest.raises(DomainError):
            predict_variance(0.1, 1.2, 10)
        with pytest.raises(DomainError):
            predict_variance(0.1, 0.6, 0)

    @given(mu=st.floats(1e-4, 50), eta=st.floats(0.01, 1.0),
           m_tot=st.integers(1, 10 ** 7))
    def test_excess_noise_identity(self, mu, eta, m_tot):
        # Var/<N> - 1 == <N>/m_tot
        mean = m_tot * eta * mu
        excess = predict_variance(mu, eta, m_tot) / mean - 1.0
        assert excess == pytest.approx(mean / m_tot, rel=1e-12, abs=1e-15)


class TestPredictCovariance:
    def test_reference_point(self):
        assert predict_covariance(0.1, 0.6, 0.6, 5000) == pytest.approx(
            198.0, rel=1e-12)

    def test_single_mode_matches_enumeration(self):
        # Oracle over paired thinned draws: with a shared pre-detection n,
        # Cov(det_s, det_i) = eta_s * eta_i * Var(n).
        _, var = thermal_moments(0.1)
        assert predict_covariance(0.1, 1.0, 1.0, 1) == pytest.approx(
            var, rel=1e-10)
        assert predict_covariance(0.1, 0.3, 0.8, 1) == pytest.approx(
            0.3 * 0.8 * var, rel=1e-10)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(DomainError):
            predict_covariance(0.1, 0.0, 0.6, 10)


class TestPredictSigma:
    def test_worked_example(self):
        ch = ChannelEfficiencies(0.7, 0.5)
        assert predict_sigma(ch, 0.1) == pytest.approx(0.42, rel=1e-12)

    def test_perfect_detection(self):
        assert predict_sigma(ChannelEfficiencies(1.0, 1.0), 0.3) == 0.0

    @given(eta=st.floats(0.01, 1.0), mu=st.floats(1e-4, 20))
    def test_balanced_loss_identity(self, eta, mu):
        ch = ChannelEfficiencies(eta, eta)
        assert predict_sigma(ch, mu) == 1.0 - eta

    @given(es=st.floats(0.01, 1.0), ei=st.floats(0.01, 1.0),
           mu=st.floats(1e-4, 20))
    def test_lower_bound(self, es, ei, mu):
        ch = ChannelEfficiencies(es, ei)
        assert predict_sigma(ch, mu) >= 1.0 - ch.eta_plus


class TestPredictSigmaWithJitter:
    def test_zero_jitter_is_bitwise_identical(self):
        ch = ChannelEfficiencies(0.62, 0.60)
        for mu in (0.05, 0.1, 2.0388, 17.3):
            assert predict_sigma_with_jitter(ch, mu, 0.0, 5000) == \
                predict_sigma(ch, mu)

    def test_balanced_channels_ignore_jitter(self):
        ch = ChannelEfficiencies(0.55, 0.55)
        assert predict_sigma_with_jitter(ch, 0.1, 1e-2, 10 ** 6) == pytest.approx(
            0.45, rel=1e-12)

    @given(var1=st.floats(0, 0.1), var2=st.floats(0, 0.1),
           m1=st.integers(1, 10 ** 6), m2=st.integers(1, 10 ** 6))
    def test_monotone_in_jitter_and_modes(self, var1, var2, m1, m2):
        ch = ChannelEfficiencies(0.7, 0.5)
        lo, hi = sorted((var1, var2))
        assert predict_sigma_with_jitter(ch, 0.1, lo, 100) <= \
            predict_sigma_with_jitter(ch, 0.1, hi, 100)
        lo_m, hi_m = sorted((m1, m2))
        assert predict_sigma_with_jitter(ch, 0.1, 0.01, lo_m) <= \
            predict_sigma_with_jitter(ch, 0.1, 0.01, hi_m)

    def test_against_jittered_simulation(self):
        # simulator as oracle: slightly imbalanced channels, strong pump
        # jitter, mode count large enough that the jitter term dominates
        from twincal.estimate import build_series, estimate_sigma_raw
        from twincal.simulate import generate_stack
        from test_simulate import make_config

        cfg = make_config(eta_s=0.62, eta_i=0.60, mu=0.1, jitter=0.3,
                          seed=606)
        region_s = cfg.signal_region()
        series = build_series(generate_stack(cfg, 4000).counts, region_s,
                              cfg.geometry.conjugate_region(region_s))
        m_tot = cfg.modes.total_modes(cfg.modes.spatial_modes)
        ch = ChannelEfficiencies(0.62, 0.60)
        var_mu = (0.3 * 0.1) ** 2  # linear gain map
        predicted = predict_sigma_with_jitter(ch, 0.1, var_mu, m_tot)
        # the jitter term must dominate the test, not just perturb it
        assert predicted > 2 * predict_sigma(ch, 0.1)
        # batch scatter as the sampling error of the raw estimator
        per_batch = [estimate_sigma_raw(b) for b in series.batches(10)]
        measured = estimate_sigma_raw(series)
        se = np.std(per_batch, ddof=1) / np.sqrt(len(per_batch))
        assert abs(measured - predicted) < 4 * se


class TestPredictSigmaAlpha:
    def test_reference_inversion_point(self):
        # Bundled reference values: the pair (0.99416, 0.613) maps to
        # 0.384 at the reference's rounded precision.
        assert predict_sigma_alpha(0.99416, 0.613) == pytest.approx(
            0.384, abs=5e-4)

    def test_trivial_points(self):
        assert predict_sigma_alpha(1.0, 1.0) == 0.0
        assert predict_sigma_alpha(1.0, 0.5) == 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            predict_sigma_alpha(0.0, 0.5)
        with pytest.raises(DomainError):
            predict_sigma_alpha(1.0, 0.0)


class TestTypes:
    def test_channel_properties(self):
        ch = ChannelEfficiencies(0.7, 0.5)
        assert ch.eta_plus == pytest.approx(0.6)
        assert ch.eta_minus == pytest.approx(0.2)

    def test_channel_validation(self):
        with pytest.raises(DomainError):
            ChannelEfficiencies(0.0, 0.5)
        with pytest.raises(DomainError):
            ChannelEfficiencies(0.5, 1.01)

    def test_mode_structure(self):
        modes = ModeStructure(temporal_modes=5000, coherence_cell_px=2,
                              grid=(5, 8))
        assert modes.spatial_modes == 40
        assert modes.block_shape == (10, 16)
        assert modes.total_modes(40) == 200000
        with pytest.raises(DomainError):
            ModeStructure(0, 1, (5, 8))

    def test_pulse_model(self):
        lin = PulseModel(mean_mu=2.0, relative_energy_jitter=0.1)
        assert lin.mu_at(1.0) == 2.0
        assert lin.mu_at(0.5) == 1.0
        s2 = PulseModel(mean_mu=2.0, gain_map="sinh2", gain_const=1.0)
        assert s2.mu_at(1.0) == pytest.approx(2.0, rel=1e-12)
        assert s2.mu_at(1.2) > 2.0 * 1.2  # convex gain amplifies
        with pytest.raises(DomainError):
            PulseModel(mean_mu=2.0, gain_map="sinh2")  # missing constant
        with pytest.raises(DomainError):
            PulseModel(mean_mu=0.0)

    def test_geometry_conjugation(self):
        geo = FrameGeometry(rows=13, cols=30, cs=(6.0, 14.5), beam_split=15)
        region = Region(origin=(4, 3), extent=(5, 8))
        conj = geo.conjugate_region(region)
        assert conj.origin == (4, 19)
        geo.validate_region(conj, idler=True)
        # conjugating back recovers the original placement
        back = geo.conjugate_region(conj)
        assert back.origin == region.origin

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            FrameGeometry(rows=10, cols=20, cs=(5.0, 10.25), beam_split=10)
        geo = FrameGeometry(rows=10, cols=20, cs=(4.5, 9.5), beam_split=10)
        with pytest.raises(GeometryError):
            geo.validate_region(Region(origin=(0, 8), extent=(2, 4)))
        with pytest.raises(GeometryError):
            geo.validate_region(Region(origin=(9, 0), extent=(2, 2)))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 9), half=st.integers(1, 8),
       h=st.integers(1, 9), w=st.integers(1, 8), r0=st.integers(0, 8),
       c0=st.integers(0, 7), er=st.integers(0, 4), ec=st.integers(0, 4))
def test_search_window_is_the_box_of_every_shifted_conjugate(
        rows, half, h, w, r0, c0, er, ec):
    # valid exactly when every candidate region is, and then their hull
    geo = FrameGeometry(rows=rows, cols=2 * half, cs=((rows - 1) / 2.0,
                                                      half - 0.5),
                        beam_split=half)
    region = Region(origin=(r0, c0), extent=(h, w))
    blocks = []
    try:
        for dr in range(-er, er + 1):
            for dc in range(-ec, ec + 1):
                blocks.append(geo.conjugate_region(region, shift=(dr, dc)))
    except GeometryError:
        with pytest.raises(GeometryError):
            geo.search_window(region, (er, ec))
        return
    window = geo.search_window(region, (er, ec))
    top = min(b.origin[0] for b in blocks), min(b.origin[1] for b in blocks)
    bottom = (max(b.origin[0] + h for b in blocks),
              max(b.origin[1] + w for b in blocks))
    assert window.origin == top
    assert window.extent == (bottom[0] - top[0], bottom[1] - top[1])
    geo.validate_region(window, idler=c0 < half)


def test_search_window_rejects_a_negative_extent():
    geo = FrameGeometry(rows=13, cols=30, cs=(6.0, 14.5), beam_split=15)
    with pytest.raises(DomainError):
        geo.search_window(Region(origin=(4, 3), extent=(5, 8)), (1, -1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(4, 12), half=st.integers(3, 10),
       h=st.integers(1, 3), w=st.integers(1, 3), er=st.integers(0, 2),
       ec=st.integers(0, 2), cs2=st.integers(-1, 1), top=st.integers(0, 3),
       left=st.integers(0, 5), extra=st.integers(0, 3))
def test_crop_moves_every_derived_region_by_the_box_origin(
        data, rows, half, h, w, er, ec, cs2, top, left, extra):
    # conjugates, search windows and anchored regions of the cut frame
    # are the whole frame's, moved by the box origin
    from twincal.estimate import anchored_region
    geo = FrameGeometry(rows=rows, cols=2 * half,
                        cs=((rows - 1 + cs2) / 2.0, half - 0.5),
                        beam_split=half)
    region = Region(origin=(data.draw(st.integers(0, rows - 1)),
                            data.draw(st.integers(0, half - 1))),
                    extent=(h, w))
    r0, c0 = region.origin
    try:
        window = geo.search_window(region, (er, ec))
        geo.validate_region(region)
    except GeometryError:
        return
    # a box holding region and window, with up to a few more pixels
    top, left = min(top, r0, window.origin[0]), min(left, c0)
    bottom = max(r0 + h, window.origin[0] + window.extent[0]) + extra
    right = window.origin[1] + window.extent[1]
    box = Region(origin=(top, left), extent=(bottom - top, right - left))
    cut, (moved, moved_window) = geo.crop(box, [region, window])
    dr, dc = box.origin

    def move(r):
        return Region((r.origin[0] - dr, r.origin[1] - dc), r.extent)

    assert (moved, moved_window) == (move(region), move(window))
    assert (cut.rows, cut.cols) == box.extent
    cut.validate_region(moved)
    assert cut.search_window(moved, (er, ec)) == moved_window
    for shift in ((0, 0), (er, -ec)):
        assert cut.conjugate_region(moved, shift) == \
            move(geo.conjugate_region(region, shift))
    for extent in ((1, 1), (h, w), (h + 1, max(1, w - 1))):
        assert anchored_region(moved.center, extent) == \
            move(anchored_region(region.center, extent))


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(model, "_cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_run_workers_deals_the_jobs_and_returns_in_worker_order(
        monkeypatch, cpus):
    # worker k of W gets jobs[k::W]; the first worker finishes last, and
    # the results still come back in worker order
    force_cpus(monkeypatch, cpus)
    caller = threading.get_ident()
    for n_jobs in sorted({1, cpus - 1, cpus, 3 * cpus + 1} - {0}):
        jobs = [f"job {i}" for i in range(n_jobs)]
        workers = min(cpus, n_jobs)

        def work(dealt):
            k = jobs.index(dealt[0])
            time.sleep(0.005 * (workers - 1 - k))
            return threading.get_ident(), dealt

        results = model._run_workers(work, jobs)
        assert [dealt for _, dealt in results] == \
            [jobs[k::workers] for k in range(workers)]
        threads = [thread for thread, _ in results]
        assert threads[0] == caller
        assert caller not in threads[1:]


@pytest.mark.parametrize("cpus, n_jobs", [(1, 5), (4, 1)])
def test_run_workers_on_one_cpu_or_one_job_starts_no_thread(
        monkeypatch, cpus, n_jobs):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    force_cpus(monkeypatch, cpus)
    jobs = list(range(n_jobs))
    assert model._run_workers(lambda dealt: dealt, jobs) == [jobs]


def test_run_workers_reraises_a_second_workers_exception_as_itself(
        monkeypatch):
    # worker 1 raises on its own thread; the exception comes out as the
    # same object once worker 2, which is still running, has stopped
    force_cpus(monkeypatch, 3)
    caller = threading.get_ident()
    boom = ValueError("worker 1")
    raised_on, stopped = [], []

    def work(dealt):
        if dealt == [1, 4]:
            raised_on.append(threading.get_ident())
            raise boom
        if dealt == [2, 5]:
            time.sleep(0.05)
            stopped.append(2)
        return dealt

    with pytest.raises(ValueError) as info:
        model._run_workers(work, list(range(6)))
    assert info.value is boom
    assert raised_on and raised_on[0] != caller
    assert stopped == [2]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 9), half=st.integers(1, 8), cs2=st.integers(-2, 2),
       h=st.integers(1, 9), w=st.integers(1, 8), r0=st.integers(0, 8),
       c0=st.integers(0, 15))
def test_conjugation_is_an_involution_across_the_halves(rows, half, cs2, h,
                                                        w, r0, c0):
    # a region wholly on either half has its conjugate on the other, and
    # conjugating that gives the region back
    geo = FrameGeometry(rows=rows, cols=2 * half,
                        cs=((rows - 1) / 2.0, (2 * half - 1 + cs2) / 2.0),
                        beam_split=half)
    region = Region(origin=(r0, c0), extent=(h, w))
    signal = c0 < half
    try:
        geo.validate_region(region, idler=not signal)
        conj = geo.conjugate_region(region)
    except GeometryError:
        return
    geo.validate_region(conj, idler=signal)
    with pytest.raises(GeometryError):
        geo.validate_region(conj, idler=not signal)
    assert geo.conjugate_region(conj) == region


def test_one_bounds_check_names_the_frame():
    # the geometry, the region sums and the cosmic-ray filter refuse a
    # region leaving the frame with the same message
    from twincal.estimate import build_series, cosmic_ray_filter
    geo = FrameGeometry(rows=4, cols=6, cs=(1.5, 2.5), beam_split=3)
    frames = np.zeros((5, 4, 6), dtype=model.COUNT_DTYPE)
    region = Region((2, 1), (3, 2))
    for check in (lambda: geo.validate_region(region),
                  lambda: geo.validate_region(region, idler=True),
                  lambda: build_series(frames, region, region),
                  lambda: cosmic_ray_filter(frames, regions=[region])):
        with pytest.raises(GeometryError) as refused:
            check()
        assert str(refused.value) == "region (2, 1)+(3, 2) leaves the 4x6 frame"
