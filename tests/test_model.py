"""Closed-form predictor tests.

Derived expected values are frozen from independent oracles computed here:
brute-force enumeration of the thermal photon-number law for single-mode
moments, plain arithmetic for the multimode identities.  Monte-Carlo
cross-checks of the same predictors live in test_simulate.py.
"""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

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
        m_tot = cfg.modes.total_modes(math.prod(cfg.modes.grid))
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
        assert math.prod(modes.grid) == 40
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


def pool_threads():
    """The live threads of the worker pool."""
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("twincal-worker")]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_run_workers_deals_the_jobs_and_returns_in_worker_order(
        monkeypatch, cpus):
    # the workers take the jobs from one shared iterator: every job runs
    # exactly once, on at most W threads, and each worker that ran returns
    # one result; the calling thread is one of them and takes the first job
    force_cpus(monkeypatch, cpus)
    caller = threading.get_ident()
    for n_jobs in sorted({1, cpus - 1, cpus, 3 * cpus + 1} - {0}):
        jobs = [f"job {i}" for i in range(n_jobs)]
        workers = min(cpus, n_jobs)

        def work(dealt):
            taken = []
            for job in dealt:
                taken.append(job)
                time.sleep(0.002)  # the other workers take their share
            return threading.get_ident(), taken

        results = model._run_workers(work, jobs)
        assert sorted(job for _, taken in results for job in taken) == \
            sorted(jobs)
        threads = [thread for thread, _ in results]
        assert 1 <= len(threads) <= workers
        assert len(set(threads)) == len(threads)
        assert dict(results)[caller][0] == jobs[0]
        assert all(taken for _, taken in results)


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
    # a pool thread raises while the calling thread still holds its first
    # job; the exception comes out as the same object once the calling
    # thread has stopped
    force_cpus(monkeypatch, 3)
    caller = threading.get_ident()
    boom = ValueError("pool thread")
    raised_on, stopped = [], []
    taken = threading.Event()

    def work(dealt):
        if threading.get_ident() != caller:
            taken.set()
            raised_on.append(threading.get_ident())
            raise boom
        assert taken.wait(10)
        time.sleep(0.05)
        stopped.append(list(dealt))
        return dealt

    with pytest.raises(ValueError) as info:
        model._run_workers(work, list(range(6)))
    assert info.value is boom
    assert raised_on and caller not in raised_on
    assert len(stopped) == 1


def test_run_workers_reuses_its_threads(monkeypatch):
    # the pool's threads outlive a call: a second call starts none, also
    # when the first call made the pool and its jobs were quick
    monkeypatch.setattr(model, "_POOL", model._POOL)
    model._reset_pool()
    force_cpus(monkeypatch, 3)
    model._run_workers(lambda dealt: list(dealt), list(range(9)))

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for n_jobs in (2, 3, 9):
        results = model._run_workers(lambda dealt: list(dealt),
                                     list(range(n_jobs)))
        assert sorted(j for taken in results for j in taken) == \
            list(range(n_jobs))


def test_run_workers_grows_the_pool_with_the_cpu_count(monkeypatch):
    # W workers meet at a barrier on their first job, so the call returns
    # only when the pool has grown to W - 1 threads, all running at once
    force_cpus(monkeypatch, 2)
    model._run_workers(lambda dealt: list(dealt), [0, 1])
    old = pool_threads()
    workers = len(old) + 3
    force_cpus(monkeypatch, workers)
    barrier = threading.Barrier(workers, timeout=10)

    def work(dealt):
        first = next(dealt)
        barrier.wait()
        return threading.get_ident(), [first, *dealt]

    results = model._run_workers(work, list(range(2 * workers)))
    for thread in old:  # the pool it outgrew is freed: its idle threads exit
        thread.join(10)
    assert len(pool_threads()) == workers - 1
    assert len({thread for thread, _ in results}) == workers
    assert sorted(j for _, taken in results for j in taken) == \
        list(range(2 * workers))


def test_run_workers_does_not_wait_for_busy_pool_threads(monkeypatch):
    # every pool thread is held by another caller's jobs: a call whose
    # jobs its calling thread drains alone still returns, and so does one
    # whose worker stops early, as a short read does; their tasks run
    # nothing once the pool threads are free
    force_cpus(monkeypatch, 2)
    model._run_workers(lambda dealt: list(dealt), [0, 1])
    workers = len(pool_threads()) + 1
    force_cpus(monkeypatch, workers)
    release, holding, held = threading.Event(), threading.Semaphore(0), []

    def hold(dealt):
        for _ in dealt:
            holding.release()
            held.append(release.wait(10))  # False: held until it timed out

    holder = threading.Thread(target=model._run_workers,
                              args=(hold, range(workers)))
    holder.start()
    try:
        for _ in range(workers):
            assert holding.acquire(timeout=10)
        calls = []

        def work(dealt):
            calls.append(threading.get_ident())
            return list(dealt)

        def stop_early(dealt):
            calls.append(threading.get_ident())
            return next(dealt)

        assert model._run_workers(work, list(range(10))) == [list(range(10))]
        assert model._run_workers(stop_early, list(range(10))) == [0]
        assert calls == [threading.get_ident()] * 2
    finally:
        release.set()
        holder.join(10)
    assert not holder.is_alive()
    assert held == [True] * workers
    time.sleep(0.05)  # the freed threads take the late tasks
    assert calls == [threading.get_ident()] * 2


def test_run_workers_nested_and_concurrent_calls_complete(monkeypatch):
    # a worker's own pooled call cannot wait for the threads running its
    # caller's jobs, and two callers at once each run every job once, also
    # with the threads switched every 10 us
    force_cpus(monkeypatch, 3)

    def inner(dealt):
        return [10 * j for j in dealt]

    def outer(dealt):
        return [sorted(x for part in model._run_workers(inner, range(j, j + 5))
                       for x in part) for j in dealt]

    results = model._run_workers(outer, list(range(6)))
    assert sorted(row for part in results for row in part) == \
        [[10 * k for k in range(j, j + 5)] for j in range(6)]

    start, done = threading.Barrier(2, timeout=10), []

    def caller():
        start.wait()
        for _ in range(20):
            done.append(sorted(j for part in model._run_workers(
                lambda dealt: list(dealt), range(50)) for j in part))

    callers = [threading.Thread(target=caller) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert done == [list(range(50))] * 40


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_run_workers_in_a_forked_child(monkeypatch):
    # the child holds none of the parent's pool threads; its pool starts
    # afresh, and two workers meet at a barrier on their first jobs
    force_cpus(monkeypatch, 2)
    model._run_workers(lambda dealt: list(dealt), [0, 1])
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            barrier = threading.Barrier(2, timeout=10)

            def work(dealt):
                first = next(dealt)
                barrier.wait()
                return [first, *dealt]

            results = model._run_workers(work, list(range(8)))
            if (len(results) == 2 and len(pool_threads()) == 1
                    and sorted(j for part in results for j in part)
                    == list(range(8))):
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


_USE_THE_POOL = """
import os, sys
from twincal import model
model._cpu_count = lambda: 3
model._run_workers(lambda dealt: list(dealt), range(9))
if sys.argv[1] == "fork":
    pid = os.fork()
    if pid == 0:
        model._run_workers(lambda dealt: list(dealt), range(9))
        sys.exit(7)
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_process_that_used_the_pool_exits():
    # the pool's threads are joined at exit, so they must end by
    # themselves: a process that used the pool exits normally, and so does
    # a forked child that used its own pool and leaves through sys.exit
    env = dict(os.environ, PYTHONPATH=str(Path(model.__file__).parents[1]))
    for case, code in (("use", 0), ("fork", 7)):
        done = subprocess.run([sys.executable, "-c", _USE_THE_POOL, case],
                              env=env, timeout=60)
        assert done.returncode == code


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
