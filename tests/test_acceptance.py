"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria assert at their stated tolerances; where a
criterion bounds the difference of two Monte-Carlo estimates, the assertion
adds the sampling error of that difference (estimated from batch scatter of
the same data) on top of the stated band, so the check verifies the
systematic claim rather than a particular noise draw.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from twincal.estimate import (
    RegionPairSeries,
    area_pairs,
    area_scan,
    build_series,
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
from twincal.io import read_stack, write_stack
from twincal.model import predict_covariance, predict_variance
from twincal.presets import reference_experiment
from twincal.simulate import (
    KIND_BACKGROUND,
    Stack,
    generate_stack,
    iter_stack,
)

from test_simulate import make_config


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared stacks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def balanced_series():
    # eta_s = eta_i = 0.6, mu = 0.1, M_t = 5000, 40-cell regions,
    # no background or jitter, N = 2000 frames
    cfg = make_config(eta_s=0.6, eta_i=0.6, mu=0.1, m_t=5000, seed=1001)
    region_s = cfg.signal_region()
    region_i = cfg.geometry.conjugate_region(region_s)
    start = time.time()
    series = build_series(generate_stack(cfg, 2000).counts, region_s, region_i)
    return cfg, series, time.time() - start


@pytest.fixture(scope="module")
def reference_series():
    # the bundled reference conditions: Z = 8 batches of N = M = 500
    cfg = reference_experiment(master_seed=20260809)
    region_s = cfg.signal_region()
    region_i = cfg.geometry.conjugate_region(region_s)
    start = time.time()
    series = build_series(generate_stack(cfg, 4000).counts, region_s,
                          region_i,
                          generate_stack(cfg, 4000, KIND_BACKGROUND).counts)
    return cfg, series, time.time() - start


def test_criterion_01_balanced_loss_identity(balanced_series):
    cfg, series, elapsed = balanced_series
    sigma = estimate_sigma_alpha(series)
    u = propagate_type_a(series).u_sigma
    ok = abs(sigma - 0.400) < 3 * u and 3 * u < 0.05 and elapsed < 60.0
    report(1, ok, f"sigma_alpha = {sigma:.4f} vs 0.400 "
                  f"(|diff| = {abs(sigma - 0.4):.4f}, 3u = {3 * u:.4f}), "
                  f"generated in {elapsed:.1f}s")


def test_criterion_02_moment_laws(balanced_series):
    cfg, series, _ = balanced_series
    m_tot = cfg.modes.total_modes(math.prod(cfg.modes.grid))
    n = series.n_frames
    mean_th = m_tot * 0.6 * 0.1
    var_th = predict_variance(0.1, 0.6, m_tot)
    cov_th = predict_covariance(0.1, 0.6, 0.6, m_tot)

    checks = []
    for label, x in (("N_s", series.n_s), ("N_i", series.n_i)):
        se_mean = x.std(ddof=1) / np.sqrt(n)
        checks.append((f"mean[{label}]", x.mean(), mean_th, se_mean))
        c = x - x.mean()
        m2 = np.mean(c ** 2)
        m4 = np.mean(c ** 4)
        se_var = np.sqrt(max(m4 - m2 ** 2 * (n - 3) / (n - 1), 0.0) / n)
        checks.append((f"var[{label}]", np.var(x, ddof=1), var_th, se_var))
    cs = series.n_s - series.n_s.mean()
    ci = series.n_i - series.n_i.mean()
    cov = float(np.cov(series.n_s, series.n_i)[0, 1])
    se_cov = np.sqrt(max(np.mean(cs ** 2 * ci ** 2) - cov ** 2, 0.0) / n)
    checks.append(("cov", cov, cov_th, se_cov))

    ok = all(abs(got - want) < 3 * se for _, got, want, se in checks)
    detail = "; ".join(f"{name} {got:.1f}/{want:.1f} (3se {3 * se:.1f})"
                       for name, got, want, se in checks)
    report(2, ok, detail)


def test_criterion_03_jitter_excess_noise():
    # 10% pulse jitter at reference count levels with imbalanced channels
    cfg = make_config(eta_s=0.72, eta_i=0.53, mu=262710 / (2e5 * 0.72),
                      jitter=0.10, seed=1003)
    region_s = cfg.signal_region()
    series = build_series(generate_stack(cfg, 2000).counts, region_s,
                          cfg.geometry.conjugate_region(region_s))
    ratio, _ = excess_noise(series,
                            cfg.modes.total_modes(math.prod(cfg.modes.grid)))
    raw = estimate_sigma_raw(series)
    alpha = estimate_alpha(series)
    balanced = estimate_sigma_alpha(series)
    u = propagate_type_a(series).u_sigma
    predicted = 0.5 * (1.0 + alpha) - 0.72
    ok = (1e3 < ratio < 1e4
          and raw / balanced >= 100.0
          and abs(balanced - predicted) < 3 * u)
    report(3, ok, f"excess ratio = {ratio:.0f} (order 1e3-1e4), "
                  f"sigma(alpha=1)/sigma_alpha = {raw / balanced:.0f}x, "
                  f"sigma_alpha = {balanced:.4f} vs (1+a)/2-eta = "
                  f"{predicted:.4f} (3u = {3 * u:.4f})")


def test_criterion_04_background_corrected_closed_loop(reference_series):
    cfg, series, elapsed = reference_series
    start = time.time()
    summary = repeat_experiment(series.batches(8))
    elapsed += time.time() - start
    u = summary.u_eta_empirical
    ok = (abs(summary.eta_s - 0.613) < 3 * u
          and 0.011 / 2 <= u <= 0.011 * 2
          and 1e-5 < summary.u_alpha_empirical < 1.6e-4  # 4e-5 scale
          and elapsed < 600.0)
    report(4, ok, f"eta_s = {summary.eta_s:.4f} +- {u:.4f} vs 0.613 "
                  f"(|diff|/u = {abs(summary.eta_s - 0.613) / u:.2f}), "
                  f"u within factor 2 of 0.011, "
                  f"u(alpha_b) = {summary.u_alpha_empirical:.1e}, "
                  f"runtime {elapsed:.1f}s")


def test_criterion_05_symmetry_centre_search():
    results = []
    for offset in ((0, 0), (2, -1), (-3, 3)):
        # 11x11-cell emission block: every displaced candidate region stays
        # inside bright emission, so the plateau sits near 1 + excess noise
        cfg = make_config(eta_s=0.613, eta_i=0.613, mu=1.7, m_t=1000,
                          grid=(11, 11), rows=19, cols=36, split=18,
                          cs=(9.0, 17.5), straylight=20.0, read_noise=4.0,
                          cs_offset=(float(offset[0]), float(offset[1])),
                          seed=1005)
        from twincal.estimate import anchored_region
        region = anchored_region(cfg.signal_region().center, (5, 5))
        frames = generate_stack(cfg, 20).counts
        cs_map = sigma_spatial_map(frames, region, cfg.geometry, (3, 3))
        ring = [cs_map.values[i, j] for i in range(7) for j in range(7)
                if max(abs(i - 3), abs(j - 3)) == 3]
        plateau = float(np.median(ring))
        results.append((offset, cs_map.argmin, cs_map.min_value, plateau))
    ok = all(found == want and dip < plateau / 2
             for want, found, dip, plateau in results)
    detail = "; ".join(f"{want} -> {found} (dip {dip:.2f} vs plateau "
                       f"{plateau:.2f})" for want, found, dip, plateau
                       in results)
    report(5, ok, detail)


def test_criterion_06_area_scan():
    # eta = 0.25, two-superpixel coherence cells, 640-cell emission block;
    # regions anchored at a cell corner so sub-asymptotic areas straddle
    # cells and lose correlation at their boundary
    cfg = make_config(eta_s=0.25, eta_i=0.25, mu=1.0, m_t=100, cell_px=2,
                      grid=(20, 32), rows=46, cols=140, split=70,
                      cs=(22.5, 69.5), seed=1006)
    areas = [(2, 2), (3, 3), (5, 5), (7, 7), (9, 9), (13, 13), (17, 17),
             (21, 21), (25, 25), (31, 31), (40, 64)]
    pairs = area_pairs(cfg.geometry, cfg.signal_region().center, areas)
    groups, per_group = 12, 1000
    stream = (frame for block in iter_stack(cfg, groups * per_group)
              for frame in block.counts)
    curves = np.array([
        [p.sigma_alpha for p in area_scan(
            np.stack(list(itertools.islice(stream, per_group))),
            None, pairs, cell_px=2)]
        for _ in range(groups)])
    mean = curves.mean(axis=0)

    def se_diff(j, k):
        return float((curves[:, j] - curves[:, k]).std(ddof=1)
                     / np.sqrt(groups))

    monotone = all(mean[k + 1] <= mean[k] + 3 * se_diff(k, k + 1)
                   for k in range(len(areas) - 1))
    asym = mean[-1]
    big = [k for k, a in enumerate(areas) if a[0] * a[1] / 4.0 >= 150.0]
    within = all(abs(mean[k] - asym) <= 0.02 * asym + 3 * se_diff(k, -1)
                 for k in big)
    single_cell_above = mean[0] > asym + 0.1
    ok = monotone and within and len(big) >= 2 and single_cell_above
    report(6, ok, f"curve {np.array2string(mean, precision=3)} nonincreasing "
                  f"within error bars: {monotone}; >=150-cell points within "
                  f"2% of {asym:.4f}: {within}; one-cell area "
                  f"{mean[0]:.3f} well above")


def test_criterion_07_partition_invariance():
    partitions = [(8, 500), (4, 1000), (16, 250)]
    replicates = 24
    base = reference_experiment()
    sems = {p: [] for p in partitions}
    stds = {p: [] for p in partitions}
    for r in range(replicates):
        cfg = dataclasses.replace(base, master_seed=700 + r)
        region_s = cfg.signal_region()
        region_i = cfg.geometry.conjugate_region(region_s)
        series = build_series(generate_stack(cfg, 4000).counts, region_s,
                              region_i,
                              generate_stack(cfg, 4000, KIND_BACKGROUND).counts)
        for z, n in partitions:
            summary = repeat_experiment(series.batches(z))
            sems[(z, n)].append(summary.u_sigma_empirical)
            stds[(z, n)].append(float(summary.per_batch_sigma.std(ddof=1)))
    mean_sems = {p: float(np.mean(v)) for p, v in sems.items()}
    mean_stds = {p: float(np.mean(v)) for p, v in stds.items()}
    values = list(mean_sems.values())
    spread = (max(values) - min(values)) / np.mean(values)
    decreasing = (mean_stds[(16, 250)] > mean_stds[(8, 500)]
                  > mean_stds[(4, 1000)])
    ok = spread <= 0.20 and decreasing
    report(7, ok, "SEM " + ", ".join(
        f"(Z={z},N={n})={mean_sems[(z, n)]:.5f}" for z, n in partitions)
        + f" -> spread {spread:.1%} <= 20%; population std "
        + " > ".join(f"{mean_stds[p]:.4f}" for p in
                     [(16, 250), (8, 500), (4, 1000)])
        + f" strictly decreasing: {decreasing}")


def test_criterion_08_uncertainty_model(reference_series):
    _, series, _ = reference_series
    batch = series.batches(8)[0]  # one experiment: N = M = 500
    prop = propagate_type_a(batch)
    rng = np.random.default_rng(1008)
    boot = {"alpha": [], "sigma": [], "eta": []}
    for _ in range(1000):
        kn = rng.integers(0, batch.n_frames, batch.n_frames)
        km = rng.integers(0, batch.m_s.size, batch.m_s.size)
        resample = RegionPairSeries(batch.n_s[kn], batch.n_i[kn],
                                    m_s=batch.m_s[km], m_i=batch.m_i[km])
        a = estimate_alpha_b(resample)
        s = estimate_sigma_alpha_b(resample)
        boot["alpha"].append(a)
        boot["sigma"].append(s)
        boot["eta"].append(0.5 * (1 + a) - s)
    pairs = [("alpha", prop.u_alpha), ("sigma", prop.u_sigma),
             ("eta", prop.u_eta)]
    rels = {key: abs(u - np.std(boot[key], ddof=1)) / np.std(boot[key], ddof=1)
            for key, u in pairs}
    ok = all(r <= 0.15 for r in rels.values())
    report(8, ok, "delta vs bootstrap rel. diff " + ", ".join(
        f"{k}: {r:.1%}" for k, r in rels.items()) + " (<= 15%)")


def test_criterion_09_classical_bound():
    rng = np.random.default_rng(1009)
    series = RegionPairSeries(rng.poisson(10_000, 4000).astype(float),
                              rng.poisson(10_000, 4000).astype(float))
    sigma = estimate_sigma_alpha(series)
    u = propagate_type_a(series).u_sigma
    ok = abs(sigma - 1.0) < 3 * u
    report(9, ok, f"independent Poisson series: sigma_alpha = {sigma:.4f} "
                  f"vs 1 (3u = {3 * u:.4f})")


def test_criterion_10_determinism_and_format(tmp_path):
    cfg = reference_experiment(master_seed=1010)
    doc = {"determinism": "check"}
    stack = generate_stack(cfg, 100)
    p1, p2 = tmp_path / "stack.tbs", tmp_path / "streamed.tbs"
    write_stack(p1, [stack], doc)
    write_stack(p2, iter_stack(cfg, 100), doc)
    identical = p1.read_bytes() == p2.read_bytes()

    rng = np.random.default_rng(55)
    round_trips = 0
    for _ in range(100):
        rows, cols, count = rng.integers(1, 9, 3)
        stack = Stack(np.stack([rng.integers(0, 2 ** 32, (rows, cols),
                                             dtype=np.uint64).astype(np.uint32)
                                for _ in range(count)]))
        path = tmp_path / "rt.tbs"
        write_stack(path, [stack], doc)
        back, _ = read_stack(path)
        round_trips += np.array_equal(stack.counts, back.counts)
    ok = identical and round_trips == 100
    report(10, ok, "stacked and streamed generation byte-identical: "
                   f"{identical}; "
                   f"read-after-write identity on {round_trips}/100 "
                   f"random stacks")
