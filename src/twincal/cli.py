"""Command-line entry points wiring config -> simulator -> estimators -> tables.

Subcommands
-----------
simulate          generate the illuminated and background stacks of a run
find-cs           map the spatial noise reduction and report its minimum
area-scan         noise reduction factor versus detection-area size
calibrate         full chain from stacks to a calibration result
reproduce-table1  canned reference run compared against bundled values
selftest          reduced-scale analytic-vs-Monte-Carlo invariant suite

Exit codes: 0 success, 2 configuration, 3 file format/IO, 4 geometry,
5 degenerate data, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import estimate, io, presets, simulate
from .model import COUNT_DTYPE, Region
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    GeometryError,
    StackFormatError,
    TwincalError,
)

_EXIT_CODES = (
    (ConfigError, 2),
    (StackFormatError, 3),
    (OSError, 3),
    (GeometryError, 4),
    (DegenerateDataError, 5),
    (DomainError, 2),
    (TwincalError, 1),
)


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def _load_config(args):
    cfg, params = io.load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg, params


def _analysed(geometry, region_s, extent) -> list:
    """What the centre search reads: ``region_s`` and the idler window
    holding its conjugate at every shift up to ``extent``."""
    geometry.validate_region(region_s)
    return [region_s, geometry.search_window(region_s, extent)]


def _region_modes(cfg, params) -> int:
    """The total mode count of ``region_s``, taken from the config before
    any stack is read: DomainError when it covers no whole cell."""
    px, region = cfg.modes.coherence_cell_px, params.region_s
    if region.area < px ** 2:
        raise DomainError(f"region_s {region.extent} covers no whole "
                          f"{px}x{px} coherence cell")
    return cfg.modes.total_modes(region.area // px ** 2)


def _hull(regions):
    """The smallest box of the frame holding every region: the pixels a
    command reads from its stacks."""
    top = min(r.origin[0] for r in regions)
    left = min(r.origin[1] for r in regions)
    bottom = max(r.origin[0] + r.extent[0] for r in regions)
    right = max(r.origin[1] + r.extent[1] for r in regions)
    return Region(origin=(top, left), extent=(bottom - top, right - left))


def _read_boxes(cfg, region_s, regions, pdc, background=None):
    """Read the box of every frame that holds ``regions`` (``_hull``) from
    the pdc stack file and, when given, the background one; returns the
    geometry of the box, ``region_s`` moved into it
    (``FrameGeometry.crop``) and the two (frames, rows, cols) count
    arrays, None for no background.

    A stack of the wrong kind is a StackFormatError, and one whose frames
    do not hold the box or are not the shape of ``cfg.geometry`` a
    GeometryError, each raised before any payload byte is read.  A stack
    no sidecar vouched for is read with a warning.
    """
    box = _hull(regions)
    geometry, region_s = cfg.geometry.crop(box, region_s)

    def read(path, kind):
        stack, _ = io.read_stack(path, box, kind, cfg.geometry.shape)
        if not stack.digest_verified:
            print(f"warning: {path}: no sidecar {io.sidecar_path(path).name}; "
                  "the config digest was not verified", file=sys.stderr)
        return stack.counts

    return (geometry, region_s, read(pdc, simulate.KIND_PDC),
            read(background, simulate.KIND_BACKGROUND) if background else None)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _rendered(cfg, kind, energies):
    """The ``io.write_stack`` fill of a stack of ``len(energies)`` frames:
    ``simulate.render_stack`` hands each block to ``put`` as a u32 Stack
    and keeps its pulse energies in ``energies``."""
    def fill(put):
        def store(first, counts, energy):
            energies[first:first + len(energy)] = energy
            put(first, simulate.Stack(counts.astype(COUNT_DTYPE), kind))
        simulate.render_stack(cfg, kind, len(energies), store)
    return fill


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, params = _load_config(args)
    doc = io.run_config_to_dict(cfg, params)

    n_pdc = params.z_batches * params.frames_per_batch
    n_bg = params.z_batches * params.background_frames_per_batch
    if max(n_pdc, n_bg) > io.MAX_FRAMES:
        raise StackFormatError(f"{max(n_pdc, n_bg)} frames overflow the u32 count")
    out = _outdir(args)
    for name, kind, count in (("pdc.tbs", simulate.KIND_PDC, n_pdc),
                              ("background.tbs", simulate.KIND_BACKGROUND, n_bg)):
        if count:
            energies = np.empty(count)
            io.write_stack(out / name, _rendered(cfg, kind, energies), doc,
                           count)
            _say(args, f"wrote {out / name} ({count} frames), digest "
                       f"{io.config_digest(doc).hex()}")
        if kind == simulate.KIND_PDC:
            _say(args, f"pulse energy mean {energies.mean():.4f}, "
                       f"std {energies.std(ddof=1):.4f}")
    return 0


def cmd_find_cs(args) -> int:
    cfg, params = _load_config(args)
    geometry, region_s, pdc, _ = _read_boxes(
        cfg, params.region_s, _analysed(cfg.geometry, params.region_s,
                                        params.cs_search_extent), args.stack)
    result = estimate.sigma_spatial_map(pdc, region_s, geometry,
                                        params.cs_search_extent)
    io.write_cs_map_csv(_outdir(args) / "cs_map.csv", result)
    _say(args, f"spatial-map minimum at offset {result.argmin}, "
               f"value {result.min_value:.6g}"
               + (f", ties {result.ties}" if len(result.ties) > 1 else ""))
    return 0


def cmd_area_scan(args) -> int:
    cfg, params = _load_config(args)
    pairs = estimate.area_pairs(cfg.geometry, params.region_s.center,
                                params.areas)
    geometry, region_s, pdc, bg = _read_boxes(
        cfg, params.region_s, [region for pair in pairs for region in pair],
        args.pdc, args.background)
    points = estimate.area_scan(pdc, bg, geometry, region_s.center,
                                params.areas,
                                cell_px=cfg.modes.coherence_cell_px,
                                ddof=params.variance_ddof)
    out = _outdir(args)
    io.write_area_scan_csv(out / "area_scan.csv", points)
    _say(args, f"wrote {out / 'area_scan.csv'} ({len(points)} areas)")
    return 0


def _calibrate(params, geometry, region_s, m_tot, pdc, bg):
    """Shared calibration chain: filter, locate, batch, estimate.

    ``geometry`` and ``region_s`` describe the frames of ``pdc`` and
    ``bg``: the whole frame and ``params.region_s``, or a box of it and
    the region moved into the box (``FrameGeometry.crop``).  The stacks
    are (frames, rows, cols) count arrays; ``bg`` may be None.  ``m_tot``
    is the mode count of ``region_s`` (``_region_modes``).  A frame is
    dropped only for a cosmic-ray hit in the pixels analysed.  Returns
    the conjugate-region series estimated from, its RepeatSummary and the
    CalibrationDiagnostics.
    """
    ddof = params.variance_ddof

    # Only the pixels the estimators read can spoil them: region_s and
    # the idler window the centre search draws its regions from.
    analysed = _analysed(geometry, region_s, params.cs_search_extent)
    pdc_kept, pdc_dropped = estimate.cosmic_ray_filter(
        pdc, params.cosmic_mad_k, regions=analysed)
    bg_kept, bg_dropped = None, []
    if bg is not None:
        bg_kept, bg_dropped = estimate.cosmic_ray_filter(
            bg, params.cosmic_mad_k, regions=analysed)

    cs_map = estimate.sigma_spatial_map(pdc[pdc_kept[:20]], region_s,
                                        geometry, params.cs_search_extent)
    region_i = geometry.conjugate_region(region_s, shift=cs_map.argmin)

    series = estimate.build_series(pdc, region_s, region_i, bg,
                                   pdc_kept, bg_kept)
    z = params.z_batches
    summary = estimate.repeat_experiment(series.batches(z), ddof=ddof)
    ratio, thermal = estimate.excess_noise(series, m_tot, ddof=ddof)
    diagnostics = estimate.CalibrationDiagnostics(
        excess_noise_ratio=ratio, thermal_excess=thermal,
        dropped_pdc=pdc_dropped, dropped_background=bg_dropped,
        cs_map=cs_map)
    return series, summary, diagnostics


def _report(args, params, out, s, d) -> None:
    """Write calibration.csv and batches.csv for a RepeatSummary ``s`` and
    its CalibrationDiagnostics ``d``, and print both."""
    io.write_calibration_csv(out / "calibration.csv", s, d)
    io.write_batches_csv(out / "batches.csv", s)
    cs = d.cs_map
    _say(args, f"eta_s   = {s.eta_s:.6f} +- {s.u_eta_empirical:.6f} "
               f"(propagated {s.u_eta_propagated:.6f})")
    _say(args, f"eta_i   = {s.eta_i:.6f}")
    _say(args, f"alpha_b = {s.alpha_b:.6f} +- {s.u_alpha_empirical:.6f}")
    _say(args, f"sigma   = {s.sigma_ab:.6f} +- {s.u_sigma_empirical:.6f}")
    _say(args, f"excess-noise ratio {d.excess_noise_ratio:.4g} "
               f"(thermal level {d.thermal_excess:.4g}), "
               f"discarded {len(d.dropped_pdc)}+{len(d.dropped_background)} "
               f"frames, cs offset {cs.argmin}")
    curvature = "n/a" if cs.curvature is None else f"{cs.curvature:.4g}"
    _say(args, f"centre search: map minimum {cs.min_value:.6g}, "
               f"curvature {curvature}, ties {cs.ties}")
    _say(args, f"type B: balance residual < "
               f"{estimate.TYPE_B_BALANCE_RESIDUAL:g}, cs alignment bias "
               f"{estimate.TYPE_B_CS_BIAS_RELATIVE:.1%}")
    for arm, eta, tau in (("s", s.eta_s, params.tau_s),
                          ("i", s.eta_i, params.tau_i)):
        if tau != 1.0:
            eta_true = estimate.correct_for_transmittance(eta, tau)
            _say(args, f"eta_{arm} / tau_{arm} = {eta_true:.6f}")


def cmd_calibrate(args) -> int:
    cfg, params = _load_config(args)
    m_tot = _region_modes(cfg, params)
    if params.z_batches < 2:
        raise ConfigError("calibrate needs analysis.z_batches >= 2, "
                          f"got {params.z_batches}")
    geometry, region_s, pdc, bg = _read_boxes(
        cfg, params.region_s, _analysed(cfg.geometry, params.region_s,
                                        params.cs_search_extent),
        args.pdc, args.background)
    _, summary, diagnostics = _calibrate(params, geometry, region_s, m_tot,
                                         pdc, bg)
    _report(args, params, _outdir(args), summary, diagnostics)
    return 0


def cmd_reproduce_table1(args) -> int:
    out = _outdir(args)
    seed = args.seed if args.seed is not None else 20260809
    cfg = presets.reference_experiment(master_seed=seed)
    params = presets.reference_analysis()
    m_tot = _region_modes(cfg, params)

    n = params.z_batches * params.frames_per_batch
    m = params.z_batches * params.background_frames_per_batch
    _say(args, f"generating {n} illuminated + {m} background frames ...")
    pdc = simulate.generate_stack(cfg, n, simulate.KIND_PDC).counts
    bg = simulate.generate_stack(cfg, m, simulate.KIND_BACKGROUND).counts

    series, summary, diagnostics = _calibrate(params, cfg.geometry,
                                              params.region_s, m_tot, pdc, bg)
    ddof = params.variance_ddof
    alpha = estimate.estimate_alpha(series)
    simulated = {
        "E_Ns": float(series.n_s.mean()),
        "std_Ns": float(series.n_s.std(ddof=ddof)),
        "E_Ms": float(series.m_s.mean()),
        "std_Ms": float(series.m_s.std(ddof=ddof)),
        "alpha": alpha,
        "alpha_b": summary.alpha_b,
        "sigma": estimate.estimate_sigma_raw(series, ddof=ddof),
        "sigma_alpha": estimate.estimate_sigma_alpha(series, alpha, ddof=ddof),
        "sigma_alpha_b": summary.sigma_ab,
        "eta_s": summary.eta_s,
    }
    uncertainties = {"alpha_b": summary.u_alpha_empirical,
                     "sigma_alpha_b": summary.u_sigma_empirical,
                     "eta_s": summary.u_eta_empirical}
    io.write_side_by_side_csv(
        out / "side_by_side.csv",
        [(key, ref, u_ref, simulated[key], uncertainties.get(key, float("nan")))
         for key, (ref, u_ref) in presets.REFERENCE_VALUES.items()])

    _say(args, f"{'quantity':<14}{'reference':>14}{'simulated':>14}")
    for key, (ref, _u) in presets.REFERENCE_VALUES.items():
        _say(args, f"{key:<14}{ref:>14.6g}{simulated[key]:>14.6g}")
    _report(args, params, out, summary, diagnostics)
    return 0


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))
        _say(args, f"{'PASS' if ok else 'FAIL'} {name}" +
             (f" ({detail})" if detail else ""))

    from .model import ChannelEfficiencies, predict_covariance, predict_variance

    seed = args.seed if args.seed is not None else 99

    # Balanced-loss identity at reduced scale.
    cfg = presets.reference_experiment(master_seed=seed)
    cfg = dataclasses.replace(
        cfg,
        channel=ChannelEfficiencies(eta_s=0.6, eta_i=0.6),
        pulse=dataclasses.replace(cfg.pulse, mean_mu=0.1,
                                  relative_energy_jitter=0.0,
                                  gain_map="linear", gain_const=None),
        background=dataclasses.replace(cfg.background, straylight_mean=0.0,
                                       read_noise_std=0.0))
    region_s = cfg.signal_region()
    region_i = cfg.geometry.conjugate_region(region_s)
    frames = simulate.generate_stack(cfg, 600).counts
    series = estimate.build_series(frames, region_s, region_i)
    sigma = estimate.estimate_sigma_alpha(series)
    u = estimate.propagate_type_a(series).u_sigma
    check("balanced-loss identity", abs(sigma - 0.4) < 3 * u,
          f"sigma={sigma:.4f}, 3u={3 * u:.4f}")

    # First and second moments against the closed-form predictors.
    m_tot = cfg.modes.total_modes(cfg.modes.spatial_modes)
    mean_th = m_tot * 0.6 * 0.1
    var_th = predict_variance(0.1, 0.6, m_tot)
    cov_th = predict_covariance(0.1, 0.6, 0.6, m_tot)
    n = series.n_frames
    ok_mean = abs(series.n_s.mean() - mean_th) < 3 * np.sqrt(var_th / n)
    ok_var = abs(np.var(series.n_s, ddof=1) - var_th) < 3 * var_th * np.sqrt(2 / n)
    cov = float(np.cov(series.n_s, series.n_i)[0, 1])
    ok_cov = abs(cov - cov_th) < 3 * np.sqrt((var_th ** 2 + cov_th ** 2) / n)
    check("moment laws", ok_mean and ok_var and ok_cov,
          f"mean {series.n_s.mean():.1f}/{mean_th:.1f}, "
          f"var {np.var(series.n_s, ddof=1):.0f}/{var_th:.0f}, "
          f"cov {cov:.0f}/{cov_th:.0f}")

    # Classical bound: independent Poisson series sit at shot noise.
    rng = np.random.default_rng(seed)
    ps = estimate.RegionPairSeries(
        rng.poisson(10000, 4000).astype(float),
        rng.poisson(10000, 4000).astype(float))
    s_poisson = estimate.estimate_sigma_alpha(ps)
    u_poisson = estimate.propagate_type_a(ps).u_sigma
    check("classical shot-noise bound", abs(s_poisson - 1.0) < 3 * u_poisson,
          f"sigma={s_poisson:.4f}")

    # Symmetry-centre recovery of an injected offset.
    cfg_cs = dataclasses.replace(cfg, cs_offset=(2.0, -1.0), master_seed=seed + 1)
    frames_cs = simulate.generate_stack(cfg_cs, 20).counts
    inner = estimate.anchored_region(region_s.center, (3, 6))
    cs_map = estimate.sigma_spatial_map(frames_cs, inner, cfg.geometry, (3, 3))
    check("symmetry-centre search", cs_map.argmin == (2, -1),
          f"argmin={cs_map.argmin}")

    # Determinism across a block boundary and stack round trip.
    a = simulate.generate_stack(cfg, 65)
    b = simulate.generate_stack(cfg, 130)
    check("deterministic streams", np.array_equal(a.counts, b.counts[:65]))

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stack.tbs"
        doc = io.run_config_to_dict(cfg, presets.reference_analysis(2, 10, 10))
        io.write_stack(path, [a], doc)
        back, _ = io.read_stack(path)
        ok_rt = np.array_equal(a.counts, back.counts)
        check("stack round trip", ok_rt)

    failures = [name for name, ok, _ in checks if not ok]
    _say(args, f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twincal",
        description="Twin-beam frame simulation and sub-shot-noise "
                    "detector calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("simulate", help="generate frame stacks")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "find-cs", help="spatial noise-reduction map",
        description="Map the spatial noise reduction over idler "
        "displacements and report its minimum.  Every frame is mapped, "
        "cosmic-ray hits included: the minimum's position survives a few "
        "hits, but the values do not (on the large-frame benchmark "
        "workload at seed 1 the minimum reads 2.589 against 0.863 "
        "without the 6 frames the cosmic-ray filter drops).  calibrate "
        "maps filtered frames.")
    common(p)
    p.add_argument("--stack", required=True, help="illuminated stack file")
    p.set_defaults(func=cmd_find_cs)

    p = sub.add_parser("area-scan", help="noise reduction vs detection area")
    common(p)
    p.add_argument("--pdc", required=True, help="illuminated stack file")
    p.add_argument("--background", default=None, help="background stack file")
    p.set_defaults(func=cmd_area_scan)

    p = sub.add_parser("calibrate", help="full calibration chain")
    common(p)
    p.add_argument("--pdc", required=True, help="illuminated stack file")
    p.add_argument("--background", default=None, help="background stack file")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reproduce-table1",
                       help="canned reference run with side-by-side table")
    common(p, config=False)
    p.set_defaults(func=cmd_reproduce_table1)

    p = sub.add_parser("selftest", help="reduced-scale invariant suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map to machine-readable exit codes
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error[{klass.__name__}]: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
