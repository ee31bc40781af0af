"""Command-line entry points wiring config -> simulator -> estimators -> tables.

Subcommands
-----------
simulate          generate the illuminated and background stacks of a run
find-cs           map the spatial noise reduction and report its minimum
area-scan         noise reduction factor versus detection-area size
calibrate         full chain from stacks to a calibration result
reproduce-table1  canned reference run compared against bundled values

Exit codes: 0 success, 2 configuration, 3 file format/IO, 4 geometry,
5 degenerate data, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


def _analysed(geometry, params) -> list:
    """What the centre search reads: region_s and the idler window holding
    its conjugate at every shift up to the search extent."""
    geometry.validate_region(params.region_s)
    return [params.region_s,
            geometry.search_window(params.region_s, params.cs_search_extent)]


def _region_modes(cfg, params) -> int:
    """The total mode count of ``region_s``, taken from the config before
    any stack is read: DomainError when it covers no whole cell."""
    px, region = cfg.modes.coherence_cell_px, params.region_s
    if min(region.extent) < px:
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


def _check_made_by(cfg, path) -> None:
    """Raise ConfigError naming the first key of ``cfg``'s modes or
    geometry, the experiment sections an analysis reads, whose value
    differs from the run config that made the stack at ``path``, as its
    verified sidecar holds it.  Other experiment keys are not compared."""
    made = json.loads(io.sidecar_path(path).read_bytes())["experiment"]
    for section in ("modes", "geometry"):
        ours = getattr(cfg, section)
        for field in dataclasses.fields(ours):
            given = getattr(ours, field.name)
            given = list(given) if isinstance(given, tuple) else given
            made_with = made[section].get(field.name)
            if given != made_with:
                raise ConfigError(
                    f"{path}: --config has experiment.{section}.{field.name}"
                    f" {given!r}, but the stack was made with {made_with!r}")


def _read_boxes(cfg, regions, pdc, background=None):
    """Read the box of every frame that holds ``regions`` (``_hull``) from
    the pdc stack file and, when given, the background one; returns the
    geometry of the box, ``regions`` moved into it, in order
    (``FrameGeometry.crop``), and the two (frames, rows, cols) count
    arrays, None for no background.

    A stack of the wrong kind is a StackFormatError, and one whose frames
    do not hold the box or are not the shape of ``cfg.geometry`` a
    GeometryError, each raised before any payload byte is read.  Then a
    ``cfg`` whose modes or geometry differ from the run config that made
    the stack is a ConfigError (``_check_made_by``), and a stack no
    sidecar vouched for is read with a warning.
    """
    box = _hull(regions)
    geometry, regions = cfg.geometry.crop(box, regions)

    def read(path, kind):
        stack, _ = io.read_stack(path, box, kind, cfg.geometry.shape)
        if stack.digest_verified:
            _check_made_by(cfg, path)
        else:
            print(f"warning: {path}: no sidecar {io.sidecar_path(path).name}; "
                  "the config digest was not verified", file=sys.stderr)
        return stack.counts

    return (geometry, regions, read(pdc, simulate.KIND_PDC),
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
    geometry, (region_s, _), pdc, _ = _read_boxes(
        cfg, _analysed(cfg.geometry, params), args.stack)
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
    _, regions, pdc, bg = _read_boxes(
        cfg, [region for pair in pairs for region in pair], args.pdc,
        args.background)
    points = estimate.area_scan(
        pdc, bg, list(zip(regions[::2], regions[1::2])),
        cell_px=cfg.modes.coherence_cell_px, ddof=params.variance_ddof)
    out = _outdir(args)
    io.write_area_scan_csv(out / "area_scan.csv", points)
    _say(args, f"wrote {out / 'area_scan.csv'} ({len(points)} areas)")
    return 0


def _calibrate(params, geometry, regions, m_tot, pdc, bg):
    """Shared calibration chain: filter, locate, batch, estimate.

    ``regions`` is ``_analysed``'s [region_s, search window] as the
    frames of ``pdc`` and ``bg`` hold them, and ``geometry`` those
    frames': the whole frame's, or a box's with the regions moved into
    it (``_read_boxes``).  The stacks are (frames, rows, cols) count
    arrays; ``bg`` may be None.  ``m_tot`` is the mode count of
    region_s (``_region_modes``).  A frame is dropped only for a
    cosmic-ray hit in ``regions``.  Returns the conjugate-region series
    estimated from, its RepeatSummary and the CalibrationDiagnostics.
    """
    ddof = params.variance_ddof
    region_s = regions[0]

    # Only the pixels the estimators read can spoil them: region_s and
    # the idler window the centre search draws its regions from.
    pdc_kept, pdc_dropped = estimate.cosmic_ray_filter(
        pdc, params.cosmic_mad_k, regions=regions)
    bg_kept, bg_dropped = None, []
    if bg is not None:
        bg_kept, bg_dropped = estimate.cosmic_ray_filter(
            bg, params.cosmic_mad_k, regions=regions)

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
    geometry, regions, pdc, bg = _read_boxes(
        cfg, _analysed(cfg.geometry, params), args.pdc, args.background)
    _, summary, diagnostics = _calibrate(params, geometry, regions, m_tot,
                                         pdc, bg)
    _report(args, params, _outdir(args), summary, diagnostics)
    return 0


def cmd_reproduce_table1(args) -> int:
    out = _outdir(args)
    cfg = presets.reference_experiment()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    params = presets.reference_analysis()
    m_tot = _region_modes(cfg, params)

    n = params.z_batches * params.frames_per_batch
    m = params.z_batches * params.background_frames_per_batch
    _say(args, f"generating {n} illuminated + {m} background frames ...")
    pdc = simulate.generate_stack(cfg, n, simulate.KIND_PDC).counts
    bg = simulate.generate_stack(cfg, m, simulate.KIND_BACKGROUND).counts

    series, summary, diagnostics = _calibrate(
        params, cfg.geometry, _analysed(cfg.geometry, params), m_tot, pdc, bg)
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
        "sigma_alpha": estimate.estimate_sigma_alpha(series, ddof=ddof),
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


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twincal",
        description="Twin-beam frame simulation and sub-shot-noise "
                    "detector calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, config=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if config:
            p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, help="generate frame stacks")

    p = command(
        "find-cs", cmd_find_cs, help="spatial noise-reduction map",
        description="Map the spatial noise reduction over idler "
        "displacements and report its minimum.  Every frame is mapped, "
        "cosmic-ray hits included: the minimum's position survives a few "
        "hits, but the values do not (on the large-frame benchmark "
        "workload at seed 1 the minimum reads 2.589 against 0.863 "
        "without the 6 frames the cosmic-ray filter drops).  calibrate "
        "maps filtered frames.")
    p.add_argument("--stack", required=True, help="illuminated stack file")

    scan = command(
        "area-scan", cmd_area_scan, help="noise reduction vs detection area",
        description="Runs no cosmic-ray filter and pairs each area about the "
        "nominal centre, not the one the data locate, so trust its rows only "
        "on stacks without cosmic rays or centre offset (large-frame "
        "benchmark, seed 1: the 20x32 area, region_s itself, reads "
        "sigma_alpha_b 2.634 against calibrate's 0.374).")
    calibrate = command(
        "calibrate", cmd_calibrate, help="full calibration chain",
        description="Splits the frames of each stack that the cosmic-ray "
        "filter keeps into analysis.z_batches equal batches in frame order "
        "and drops the last frames left over, whatever the stack's frame "
        "count.  analysis.frames_per_batch and background_frames_per_batch "
        "set only how many frames simulate and reproduce-table1 render.")
    for p in (scan, calibrate):
        p.add_argument("--pdc", required=True, help="illuminated stack file")
        p.add_argument("--background", default=None,
                       help="background stack file")

    command("reproduce-table1", cmd_reproduce_table1, config=False,
            help="canned reference run with side-by-side table")

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
