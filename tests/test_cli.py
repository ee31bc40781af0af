"""End-to-end command tests through the argparse entry point."""

import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from twincal.cli import main
from twincal.errors import StackFormatError
from twincal.io import AnalysisParams, load_run_config, read_stack
from twincal.model import Region
from twincal.simulate import generate_stack
from twincal import cli, estimate, model, presets, simulate
from twincal import io as tio

from test_io import REFUSED_EDITS, edited_config_doc
from test_simulate import concurrent_config, make_config, render_blocks


def write_config(path, cfg, params):
    """Write the run config document of ``cfg`` and ``params`` to ``path``."""
    path.write_bytes(tio.config_bytes(tio.run_config_to_dict(cfg, params)))


@pytest.fixture()
def run_dir(tmp_path):
    cfg = make_config(eta_s=0.613, eta_i=0.6166, mu=2.0, straylight=300.0,
                      read_noise=4.0, idler_ratio=0.895, jitter=0.1, seed=42)
    params = AnalysisParams(region_s=Region((4, 3), (5, 8)),
                            z_batches=4, frames_per_batch=120,
                            background_frames_per_batch=120,
                            cs_search_extent=(2, 2),
                            areas=((1, 1), (2, 2), (3, 4), (5, 8)))
    config = tmp_path / "run.json"
    write_config(config, cfg, params)
    return tmp_path, config


def test_simulate_writes_stacks_and_sidecars(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "digest" in stdout
    pdc, _ = read_stack(out / "pdc.tbs")
    bg, _ = read_stack(out / "background.tbs")
    assert len(pdc.counts) == 480 and len(bg.counts) == 480
    # logged pulse-energy std reflects the configured 10% jitter
    std_line = [l for l in stdout.splitlines() if "pulse energy" in l][0]
    logged_std = float(std_line.rsplit("std ", 1)[1])
    assert abs(logged_std - 0.1) < 0.015


def test_simulate_is_reproducible_and_seed_sensitive(run_dir):
    tmp_path, config = run_dir
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    for out in (out1, out2):
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--quiet"]) == 0
    assert (out1 / "pdc.tbs").read_bytes() == (out2 / "pdc.tbs").read_bytes()
    assert main(["simulate", "--config", str(config), "--out", str(out3),
                 "--seed", "777", "--quiet"]) == 0
    a = (out1 / "pdc.tbs").read_bytes()
    c = (out3 / "pdc.tbs").read_bytes()
    assert len(a) == len(c) and a != c  # same schema, different payload


@functools.cache
def serial_blocks(kind):
    """The counts and energies of the first 16 blocks of
    ``concurrent_config(seed=71)``, rendered one by one."""
    return render_blocks(concurrent_config(seed=71), kind, range(16))


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 1000])
def test_simulate_writes_the_generated_and_the_serial_stacks(
        tmp_path, capsys, monkeypatch, count, workers):
    # the blocks simulate writes where they belong from its workers make
    # the file of the stack generate_stack fills in memory, whose frames
    # are those of the serial blocks; a run config asks for at least two
    # frames, so one frame goes through simulate's writer directly
    cfg = concurrent_config(seed=71)
    params = AnalysisParams(region_s=Region((4, 3), (5, 8)), z_batches=1,
                            frames_per_batch=max(count, 2),
                            background_frames_per_batch=max(count, 2))
    config, out = tmp_path / "run.json", tmp_path / "out"
    write_config(config, cfg, params)
    doc = tio.run_config_to_dict(cfg, params)
    monkeypatch.setattr(model, "_cpu_count", lambda: workers)
    if count > 1:
        assert main(["simulate", "--config", str(config), "--out", str(out)]) \
            == 0
        printed = capsys.readouterr().out
    else:
        out.mkdir()
        for name, kind in (("pdc.tbs", simulate.KIND_PDC),
                           ("background.tbs", simulate.KIND_BACKGROUND)):
            tio.write_stack(out / name, cli._rendered(cfg, kind, np.empty(1)),
                            doc, 1)
    for name, kind in (("pdc.tbs", simulate.KIND_PDC),
                       ("background.tbs", simulate.KIND_BACKGROUND)):
        counts, energy = serial_blocks(kind)
        stack = generate_stack(cfg, count, kind)
        assert np.array_equal(stack.counts, counts[:count])
        tio.write_stack(tmp_path / name, [stack], doc)
        written = (out / name).read_bytes()
        assert written == (tmp_path / name).read_bytes()
        assert written[52:] == counts[:count].astype("<u4").tobytes()
        assert (out / f"{name}.json").read_bytes() == tio.config_bytes(doc)
    if count > 1:
        energy = serial_blocks(simulate.KIND_PDC)[1][:count]
        assert f"pulse energy mean {energy.mean():.4f}, " \
               f"std {energy.std(ddof=1):.4f}" in printed


def test_eight_writers_under_a_short_switch_interval(tmp_path, monkeypatch):
    # eight workers put their blocks, note them and keep their energies in
    # one shared array; a lost or misplaced block changes the bytes or is
    # refused, and a lost energy leaves a value of the filler
    monkeypatch.setattr(model, "_cpu_count", lambda: 8)
    cfg = concurrent_config(seed=71)
    counts, energy = serial_blocks(simulate.KIND_PDC)
    energies = np.full(1000, np.nan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tio.write_stack(tmp_path / "pdc.tbs",
                        cli._rendered(cfg, simulate.KIND_PDC, energies), {},
                        1000)
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "pdc.tbs").read_bytes()[52:] == \
        counts[:1000].astype("<u4").tobytes()
    assert np.array_equal(energies, energy[:1000])


@pytest.mark.parametrize("failure", ["u32-overflow", "sixth-block"])
@pytest.mark.parametrize("workers", [2, 4])
def test_a_worker_failing_mid_stack_keeps_the_earlier_stacks(
        run_dir, capsys, monkeypatch, workers, failure):
    # simulate exits 3 and leaves the files of an earlier run byte for
    # byte, with no temporary file beside them
    tmp_path, config = run_dir
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(model, "_cpu_count", lambda: workers)
    if failure == "u32-overflow":
        cfg, params = load_run_config(config)
        write_config(config, dataclasses.replace(
            cfg, background=dataclasses.replace(cfg.background,
                                                straylight_mean=5e9)), params)
    else:  # 480 frames are 8 blocks: the others are written around it
        render = simulate._render_block

        def failing(cfg, kind, block, *buffers):
            if block == 5:
                raise StackFormatError("block 5 failed")
            return render(cfg, kind, block, *buffers)

        monkeypatch.setattr(simulate, "_render_block", failing)
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 3
    assert "error[StackFormatError]" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command, key, token, message", [
    ("simulate", "mean_mu", "Infinity",
     "experiment.pulse section: mean_mu must be finite, got inf"),
    ("simulate", "cosmic_ray_rate", "NaN",
     "experiment section: cosmic_ray_rate must be finite, got nan"),
    ("calibrate", "cosmic_mad_k", "-Infinity",
     "analysis section: cosmic_mad_k must be finite, got -inf"),
])
def test_non_finite_config_values_exit_2(run_dir, capsys, command, key,
                                         token, message):
    # JSON's NaN and Infinity tokens, as a hand-edited run config holds them
    tmp_path, config = run_dir
    text, count = re.subn(rf'"{key}": [^,\n]+', f'"{key}": {token}',
                          config.read_text())
    assert count == 1
    config.write_text(text)
    out = tmp_path / "out"
    stacks = ["--pdc", str(tmp_path / "pdc.tbs")] if command == "calibrate" \
        else []
    assert main([command, "--config", str(config), "--out", str(out),
                 "--quiet", *stacks]) == 2
    assert capsys.readouterr().err == f"error[ConfigError]: {message}\n"
    assert not out.exists()


def test_find_cs_reports_argmin(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    assert main(["find-cs", "--config", str(config), "--out", str(out),
                 "--stack", str(out / "pdc.tbs")]) == 0
    assert "minimum at offset (0, 0)" in capsys.readouterr().out
    lines = (out / "cs_map.csv").read_text().splitlines()
    assert len(lines) == 5 and all(len(l.split(",")) == 5 for l in lines)


def test_area_scan_emits_curve(run_dir):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    assert main(["area-scan", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs"),
                 "--quiet"]) == 0
    lines = (out / "area_scan.csv").read_text().splitlines()
    assert len(lines) == 5  # header + one row per area


def test_calibrate_recovers_ground_truth(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    assert main(["calibrate", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs")]) == 0
    stdout = capsys.readouterr().out
    assert "eta_s" in stdout
    search = re.search(r"centre search: map minimum (\S+), curvature (\S+), "
                       r"ties \[\(0, 0\)\]", stdout)
    assert search and 0.0 < float(search[1]) < float(search[2])
    header, row = (out / "calibration.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert abs(float(values["eta_s"]) - 0.613) < 4 * float(values["u_eta_s"])
    batches = (out / "batches.csv").read_text().splitlines()
    assert len(batches) == 5


def test_calibrate_reports_transmittance_corrected_efficiencies(run_dir,
                                                                capsys):
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    lossy = tmp_path / "lossy.json"
    write_config(lossy, cfg, dataclasses.replace(params, tau_s=0.9,
                                                 tau_i=0.8))
    capsys.readouterr()
    assert main(["calibrate", "--config", str(lossy), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs")]) == 0
    stdout = capsys.readouterr().out
    eta = {arm: float(re.search(rf"^eta_{arm}\s+= (\S+)", stdout, re.M)[1])
           for arm in "si"}
    corrected = re.findall(r"^eta_(\w) / tau_\w = (\S+)$", stdout, re.M)
    assert [arm for arm, _ in corrected] == ["s", "i"]
    values = dict(corrected)
    assert float(values["s"]) == pytest.approx(eta["s"] / 0.9, abs=2e-6)
    assert float(values["i"]) == pytest.approx(eta["i"] / 0.8, abs=2e-6)


def test_excess_noise_follows_variance_ddof(run_dir):
    from twincal.cli import _analysed, _calibrate, _region_modes
    _, config = run_dir
    cfg, params = load_run_config(config)
    pdc = generate_stack(cfg, params.z_batches * params.frames_per_batch)
    bg = generate_stack(cfg, params.z_batches *
                        params.background_frames_per_batch, kind="background")
    ratios = [_calibrate(dataclasses.replace(params, variance_ddof=ddof),
                         cfg.geometry, _analysed(cfg.geometry, params),
                         _region_modes(cfg, params), pdc.counts,
                         bg.counts)[2].excess_noise_ratio
              for ddof in (0, 1)]
    n = len(pdc.counts)  # the filter keeps every frame of this stack
    assert ratios[0] / ratios[1] == pytest.approx((n - 1) / n, rel=1e-12)


def analysed_pixels(cfg, params):
    """Mask of the superpixels ``calibrate`` filters: region_s and the
    idler search window."""
    window = cfg.geometry.search_window(params.region_s,
                                        params.cs_search_extent)
    mask = np.zeros(cfg.geometry.shape, dtype=bool)
    for region in (params.region_s, window):
        mask[region.row_slice, region.col_slice] = True
    return mask


def spike(counts, frames, mask, rng):
    """Add one cosmic-ray spike to each of ``frames``, at distinct random
    pixels of ``mask``, as large as the simulator's: 20x the larger of
    the frame median and the struck pixel.  (A pixel struck in half the
    frames of a short stack would move its own median.)"""
    frames = list(frames)
    pixels = np.argwhere(mask)[rng.choice(mask.sum(), len(frames),
                                          replace=False)]
    for k, (r, c) in zip(frames, pixels):
        counts[k, r, c] += round(20.0 * max(float(np.median(counts[k])),
                                            float(counts[k, r, c]), 1.0))


def calibrate_with_spikes(run_dir, analysed):
    """calibrate's discarded count on stacks of the run config with six
    pdc frames spiked inside the analysed pixels, or outside them."""
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    out = tmp_path / "out"
    clean = generate_stack(cfg, params.z_batches * params.frames_per_batch)
    rng = np.random.default_rng(3)
    spiked_at = sorted(int(i) for i in
                       rng.choice(len(clean.counts), 6, replace=False))
    mask = analysed_pixels(cfg, params)
    spike(clean.counts, spiked_at, mask if analysed else ~mask, rng)
    bg = generate_stack(cfg, params.z_batches *
                        params.background_frames_per_batch,
                        kind="background")
    doc = tio.run_config_to_dict(cfg, params)
    out.mkdir(exist_ok=True)
    tio.write_stack(out / "pdc.tbs", [clean], doc)
    tio.write_stack(out / "background.tbs", [bg], doc)
    assert main(["calibrate", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs"),
                 "--quiet"]) == 0
    header, row = (out / "calibration.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    return int(values["discarded"])


def test_calibrate_discards_injected_cosmic_rays(run_dir):
    assert calibrate_with_spikes(run_dir, analysed=True) == 6


def test_calibrate_keeps_frames_hit_outside_the_analysed_pixels(run_dir):
    # a hit there cannot move a region sum or the centre map
    assert calibrate_with_spikes(run_dir, analysed=False) == 0


@pytest.mark.parametrize("spiked", [4, 3])
def test_background_losing_its_frames_is_an_error(run_dir, capsys, spiked):
    # A background stack the cosmic-ray filter empties, or leaves one
    # frame of, cannot correct anything; it must not turn into an
    # uncorrected run either.
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    out = tmp_path / "out"
    out.mkdir()
    pdc = generate_stack(cfg, 100)
    bg = generate_stack(cfg, 4, kind="background")
    spike(bg.counts, range(spiked), analysed_pixels(cfg, params),
          np.random.default_rng(5))
    doc = tio.run_config_to_dict(cfg, params)
    tio.write_stack(out / "pdc.tbs", [pdc], doc)
    tio.write_stack(out / "background.tbs", [bg], doc)
    assert main(["calibrate", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs"),
                 "--quiet"]) == 5
    err = capsys.readouterr().err
    assert "error[DegenerateDataError]" in err and "background frames" in err
    assert not (out / "calibration.csv").exists()


def test_empty_pair_on_a_second_worker_exits_5(run_dir, capsys, monkeypatch):
    # one-frame map tiles on two workers: whichever meets frame 3 raises
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    stack = generate_stack(cfg, 6)
    stack.counts[3] = 0
    tio.write_stack(tmp_path / "pdc.tbs", [stack],
                    tio.run_config_to_dict(cfg, params))
    monkeypatch.setattr(model, "_cpu_count", lambda: 2)
    monkeypatch.setattr(estimate, "_SPATIAL_TILE_ELEMENTS", 1)
    assert main(["find-cs", "--config", str(config), "--out",
                 str(tmp_path / "out"), "--stack", str(tmp_path / "pdc.tbs"),
                 "--quiet"]) == 5
    err = capsys.readouterr().err
    assert "error[DegenerateDataError]" in err
    assert "empty region pair in spatial map" in err
    assert not (tmp_path / "out" / "cs_map.csv").exists()


def test_reproduce_table1_builds_one_series(tmp_path, monkeypatch):
    from twincal import estimate
    calls = []
    build_series = estimate.build_series

    def counted(*args, **kwargs):
        calls.append(args)
        return build_series(*args, **kwargs)

    monkeypatch.setattr(estimate, "build_series", counted)
    assert main(["reproduce-table1", "--out", str(tmp_path), "--seed", "1",
                 "--quiet"]) == 0
    assert len(calls) == 1


def test_reproduce_reference_run(tmp_path, capsys):
    out = tmp_path / "ref"
    assert main(["reproduce-table1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "eta_s" in stdout
    lines = (out / "side_by_side.csv").read_text().splitlines()
    assert lines[0] == "quantity,reference,u_reference,simulated,u_simulated"
    assert len(lines) == 11  # ten tracked quantities
    table = {l.split(",")[0]: [float(x) for x in l.split(",")[1:]]
             for l in lines[1:]}
    # recovered efficiency consistent with the reference within its u
    eta_ref, _, eta_sim, eta_u = table["eta_s"]
    assert abs(eta_sim - eta_ref) < 4 * eta_u
    # simulated moments land on the reference scale
    assert table["E_Ns"][2] == pytest.approx(262710, rel=0.02)
    assert table["E_Ms"][2] == pytest.approx(12751, rel=0.05)
    assert table["std_Ns"][2] == pytest.approx(35982, rel=0.10)
    assert table["std_Ms"][2] == pytest.approx(1318, rel=0.10)
    assert table["alpha"][2] == pytest.approx(0.99952, abs=3e-4)
    assert table["alpha_b"][2] == pytest.approx(0.99416, abs=4e-4)
    assert table["sigma_alpha_b"][2] == pytest.approx(0.384, abs=0.04)


def test_help_lists_exactly_the_commands(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert ("{simulate,find-cs,area-scan,calibrate,reproduce-table1}"
            in capsys.readouterr().out)


def test_python_m_twincal_lists_exactly_the_commands():
    # runs __main__.py in a fresh interpreter, through the package root
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "twincal", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert re.findall(r"\{(.*?)\}", done.stdout) == \
        ["simulate,find-cs,area-scan,calibrate,reproduce-table1"] * 2


def test_selftest_is_not_a_command(capsys):
    # the invariants it checked are the acceptance criteria's
    with pytest.raises(SystemExit) as done:
        main(["selftest"])
    assert done.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert "error[ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize("mad_k", [0.0, -1.0])
def test_non_positive_cosmic_mad_k_exit_code(run_dir, capsys, mad_k):
    tmp_path, config = run_dir
    doc = json.loads(config.read_text())
    doc["analysis"]["cosmic_mad_k"] = mad_k
    bad = tmp_path / "mad_k.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and "cosmic_mad_k" in err


def test_unknown_config_key_exit_code(run_dir, capsys):
    tmp_path, config = run_dir
    doc = json.loads(config.read_text())
    doc["analysis"]["frames_per_bach"] = 10
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and "frames_per_bach" in err
    assert not (out / "pdc.tbs").exists()


def test_missing_stack_exit_code(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    code = main(["find-cs", "--config", str(config), "--out", str(out),
                 "--stack", str(tmp_path / "missing.tbs")])
    assert code == 3


def test_missing_sidecar_warns_but_runs(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    tio.sidecar_path(out / "pdc.tbs").unlink()
    capsys.readouterr()
    assert main(["find-cs", "--config", str(config), "--out", str(out),
                 "--stack", str(out / "pdc.tbs"), "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "not verified" in err
    assert main(["calibrate", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"),
                 "--background", str(out / "background.tbs"),
                 "--quiet"]) == 0
    err = capsys.readouterr().err
    assert err.count("not verified") == 1  # the background sidecar is intact


def test_tampered_sidecar_exit_code(run_dir, capsys):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    side = tio.sidecar_path(out / "pdc.tbs")
    side.write_text(side.read_text().replace("0.613", "0.614"))
    code = main(["area-scan", "--config", str(config), "--out", str(out),
                 "--pdc", str(out / "pdc.tbs"), "--quiet"])
    assert code == 3
    assert "error[StackFormatError]" in capsys.readouterr().err


def test_geometry_error_exit_code(run_dir, tmp_path, capsys):
    _, config = run_dir
    cfg, params = load_run_config(config)
    bad_params = dataclasses.replace(params, cs_search_extent=(0, 20))
    bad_config = tmp_path / "bad_geom.json"
    write_config(bad_config, cfg, bad_params)
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    code = main(["find-cs", "--config", str(bad_config), "--out", str(out),
                 "--stack", str(out / "pdc.tbs")])
    assert code == 4


def test_rerun_overwrites_byte_identically(run_dir):
    tmp_path, config = run_dir
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    first = (out / "pdc.tbs").read_bytes()
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    assert (out / "pdc.tbs").read_bytes() == first


def large_frames(tmp_path, seed, z_batches, frames_per_batch):
    """A run config of 48x128 frames with 2-px cells and cosmic rays, the
    same number of frames per batch in both stacks."""
    cfg = make_config(cell_px=2, grid=(10, 16), rows=48, cols=128, split=64,
                      cs=(23.5, 63.5), cs_offset=(1.0, -1.0), mu=2.0,
                      jitter=0.1, straylight=80.0, read_noise=4.0,
                      cosmic_rate=0.02, seed=seed)
    params = AnalysisParams(region_s=Region((14, 16), (20, 32)),
                            z_batches=z_batches,
                            frames_per_batch=frames_per_batch,
                            background_frames_per_batch=frames_per_batch)
    config = tmp_path / f"large-{z_batches}.json"
    write_config(config, cfg, params)
    return cfg, params, config


def test_simulate_memory_does_not_grow_with_frame_count(tmp_path,
                                                        monkeypatch):
    # blocks go to the file as they are rendered: 4x the frames take no
    # more than one more block of memory
    monkeypatch.setattr(model, "_cpu_count", lambda: 2)
    peaks = []
    for z in (4, 16):  # 256 and 1024 frames per stack
        _, _, config = large_frames(tmp_path, 81, z, 64)
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(config), "--out",
                         str(tmp_path / f"out-{z}"), "--quiet"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(read_stack(tmp_path / f"out-{z}" / "pdc.tbs")[0].counts) \
            == 64 * z
    assert abs(peaks[1] - peaks[0]) < 64 * 48 * 128 * 8


def test_calibrate_memory_is_not_a_stack_copy(tmp_path):
    # both u32 stacks lose frames to the filter (the background one to a
    # spike of its own); the kept ones are used by index, so the chain's
    # peak is a small part of the stacks it reads
    from twincal.cli import _analysed, _calibrate, _region_modes
    cfg, params, _ = large_frames(tmp_path, 9, 4, 125)
    pdc = generate_stack(cfg, 500).counts
    bg = generate_stack(cfg, 500, kind="background").counts
    spike(bg, [250], analysed_pixels(cfg, params), np.random.default_rng(9))
    tracemalloc.start()
    try:
        _, _, diagnostics = _calibrate(
            params, cfg.geometry, _analysed(cfg.geometry, params),
            _region_modes(cfg, params), pdc, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagnostics.dropped_pdc and diagnostics.dropped_background
    assert peak < (pdc.nbytes + bg.nbytes) / 4


@pytest.mark.parametrize("z, per_batch, bg_per_batch",
                         [(2 ** 16, 2 ** 16, 0), (2, 2, 2 ** 31)])
def test_oversized_frame_count_is_refused_before_rendering(
        tmp_path, capsys, monkeypatch, z, per_batch, bg_per_batch):
    # a .tbs header holds the frame count in a u32 field
    cfg = make_config()
    params = AnalysisParams(region_s=Region((4, 3), (5, 8)), z_batches=z,
                            frames_per_batch=per_batch,
                            background_frames_per_batch=bg_per_batch)
    config = tmp_path / "huge.json"
    write_config(config, cfg, params)
    rendered = []
    monkeypatch.setattr(simulate, "_render_block",
                        lambda *args: rendered.append(args))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 3
    assert "error[StackFormatError]" in capsys.readouterr().err
    assert rendered == [] and not out.exists()


LARGE_FRAME_AREAS = ((1, 1), (2, 2), (2, 4), (4, 4), (4, 8), (6, 8), (8, 8),
                     (8, 16), (10, 16), (12, 24), (16, 24), (20, 32))


def workload_run(tmp_path, workload, seed, frames_per_batch):
    """A run config shaped like one of the benchmark's two workloads, on
    2 batches of ``frames_per_batch`` frames per stack."""
    if workload == "reference":
        cfg = presets.reference_experiment(master_seed=seed)
        params = dataclasses.replace(
            presets.reference_analysis(2, frames_per_batch, frames_per_batch),
            areas=((1, 1), (2, 2), (5, 8)))
        config = tmp_path / "reference.json"
        write_config(config, cfg, params)
        return cfg, params, config
    cfg, params, config = large_frames(tmp_path, seed, 2, frames_per_batch)
    params = dataclasses.replace(params, areas=LARGE_FRAME_AREAS)
    write_config(config, cfg, params)
    return cfg, params, config


SPREAD_AREAS = ((6, 2), (2, 10))


@pytest.mark.parametrize("background", [True, False])
@pytest.mark.parametrize(
    "workload, areas",
    [("reference", None), ("large-frame", None),
     ("reference", SPREAD_AREAS), ("large-frame", SPREAD_AREAS)],
    ids=["reference", "large-frame", "reference-spread",
         "large-frame-spread"])
def test_box_reads_match_the_estimators_on_whole_frames(tmp_path, workload,
                                                        areas, background):
    # find-cs, area-scan and calibrate read only the box they analyse;
    # their tables must be those of the estimators run on the whole
    # frames with the whole geometry
    from twincal.cli import _analysed, _calibrate, _hull, _region_modes
    cfg, params, config = workload_run(tmp_path, workload, 7, 90)
    if areas:
        # rows from the tall area, columns from the wide one: the box
        # area-scan reads is no single area's pair
        params = dataclasses.replace(params, areas=areas)
        write_config(config, cfg, params)
        pairs = [[r, cfg.geometry.conjugate_region(r)] for r in (
            estimate.anchored_region(params.region_s.center, a)
            for a in areas)]
        assert all(_hull(pair) != _hull(sum(pairs, [])) for pair in pairs)
    data, got, want = (tmp_path / n for n in ("data", "got", "want"))
    want.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(data),
                 "--quiet"]) == 0
    stacks = ["--pdc", str(data / "pdc.tbs")]
    if background:
        stacks += ["--background", str(data / "background.tbs")]
    common = ["--config", str(config), "--out", str(got), "--quiet"]
    assert main(["find-cs", *common, "--stack", str(data / "pdc.tbs")]) == 0
    assert main(["area-scan", *common, *stacks]) == 0
    assert main(["calibrate", *common, *stacks]) == 0

    pdc = read_stack(data / "pdc.tbs")[0].counts
    bg = read_stack(data / "background.tbs")[0].counts if background else None
    tio.write_cs_map_csv(want / "cs_map.csv", estimate.sigma_spatial_map(
        pdc, params.region_s, cfg.geometry, params.cs_search_extent))
    tio.write_area_scan_csv(want / "area_scan.csv", estimate.area_scan(
        pdc, bg, estimate.area_pairs(cfg.geometry, params.region_s.center,
                                     params.areas),
        cell_px=cfg.modes.coherence_cell_px, ddof=params.variance_ddof))
    _, summary, diagnostics = _calibrate(
        params, cfg.geometry, _analysed(cfg.geometry, params),
        _region_modes(cfg, params), pdc, bg)
    tio.write_calibration_csv(want / "calibration.csv", summary, diagnostics)
    tio.write_batches_csv(want / "batches.csv", summary)
    for name in ("cs_map.csv", "area_scan.csv", "calibration.csv",
                 "batches.csv"):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("argv, path, kind, expected", [
    (["find-cs", "--stack", "background.tbs"],
     "background.tbs", "background", "pdc_on"),
    (["area-scan", "--pdc", "background.tbs"],
     "background.tbs", "background", "pdc_on"),
    (["calibrate", "--pdc", "background.tbs", "--background", "pdc.tbs"],
     "background.tbs", "background", "pdc_on"),
    (["calibrate", "--pdc", "pdc.tbs", "--background", "pdc.tbs"],
     "pdc.tbs", "pdc_on", "background"),
], ids=["find-cs", "area-scan", "calibrate-swapped", "calibrate-two-pdc"])
def test_stack_of_the_wrong_kind_is_refused(run_dir, capsys, argv, path,
                                            kind, expected):
    # each flag takes one stack kind; the header's kind is checked before
    # any estimator runs
    tmp_path, config = run_dir
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(data),
                 "--quiet"]) == 0
    argv = [str(data / a) if a.endswith(".tbs") else a for a in argv]
    assert main([argv[0], "--config", str(config), "--out", str(out),
                 "--quiet", *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert "error[StackFormatError]" in err
    assert (f"{data / path}: header kind {kind!r}, expected {expected!r}"
            in err)
    assert not out.exists()


def test_one_batch_calibration_is_refused_before_reading(tmp_path, capsys):
    # calibrate needs Z >= 2 batches for the spread of their estimates: it
    # stops on the config, before it opens a stack, so a missing one is
    # no 3
    cfg, params, config = large_frames(tmp_path, 9, 1, 125)
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(config), "--out", str(out),
                 "--pdc", str(tmp_path / "missing.tbs"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and "z_batches >= 2, got 1" in err
    assert not (out / "calibration.csv").exists()
    assert not out.exists()


@pytest.mark.parametrize("path, value, message", REFUSED_EDITS.values(),
                         ids=REFUSED_EDITS)
def test_refused_documents_exit_2(tmp_path, capsys, path, value, message):
    config, out = tmp_path / "run.json", tmp_path / "out"
    config.write_text(json.dumps(edited_config_doc(path, value)))
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]: ")
    assert re.search(message, err.removeprefix("error[ConfigError]: "))
    assert not out.exists()


def test_unsorted_areas_are_refused_before_reading(run_dir, capsys):
    # area-scan derives its region pairs, and so checks the areas' order,
    # before it opens a stack
    tmp_path, config = run_dir
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(data),
                 "--quiet"]) == 0
    cfg, params = load_run_config(config)
    write_config(config, cfg,
                 dataclasses.replace(params, areas=((5, 8), (1, 1))))
    with mock.patch.object(tio, "read_stack", wraps=tio.read_stack) as read:
        assert main(["area-scan", "--config", str(config), "--out",
                     str(out), "--pdc", str(data / "pdc.tbs"),
                     "--background", str(data / "background.tbs"),
                     "--quiet"]) == 2
    assert read.call_count == 0
    err = capsys.readouterr().err
    assert "error[DomainError]" in err and "sorted ascending" in err
    assert not out.exists()


def test_calibrate_memory_is_bounded_by_the_boxes(tmp_path):
    # calibrate holds the analysed box of each stack and one read tile
    # per worker, not the stacks
    cfg, params, config = large_frames(tmp_path, 9, 4, 125)
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(config), "--out", str(data),
                 "--quiet"]) == 0
    argv = ["calibrate", "--config", str(config), "--out",
            str(tmp_path / "out"), "--pdc", str(data / "pdc.tbs"),
            "--background", str(data / "background.tbs"), "--quiet"]
    assert main(argv) == 0  # imports and first-call caches
    analysed = [params.region_s, cfg.geometry.search_window(
        params.region_s, params.cs_search_extent)]
    box = [max(r.origin[axis] + r.extent[axis] for r in analysed)
           - min(r.origin[axis] for r in analysed) for axis in (0, 1)]
    box_bytes = 500 * box[0] * box[1] * 4
    stacks_nbytes = 2 * 500 * cfg.geometry.rows * cfg.geometry.cols * 4
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * box_bytes + 2 * model._cpu_count() * tio._READ_TILE_BYTES
    assert peak < stacks_nbytes / 2


def test_stack_smaller_than_the_analysed_box_is_a_geometry_error(run_dir,
                                                                 capsys):
    # a stack whose frames do not hold the pixels the config analyses
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    out = tmp_path / "out"
    out.mkdir()
    small = generate_stack(cfg, 120).counts[:, :, :20]
    tio.write_stack(out / "pdc.tbs", [simulate.Stack(small)],
                    tio.run_config_to_dict(cfg, params))
    for argv in (["find-cs", "--stack", str(out / "pdc.tbs")],
                 ["area-scan", "--pdc", str(out / "pdc.tbs")],
                 ["calibrate", "--pdc", str(out / "pdc.tbs")]):
        assert main([argv[0], "--config", str(config), "--out", str(out),
                     "--quiet", *argv[1:]]) == 4
        err = capsys.readouterr().err
        assert "error[GeometryError]" in err and "leaves the 13x20 frame" in err


def test_region_smaller_than_a_cell_is_refused_before_reading(tmp_path,
                                                              capsys):
    # a region_s narrower or shorter than a 2-px cell covers no whole
    # cell, whatever its area: calibrate stops on the config, before it
    # opens a stack, so a missing one is no 3
    cfg, params, config = large_frames(tmp_path, 9, 4, 125)
    out = tmp_path / "out"
    for extent in ((1, 1), (1, 8), (8, 1)):
        write_config(config, cfg, dataclasses.replace(
            params, region_s=Region((20, 28), extent)))
        assert main(["calibrate", "--config", str(config), "--out",
                     str(out), "--pdc", str(tmp_path / "missing.tbs"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "error[DomainError]" in err
        assert f"region_s {extent}" in err and "2x2 coherence cell" in err
        assert not out.exists()


def test_stack_larger_than_the_config_frame_is_a_geometry_error(run_dir,
                                                                capsys):
    # frames that hold the analysed box, but are not the config's 13x30,
    # belong to another geometry: each command refuses them
    tmp_path, config = run_dir
    cfg, params = load_run_config(config)
    doc = tio.run_config_to_dict(cfg, params)
    out = tmp_path / "out"
    out.mkdir()
    for name, kind in (("pdc.tbs", simulate.KIND_PDC),
                       ("background.tbs", simulate.KIND_BACKGROUND)):
        large = np.zeros((120, 16, 36), dtype=model.COUNT_DTYPE)
        large[:, :13, :30] = generate_stack(cfg, 120, kind).counts
        tio.write_stack(out / name, [simulate.Stack(large, kind)], doc)
    stacks = ["--pdc", str(out / "pdc.tbs"),
              "--background", str(out / "background.tbs")]
    for argv in (["find-cs", "--stack", str(out / "pdc.tbs")],
                 ["area-scan", *stacks], ["calibrate", *stacks],
                 ["calibrate", "--pdc", str(out / "pdc.tbs")]):
        assert main([argv[0], "--config", str(config), "--out", str(out),
                     "--quiet", *argv[1:]]) == 4
        err = capsys.readouterr().err
        assert err == (f"error[GeometryError]: {out / 'pdc.tbs'}: 16x36 "
                       "frames, expected 13x30\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "background.tbs", "background.tbs.json", "pdc.tbs", "pdc.tbs.json"]
