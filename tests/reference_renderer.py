"""Per-frame reference renderer.

This is the frame-by-frame renderer the block renderer in
``twincal.simulate`` replaced: every frame draws from its own stream keyed
on (master_seed, kind, pulse_index), one scalar pulse energy and one
frame-sized array per sampling step.  Its draws differ from the block
renderer's, so the oracle tests compare the laws of the two, not their
values.  The sampling formulas are written out here on purpose, so a
slip in the shared ones in ``twincal`` cannot hide on both sides.
"""

import math

import numpy as np

from twincal.model import GAIN_LINEAR
from twincal.simulate import KIND_PDC, _COSMIC_FACTOR

_KIND_CODE = {"pdc_on": 0, "background": 1}


def _mu_at(pulse, energy):
    if pulse.gain_map == GAIN_LINEAR:
        return pulse.mean_mu * energy
    g = pulse.gain_const
    return pulse.mean_mu * math.sinh(g * math.sqrt(energy)) ** 2 / math.sinh(g) ** 2


def _sample_pulse(pulse, rng):
    if pulse.relative_energy_jitter == 0.0:
        return 1.0, pulse.mean_mu
    energy = rng.normal(1.0, pulse.relative_energy_jitter)
    while energy <= 0.0:
        energy = rng.normal(1.0, pulse.relative_energy_jitter)
    return float(energy), _mu_at(pulse, float(energy))


def _spread_cells(values, px, rng):
    gr, gc = values.shape
    if px == 1:
        return values.astype(np.float64)
    split = rng.multinomial(values.reshape(-1),
                            np.full(px * px, 1.0 / (px * px)))
    block = split.reshape(gr, gc, px, px).transpose(0, 2, 1, 3)
    return block.reshape(gr * px, gc * px).astype(np.float64)


def _inject_spike(counts, rng):
    r = int(rng.integers(counts.shape[0]))
    c = int(rng.integers(counts.shape[1]))
    median = float(np.median(counts))
    counts[r, c] += _COSMIC_FACTOR * max(median, float(counts[r, c]), 1.0)


def render_frame(cfg, pulse_index, kind=KIND_PDC):
    """(counts, pulse energy) of one frame, from its own stream."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.master_seed, spawn_key=(_KIND_CODE[kind], pulse_index)))
    geo = cfg.geometry
    counts = np.zeros(geo.shape, dtype=np.float64)
    energy, mu = _sample_pulse(cfg.pulse, rng)

    if kind == KIND_PDC:
        grid = cfg.modes.grid
        px = cfg.modes.coherence_cell_px
        pre = rng.negative_binomial(cfg.modes.temporal_modes, 1.0 / (1.0 + mu),
                                    size=grid[0] * grid[1])
        det_s = rng.binomial(pre, cfg.channel.eta_s).reshape(grid)
        det_i = rng.binomial(pre, cfg.channel.eta_i).reshape(grid)
        sig_r0, sig_c0 = cfg.signal_region().origin
        idl_r0, idl_c0 = cfg.idler_region().origin
        height, width = cfg.modes.block_shape
        counts[sig_r0:sig_r0 + height, sig_c0:sig_c0 + width] += \
            _spread_cells(det_s, px, rng)
        counts[idl_r0:idl_r0 + height, idl_c0:idl_c0 + width] += \
            _spread_cells(det_i[::-1, ::-1], px, rng)

    bg = cfg.background
    if bg.straylight_mean > 0.0:
        scale = energy if bg.straylight_tracks_pulse else 1.0
        split = geo.beam_split
        counts[:, :split] += rng.poisson(
            bg.straylight_mean * scale, size=(geo.rows, split))
        lam_idler = bg.straylight_mean * bg.straylight_idler_ratio * scale
        if lam_idler > 0.0:
            counts[:, split:] += rng.poisson(
                lam_idler, size=(geo.rows, geo.cols - split))

    if bg.read_noise_std > 0.0:
        counts += rng.normal(0.0, bg.read_noise_per_superpixel, size=geo.shape)

    if cfg.cosmic_ray_rate > 0.0:
        for _ in range(int(rng.poisson(cfg.cosmic_ray_rate))):
            _inject_spike(counts, rng)

    np.rint(counts, out=counts)
    np.clip(counts, 0.0, None, out=counts)
    return counts, energy


def render_stack(cfg, count, kind=KIND_PDC):
    """(counts of shape (count, rows, cols), energies), frame by frame."""
    frames = [render_frame(cfg, k, kind) for k in range(count)]
    return (np.stack([c for c, _ in frames]),
            np.array([e for _, e in frames]))
