"""Block renderer against the per-frame reference renderer.

The two renderers draw from different streams, so their frames differ;
what must agree is the law of everything the estimators read.  On fixed
seeds, two-sample Kolmogorov-Smirnov tests compare the pulse energies
and, for three conjugate region pairs, the signal sum N_s, the idler sum
N_i and the difference N_s - N_i:

* the emission block and its conjugate (the whole correlated light),
* a 2x2 region at a cell corner, one whole cell on 2-px cells (a wrong
  superpixel layout of the cells splits it and changes its law),
* one 1x1 pixel pair (the conjugation map, pixel by pixel).

The conjugate regions are taken at the injected symmetry-centre offset,
where the idler light is deposited.
"""

import numpy as np
import pytest
import scipy.stats

from twincal.estimate import build_series
from twincal.model import COUNT_DTYPE, Region
from twincal.simulate import generate_stack

import reference_renderer as ref
from test_simulate import make_config, rendered_energies

FRAMES = 3000
P_MIN = 1e-3

CONFIGS = {
    "1px-jitter-sinh2-tracking": make_config(
        eta_s=0.6, eta_i=0.55, mu=0.5, m_t=200, jitter=0.1,
        gain_map="sinh2", gain_const=1.0, straylight=20.0, tracks=True,
        idler_ratio=0.9, read_noise=1.0, seed=2101),
    "2px-offset-cosmic": make_config(
        eta_s=0.8, eta_i=0.7, mu=4.0, m_t=50, cell_px=2, grid=(4, 6),
        rows=17, cols=40, split=20, cs=(8.0, 19.5), cs_offset=(1.0, -1.0),
        straylight=5.0, cosmic_rate=0.05, seed=2102),
}


def region_pairs(cfg):
    """(name, signal region, conjugate region at the injected offset)."""
    block = cfg.signal_region()
    shift = tuple(int(v) for v in cfg.cs_offset)
    r0, c0 = block.origin
    pairs = [("block", block), ("2x2", Region((r0 + 2, c0 + 4), (2, 2))),
             ("pixel", Region((r0 + 3, c0 + 5), (1, 1)))]
    return [(name, region, cfg.geometry.conjugate_region(region, shift=shift))
            for name, region in pairs]


def laws(counts, energies, cfg):
    """name -> one sample per frame of every compared quantity."""
    out = {"energy": np.asarray(energies)}
    for name, region_s, region_i in region_pairs(cfg):
        series = build_series(counts, region_s, region_i)
        out[f"{name} N_s"] = series.n_s
        out[f"{name} N_i"] = series.n_i
        out[f"{name} N_s-N_i"] = series.n_s - series.n_i
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_renderer_matches_per_frame_law(name):
    cfg = CONFIGS[name]
    stack = generate_stack(cfg, FRAMES)
    block = laws(stack.counts, rendered_energies(cfg, FRAMES), cfg)
    counts, energies = ref.render_stack(cfg, FRAMES)
    # the reference's float frames hold non-negative integers: the cast
    # to the one count type the region sums take loses nothing
    u32 = counts.astype(COUNT_DTYPE)
    assert np.array_equal(u32, counts)
    reference = laws(u32, energies, cfg)
    pvalues = {key: scipy.stats.ks_2samp(block[key], reference[key]).pvalue
               for key in block if np.ptp(reference[key]) > 0}
    # the jittered config compares energies; the other has none to compare
    assert ("energy" in pvalues) == (cfg.pulse.relative_energy_jitter > 0)
    failed = {key: p for key, p in pvalues.items() if not p > P_MIN}
    assert not failed, f"laws differ (KS p-values): {failed}"
