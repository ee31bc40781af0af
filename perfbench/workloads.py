"""Benchmark workloads: run configurations derived from a seed.

Why each workload exists is stated in BENCHMARK.json and README.md.

The configurations are written out literally in the run-config JSON
format the command line reads, so the benchmark depends only on that
public format and never on the program's internal builders.  The
experiment constants of ``reference`` are the bundled reference preset.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

# Quantities ``reproduce-table1`` must report in side_by_side.csv.
REFERENCE_KEYS = ("E_Ns", "std_Ns", "E_Ms", "std_Ms", "alpha", "alpha_b",
                  "sigma", "sigma_alpha", "sigma_alpha_b", "eta_s")

# Ground truth of ``reproduce-table1``: the bundled preset's efficiencies.
TABLE1_ETA_S = 0.613
TABLE1_ETA_I = 0.6166009495453447

_REFERENCE = {
    "experiment": {
        "channel": {"eta_s": 0.613, "eta_i": 0.6166009495453447},
        "modes": {"temporal_modes": 5000, "coherence_cell_px": 1,
                  "grid": [5, 8]},
        "pulse": {"mean_mu": 2.0302248446269053,
                  "relative_energy_jitter": 0.10296516798316946,
                  "gain_map": "sinh2", "gain_const": 1.0605028651720567},
        "background": {"straylight_mean": 318.775,
                       "straylight_tracks_pulse": True,
                       "read_noise_std": 4.0, "binning": 1,
                       "straylight_idler_ratio": 0.8947396845198955},
        "geometry": {"rows": 13, "cols": 30, "cs": [6.0, 14.5],
                     "beam_split": 15},
        "cs_offset": [0.0, 0.0],
        "cosmic_ray_rate": 0.0,
        "master_seed": 0,
    },
    "analysis": {
        "region_s": {"origin": [4, 3], "extent": [5, 8]},
        "z_batches": 8,
        "frames_per_batch": 500,
        "background_frames_per_batch": 500,
        "cs_search_extent": [3, 3],
        "areas": [[1, 1], [2, 2], [5, 8]],
        "cosmic_mad_k": 10.0,
        "variance_ddof": 1,
        "tau_s": 1.0,
        "tau_i": 1.0,
    },
}


def _reference() -> dict:
    return copy.deepcopy(_REFERENCE)


def _large_frame() -> dict:
    # A 48x128 CCD crop with 2-px coherence cells (the renderer's
    # multinomial spread path), cosmic rays, a misaligned symmetry centre
    # and straylight that does not follow the pump, so the background
    # stack measures the illuminated frames' background faithfully.
    doc = _reference()
    exp, ana = doc["experiment"], doc["analysis"]
    exp["modes"].update(coherence_cell_px=2, grid=[10, 16])
    exp["background"].update(straylight_mean=80.0,
                             straylight_tracks_pulse=False)
    exp["geometry"] = {"rows": 48, "cols": 128, "cs": [23.5, 63.5],
                       "beam_split": 64}
    exp["cs_offset"] = [1.0, -1.0]
    exp["cosmic_ray_rate"] = 0.02
    ana.update(region_s={"origin": [14, 16], "extent": [20, 32]},
               z_batches=4, frames_per_batch=250,
               background_frames_per_batch=250,
               # Many areas, so the scan's own work is not dwarfed by
               # reading the two stacks, whose memory-bound time varies
               # most between runs.
               areas=[[1, 1], [2, 2], [2, 4], [4, 4], [4, 8], [6, 8], [8, 8],
                      [8, 16], [10, 16], [12, 24], [16, 24], [20, 32]])
    return doc


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # run configuration without the seed
    expect_discards: bool   # calibrate must drop at least one frame

    def run_config(self, seed: int) -> dict:
        """The run configuration of one seed: the seed is the master seed."""
        doc = copy.deepcopy(self.config)
        doc["experiment"]["master_seed"] = seed
        return doc

    def warmup_config(self, seed: int) -> dict:
        """Same geometry and physics on few frames, to warm code paths."""
        doc = self.run_config(seed)
        doc["analysis"].update(z_batches=2, frames_per_batch=50,
                               background_frames_per_batch=50)
        return doc

    @property
    def frames(self) -> int:
        """pdc + background frames one ``simulate`` renders."""
        ana = self.config["analysis"]
        return ana["z_batches"] * (ana["frames_per_batch"]
                                   + ana["background_frames_per_batch"])

    @property
    def expected_offset(self) -> tuple[int, int]:
        """Symmetry-centre offset the map search must choose."""
        off = self.config["experiment"]["cs_offset"]
        return (_round_half_away(off[0]), _round_half_away(off[1]))


WORKLOADS = {
    w.name: w for w in (
        Workload("reference", _reference(), expect_discards=False),
        Workload("large-frame", _large_frame(), expect_discards=True),
    )
}
