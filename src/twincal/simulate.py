"""Synthetic twin-beam frame generation with known ground truth.

Each frame is one laser shot.  Every sampling step draws once for a
block of ``_BLOCK_FRAMES`` frames, in a fixed order:

1. sample the relative pulse energy (and per-mode mean) of every shot,
2. draw one multithermal photon number per coherence cell, shared by the
   signal cell and its conjugate idler cell,
3. thin both arms independently with their channel efficiencies,
4. spread each cell's detected photons uniformly over the cell's
   superpixel block (signal and idler spreads are independent draws),
5. add straylight (Poisson) and read noise (Gaussian) per superpixel,
6. optionally inject cosmic-ray spikes, frame by frame,
7. quantise counts to integers, clipped at zero.

Every block owns an RNG stream derived from (master_seed, kind,
block_index), so stacks are bit-reproducible, a stack of n frames is a
prefix of any longer stack, and one frame is re-rendered by rendering its
block.  Every result is a ``Stack`` of u32 counts, which holds what a
stack file holds and no pulse energy: ``generate_stack`` fills one
array, ``iter_stack`` yields one per block, and ``render_frame``
returns a one-frame Stack cut from its block.

``render_stack`` deals every block of a stack out in one
``model._run_workers`` call, one worker per CPU the process may run on;
the workers take the blocks from one shared iterator.  Each worker
renders the blocks it takes into one float64 work block and one noise
buffer that it reuses, and hands each block and its pulse
energies to the caller's ``put``, which casts the block to u32 where it
is kept: a slice of ``generate_stack``'s array, a block of
``iter_stack``'s round, or its frames' place in the file ``simulate``
writes, whose ``put`` alone keeps the energies.  Since every block
draws only from its own stream, the frames do not depend on how many
CPUs there are or on which worker renders which block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, StackFormatError
from .model import (
    COUNT_DTYPE,
    BackgroundModel,
    ChannelEfficiencies,
    FrameGeometry,
    ModeStructure,
    PulseModel,
    Region,
    check_counts,
)

KIND_PDC = "pdc_on"
KIND_BACKGROUND = "background"
_KIND_CODE = {KIND_PDC: 0, KIND_BACKGROUND: 1}

# Frames per RNG stream and per vectorised draw.
_BLOCK_FRAMES = 64

# Superpixels per noise draw within a block (256 KB of float64): the size
# of each worker's reused read-noise buffer and of the straylight draws,
# so that a block's noise temporaries stay a fraction of the block.  With
# the buffer reused, 1000 + 1000 48x128 frames rendered in 847-868 ms on 2
# CPUs and 1223-1264 ms on one for chunks of 2^12-2^15 under a fixed
# 128 KiB mmap threshold, and in 733-790 / 1118-1278 ms under glibc's
# default (medians of 12, 2-vCPU host).  Chunks of 2^13 cut the page
# faults per block 2-4x under the fixed threshold, since glibc then keeps
# the straylight draws' pages, but in a closer comparison they rendered
# 3-13 % slower than 2^15 on both frame sizes.  13x30 frames draw a block
# at once.
_NOISE_CHUNK_ELEMENTS = 1 << 15

# Added cosmic-ray amplitude: 20x the larger of the frame median and the
# struck superpixel, so a hit on a bright emission pixel still stands out.
_COSMIC_FACTOR = 20.0


@dataclass(frozen=True)
class ExperimentConfig:
    """All ground-truth parameters of a simulated acquisition.

    Two runs with equal config produce bitwise identical stacks.
    ``cs_offset`` displaces the idler deposition (in fractional
    superpixels) to emulate a misaligned symmetry centre.
    """

    channel: ChannelEfficiencies
    modes: ModeStructure
    pulse: PulseModel
    background: BackgroundModel
    geometry: FrameGeometry
    cs_offset: tuple[float, float] = (0.0, 0.0)
    cosmic_ray_rate: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.cosmic_ray_rate < 0.0:
            raise DomainError("cosmic_ray_rate must be >= 0")
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must fit in 64 bits")
        # Fail early if the emission blocks cannot sit inside their halves.
        self.signal_region()
        self.idler_block_origin()

    def signal_block_origin(self) -> tuple[int, int]:
        """Placement of the signal emission block.

        Rows are centred on the symmetry centre, columns in the middle of
        the signal half; the placement is derived, not configured, so the
        config carries no redundant geometry.
        """
        geo = self.geometry
        height, width = self.modes.block_shape
        r0 = int(math.floor(geo.cs[0] - (height - 1) / 2.0 + 0.5))
        c0 = int(math.floor((geo.beam_split - width) / 2.0))
        return (r0, c0)

    def signal_region(self) -> Region:
        """The emission block of the signal beam as a Region."""
        region = Region(origin=self.signal_block_origin(),
                        extent=self.modes.block_shape)
        self.geometry.validate_region(region)
        return region

    def idler_block_origin(self) -> tuple[int, int]:
        """Origin of the idler deposition block (conjugate + rounded offset)."""
        signal = self.signal_region()
        shift = (_round_half_away(self.cs_offset[0]),
                 _round_half_away(self.cs_offset[1]))
        conj = self.geometry.conjugate_region(signal, shift=shift)
        return conj.origin


@dataclass
class Stack:
    """A frame stack as one array: ``counts`` has shape (frames, rows, cols).

    ``counts`` holds ``COUNT_DTYPE`` (``<u4``) counts, as every producer
    of stacks makes them; any other dtype or shape raises
    StackFormatError (``model.check_counts``).  A stack read with a box
    holds only that box of each frame: its rows and cols are the box's,
    and positions in it are frame positions less the box origin
    (``FrameGeometry.crop``).

    ``digest_verified`` is true only for a stack read from a file whose
    JSON sidecar matched the digest stored in its header.
    """

    counts: np.ndarray
    kind: str = KIND_PDC
    digest_verified: bool = False

    def __post_init__(self) -> None:
        check_counts(self.counts)


def _round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero.

    Applied to the injected symmetry-centre offset: a half-superpixel
    misalignment deposits into the cell further from perfect conjugation.
    """
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def sample_pulse(pulse: PulseModel, rng: np.random.Generator, size: int):
    """Draw ``size`` shots' relative energies and per-mode means (arrays).

    Energy is Gaussian(1, jitter) with every non-positive draw redrawn
    until positive (no point mass at a clamp floor), so the per-mode mean
    is always > 0.
    """
    jitter = pulse.relative_energy_jitter
    energy = rng.normal(1.0, jitter, size=size)
    bad = np.flatnonzero(energy <= 0.0)
    while bad.size:
        energy[bad] = rng.normal(1.0, jitter, size=bad.size)
        bad = bad[energy[bad] <= 0.0]
    return energy, pulse.mu_at(energy)


def sample_cell_pair(mu: float | np.ndarray, m_t: int, ch: ChannelEfficiencies,
                     rng: np.random.Generator, size=None):
    """Detected signal/idler photon numbers of one (or ``size``) cell pairs.

    The pre-detection number per cell is negative-binomial with ``m_t``
    modes of mean ``mu`` each (multithermal); it is shared exactly by the
    two arms, which are then thinned independently.  ``mu`` may be an
    array that broadcasts against ``size`` (one mean per shot).
    """
    if not np.all(np.asarray(mu) > 0.0):
        raise DomainError("mu must be > 0")
    if m_t < 1:
        raise DomainError("m_t must be >= 1")
    pre = rng.negative_binomial(m_t, 1.0 / (1.0 + mu), size=size)
    detected_s = rng.binomial(pre, ch.eta_s)
    detected_i = rng.binomial(pre, ch.eta_i)
    return detected_s, detected_i


def _spread_cells(values: np.ndarray, px: int, rng: np.random.Generator,
                  out: np.ndarray) -> None:
    """Add per-cell counts, spread uniformly over px*px superpixel blocks,
    into ``out``.

    ``values`` has shape (..., grid_rows, grid_cols) and ``out``, a view of
    the frames, (..., grid_rows*px, grid_cols*px).
    """
    *lead, gr, gc = values.shape
    if px == 1:
        out += values
        return
    split = rng.multinomial(values.reshape(-1),
                            np.full(px * px, 1.0 / (px * px)))
    # Splitting each axis of ``out`` in two is a view, so the sum lands
    # in the frames without an assembled copy of the block.
    out.reshape(*lead, gr, px, gc, px)[...] += \
        split.reshape(*lead, gr, gc, px, px).swapaxes(-3, -2)


def _inject_spike(counts: np.ndarray, rng: np.random.Generator) -> None:
    r = int(rng.integers(counts.shape[0]))
    c = int(rng.integers(counts.shape[1]))
    median = float(np.median(counts))
    counts[r, c] += _COSMIC_FACTOR * max(median, float(counts[r, c]), 1.0)


def _noise_frames(geo: FrameGeometry) -> int:
    """Frames per noise draw: about ``_NOISE_CHUNK_ELEMENTS`` superpixels."""
    return min(_BLOCK_FRAMES,
               max(1, _NOISE_CHUNK_ELEMENTS // (geo.rows * geo.cols)))


def _render_block(cfg: ExperimentConfig, kind: str, block_index: int,
                  counts: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Render one block into ``counts`` and return its pulse energies.

    ``counts`` is a float64 work block of (_BLOCK_FRAMES, rows, cols),
    which is zero-filled first, and read noise is drawn a chunk of
    frames at a time into ``noise``, a float64 array of (chunk, rows,
    cols).  The counts are integral, >= 0, and within the u32 range.
    """
    if kind not in _KIND_CODE:
        raise DomainError(f"unknown frame kind {kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.master_seed, spawn_key=(_KIND_CODE[kind], block_index)))
    n = _BLOCK_FRAMES
    geo = cfg.geometry
    counts.fill(0.0)
    energy, mu = sample_pulse(cfg.pulse, rng, size=n)

    if kind == KIND_PDC:
        det_s, det_i = sample_cell_pair(
            mu[:, None, None], cfg.modes.temporal_modes, cfg.channel, rng,
            size=(n,) + cfg.modes.grid)
        px = cfg.modes.coherence_cell_px
        sig_r0, sig_c0 = cfg.signal_block_origin()
        idl_r0, idl_c0 = cfg.idler_block_origin()
        height, width = cfg.modes.block_shape
        # Conjugation is a point reflection: cell (a, b) lands at the
        # rotated slot of the idler block.  Sub-cell positions are
        # uncorrelated physically, so the idler spread is a fresh draw.
        _spread_cells(det_s, px, rng,
                      counts[:, sig_r0:sig_r0 + height, sig_c0:sig_c0 + width])
        _spread_cells(det_i[:, ::-1, ::-1], px, rng,
                      counts[:, idl_r0:idl_r0 + height, idl_c0:idl_c0 + width])

    # Noise is drawn a few frames at a time, in the order of one draw over
    # the whole block, so the draws are the same and their temporaries
    # stay small.
    step = len(noise)
    chunks = [slice(k, min(k + step, n)) for k in range(0, n, step)]
    bg = cfg.background
    if bg.straylight_mean > 0.0:
        lams = [bg.straylight_mean * (energy[c, None, None]
                                      if bg.straylight_tracks_pulse else 1.0)
                for c in chunks]
        split = geo.beam_split
        for c, lam in zip(chunks, lams):
            counts[c, :, :split] += rng.poisson(
                lam, size=counts[c, :, :split].shape)
        if bg.straylight_idler_ratio > 0.0:
            for c, lam in zip(chunks, lams):
                counts[c, :, split:] += rng.poisson(
                    lam * bg.straylight_idler_ratio,
                    size=counts[c, :, split:].shape)

    if bg.read_noise_std > 0.0:
        # The same draws as normal(0, sigma): 0 + sigma*z and sigma*z
        # differ only in the sign of a zero, which the sum erases.
        for c in chunks:
            z = noise[:c.stop - c.start]
            rng.standard_normal(out=z)
            z *= bg.read_noise_per_superpixel
            counts[c] += z

    if cfg.cosmic_ray_rate > 0.0:
        hits = rng.poisson(cfg.cosmic_ray_rate, size=n)
        for k in np.repeat(np.arange(n), hits):  # few frames are hit
            _inject_spike(counts[k], rng)

    np.rint(counts, out=counts)
    np.clip(counts, 0.0, None, out=counts)
    if counts.max() > np.iinfo(COUNT_DTYPE).max:
        raise StackFormatError("counts outside the u32 range")
    return energy


def render_frame(cfg: ExperimentConfig, pulse_index: int,
                 kind: str = KIND_PDC) -> Stack:
    """Frame ``pulse_index`` as a one-frame Stack, by rendering its block
    alone (``render_stack``)."""
    frame = []
    block = pulse_index // _BLOCK_FRAMES
    render_stack(cfg, kind, pulse_index + 1,
                 lambda first, counts, energy: frame.append(
                     counts[-1:].astype(COUNT_DTYPE)),
                 range(block, block + 1))
    return Stack(counts=frame[0], kind=kind)


def render_stack(cfg: ExperimentConfig, kind: str, count: int, put,
                 blocks: range | None = None) -> None:
    """Render the first ``count`` frames of a stack, or those of them in
    ``blocks`` (a range of RNG block indices), in one
    ``model._run_workers`` call, whose workers take the blocks from one
    shared iterator.

    Each worker renders the blocks it takes into one float64 work block
    and one noise buffer that it allocates and reuses, and calls
    ``put(first, counts, energy)`` for each block with the index of its
    first frame and the float64 counts and energies of its frames among
    the first ``count``.  ``put`` runs on the worker's thread and must
    cast and store the block before it returns, as the work block is
    then rendered over.  Workers call only private helpers and ``put``,
    so wrappers put around the public functions (as the benchmark's
    tracer does) still run in the calling thread alone.
    """
    shape = cfg.geometry.shape

    def work(dealt):
        counts = np.empty((_BLOCK_FRAMES,) + shape)
        noise = np.empty((_noise_frames(cfg.geometry),) + shape)
        for b in dealt:
            energy = _render_block(cfg, kind, b, counts, noise)
            n = min(_BLOCK_FRAMES, count - b * _BLOCK_FRAMES)
            put(b * _BLOCK_FRAMES, counts[:n], energy[:n])

    model._run_workers(work, list(range(-(-count // _BLOCK_FRAMES))
                                  if blocks is None else blocks))


def iter_stack(cfg: ExperimentConfig, count: int, kind: str = KIND_PDC):
    """Yield ``count`` frames as one u32 Stack per RNG block, in block order.

    Each Stack holds ``_BLOCK_FRAMES`` frames, the last one fewer when
    ``count`` is not a multiple of the block size, in an array of its
    own.  Blocks are rendered in rounds of one block per CPU the process
    may run on: each round is one ``render_stack`` call, whose workers
    cast each block into a u32 array of its own, and the round's blocks
    are yielded before the next round starts.

    Memory stays under, per CPU, a work block (512*rows*cols B), a noise
    buffer (8*_NOISE_CHUNK_ELEMENTS B, or 512*rows*cols B if smaller),
    one block's other draws (under 4*_NOISE_CHUNK_ELEMENTS B of
    straylight, plus 512*(px**2 + 4) B per coherence cell) and the
    round's u32 block (256*rows*cols B).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    n_blocks = -(-count // _BLOCK_FRAMES)
    cpus = model._cpu_count()
    rendered = {}

    def put(first, counts, energy):
        rendered[first] = Stack(counts=counts.astype(COUNT_DTYPE), kind=kind)

    for b in range(0, n_blocks, cpus):
        render_stack(cfg, kind, count, put, range(b, min(b + cpus, n_blocks)))
        while rendered:  # popped, a block is freed once its caller drops it
            yield rendered.pop(min(rendered))


def generate_stack(cfg: ExperimentConfig, count: int,
                   kind: str = KIND_PDC) -> Stack:
    """Materialise a stack of mutually independent frames.

    ``render_stack``'s workers cast each block straight into its slice
    of one preallocated ``COUNT_DTYPE`` array, so every stack is a
    prefix of any longer one with the same config and kind.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    stack = Stack(counts=np.empty((count,) + cfg.geometry.shape, COUNT_DTYPE),
                  kind=kind)

    def put(first, counts, energy):
        stack.counts[first:first + len(counts)] = counts

    render_stack(cfg, kind, count, put)
    return stack
