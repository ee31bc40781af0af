"""Measurement-side procedures: region statistics, noise-reduction-factor
estimators with and without background correction, symmetry-centre search,
detection-area scan, cosmic-ray rejection, efficiency inversion and the
statistical uncertainty budget.

Conventions
-----------
* Sample variances default to the unbiased (N-1) form; the biased
  divide-by-N form used by the defining expectation formulas is available
  through ``ddof=0`` (the difference is O(1/N) and the uncertainty model
  assumes unbiased moments).
* Negative noise-reduction values are possible through sampling noise and
  are returned as-is (clamping would bias the efficiency upward).
* Frame stacks are (frames, rows, cols) arrays of ``COUNT_DTYPE`` (u32)
  counts.  The cosmic-ray filter and the spatial map refuse any other
  dtype or shape with StackFormatError; ``build_series`` and
  ``area_scan`` sum any numeric array in float64, u32 counts through a
  uint64 sum cast once.  The spatial map copies its blocks into float64
  frame lanes less the tile's smallest count, where every sum it forms
  is an exact integer, and casts those sums to int64 for N and P D.
  The cosmic-ray filter keeps its pixel lanes in u32 and takes only
  differences that cannot be negative: a lane's counts less the upper
  value of its middle pair, or the lower one less its counts.
* A Region is an origin and an extent.  The frame's geometry decides
  which half it must lie on (``FrameGeometry.validate_region``), and
  every region leaving the frame, whether a region sum, the cosmic-ray
  filter or the geometry meets it, raises the one GeometryError of
  ``Region.check_inside``.  ``area_scan`` takes the pairs its caller built.
* The spatial map, the cosmic-ray filter and the region sums of
  ``build_series`` and ``area_scan`` deal their frame tiles, pixel lane
  blocks or (frames, region) sums out to the workers of
  ``model._run_workers``, which take them from one shared iterator; the
  results are combined without regard to order.  Each worker fills the
  rows of the map's per-frame table of the tiles it takes, flags the
  frames its lane blocks reject, or takes its region sums, in buffers
  of its own of a fixed budget; the map's frame-axis sum, the OR of the
  filter's flags and the estimators run in the calling thread.  So the
  jobs and every value are the same on any CPU count and whichever
  worker takes which job, and one worker runs in the calling thread
  without starting a thread.
* Each estimator formula is written once.  ``_estimates`` evaluates
  alpha (through ``estimate_alpha`` / ``estimate_alpha_b``), sigma and
  eta_s together with their per-frame influence rows; the sigma
  estimators and the delta method of ``propagate_type_a`` call it.  It
  takes a 1-d series or a batched one, whose arrays have a leading axis
  of K experiments, and reduces along the frame axis only, so each row's
  values are its own, to the last bit.  ``repeat_experiment`` takes
  every batch's values and uncertainties from one ``propagate_type_a``
  call on ``RegionPairSeries.batches``' (Z, frames) views, and
  ``area_scan`` every area's sigmas from one pass over a row per pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model
from .errors import DegenerateDataError, DomainError
from .model import COUNT_DTYPE, FrameGeometry, Region, check_counts

# Fixed systematic (Type B) terms reported with every calibration: the
# residual of excess-noise nullification by balancing, and the relative
# bias from a symmetry centre known to a tenth of a coherence cell.
TYPE_B_BALANCE_RESIDUAL = 1e-6
TYPE_B_CS_BIAS_RELATIVE = 0.015


# ---------------------------------------------------------------------------
# Series containers
# ---------------------------------------------------------------------------

@dataclass
class RegionPairSeries:
    """Per-frame integrated counts of a conjugate region pair.

    ``n_s`` / ``n_i`` are the per-frame region sums of the illuminated
    acquisition; ``m_s`` / ``m_i`` the optional background series measured
    with the emission off.  A batched series holds K experiments: each
    array is (K, frames), row k experiment k's, and the series is the
    sequence of its K one-experiment series (``len``, indexing and
    iteration give views, not copies).
    """

    n_s: np.ndarray
    n_i: np.ndarray
    m_s: np.ndarray | None = None
    m_i: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.n_s = np.asarray(self.n_s, dtype=np.float64)
        self.n_i = np.asarray(self.n_i, dtype=np.float64)
        if self.n_s.shape != self.n_i.shape or self.n_s.ndim not in (1, 2):
            raise DegenerateDataError("n_s and n_i must be 1-d, or 2-d for a "
                                      "batched series, and equal length")
        if self.n_s.shape[-1] < 2:
            raise DegenerateDataError("need at least 2 frames")
        if (self.m_s is None) != (self.m_i is None):
            raise DegenerateDataError("background series must come in pairs")
        if self.m_s is not None:
            self.m_s = np.asarray(self.m_s, dtype=np.float64)
            self.m_i = np.asarray(self.m_i, dtype=np.float64)
            if (self.m_s.shape != self.m_i.shape
                    or self.m_s.ndim != self.n_s.ndim
                    or self.m_s.shape[:-1] != self.n_s.shape[:-1]):
                raise DegenerateDataError("m_s and m_i must be equal length, "
                                          "one row per experiment")
            if self.m_s.shape[-1] < 2:
                raise DegenerateDataError("need at least 2 background frames")
        for arr in (self.n_s, self.n_i, self.m_s, self.m_i):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DegenerateDataError("region sums must be finite")
            if arr is not None and np.any(arr < 0):
                raise DegenerateDataError("region sums must be non-negative")

    @property
    def has_background(self) -> bool:
        return self.m_s is not None

    @property
    def n_frames(self) -> int:
        return self.n_s.shape[-1]

    def __len__(self) -> int:
        """The number of experiments of a batched series."""
        if self.n_s.ndim != 2:
            raise TypeError("a 1-d series is one experiment")
        return len(self.n_s)

    def __getitem__(self, k) -> "RegionPairSeries":
        """Experiment ``k`` of a batched series, or the batched series of
        the experiments a slice picks."""
        return RegionPairSeries(*(None if a is None else a[k]
                                  for a in (self.n_s, self.n_i, self.m_s,
                                            self.m_i)))

    def batches(self, z: int) -> "RegionPairSeries":
        """The batched series of ``z`` equal contiguous batches of a 1-d
        series (extras dropped): each array a zero-copy (z, frames) view."""
        if self.n_s.ndim != 1:
            raise DomainError("only a 1-d series splits into batches")
        if z < 1:
            raise DomainError("z must be >= 1")
        n = self.n_frames // z
        if n < 2:
            raise DegenerateDataError(f"cannot form {z} batches of >= 2 frames")
        m = self.m_s.size // z if self.has_background else 0
        if self.has_background and m < 2:
            raise DegenerateDataError(f"cannot form {z} background batches")
        return RegionPairSeries(
            *(None if a is None else a[:z * size].reshape(z, size)
              for a, size in ((self.n_s, n), (self.n_i, n), (self.m_s, m),
                              (self.m_i, m))))


def _region_total(counts, region: Region):
    """Per-frame sums of ``region`` in float64.  ``COUNT_DTYPE`` counts
    are summed exactly in uint64 and cast once: below 2^53, as the sum of
    any region of fewer than 2^21 superpixels is, these are the float64
    sums' values, found faster."""
    block = counts[..., region.row_slice, region.col_slice]
    if block.dtype == COUNT_DTYPE:
        return block.sum(axis=(-2, -1), dtype=np.uint64).astype(np.float64)
    return block.sum(axis=(-2, -1), dtype=np.float64)


def _pair_series(pairs, pdc_frames, bg_frames=None, kept=slice(None),
                 bg_kept=slice(None)) -> RegionPairSeries:
    """The series of every (signal, idler) region pair of ``pairs``, as
    one batched series whose row j is pair j's ``build_series``.  Every
    region is bounds-checked first; then the region sums, two per pair
    and stack, are dealt out to the workers (``model._run_workers``),
    which take them from one shared iterator and write each sum at its
    job's index, so the rows come in pair order whichever worker took
    which sum."""
    stacks = [(pdc_frames, kept)]
    if bg_frames is not None:
        stacks.append((bg_frames, bg_kept))
    # n_s of every pair, then n_i, then m_s and m_i
    jobs = [(frames, rows, pair[side]) for frames, rows in stacks
            for side in (0, 1) for pair in pairs]
    for frames, _, region in jobs:
        region.check_inside(frames.shape[-2:])
    # a row per pair of the kept frames' sums, written in place
    sums = [np.empty((len(pairs), np.arange(len(frames))[rows].size))
            for frames, rows in stacks for _ in (0, 1)]

    def work(mine):
        for j, (frames, rows, region) in mine:
            sums[j // len(pairs)][j % len(pairs)] = _region_total(
                frames, region)[rows]

    model._run_workers(work, list(enumerate(jobs)))
    return RegionPairSeries(*sums)


def build_series(pdc_frames: np.ndarray, region_s: Region, region_i: Region,
                 bg_frames: np.ndarray | None = None, kept=slice(None),
                 bg_kept=slice(None)) -> RegionPairSeries:
    """Integrate a conjugate region pair over the kept frames of (frames,
    rows, cols) stacks: ``kept`` and ``bg_kept`` index the per-frame sums.
    The 2 or 4 region sums run on the workers (``_pair_series``)."""
    return _pair_series([(region_s, region_i)], pdc_frames, bg_frames, kept,
                        bg_kept)[0]


# ---------------------------------------------------------------------------
# Point estimators
# ---------------------------------------------------------------------------

def _per_experiment(value):
    """A float for one experiment's value, else the array of a batched
    series' values, one per experiment."""
    return float(value) if np.ndim(value) == 0 else value


def estimate_alpha(series: RegionPairSeries):
    """Balancing factor E[N_s]/E[N_i] over the frame set: a float, or
    one per experiment of a batched series, as every estimator gives."""
    denom = series.n_i.mean(axis=-1)
    if np.any(denom == 0.0):
        raise DegenerateDataError("idler mean is zero; alpha undefined")
    return _per_experiment(series.n_s.mean(axis=-1) / denom)


def estimate_alpha_b(series: RegionPairSeries):
    """Background-corrected balancing factor.

    (E[N'_s] - E[M_s]) / (E[N'_i] - E[M_i]); with zero background series
    this reduces to estimate_alpha.
    """
    if not series.has_background:
        raise DegenerateDataError("background series required for alpha_b")
    num = series.n_s.mean(axis=-1) - series.m_s.mean(axis=-1)
    den = series.n_i.mean(axis=-1) - series.m_i.mean(axis=-1)
    if np.any(den <= 0.0):
        raise DegenerateDataError("background-corrected idler mean is not positive")
    if np.any(num < 0.0):
        warnings.warn("background exceeds the signal-arm mean; alpha_b < 0",
                      stacklevel=2)
    return _per_experiment(num / den)


def _estimates(series: RegionPairSeries, corrected: bool,
               alpha: float | None = None, ddof: int = 1,
               influence: bool = False):
    """(alpha, sigma, eta_s) of each experiment of ``series`` and, on
    request, their per-frame influence rows.

    Each value is a float for a 1-d series and a (K,) array for a batched
    one.  Every reduction runs along the last, frame axis, row by row,
    so each experiment's values are, to the last bit, those it gives
    alone.  ``corrected`` selects alpha_b and sigma_alpha_b, else alpha
    and sigma_alpha; a given ``alpha`` is used as-is and held fixed.
    With ``influence`` the fourth value holds, per block (the illuminated
    series and, when corrected, the background series), a (..., frames,
    3) array of each frame's first-order contribution to the three
    values: the delta method's influence functions, up to an additive
    constant per column, which a covariance removes.  They are formed
    from the residual e = d - mean(d) of d = N_s - alpha*N_i, not from
    raw or co-moments, whose difference would cancel Var(N_s) down to
    the far smaller Var(d).
    """
    def along(value):  # one value per experiment, against its frames
        return np.expand_dims(value, -1)

    fitted = alpha is None
    if corrected:
        if not series.has_background:
            raise DegenerateDataError("background series required for sigma_alpha_b")
        if fitted:
            alpha = estimate_alpha_b(series)
        blocks = ((series.n_s, series.n_i, 1.0), (series.m_s, series.m_i, -1.0))
        # sigma = (Var(N'_s - a*N'_i) - Var(M_s - a*M_i)) / D with
        # D = 2*(E[N'_s] - E[M_s]); alpha_b = (E[N'_s] - E[M_s]) / alpha_den
        denom = 2.0 * (series.n_s.mean(axis=-1) - series.m_s.mean(axis=-1))
        if np.any(denom <= 0.0):
            raise DegenerateDataError("background-corrected signal mean is not positive")
        alpha_den = series.n_i.mean(axis=-1) - series.m_i.mean(axis=-1)
        shot_s, shot_i, ddenom_dalpha = 2.0, 0.0, 0.0
    else:
        if fitted:
            alpha = estimate_alpha(series)
        blocks = ((series.n_s, series.n_i, 1.0),)
        # sigma = Var(N_s - a*N_i) / D with D = E[N_s] + a*E[N_i];
        # alpha = E[N_s] / alpha_den
        denom = series.n_s.mean(axis=-1) + alpha * series.n_i.mean(axis=-1)
        if np.any(denom <= 0.0):
            raise DegenerateDataError("shot-noise denominator is not positive")
        alpha_den = series.n_i.mean(axis=-1)
        shot_s, shot_i, ddenom_dalpha = 1.0, alpha, alpha_den

    num, residuals = 0.0, []
    for x_s, x_i, sign in blocks:
        e = along(alpha) * x_i
        np.subtract(x_s, e, out=e)  # d, then its residual e in place
        e -= e.mean(axis=-1, keepdims=True)
        e2 = e * e
        n = e.shape[-1]
        num += sign * (e2.sum(axis=-1) / (n - ddof))
        residuals.append((x_s, x_i, sign, e, e2, n / (n - ddof)))
    sigma = num / denom
    eta = 0.5 * (1.0 + alpha) - sigma
    if not influence:
        return alpha, sigma, eta, None

    # sigma = num/denom.  A frame moves num by sign*scale*e2 and denom by
    # sign*(shot_s*x_s + shot_i*x_i); alpha moves a block's variance by
    # -2*scale*mean(e*(x_i - E[x_i])) and denom by ddenom_dalpha.
    dnum_dalpha = sum(
        -2.0 * sign * scale
        * (e * (x_i - x_i.mean(axis=-1, keepdims=True))).mean(axis=-1)
        for _, x_i, sign, e, _, scale in residuals)
    dsigma_dalpha = (dnum_dalpha - sigma * ddenom_dalpha) / denom
    rows = []
    for x_s, x_i, sign, e, e2, scale in residuals:
        row_alpha = sign * e / along(alpha_den) if fitted else np.zeros_like(e)
        row_sigma = (sign * (scale * e2 - along(sigma)
                             * (shot_s * x_s + along(shot_i) * x_i))
                     / along(denom) + along(dsigma_dalpha) * row_alpha)
        rows.append(np.stack(
            [row_alpha, row_sigma, 0.5 * row_alpha - row_sigma], axis=-1))
    return alpha, sigma, eta, rows


def estimate_sigma_alpha(series: RegionPairSeries, alpha: float | None = None,
                         ddof: int = 1):
    """Noise reduction factor of N_s - alpha*N_i, shot-noise normalised.

    Var(N_s - alpha*N_i) / (E[N_s] + alpha*E[N_i]); with alpha estimated
    from the same set the denominator equals 2*E[N_s].
    """
    return _per_experiment(_estimates(series, False, alpha, ddof)[1])


def estimate_sigma_raw(series: RegionPairSeries, ddof: int = 1):
    """Unbalanced noise reduction factor Var(N_s - N_i)/E[N_s + N_i]."""
    return estimate_sigma_alpha(series, 1.0, ddof)


def estimate_sigma_alpha_b(series: RegionPairSeries,
                           alpha_b: float | None = None,
                           ddof: int = 1):
    """Background-corrected balanced noise reduction factor.

    [Var(N'_s - a*N'_i) - Var(M_s - a*M_i)] / (2*(E[N'_s] - E[M_s])) with
    a = alpha_b.  May come out negative through sampling noise; the value
    is reported as-is.
    """
    return _per_experiment(_estimates(series, True, alpha_b, ddof)[1])


def eta_from_sigma(alpha_b: float, sigma_ab: float) -> tuple[float, float]:
    """Invert the balanced noise-reduction relation to the efficiencies.

    eta_s = (1 + alpha_b)/2 - sigma_ab and, since alpha_b estimates the
    efficiency ratio eta_s/eta_i, eta_i = eta_s / alpha_b.  Values of
    eta_s outside (0, 1] are physically impossible and flagged.
    """
    if not alpha_b > 0.0:
        raise DegenerateDataError(
            f"balancing factor {alpha_b:.6g} is not positive; eta_i undefined")
    eta_s = 0.5 * (1.0 + alpha_b) - sigma_ab
    if not 0.0 < eta_s <= 1.0:
        warnings.warn(f"recovered eta_s = {eta_s:.6g} lies outside (0, 1]",
                      stacklevel=2)
    return eta_s, eta_s / alpha_b


def correct_for_transmittance(eta: float, tau: float) -> float:
    """Divide out the optical-path transmittance: eta_true = eta / tau."""
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    eta_true = eta / tau
    if eta_true > 1.0:
        warnings.warn(f"transmittance-corrected efficiency {eta_true:.6g} "
                      "exceeds 1", stacklevel=2)
    return eta_true


def excess_noise(series: RegionPairSeries, m_tot: int, ddof: int = 1):
    """Fluctuation of the summed counts relative to shot noise.

    Returns (ratio, thermal_excess): ratio = Var(N_s + N_i)/E[N_s + N_i],
    with the sample variance's ``ddof`` as in every other estimator;
    thermal_excess = <N>/m_tot is the per-arm multithermal prediction for
    comparison, with ``m_tot`` (>= 1) the mode count of one region.  Pump
    jitter drives the ratio orders of magnitude above both 1 and the
    thermal level.
    """
    total = series.n_s + series.n_i
    mean = float(total.mean())
    if mean <= 0.0:
        raise DegenerateDataError("summed counts have non-positive mean")
    if m_tot < 1:
        raise DomainError("m_tot must be >= 1")
    return float(np.var(total, ddof=ddof)) / mean, 0.5 * mean / m_tot


# ---------------------------------------------------------------------------
# Cosmic-ray rejection
# ---------------------------------------------------------------------------

# Each cosmic-ray filter worker takes its per-superpixel statistics in
# one u32 lane buffer of about this many elements (256 KiB), a chunk of
# pixel lanes at a time.  Measured on the two u32 boxes of
# 4000 x 11 x 27 (reference) and 1000 x 26 x 99 counts (large-frame)
# that ``calibrate`` filters (2-vCPU Xeon, two sweeps of 9 interleaved
# rounds, medians of both boxes' filters): on two workers, 2^16 per
# worker took 8.8-14.7 / 21.7-32.6 ms, 2^15 was 1.3-1.6x slower and
# 2^17 0.78-0.80x on the large box, level on the small one; on one
# worker, 2^17 took 7.9-13.2 / 18.7-26.8 ms and 2^16 and 2^18
# 0.97-1.14x that.  2^16 keeps the two-worker runs' lane blocks.  The
# transposed copy that fills a lane block takes 46-60 % of the
# filter's time on one CPU.  With each worker's thresholds formed after
# its last block, one worker at 2^16 takes 1.04x (reference) and 1.07x
# (large-frame) 2^17's time (medians of 16 alternating processes).
_FILTER_CHUNK_ELEMENTS = 1 << 16


def _middle_pair(rows: np.ndarray):
    """The middle pair (a, b) of each row of ``rows``, in its own dtype,
    reordering each row in place so that its lower half holds values no
    larger than a and its upper half, from b on, none smaller than b.

    For rows of n values and h = n // 2, b is the h-th smallest value and
    a the largest of the h below it on an even row, b itself on an odd
    one, so (a + b) / 2 is the row's median.  A single kth value takes
    numpy's fast selection path, where the two middle kth values
    ``np.median`` asks for on an even row do not.
    """
    n = rows.shape[1]
    h = n // 2
    rows.partition(h, axis=1)
    b = rows[:, h].copy()
    return (b if n % 2 else rows[:, :h].max(axis=1)), b


def _filter_lanes(blocks, n: int, size: int, mad_k: float) -> np.ndarray:
    """Flag the frames any lane block of ``blocks`` rejects, through one
    u32 buffer of ``size`` elements of this worker's own.

    A block is the (n, k, m) u32 view of k x m pixels of a region.  Each
    pixel's middle pair, the middle pair of its deviations from it and
    its largest count are taken in the buffer, in the count type, and
    kept.  After the last block the thresholds of all the worker's
    pixels are formed in one pass, and only the pixels whose largest
    count exceeds their threshold are compared frame by frame.  Returns
    the n frame flags.
    """
    buffer = np.empty(size, COUNT_DTYPE)
    h = n // 2
    taken, stats = [], []
    for pixels in blocks:
        _, k, m = pixels.shape
        lanes = buffer[:k * m * n].reshape(k, m, n)
        np.copyto(lanes, pixels.transpose(1, 2, 0))
        lanes = lanes.reshape(k * m, n)
        a, b = _middle_pair(lanes)
        peak = lanes[:, h:].max(axis=1)
        # |x - median| is (a - x) + g for the lower half and (x - b) + g
        # for the upper one, with g = (b - a) / 2.  Neither a - x nor
        # x - b can be negative, so both are taken in place in the count
        # type, and the MAD is their median plus g.
        low, high = lanes[:, :h], lanes[:, h:]
        np.subtract(a[:, None], low, out=low)
        np.subtract(high, b[:, None], out=high)
        taken.append(pixels)
        stats.append((a, b, *_middle_pair(lanes), peak))
    a, b, dev_a, dev_b, peak = map(np.concatenate, zip(*stats))
    # Every term is a multiple of 1/2 below 2^33, so each float64 sum and
    # halving is exact: these are ``np.median``'s values.
    a, b = a.astype(np.float64), b.astype(np.float64)
    median = (a + b) / 2.0
    mad = (dev_a.astype(np.float64) + dev_b) / 2.0 + (b - a) / 2.0
    floor = np.sqrt(np.maximum(median, 1.0))
    threshold = median + mad_k * np.maximum(mad * 1.4826, floor)
    # An unsigned count exceeds t > 0 exactly when it exceeds floor(t),
    # clipped to the largest count, which nothing exceeds: compared in
    # the count type, no block is converted.
    threshold = np.minimum(np.floor(threshold), np.iinfo(COUNT_DTYPE).max)
    threshold = threshold.astype(COUNT_DTYPE)
    crossed = np.flatnonzero(peak > threshold)
    bad = np.zeros(n, dtype=bool)
    start = 0
    for pixels in taken:  # the crossed pixels of each block, in order
        _, k, m = pixels.shape
        first, end = np.searchsorted(crossed, (start, start + k * m))
        if end > first:
            r, c = np.divmod(crossed[first:end] - start, m)
            bad |= np.any(pixels[:, r, c] > threshold[crossed[first:end]],
                          axis=1)
        start += k * m
    return bad


def cosmic_ray_filter(frames: np.ndarray, mad_k: float = 10.0, *, regions):
    """Discard frames with a superpixel of ``regions`` far above its stack
    statistics.

    Only the superpixels of ``regions`` are read and compared
    (``calibrate`` passes ``region_s`` and the idler search window): a
    hit elsewhere cannot move a result, so its frame is kept.  Per
    superpixel the threshold is median + mad_k * scale across the stack,
    with scale the Gaussian-consistent MAD (1.4826*MAD) floored at the
    pixel's own shot noise, max(sqrt(median), 1) counts, which takes
    counts to be photo-electrons as the estimators' shot-noise
    normalisation does.  With few frames a pixel's sample MAD fluctuates
    far below the true dispersion, and an unfloored threshold would flag
    ordinary shot noise; a floor taken from other pixels would hide a
    spike on a dim one.  The statistics are the pixel's own, so a pixel
    struck in half or more of the frames (only likely on a very short
    stack) carries its median and MAD up with the hits, and those frames
    escape the filter.

    ``frames`` is a (frames, rows, cols) ``COUNT_DTYPE`` array; any other
    dtype or shape raises StackFormatError, and a region leaving the
    frame GeometryError, before any worker starts.  The pixels are taken
    a block of lanes at a time, the blocks dealt out to the workers of
    ``model._run_workers`` from one shared iterator; each worker takes
    a block's medians and MADs in the count type (``_filter_lanes``),
    each exactly the float64 value ``np.median`` gives, and after its
    last block forms the thresholds of all its pixels in one pass.  Only
    the pixels whose largest count exceeds their threshold are compared
    frame by frame, in the count type, with the same result as the
    float64 comparison; the worker flags the frames they reject and the
    calling thread ORs the workers' flags, in whatever order they come.
    Per worker the memory is one u32 lane buffer of at most
    ``_FILTER_CHUNK_ELEMENTS`` (256 KiB), five u32 statistics per pixel
    it took, the counts of the pixels that cross their threshold and one
    flag per frame, so the lane blocks are the same on any CPU count.
    Returns the kept frame indices as an array, for
    ``frames[kept]`` or ``build_series``, and the discarded frame
    indices as a list; no frame is copied.
    """
    check_counts(frames)
    n = len(frames)
    if n < 3:
        raise DegenerateDataError("need at least 3 frames to filter")
    regions = list(regions)
    if not regions:
        raise DomainError("no region to filter")
    for region in regions:
        region.check_inside(frames.shape[1:])
    # Lane blocks of a region's pixels, whole rows of it or part of one
    # row, dealt out to the workers; each worker takes the middle pair,
    # then the deviations from it in place and their middle pair, a
    # block at a time, and then its thresholds and comparisons at once.
    # Each lane is independent, so neither the chunking nor the worker
    # count changes a value.
    chunk = max(1, _FILTER_CHUNK_ELEMENTS // n)
    blocks = []
    for region in regions:
        block = frames[:, region.row_slice, region.col_slice]
        h, w = region.extent
        step_r, step_c = max(1, chunk // w), min(w, chunk)
        blocks += [block[:, r:r + step_r, c:c + step_c]
                   for r in range(0, h, step_r) for c in range(0, w, step_c)]
    size = min(chunk, max(r.area for r in regions)) * n
    bad = np.any(model._run_workers(
        lambda dealt: _filter_lanes(dealt, n, size, mad_k), blocks), axis=0)
    return np.flatnonzero(~bad), np.flatnonzero(bad).tolist()


# ---------------------------------------------------------------------------
# Symmetry-centre search
# ---------------------------------------------------------------------------

# Each worker of the spatial map reads tiles of as many frames as keep
# its search window within this many elements.  With its signal lanes,
# one row of squares, the window sums and the per-displacement tables,
# a worker's tile takes 2.5x its window's float64 bytes on a 26 x 38
# window with a 20 x 32 region (1.3 MB) and 4.2x on an 11 x 14 window
# with a 5 x 8 region (2.2 MB).
# Measured on the u32 pdc boxes of 1000 x 48 x 128 counts (region
# 20 x 32) and 4000 x 13 x 30 counts (region 5 x 8), both with a +-3
# search (2-vCPU host, glibc's mmap threshold fixed at 128 KiB, 20
# interleaved rounds of 3 maps each, medians): pooled on two workers,
# 2^15 per worker times 27.4 ms on the large box and 17.2 ms on the
# small one, 2^16 21.7 and 16.5 ms, 2^17 19.9 and 19.8 ms, 2^18 19.9
# and 21.0 ms; on one worker 32.0 and 22.7, 28.1 and 20.7, 27.7 and
# 19.8, 28.1 and 21.3 ms.  Quartiles spread up to 7 ms pooled.  End to
# end, perfbench's find_cs_s read 21.8 and 14.8 ms at 2^16 against 21.3
# and 14.6 ms at 2^17 (medians of 4 alternating pairs, level), so 2^16
# keeps half the memory per worker.
_SPATIAL_TILE_ELEMENTS = 1 << 16


def _lanes(buffer: np.ndarray, k: int, *shapes) -> list[np.ndarray]:
    """Consecutive views of ``buffer`` of each of ``shapes`` with a last
    axis of ``k`` frames, each C-contiguous, so every op on a view runs
    along contiguous frame lanes."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape) * k
        views.append(buffer[at:at + size].reshape(*shape, k))
        at += size
    return views


def _map_tiles(frames, region_s: Region, window: Region,
               search_extent: tuple[int, int], per_frame: np.ndarray,
               starts, tile: int) -> None:
    """Fill the rows of ``per_frame`` of the tiles of ``tile`` frames that
    begin at ``starts``, in buffers of this worker's own, allocated once:
    row f holds frame f's values at every displacement, in row-major
    (dr, dc) order.

    Frame f's value at a displacement is N / (P D) for its P pairs of
    signal counts s and idler counts i, with pair sum D and
    N = P (Sss - 2 Ssi + Sii) - (Ss - Si)^2, the exact integer
    P^2 var(s - i).  A tile's signal block and search window are copied
    once into float64 lanes of shape (rows, cols, frames), less the
    tile's smallest count b, which leaves s - i as it is (D adds 2 P b
    back); every op after the copy runs along contiguous frames.  Ss and
    Sss come from the signal lanes, Si and Sii from running sums along
    the window lanes, and the cross sums Ssi of every displacement from
    one float64 ``np.einsum``.  With the tile's count range R, every
    lane value, product and partial sum is then a non-negative integer
    below 2^53 while P R^2 < 2^53, so these sums, and Sss - 2 Ssi + Sii
    formed from them, are exact in any order.  They are cast to int64
    once, where N and P D are formed, which fits while 4 P^2 R^2 < 2^63
    and 2 P^2 (b + R) < 2^63; each is rounded once to float64 before the
    division.  A tile beyond any of these bounds takes the same sums in
    Python integers.
    """
    n = len(frames)
    er, ec = search_extent
    h, w = region_s.extent
    rows, cols = window.extent
    p = h * w
    ny, nx = 2 * er + 1, 2 * ec + 1
    # Conjugate pairing reverses both axes of an idler block, so with the
    # signal block reversed on both axes the idler block of shift
    # (dr, dc) is the forward slice of the search window at
    # (er + dr, ec + dc), and every per-displacement table below is in
    # row-major (dr, dc) order.
    lane_shapes = ((h, w), (rows, cols), (cols,), (2, ny, cols),
                   (2, ny, nx), (2,))
    table_shapes = ((ny, nx), (ny, nx), (ny, nx), (2,))
    t = min(tile, n)
    lane_buffer = np.empty(sum(math.prod(s) for s in lane_shapes) * t)
    table_buffer = np.empty(sum(math.prod(s) for s in table_shapes) * t,
                            np.int64)
    for f in starts:
        g = min(f + tile, n)
        k = g - f
        views, tables = _lanes(lane_buffer, k, *lane_shapes), table_buffer
        s, win = views[:2]
        block = frames[f:g, region_s.row_slice, region_s.col_slice]
        np.copyto(s, block.transpose(1, 2, 0)[::-1, ::-1])
        block = frames[f:g, window.row_slice, window.col_slice]
        np.copyto(win, block.transpose(1, 2, 0))
        counts = lane_buffer[:(p + rows * cols) * k]  # s and win, one run
        low, high = int(counts.min()), int(counts.max())
        spread = high - low
        if (p * spread * spread < 1 << 53
                and 4 * p * p * spread * spread < 1 << 63
                and 2 * p * p * high < 1 << 63):
            counts -= low
        else:
            lanes = np.empty(lane_buffer.size, object)
            lanes[:counts.size] = counts.astype(np.int64) - low
            views = _lanes(lanes, k, *lane_shapes)
            tables = np.empty(table_buffer.size, object)
        s, win, row, column_sums, moments, sig = views
        num, idl_sum, denom, (ss, pair_base) = _lanes(tables, k,
                                                      *table_shapes)
        # Every idler sum Si and sum of squares Sii: running sums of h
        # rows, then of w columns.  Each step takes away the lane that
        # leaves before it adds the one that enters, so no partial sum
        # exceeds a window sum; a row's squares are formed in ``row``.
        col_sum, col_sq = column_sums
        win[:h].sum(axis=0, out=col_sum[0])
        np.einsum("rcf,rcf->cf", win[:h], win[:h], out=col_sq[0])
        for j in range(ny - 1):
            np.subtract(col_sum[j], win[j], out=col_sum[j + 1])
            col_sum[j + 1] += win[j + h]
            np.square(win[j], out=row)
            np.subtract(col_sq[j], row, out=col_sq[j + 1])
            np.square(win[j + h], out=row)
            col_sq[j + 1] += row
        a, sums = np.moveaxis(column_sums, 2, 0), np.moveaxis(moments, 2, 0)
        a[:w].sum(axis=0, out=sums[0])
        for j in range(nx - 1):
            np.subtract(sums[j], a[j], out=sums[j + 1])
            sums[j + 1] += a[j + w]
        s.sum(axis=(0, 1), out=sig[0])
        np.einsum("rcf,rcf->f", s, s, out=sig[1])
        # The idler block of every displacement, as (ny, nx, k, h, w);
        # the cross sums Ssi take the column sums' place.
        blocks = sliding_window_view(win, (h, w), axis=(0, 1))
        cross = column_sums.reshape(-1)[:ny * nx * k].reshape(ny, nx, k)
        np.einsum("rcf,ijfrc->ijf", s, blocks, out=cross)
        # Sss - 2 Ssi + Sii as (Sii - Ssi) + (Sss - Ssi): each term and
        # the sum, a sum of squares, are integers below 2^53.
        np.subtract(moments[1], cross, out=moments[1])
        np.subtract(sig[1], cross, out=cross)
        cross += moments[1]
        np.copyto(num, cross, casting="unsafe")
        np.copyto(idl_sum, moments[0], casting="unsafe")
        np.copyto(ss, sig[0], casting="unsafe")
        np.add(ss, 2 * p * low, out=pair_base)
        np.add(idl_sum, pair_base, out=denom)
        if denom.min() <= 0:
            raise DegenerateDataError("empty region pair in spatial map")
        denom *= p
        num *= p
        np.subtract(ss, idl_sum, out=idl_sum)
        np.square(idl_sum, out=idl_sum)
        num -= idl_sum
        if num.dtype == object:
            num, denom = num.astype(np.float64), denom.astype(np.float64)
        np.divide(num, denom, out=cross)
        np.copyto(per_frame[f:g].T.reshape(ny, nx, k), cross,
                  casting="unsafe")


@dataclass
class SpatialMapResult:
    """Spatial noise-reduction map over candidate idler displacements.

    ``values[i, j]`` is the map at displacement (i - er, j - ec) for a
    search extent (er, ec), so its shape gives the displacements.
    """

    values: np.ndarray          # (2*er+1, 2*ec+1) map of sigma_spatial
    argmin: tuple[int, int]     # displacement minimising the map
    min_value: float            # map value at the argmin
    ties: list[tuple[int, int]]
    curvature: float | None     # discrete Laplacian at the argmin, if interior


def sigma_spatial_map(frames, region_s: Region, geometry: FrameGeometry,
                      search_extent: tuple[int, int] = (3, 3)) -> SpatialMapResult:
    """Map the pairwise spatial noise reduction over idler displacements.

    For each candidate displacement xi the idler region is the conjugate
    of ``region_s`` shifted by xi; together they fill
    ``geometry.search_window(region_s, search_extent)``, so the map reads
    that window and ``region_s`` alone.  Within one frame the statistic
    is the population variance of the conjugated-pair differences
    normalised by the mean pair sum; frames are then averaged.
    Correlated displacements produce a dip, uncorrelated ones a plateau
    near 1 + excess noise.

    ``frames`` is a (frames, rows, cols) ``COUNT_DTYPE`` array (any other
    dtype or shape raises StackFormatError), read a tile of frames at a
    time.  The tiles are dealt out to the workers of
    ``model._run_workers`` from one shared iterator, each worker filling
    the rows of the tiles it takes in one (frames, displacements) table
    of per-frame values, in tile buffers of its own of one budget
    (``_SPATIAL_TILE_ELEMENTS``).  So the tiles are the same on any CPU
    count, and beyond the table each worker holds the frame lanes and
    per-displacement tables of one tile (1.3 MB on a 26 x 38 search
    window, 2.2 MB on an 11 x 14 one).  An empty region pair raises
    DegenerateDataError from whichever worker meets it.  The frame-axis
    mean of the table is taken in the calling thread.  Each per-frame
    value comes from exact integer moments of the pairs
    (``_map_tiles``), float64 sums of integers below 2^53 cast to
    int64: the numerator P^2 var and the denominator P D (P pairs, pair
    sum D) are exact integers, each rounded once to float64 before the
    division, on any u32 counts.  So the map is the same to the last bit
    on any CPU count, and may differ from ``np.var``'s arithmetic in its
    last bits.
    """
    check_counts(frames)
    geometry.validate_region(region_s)
    # Every candidate region is valid, before any data is touched, when
    # the search window holding them all is.
    window = geometry.search_window(region_s, search_extent)
    er, ec = search_extent
    shifts = [(dr, dc) for dr in range(-er, er + 1) for dc in range(-ec, ec + 1)]
    n = len(frames)
    if n == 0:
        raise DegenerateDataError("no frames supplied")

    tile = max(1, _SPATIAL_TILE_ELEMENTS // window.area)
    per_frame = np.empty((n, len(shifts)))
    model._run_workers(
        lambda starts: _map_tiles(frames, region_s, window, search_extent,
                                  per_frame, starts, tile),
        range(0, n, tile))
    # One sum down the frame axis of the whole table: with more than one
    # displacement it adds the frames in order, as a running per-shift
    # total would; with one it sums the column pairwise.
    flat = per_frame.sum(axis=0) / n
    values = flat.reshape(2 * er + 1, 2 * ec + 1)
    best = float(flat.min())
    ties = [shifts[i] for i in np.flatnonzero(flat == best)]
    argmin = ties[0]  # row-major order; first wins on exact ties
    i = argmin[0] + er
    j = argmin[1] + ec
    curvature = None
    if 0 < i < values.shape[0] - 1 and 0 < j < values.shape[1] - 1:
        curvature = float(values[i - 1, j] + values[i + 1, j]
                          + values[i, j - 1] + values[i, j + 1]
                          - 4.0 * values[i, j])
    return SpatialMapResult(values=values, argmin=argmin, min_value=best,
                            ties=ties, curvature=curvature)


# ---------------------------------------------------------------------------
# Detection-area scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AreaScanPoint:
    extent: tuple[int, int]        # region extent in superpixels
    coherence_cells: float         # area expressed in coherence cells
    sigma_alpha: float
    sigma_alpha_b: float | None


def anchored_region(anchor: tuple[float, float],
                    extent: tuple[int, int]) -> Region:
    """Signal-half region of given extent whose centre is nearest to
    ``anchor``."""
    r0 = int(np.floor(anchor[0] - extent[0] / 2.0 + 0.5))
    c0 = int(np.floor(anchor[1] - extent[1] / 2.0 + 0.5))
    return Region(origin=(r0, c0), extent=extent)


def area_pairs(geometry: FrameGeometry, anchor: tuple[float, float],
               areas) -> list[tuple[Region, Region]]:
    """The (signal, idler) region pair of each of ``areas``, an ascending
    list of (height, width) superpixel extents: each signal region is
    anchored at ``anchor`` and paired with its exact conjugate, so the
    pair is symmetric about the symmetry centre.  DomainError when
    ``areas`` is empty or not sorted by size, GeometryError when a
    region leaves its half of the frame."""
    areas = list(areas)
    if not areas:
        raise DomainError("areas must be non-empty")
    sizes = [h * w for h, w in areas]
    if sizes != sorted(sizes):
        raise DomainError("areas must be sorted ascending")
    pairs = []
    for extent in areas:
        region_s = anchored_region(anchor, tuple(extent))
        geometry.validate_region(region_s)
        pairs.append((region_s, geometry.conjugate_region(region_s)))
    return pairs


def area_scan(pdc_frames, bg_frames, pairs, cell_px: int = 1,
              ddof: int = 1) -> list[AreaScanPoint]:
    """Noise reduction factor versus detection-area size, one point per
    (signal, idler) region pair of ``pairs`` (as ``area_pairs`` builds
    them), in order: its signal extent, its area in ``cell_px``-px
    cells, and the uncorrected and (given background frames)
    background-corrected sigma.  The region sums of every pair are dealt
    out to the workers in one ``_pair_series`` call, after every region
    is bounds-checked, into one batched series, a row per pair; one pass
    of each estimator over it, in the calling thread, gives every
    point's sigma.
    """
    series = _pair_series(pairs, pdc_frames, bg_frames)
    sigma_a = _estimates(series, False, ddof=ddof)[1].tolist()
    sigma_ab = [None] * len(pairs)
    if series.has_background:
        sigma_ab = _estimates(series, True, ddof=ddof)[1].tolist()
    return [AreaScanPoint(extent=region_s.extent,
                          coherence_cells=region_s.area / float(cell_px * cell_px),
                          sigma_alpha=a, sigma_alpha_b=b)
            for (region_s, _), a, b in zip(pairs, sigma_a, sigma_ab)]


# ---------------------------------------------------------------------------
# Uncertainty budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeAUncertainty:
    """One experiment's estimates and their delta-method standard
    uncertainties, as floats, or a batched series' as (K,) arrays."""

    alpha: float
    sigma: float
    eta: float
    u_alpha: float
    u_sigma: float
    u_eta: float


def propagate_type_a(series: RegionPairSeries,
                     ddof: int = 1) -> TypeAUncertainty:
    """(alpha, sigma, eta_s) and their Type A uncertainties by the delta
    method: floats for a 1-d series, (K,) arrays for a batched series of
    K experiments.

    The estimates are those of ``repeat_experiment``: background-corrected
    when the series carries a background.  Their covariance is the sum
    over the two independent blocks of the per-frame influence rows'
    covariance over the block's frame count; only intra-frame covariances
    (signal with idler of the same shot) enter, as different frames are
    independent.  The gradient is analytic, taken by ``_estimates`` on
    the same formulas as the point estimates, in one pass over every
    experiment; ``np.cov`` takes each experiment's rows on their own.
    """
    alpha, sigma, eta, rows = _estimates(series, series.has_background,
                                         ddof=ddof, influence=True)
    variances = np.empty(np.shape(sigma) + (3,))
    for k in np.ndindex(np.shape(sigma)):
        variances[k] = np.diag(sum(np.cov(block[k], rowvar=False, ddof=1)
                                   / block.shape[-2] for block in rows))
    u = np.sqrt(np.clip(variances, 0.0, None))
    if not np.all(np.isfinite(u)):
        raise DegenerateDataError("uncertainty propagation produced NaN")
    return TypeAUncertainty(*map(_per_experiment,
                                 (alpha, sigma, eta, *np.moveaxis(u, -1, 0))))


@dataclass
class RepeatSummary:
    """Aggregate of Z repeated experiments with both uncertainty routes.

    The estimates are background-corrected when the batches carry a
    background, and plain (alpha, sigma_alpha) otherwise; ``per_batch_*``
    hold the Z batches' values, so Z is their length.
    """

    alpha_b: float
    sigma_ab: float
    eta_s: float
    eta_i: float
    u_alpha_empirical: float
    u_sigma_empirical: float
    u_eta_empirical: float
    u_alpha_propagated: float
    u_sigma_propagated: float
    u_eta_propagated: float
    per_batch_alpha: np.ndarray
    per_batch_sigma: np.ndarray
    per_batch_eta: np.ndarray


def _sem(values: np.ndarray) -> float:
    """Standard error of the mean of Z repeated determinations."""
    z = values.size
    return float(np.sqrt(np.sum((values - values.mean()) ** 2)
                         / (z * (z - 1))))


def repeat_experiment(batches: RegionPairSeries,
                      ddof: int = 1) -> RepeatSummary:
    """Aggregate per-batch estimates and their statistical uncertainty.

    ``batches`` is a batched series (``RegionPairSeries.batches``), one
    row per batch.  Each batch is a self-contained experiment (its own
    balancing factor); one ``propagate_type_a`` call takes every batch's
    values and delta-method uncertainties.  The aggregate is the plain
    mean over batches, the empirical uncertainty the standard error of
    that mean, and the propagated uncertainty combines the per-batch
    delta-method values.
    """
    z = len(batches)
    if z < 2:
        raise DegenerateDataError("need Z >= 2 batches")
    p = propagate_type_a(batches, ddof=ddof)
    alpha_b = float(p.alpha.mean())
    sigma_ab = float(p.sigma.mean())
    eta_s, eta_i = eta_from_sigma(alpha_b, sigma_ab)
    # Each u squared as a Python float, by C's pow: numpy's square, x*x,
    # differs from it in the last bit for about 1 value in 1200.
    u_alpha, u_sigma, u_eta = (
        float(np.sqrt(np.mean([u ** 2 for u in us.tolist()]) / z))
        for us in (p.u_alpha, p.u_sigma, p.u_eta))
    return RepeatSummary(
        alpha_b=alpha_b, sigma_ab=sigma_ab, eta_s=eta_s, eta_i=eta_i,
        u_alpha_empirical=_sem(p.alpha),
        u_sigma_empirical=_sem(p.sigma),
        u_eta_empirical=_sem(p.eta),
        u_alpha_propagated=u_alpha,
        u_sigma_propagated=u_sigma,
        u_eta_propagated=u_eta,
        per_batch_alpha=p.alpha, per_batch_sigma=p.sigma, per_batch_eta=p.eta)


# ---------------------------------------------------------------------------
# Calibration diagnostics
# ---------------------------------------------------------------------------

@dataclass
class CalibrationDiagnostics:
    """What the calibration chain saw beside its RepeatSummary: the frame
    indices the cosmic-ray filter dropped from each stack and the centre
    search.  The fixed Type B terms are the constants ``TYPE_B_*``."""

    excess_noise_ratio: float
    thermal_excess: float
    dropped_pdc: list[int]
    dropped_background: list[int]
    cs_map: SpatialMapResult
