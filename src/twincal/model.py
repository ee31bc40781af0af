"""Domain types and closed-form statistics of twin-beam detection.

The statistical model: each coherence cell carries a multithermal photon
number (sum of ``temporal_modes`` independent thermal modes with mean ``mu``
each), the signal and idler cells of a conjugate pair share the same
pre-detection photon number, and each arm is thinned independently with its
channel efficiency.  The predictors below are the exact first and second
moments of region sums under that model; they are what the simulator must
converge to and what the estimators invert.

``_run_workers`` is every pooled stage's thread pool and the only reader
of the CPU count.  Each stage sizes its jobs by a fixed buffer budget per
worker, so W workers hold W budgets and take the same jobs on any W.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, StackFormatError

GAIN_LINEAR = "linear"
GAIN_SINH2 = "sinh2"

# The one count type of a frame stack: the simulator renders it, a stack
# file holds it, and the stack estimators take nothing else.
COUNT_DTYPE = np.dtype("<u4")


def check_counts(counts) -> None:
    """StackFormatError unless ``counts`` is a (frames, rows, cols) array
    of ``COUNT_DTYPE``."""
    dtype = getattr(counts, "dtype", type(counts).__name__)
    if not (isinstance(counts, np.ndarray) and dtype == COUNT_DTYPE):
        raise StackFormatError(f"frame counts must be {COUNT_DTYPE.str}, "
                               f"not {dtype}")
    if counts.ndim != 3:
        raise StackFormatError("frame counts must have shape (frames, rows, "
                               f"cols), not {counts.shape}")


def _cpu_count() -> int:
    """Number of CPUs this process may run on: the most workers of a
    ``_run_workers`` call, its only reader, which reads it on every call
    and makes a larger pool when it grows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_END = object()  # no job left


def _reset_pool():
    global _POOL
    _POOL = 0, None  # (threads, executor); a forked child holds no thread


_reset_pool()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_reset_pool)


def _run_workers(work, jobs) -> list:
    """Run ``work`` on W = min(``_cpu_count()``, len(jobs)) threads that
    take ``jobs`` from one shared iterator, and return the results of
    the workers that ran, in no set order.

    Each worker calls ``work`` once, with an iterator of the jobs it
    takes, so ``work`` allocates its buffers once per worker; every job
    runs exactly once, and callers combine the results without regard
    to order.  The calling thread claims the first job and is a worker;
    the others are W - 1 tasks on one process-wide ``ThreadPoolExecutor``
    of W - 1 threads, made afresh when W outgrows it and in a forked
    child.  One CPU or one job starts no thread.  A task that finds no
    job left does nothing, and one that has not started when the
    caller's ``work`` returns is cancelled and not waited for, so a call
    from inside a worker, or from two threads at once, cannot deadlock.
    An exception raised by a worker deals no further job, and the first
    one is re-raised as it is once every started worker has stopped.
    """
    global _POOL
    workers = min(_cpu_count(), len(jobs))
    if workers <= 1:
        return [work(jobs)]
    threads, pool = _POOL
    if threads < workers - 1:  # callers still on the old pool finish there
        pool = ThreadPoolExecutor(workers - 1, "twincal-worker")
        _POOL = workers - 1, pool
    lock, pending, errors = threading.Lock(), iter(jobs), []

    def dealt(job):
        while job is not _END:
            yield job
            with lock:
                job = next(pending, _END)

    def run(job=_END):
        nonlocal pending
        if job is _END:  # a task claims its first job here
            with lock:
                job = next(pending, _END)
            if job is _END:
                return _END
        try:
            return work(dealt(job))
        except BaseException as exc:  # re-raised by the calling thread
            with lock:
                pending = iter(())  # deal no further job
                errors.append(exc)
            return _END

    # The executor starts a thread only when it counts no idle one, and it
    # counts one each time a task ends.  No task ends before the last is
    # submitted, so a new pool starts all its threads at once.
    with lock:
        first = next(pending)
        tasks = [pool.submit(run) for _ in range(workers - 1)]
    # A raised error's traceback holds this frame: without the local, a
    # pool that W later outgrows is freed at once, not at the next gc.
    del pool
    results = [run(first)]
    results += [task.result() for task in tasks if not task.cancel()]
    if errors:
        raise errors[0]
    return [result for result in results if result is not _END]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelEfficiencies:
    """Whole-channel detection efficiencies of the two arms, each in (0, 1]."""

    eta_s: float
    eta_i: float

    def __post_init__(self) -> None:
        _check_efficiency("eta_s", self.eta_s)
        _check_efficiency("eta_i", self.eta_i)

    @property
    def eta_plus(self) -> float:
        """Mean efficiency of the two arms."""
        return 0.5 * (self.eta_s + self.eta_i)

    @property
    def eta_minus(self) -> float:
        """Efficiency imbalance eta_s - eta_i."""
        return self.eta_s - self.eta_i


@dataclass(frozen=True)
class ModeStructure:
    """Mode bookkeeping of one acquisition.

    temporal_modes
        Number of temporal modes per laser shot (detection window over
        coherence time), >= 1.
    coherence_cell_px
        Side of one spatial coherence cell in superpixels after binning,
        >= 1.  One cell is the resolution below which photon positions are
        uncorrelated.
    grid
        (rows, cols) of coherence cells making up one beam's emission block.
    """

    temporal_modes: int
    coherence_cell_px: int
    grid: tuple[int, int]

    def __post_init__(self) -> None:
        if self.temporal_modes < 1:
            raise DomainError("temporal_modes must be >= 1")
        if self.coherence_cell_px < 1:
            raise DomainError("coherence_cell_px must be >= 1")
        if len(self.grid) != 2 or min(self.grid) < 1:
            raise DomainError(f"grid must be two counts >= 1, got {self.grid!r}")

    @property
    def block_shape(self) -> tuple[int, int]:
        """Emission block extent in superpixels."""
        return (self.grid[0] * self.coherence_cell_px,
                self.grid[1] * self.coherence_cell_px)

    def total_modes(self, cells: int) -> int:
        """Total mode count of a detection area covering ``cells`` cells."""
        if cells < 1:
            raise DomainError("cells must be >= 1")
        return self.temporal_modes * cells


@dataclass(frozen=True)
class PulseModel:
    """Per-shot pump energy statistics and the energy-to-mean-photon map.

    The relative pulse energy is Gaussian(1, relative_energy_jitter),
    resampled until positive.  ``gain_map`` selects how the per-mode mean
    follows the energy:

    * ``linear``  -- mu = mean_mu * E
    * ``sinh2``   -- mu = mean_mu * sinh(gain_const * sqrt(E))^2
                     / sinh(gain_const)^2  (parametric-gain law, normalised
                     so that E = 1 gives mean_mu exactly)
    """

    mean_mu: float
    relative_energy_jitter: float = 0.0
    gain_map: str = GAIN_LINEAR
    gain_const: float | None = None

    def __post_init__(self) -> None:
        if self.mean_mu <= 0.0:
            raise DomainError("mean_mu must be > 0")
        if self.relative_energy_jitter < 0.0:
            raise DomainError("relative_energy_jitter must be >= 0")
        if self.gain_map not in (GAIN_LINEAR, GAIN_SINH2):
            raise DomainError(f"unknown gain_map {self.gain_map!r}")
        if self.gain_map == GAIN_SINH2:
            if self.gain_const is None or self.gain_const <= 0.0:
                raise DomainError("sinh2 gain map needs gain_const > 0")

    def mu_at(self, energy: float | np.ndarray) -> float | np.ndarray:
        """Per-mode mean photon number at a relative pulse energy.

        ``energy`` is a float or an array of energies; the result has the
        same form.
        """
        if np.any(np.asarray(energy) <= 0.0):
            raise DomainError("energy must be > 0")
        if self.gain_map == GAIN_LINEAR:
            return self.mean_mu * energy
        g = self.gain_const
        return self.mean_mu * np.sinh(g * np.sqrt(energy)) ** 2 / math.sinh(g) ** 2


@dataclass(frozen=True)
class BackgroundModel:
    """Straylight and electronics noise added to every frame.

    straylight_mean
        Mean background counts per superpixel on the signal half.
    straylight_idler_ratio
        Idler-half straylight mean as a fraction of the signal-half mean
        (the two optical paths need not contribute equally).
    straylight_tracks_pulse
        When set, the straylight mean scales with the sampled pulse energy
        (fluorescence follows the pump shot to shot).
    read_noise_std
        Gaussian read noise per physical pixel, in electrons.
    binning
        Physical pixels per superpixel side.  Read noise variance per
        superpixel is binning**2 * read_noise_std**2 (independent physical
        pixels).  Use binning=1 when the superpixel is read out once in
        hardware.
    """

    straylight_mean: float = 0.0
    straylight_tracks_pulse: bool = False
    read_noise_std: float = 0.0
    binning: int = 1
    straylight_idler_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.straylight_mean < 0.0:
            raise DomainError("straylight_mean must be >= 0")
        if self.read_noise_std < 0.0:
            raise DomainError("read_noise_std must be >= 0")
        if self.binning < 1:
            raise DomainError("binning must be >= 1")
        if self.straylight_idler_ratio < 0.0:
            raise DomainError("straylight_idler_ratio must be >= 0")

    @property
    def read_noise_per_superpixel(self) -> float:
        """Read noise standard deviation of one superpixel."""
        return self.binning * self.read_noise_std


@dataclass(frozen=True)
class Region:
    """A rectangular block of superpixels.  Which beam half it must lie on
    is the frame's to say (``FrameGeometry.validate_region``)."""

    origin: tuple[int, int]
    extent: tuple[int, int]

    def __post_init__(self) -> None:
        if min(self.extent) < 1:
            raise GeometryError(f"region extent must be positive, got {self.extent!r}")

    @property
    def row_slice(self) -> slice:
        return slice(self.origin[0], self.origin[0] + self.extent[0])

    @property
    def col_slice(self) -> slice:
        return slice(self.origin[1], self.origin[1] + self.extent[1])

    @property
    def area(self) -> int:
        return self.extent[0] * self.extent[1]

    @property
    def center(self) -> tuple[float, float]:
        return (self.origin[0] + (self.extent[0] - 1) / 2.0,
                self.origin[1] + (self.extent[1] - 1) / 2.0)

    def check_inside(self, shape, name: str = "region") -> None:
        """GeometryError, naming the region ``name``, unless it lies
        within frames of ``shape`` (rows, cols), where slicing would clip
        it silently."""
        (r0, c0), (h, w) = self.origin, self.extent
        if not (0 <= r0 and 0 <= c0 and r0 + h <= shape[0]
                and c0 + w <= shape[1]):
            raise GeometryError(f"{name} {self.origin}+{self.extent} leaves "
                                f"the {shape[0]}x{shape[1]} frame")


@dataclass(frozen=True)
class FrameGeometry:
    """Superpixel layout of a frame and the point symmetry of the emission.

    The conjugate of superpixel x is 2*cs - x.  Columns < beam_split belong
    to the signal half, the rest to the idler half.  Both components of
    2*cs must be integral so that conjugation maps the superpixel grid onto
    itself; sub-superpixel symmetry centres are out of scope (injected
    misalignment is expressed through the simulator's cs_offset instead).
    """

    rows: int
    cols: int
    cs: tuple[float, float]
    beam_split: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GeometryError("frame must have positive dimensions")
        if not 0 < self.beam_split < self.cols:
            raise GeometryError("beam_split must fall inside the frame columns")
        for axis, value in zip("rc", self.cs):
            doubled = 2.0 * value
            if abs(doubled - round(doubled)) > 1e-9:
                raise GeometryError(
                    f"2*cs must be integral on axis {axis!r} so conjugation "
                    f"stays on the superpixel grid; got cs component {value!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def conjugate_region(self, region: Region,
                         shift: tuple[int, int] = (0, 0)) -> Region:
        """Point-reflect a region through cs, optionally shifted.

        The reflection of superpixels [o, o + n) is [2*cs - o - n + 1,
        2*cs - o + 1); with 2*cs integral the result is grid-aligned.  It
        must lie on the half opposite the one holding the region's first
        column, so conjugating twice gives the region back.
        """
        r0 = int(round(2.0 * self.cs[0])) - region.origin[0] - region.extent[0] + 1
        c0 = int(round(2.0 * self.cs[1])) - region.origin[1] - region.extent[1] + 1
        conj = Region(origin=(r0 + shift[0], c0 + shift[1]),
                      extent=region.extent)
        self.validate_region(conj, idler=region.origin[1] < self.beam_split)
        return conj

    def search_window(self, region_s: Region,
                      extent: tuple[int, int]) -> Region:
        """The box holding the conjugate of ``region_s`` at every shift
        of up to ``extent`` superpixels per axis: the search window, on
        the half opposite ``region_s`` (the idler half for a signal one).

        The box is valid exactly when every shifted conjugate is, since
        its corners are those of the extreme shifts.
        """
        er, ec = extent
        if er < 0 or ec < 0:
            raise DomainError("search extent components must be >= 0")
        base = self.conjugate_region(region_s)
        (r0, c0), (h, w) = base.origin, base.extent
        window = Region(origin=(r0 - er, c0 - ec),
                        extent=(h + 2 * er, w + 2 * ec))
        self.validate_region(window,
                             idler=region_s.origin[1] < self.beam_split)
        return window

    def crop(self, box: Region,
             regions) -> tuple["FrameGeometry", list[Region]]:
        """The geometry of the frame cut down to ``box``, and each of
        ``regions`` in its coordinates, in order.

        Every position moves by the box origin, an integer shift: cs and
        beam_split with it, so conjugates, search windows and anchored
        regions in the cut frame are those of the whole frame, moved.  The
        box must hold pixels on both halves.
        """
        dr, dc = box.origin
        geometry = FrameGeometry(rows=box.extent[0], cols=box.extent[1],
                                 cs=(self.cs[0] - dr, self.cs[1] - dc),
                                 beam_split=self.beam_split - dc)
        return geometry, [Region(origin=(r.origin[0] - dr, r.origin[1] - dc),
                                 extent=r.extent) for r in regions]

    def validate_region(self, region: Region, idler: bool = False) -> None:
        """GeometryError unless ``region`` lies inside the frame and wholly
        on the signal half, or on the idler half when ``idler`` is set."""
        region.check_inside(self.shape)
        c0, w = region.origin[1], region.extent[1]
        if not idler and c0 + w > self.beam_split:
            raise GeometryError("signal region crosses into the idler half")
        if idler and c0 < self.beam_split:
            raise GeometryError("idler region crosses into the signal half")


# ---------------------------------------------------------------------------
# Theory predictors
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise DomainError(f"{name} must be > 0, got {value!r}")


def _check_efficiency(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must be in (0, 1], got {value!r}")


def _check_modes(m_tot: float) -> None:
    if not m_tot >= 1:
        raise DomainError(f"m_tot must be >= 1, got {m_tot!r}")


def predict_variance(mu: float, eta: float, m_tot: float) -> float:
    """Variance of the detected count in a region of ``m_tot`` modes.

    Multithermal light of mean ``mu`` per mode thinned with efficiency
    ``eta`` has mean m_tot*eta*mu and variance m_tot*eta*mu*(1 + eta*mu);
    the fractional excess above shot noise is <N>/m_tot.
    """
    _check_positive("mu", mu)
    _check_efficiency("eta", eta)
    _check_modes(m_tot)
    return m_tot * eta * mu * (1.0 + eta * mu)


def predict_covariance(mu: float, eta_s: float, eta_i: float,
                       m_tot: float) -> float:
    """Covariance of the signal and idler counts over conjugate regions.

    Shared pre-detection photon numbers thinned independently give
    m_tot * eta_s * eta_i * mu * (1 + mu).
    """
    _check_positive("mu", mu)
    _check_efficiency("eta_s", eta_s)
    _check_efficiency("eta_i", eta_i)
    _check_modes(m_tot)
    return m_tot * eta_s * eta_i * mu * (1.0 + mu)


def predict_sigma(ch: ChannelEfficiencies, mu: float) -> float:
    """Noise reduction factor of the raw difference N_s - N_i.

    sigma = 1 - eta_plus + (eta_minus**2 / (2 eta_plus)) * (1/2 + mu).
    For balanced channels this is exactly 1 - eta; the imbalance term is
    non-negative and carries the thermal excess.  The value does not depend
    on the mode count, which cancels between numerator and shot-noise
    denominator, so none is taken.  It is ``predict_sigma_with_jitter``
    without jitter.
    """
    return predict_sigma_with_jitter(ch, mu, 0.0, 1)


def predict_sigma_with_jitter(ch: ChannelEfficiencies, mu_bar: float,
                              var_mu: float, m_tot: float) -> float:
    """Noise reduction factor of N_s - N_i under pump-energy jitter.

    With the per-mode mean fluctuating shot to shot (mean mu_bar, variance
    var_mu), the imbalance term acquires a contribution proportional to
    (var_mu / mu_bar) * (1 + m_tot) -- very large detection areas amplify
    pump instability.  At var_mu = 0 it is predict_sigma.
    """
    _check_positive("mu_bar", mu_bar)
    if var_mu < 0.0:
        raise DomainError("var_mu must be >= 0")
    _check_modes(m_tot)
    ep = ch.eta_plus
    em = ch.eta_minus
    excess = 0.5 + mu_bar + (var_mu / mu_bar) * (1.0 + m_tot)
    return 1.0 - ep + (em * em / (2.0 * ep)) * excess


def predict_sigma_alpha(alpha: float, eta_s: float) -> float:
    """Noise reduction factor after a-posteriori balancing.

    Scaling the idler counts by alpha = <N_s>/<N_i> cancels every excess-
    noise term and leaves sigma_alpha = (1 + alpha)/2 - eta_s, which is the
    relation the calibration inverts.
    """
    _check_positive("alpha", alpha)
    _check_efficiency("eta_s", eta_s)
    return 0.5 * (1.0 + alpha) - eta_s
