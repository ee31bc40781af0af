"""Reference implementations of the estimators.

The per-frame loops are the frame-by-frame code the array estimators in
``twincal.estimate`` replaced.  They are slow but obviously correct, so
the oracle tests compare the vectorised code against them.  Frames are
cast to float64 one at a time, as the former ``list[Frame]`` code did.

The uncertainty budget is the former second copy of every estimator
formula, written over raw sample moments and differentiated by central
differences; the point estimators are the former ``np.var`` forms.  The
oracle tests compare the analytic delta method against both.

``cosmic_ray_filter`` is the former whole-stack filter: two-kth
``np.median`` calls over one transposed float64 copy of the stack, with
the per-pixel shot-noise floor and an optional mask of the pixels
compared.  The chunked region filter must keep and drop exactly the
frames it does.

``sigma_spatial_map`` is the former whole-stack map: one float64 copy of
the stack's signal block and search window, a reversed idler view and an
``np.var`` per shift.  ``spatial_map`` is the same statistic frame by
frame.  Both round as ``np.var`` does, so the tiled map, which forms
each value from exact integer moments, must match them to a relative
1e-10 and locate the same minimum wherever no exact tie is split.

``exact_spatial_map`` is the map's definition in Python integers: per
frame and shift the exact N = P sum(d^2) - (sum d)^2 of the P pair
differences d and the exact P D of the pair sum D, each rounded once to
float64 and divided.  The tiled map must return its values bit for bit
on any counts.
"""

import numpy as np

from twincal.errors import DegenerateDataError, DomainError
from twincal.estimate import SpatialMapResult, TypeAUncertainty
from twincal.model import FrameGeometry, Region


def region_sums(frames, region):
    """Per-frame region sums, one Python float per frame."""
    r0, c0 = region.origin
    h, w = region.extent
    return np.array([float(np.asarray(f, dtype=np.float64)
                           [r0:r0 + h, c0:c0 + w].sum()) for f in frames])


def spatial_map(frames, region_s, geometry, search_extent):
    """(values, argmin, ties) of the spatial noise-reduction map.

    Per frame and displacement: population variance of the conjugated
    pair differences times the pair count over the pair sum, accumulated
    frame by frame and averaged.
    """
    er, ec = search_extent
    shifts = [(dr, dc) for dr in range(-er, er + 1) for dc in range(-ec, ec + 1)]
    for shift in shifts:
        geometry.conjugate_region(region_s, shift=shift)
    base = geometry.conjugate_region(region_s)
    h, w = region_s.extent
    sums = np.zeros((2 * er + 1, 2 * ec + 1))
    n_frames = 0
    for frame in frames:
        counts = np.asarray(frame, dtype=np.float64)
        sig = counts[region_s.row_slice, region_s.col_slice]
        for k, (dr, dc) in enumerate(shifts):
            r0, c0 = base.origin[0] + dr, base.origin[1] + dc
            idl = counts[r0:r0 + h, c0:c0 + w][::-1, ::-1]
            diff = sig - idl
            denom = float(sig.sum() + idl.sum())
            if denom <= 0.0:
                raise DegenerateDataError("empty region pair in spatial map")
            value = float(np.var(diff)) * diff.size / denom
            sums[k // (2 * ec + 1), k % (2 * ec + 1)] += value
        n_frames += 1
    if n_frames == 0:
        raise DegenerateDataError("no frames supplied")
    values = sums / n_frames
    flat = values.reshape(-1)
    ties = [shifts[i] for i in np.flatnonzero(flat == flat.min())]
    return values, ties[0], ties


def point_estimates(series, corrected, ddof):
    """(alpha, sigma, eta_s) by the former point estimators."""
    if corrected:
        num = float(series.n_s.mean() - series.m_s.mean())
        den = float(series.n_i.mean() - series.m_i.mean())
        if den <= 0.0:
            raise DegenerateDataError("background-corrected idler mean is not positive")
        alpha = num / den
        var_n = float(np.var(series.n_s - alpha * series.n_i, ddof=ddof))
        var_m = float(np.var(series.m_s - alpha * series.m_i, ddof=ddof))
        denom = 2.0 * num
        if denom <= 0.0:
            raise DegenerateDataError("background-corrected signal mean is not positive")
        sigma = (var_n - var_m) / denom
    else:
        denom = float(series.n_i.mean())
        if denom == 0.0:
            raise DegenerateDataError("idler mean is zero; alpha undefined")
        alpha = float(series.n_s.mean()) / denom
        denom = float(series.n_s.mean() + alpha * series.n_i.mean())
        if denom <= 0.0:
            raise DegenerateDataError("shot-noise denominator is not positive")
        sigma = float(np.var(series.n_s - alpha * series.n_i, ddof=ddof)) / denom
    return alpha, sigma, 0.5 * (1.0 + alpha) - sigma


def _estimates_from_moments(mom: np.ndarray, n: int, m: int,
                            ddof: int) -> tuple[float, float, float]:
    """(alpha, sigma, eta_s) as a smooth function of raw sample moments.

    ``mom`` holds per-frame means of (n_s, n_i, n_s^2, n_s*n_i, n_i^2) and,
    when m > 0, the same five for the background series.  Matches the
    point estimators exactly at the observed moments.
    """
    a_s, a_i, q_ss, q_si, q_ii = mom[:5]
    corr_n = n / (n - ddof)
    if m > 0:
        b_s, b_i, r_ss, r_si, r_ii = mom[5:]
        alpha = (a_s - b_s) / (a_i - b_i)
        var_n = (q_ss - 2 * alpha * q_si + alpha ** 2 * q_ii
                 - (a_s - alpha * a_i) ** 2) * corr_n
        var_m = (r_ss - 2 * alpha * r_si + alpha ** 2 * r_ii
                 - (b_s - alpha * b_i) ** 2) * (m / (m - ddof))
        sigma = (var_n - var_m) / (2.0 * (a_s - b_s))
    else:
        alpha = a_s / a_i
        var_n = (q_ss - 2 * alpha * q_si + alpha ** 2 * q_ii
                 - (a_s - alpha * a_i) ** 2) * corr_n
        sigma = var_n / (a_s + alpha * a_i)
    eta = 0.5 * (1.0 + alpha) - sigma
    return alpha, sigma, eta


def _moment_rows(series):
    v = np.column_stack([series.n_s, series.n_i, series.n_s ** 2,
                         series.n_s * series.n_i, series.n_i ** 2])
    w = None
    if series.has_background:
        w = np.column_stack([series.m_s, series.m_i, series.m_s ** 2,
                             series.m_s * series.m_i, series.m_i ** 2])
    return v, w


def propagate_type_a(series, ddof: int = 1) -> TypeAUncertainty:
    """Type A uncertainties of (alpha, sigma, eta_s) by the delta method.

    The estimates are smooth functions of the sample moments of the
    measured quantities; only intra-frame covariances (signal with idler
    of the same shot) enter -- different frames are independent.  The
    gradient is taken numerically and projected onto the per-frame moment
    rows, which keeps the quadratic form well conditioned at large counts.
    """
    v, w = _moment_rows(series)
    n = series.n_frames
    m = series.m_s.size if series.has_background else 0
    mom = np.concatenate([v.mean(axis=0)] + ([w.mean(axis=0)] if m else []))

    def grad(component: int) -> np.ndarray:
        g = np.empty(mom.size)
        for j in range(mom.size):
            h = 1e-6 * max(abs(mom[j]), 1.0)
            hi, lo = mom.copy(), mom.copy()
            hi[j] += h
            lo[j] -= h
            f_hi = _estimates_from_moments(hi, n, m, ddof)[component]
            f_lo = _estimates_from_moments(lo, n, m, ddof)[component]
            g[j] = (f_hi - f_lo) / (2.0 * h)
        return g

    gradients = [grad(0), grad(1), grad(2)]
    cov = np.zeros((3, 3))
    for block, count in ((v, n), (w, m)):
        if block is None:
            continue
        lo = 0 if block is v else 5
        proj = np.column_stack([block @ g[lo:lo + 5] for g in gradients])
        cov += np.cov(proj, rowvar=False, ddof=1) / count
    u = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    if not np.all(np.isfinite(u)):
        raise DegenerateDataError("uncertainty propagation produced NaN")
    alpha, sigma, eta = _estimates_from_moments(mom, n, m, ddof)
    return TypeAUncertainty(alpha=alpha, sigma=sigma, eta=eta,
                            u_alpha=float(u[0]), u_sigma=float(u[1]),
                            u_eta=float(u[2]))


def cosmic_ray_filter(frames: np.ndarray, mad_k: float = 10.0, mask=None):
    """Discard frames containing superpixels far above their stack statistics.

    Per superpixel the threshold is median + mad_k * scale across the
    stack, with scale the Gaussian-consistent MAD (1.4826*MAD) floored at
    the pixel's shot noise, max(sqrt(median), 1).  Only the pixels of the
    (rows, cols) boolean ``mask`` are compared, every pixel without one.

    ``frames`` is a (frames, rows, cols) count array.  Returns the kept
    frames (``frames`` itself when none is discarded, else a copy) and
    the discarded frame indices as a list.
    """
    if len(frames) < 3:
        raise DegenerateDataError("need at least 3 frames to filter")
    # Per-superpixel statistics run along the contiguous rows of one
    # (pixels, frames) copy.  The medians reorder rows in place, which
    # changes neither a row's median nor its absolute deviations.
    lanes = frames.reshape(len(frames), -1).T.astype(np.float64, order="C")
    median = np.median(lanes, axis=1, overwrite_input=True)
    lanes -= median[:, None]
    np.abs(lanes, out=lanes)
    scale = 1.4826 * np.median(lanes, axis=1, overwrite_input=True)
    floor = np.maximum(np.sqrt(np.clip(median, 0.0, None)), 1.0)
    threshold = (median + mad_k * np.maximum(scale, floor)).reshape(
        frames.shape[1:])
    if mask is not None:
        threshold[~mask] = np.inf
    bad = np.any(frames > threshold, axis=(1, 2))
    kept = frames[~bad] if bad.any() else frames
    return kept, np.flatnonzero(bad).tolist()


def sigma_spatial_map(frames, region_s: Region, geometry: FrameGeometry,
                      search_extent: tuple[int, int] = (3, 3)) -> SpatialMapResult:
    """Map the pairwise spatial noise reduction over idler displacements.

    For each candidate displacement xi the idler region is the conjugate of
    ``region_s`` shifted by xi.  Within one frame the statistic is the
    population variance of the conjugated-pair differences normalised by
    the mean pair sum; frames are then averaged.  Correlated displacements
    produce a dip, uncorrelated ones a plateau near 1 + excess noise.
    """
    geometry.validate_region(region_s)
    er, ec = search_extent
    if er < 0 or ec < 0:
        raise DomainError("search extent components must be >= 0")

    # All candidate regions must be valid before any data is touched.
    shifts = [(dr, dc) for dr in range(-er, er + 1) for dc in range(-ec, ec + 1)]
    for shift in shifts:
        geometry.conjugate_region(region_s, shift=shift)
    base = geometry.conjugate_region(region_s)
    if len(frames) == 0:
        raise DegenerateDataError("no frames supplied")

    # ``window`` spans every candidate idler block of the search.
    h, w = region_s.extent
    r0, c0 = base.origin
    sig = frames[:, region_s.row_slice, region_s.col_slice].astype(float)
    window = frames[:, r0 - er:r0 + h + er, c0 - ec:c0 + w + ec].astype(float)
    sig_sum = sig.sum(axis=(1, 2))
    per_frame = np.empty((len(frames), len(shifts)))
    for k, (dr, dc) in enumerate(shifts):
        # Conjugate pairing reverses both axes of the idler block.
        idl = window[:, er + dr:er + dr + h, ec + dc:ec + dc + w][:, ::-1, ::-1]
        denom = sig_sum + idl.sum(axis=(1, 2))
        if np.any(denom <= 0.0):
            raise DegenerateDataError("empty region pair in spatial map")
        per_frame[:, k] = np.var(sig - idl, axis=(1, 2)) * (h * w) / denom
    return _map_result(per_frame, shifts, search_extent)


def exact_spatial_map(frames, region_s: Region, geometry: FrameGeometry,
                      search_extent: tuple[int, int] = (3, 3)) -> SpatialMapResult:
    """The spatial map from exact integer moments of the whole stack.

    Per frame and shift the P pair differences d = s - i give
    N = P sum(d^2) - (sum d)^2 = P^2 var(d) and the pair sum D, both as
    Python integers; the value is float(N) / float(P D), var(d) P / D
    with N and P D each rounded once before the division.  Frames are
    then averaged as the tiled map averages them.
    """
    window = geometry.search_window(region_s, search_extent)
    er, ec = search_extent
    shifts = [(dr, dc) for dr in range(-er, er + 1) for dc in range(-ec, ec + 1)]
    if len(frames) == 0:
        raise DegenerateDataError("no frames supplied")
    h, w = region_s.extent
    p = h * w
    sig = np.asarray(frames)[:, region_s.row_slice,
                             region_s.col_slice].astype(object)
    win = np.asarray(frames)[:, window.row_slice,
                             window.col_slice].astype(object)
    per_frame = np.empty((len(frames), len(shifts)))
    for k, (dr, dc) in enumerate(shifts):
        # Conjugate pairing reverses both axes of the idler block.
        idl = win[:, er + dr:er + dr + h, ec + dc:ec + dc + w][:, ::-1, ::-1]
        d = sig - idl
        num = p * (d * d).sum(axis=(1, 2)) - d.sum(axis=(1, 2)) ** 2
        pair_sum = sig.sum(axis=(1, 2)) + idl.sum(axis=(1, 2))
        if any(x <= 0 for x in pair_sum):
            raise DegenerateDataError("empty region pair in spatial map")
        per_frame[:, k] = [float(a) / float(p * b)
                           for a, b in zip(num, pair_sum)]
    return _map_result(per_frame, shifts, search_extent)


def _map_result(per_frame, shifts, search_extent) -> SpatialMapResult:
    """The map, its minimum and curvature from (frames, shifts) values."""
    er, ec = search_extent
    # Summing down the frame axis adds the frames in order, as a running
    # per-shift total would.
    flat = per_frame.sum(axis=0) / len(per_frame)
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
