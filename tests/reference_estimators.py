"""Per-frame reference implementations of the stack estimators.

These are the frame-by-frame loops the array estimators in
``twincal.estimate`` replaced.  They are slow but obviously correct, so
the oracle tests compare the vectorised code against them.  Frames are
cast to float64 one at a time, as the former ``list[Frame]`` code did.
"""

import numpy as np

from twincal.errors import DegenerateDataError


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
