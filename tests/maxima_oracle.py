"""lgmodes.angular_maxima as it walked the smoothed bins as a numpy array,
kept as the oracle of the walk over a list of Python floats."""

import numpy as np

from hesim.lgmodes import MIN_PROMINENCE, TWO_PI


def array_angular_maxima(hist) -> np.ndarray:
    b = hist.bins
    n = b.size
    sm = (np.roll(b, 1) + b + np.roll(b, -1)) / 3.0
    rng = float(sm.max() - sm.min())
    if rng == 0.0:
        return hist.bin_centers[:0]
    candidates = []
    starts = np.nonzero(sm != np.roll(sm, 1))[0]
    if starts.size == 0:
        return hist.bin_centers[:0]
    for s in starts:
        v = sm[s]
        e = s
        while sm[(e + 1) % n] == v:
            e = (e + 1) % n
        if sm[(s - 1) % n] < v and sm[(e + 1) % n] < v:
            run = (e - s) % n + 1
            candidates.append((s, e, run, (s + (run - 1) // 2) % n))
    keep = []
    for s, e, run, idx in candidates:
        h = sm[idx]
        side_minima = []
        for step in (1, -1):
            lowest = h
            j = idx
            for _ in range(n - 1):
                j = (j + step) % n
                if sm[j] > h:
                    break
                lowest = min(lowest, sm[j])
            side_minima.append(lowest)
        if h - max(side_minima) >= MIN_PROMINENCE * rng:
            keep.append((idx, s, run))
    width = TWO_PI / n
    angles = []
    for idx, s, run in sorted(keep):
        if run > 1:
            frac = s + run / 2.0 - 0.5
        else:
            ym, y0, yp = sm[(idx - 1) % n], sm[idx], sm[(idx + 1) % n]
            denom = ym - 2.0 * y0 + yp
            delta = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
            frac = idx + min(max(delta, -0.5), 0.5)
        angles.append(((frac + 0.5) * width) % TWO_PI)
    return np.array(angles)
