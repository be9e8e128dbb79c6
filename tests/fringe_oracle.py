"""lgmodes.fringe_fit as it solved and read each row on its own, one
np.linalg.lstsq call and one residual product per row, kept as the oracle
of the batched solve and readout."""

import math

import numpy as np

from hesim.errors import NumericalError
from hesim.lgmodes import TWO_PI, Fringe, fold_phase


def row_fringe_fit(angles, values, freq: int):
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.column_stack([np.ones_like(angles), np.cos(freq * angles), np.sin(freq * angles)])
    inv_normal = None
    fits = []
    for row in values.reshape(-1, values.shape[-1]):
        coef, _, rank, _ = np.linalg.lstsq(design, row, rcond=None)
        if rank < 3:
            raise NumericalError("angle set cannot resolve a fringe (rank-deficient fit)")
        if inv_normal is None:
            inv_normal = np.linalg.inv(design.T @ design)
        fits.append(_read_fringe(freq, design, inv_normal, row, coef))
    return fits[0] if values.ndim == 1 else fits


def _read_fringe(freq: int, design, inv_normal, values, coef) -> Fringe:
    m, a, b = coef
    if m <= 0:
        return Fringe(freq, 0.0, math.nan, 0.0, math.nan, ("degenerate",))
    resid = values - design @ coef
    cov = float(resid @ resid) / max(len(values) - 3, 1) * inv_normal
    amp = math.hypot(a, b)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if amp > 0:
            grad = np.array([-amp / m**2, a / (amp * m), b / (amp * m)])
        else:
            grad = np.array([0.0, 1.0 / m, 1.0 / m])
        var = grad @ cov @ grad
    stderr = float(np.sqrt(max(var, 0.0))) if np.isfinite(var) else math.nan
    if amp / m < 1e-12:
        return Fringe(freq, 0.0, math.nan, float(m), stderr, ("degenerate",))
    v = min(amp / m, 1.0)
    flags = ("clipped",) if amp / m > 1.0 + 1e-9 else ()
    if v - stderr < 0.0:
        flags += ("v_minus_sigma_subzero",)
    theta0 = fold_phase(math.atan2(b, a) / freq, TWO_PI / freq)
    return Fringe(freq, float(v), theta0, float(m), stderr, flags)
