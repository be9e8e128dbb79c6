"""The one fringe fit on generated fringes: it recovers V and theta0, follows
a rotation of the pattern, ignores the scale of the values, and reads a flat
sweep and a flat histogram alike. Also: angular_profile keeps the annulus total."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hesim.analysis import fit_visibility
from hesim.lgmodes import (
    AngularHistogram,
    FieldImage,
    angular_profile,
    fringe_fit,
    petal_fit,
    pixel_polar,
)

freqs = st.sampled_from((2, 4, 6, 8, 10, 12))  # a sweep, and petals at l = 1 to 6
points = st.sampled_from((36, 72, 90))  # a full turn, at 10, 5 and 4 degree steps
visibilities = st.floats(0.05, 1.0)
levels = st.floats(1e-3, 1e3)
phases = st.floats(0.0, 1.0, exclude_max=True)  # theta0 in periods


def turn(n: int) -> np.ndarray:
    """Bin centers of n equal bins over a full turn."""
    return (np.arange(n) + 0.5) * 2 * np.pi / n


def fringe_values(angles, freq, v, theta0, base):
    return base * (1.0 + v * np.cos(freq * (angles - theta0)))


def close(x, rel=1e-9):
    return pytest.approx(x, rel=rel, abs=1e-12)


def phase_gap(a: float, b: float, period: float) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(freq=freqs, n=points, v=visibilities, phase=phases, base=levels)
def test_fringe_fit_recovers_visibility_and_phase(freq, n, v, phase, base):
    period = 2 * np.pi / freq
    angles = turn(n)
    fit = fringe_fit(angles, fringe_values(angles, freq, v, phase * period, base), freq)
    assert not fit.degenerate
    assert fit.freq == freq
    assert fit.V == close(v)
    assert fit.base == close(base)
    assert 0.0 <= fit.theta0 < period
    assert phase_gap(fit.theta0, phase * period, period) < 1e-9
    assert np.allclose(fit.curve(angles), fringe_values(angles, freq, v, phase * period, base))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    l=st.integers(1, 6),
    v=visibilities,
    phase=phases,
    shift=st.integers(1, 71),
    seed=st.integers(0, 2**32 - 1),
)
def test_petal_fit_follows_rotations(l, v, phase, shift, seed):
    # rotating the pattern by k bins rolls its histogram by k: theta0 moves
    # by k bin widths, whatever the noise on the petals
    nbins, period = 72, np.pi / l
    noise = 0.02 * np.random.default_rng(seed).standard_normal(nbins)
    hist = fringe_values(turn(nbins), 2 * l, v, phase * period, 1.0) + noise
    fit = petal_fit(AngularHistogram(hist), l)
    turned = petal_fit(AngularHistogram(np.roll(hist, shift)), l)
    delta = shift * 2 * np.pi / nbins
    assert phase_gap(turned.theta0, fit.theta0 + delta, period) < 1e-9
    assert turned.V == close(fit.V)
    assert turned.stderr == close(fit.stderr, rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(freq=freqs, v=visibilities, phase=phases, scale=st.floats(1e-6, 1e6))
def test_fringe_fit_ignores_the_scale_of_the_values(freq, v, phase, scale):
    angles = turn(72)
    values = fringe_values(angles, freq, v, phase * 2 * np.pi / freq, 1.0)
    fit = fringe_fit(angles, values, freq)
    scaled = fringe_fit(angles, scale * values, freq)
    assert scaled.V == close(fit.V)
    assert phase_gap(scaled.theta0, fit.theta0, 2 * np.pi / freq) < 1e-9
    assert scaled.base == close(scale * fit.base)
    assert scaled.flags == fit.flags


@settings(derandomize=True, deadline=None, max_examples=60)
@given(level=st.one_of(st.just(0.0), levels), l=st.integers(1, 6))
def test_flat_sweep_and_flat_histogram_read_alike(level, l):
    sweep = fit_visibility([(math.radians(a), level) for a in range(0, 360, 10)])
    petals = petal_fit(AngularHistogram(np.full(72, level)), l)
    for fit in (sweep, petals):
        assert fit.degenerate and fit.flags == ("degenerate",)
        assert fit.V == 0.0 and math.isnan(fit.theta0)
        assert fit.base == close(level)
        assert np.all(fit.curve(turn(8)) == fit.base)  # flat, never nan
    assert sweep.base == close(petals.base)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(16, 64),
    nbins=st.integers(8, 360),
    inner=st.floats(0.0, 0.6),
    width=st.floats(0.05, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_angular_profile_keeps_the_annulus_total(n, nbins, inner, width, seed):
    extent = 4.0
    annulus = (inner * extent, (inner + width) * extent)
    pixels = np.random.default_rng(seed).exponential(size=(n, n))
    r, _ = pixel_polar(n, extent)
    inside = (r >= annulus[0]) & (r <= annulus[1])
    if not inside.any():
        with pytest.raises(ValueError):
            angular_profile(FieldImage(pixels, extent), nbins, annulus)
        return
    hist = angular_profile(FieldImage(pixels, extent), nbins, annulus)
    assert hist.nbins == nbins
    assert hist.bins.sum() == close(pixels[inside].sum())
