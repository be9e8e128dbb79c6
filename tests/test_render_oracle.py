"""render_from_density against the textbook three-operand einsum of lg_amplitude
fields, the grid oracle's pixel_polar (lgmodes' quadrant r and angle fold)
against np.hypot and np.mod, and the quadrant-built grid geometry against a
full-grid evaluation, on generated inputs."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hesim import lgmodes
from hesim.lgmodes import (
    FieldImage,
    LGMode,
    angular_profile,
    annulus_end,
    default_extent,
    lg_amplitude,
    mode_stack,
    pair_terms,
    render_from_density,
)
from grid_oracle import pixel_polar


def pixel_centers(n, extent):
    """The documented pixel centers: x = (col - (n-1)/2) * extent/n as a row,
    y = ((n-1)/2 - row) * extent/n as a column."""
    step, c = extent / n, (n - 1) / 2.0
    return ((np.arange(n) - c) * step)[None, :], ((c - np.arange(n)) * step)[:, None]


def same_bits(a, b):
    # int64 views compare every bit, the sign of zero included
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def einsum_render(rho, alphabet, n, extent, waist):
    """The textbook sum_ab rho_ab f_a conj(f_b), as one three-operand einsum."""
    r, theta = pixel_polar(n, extent)
    fields = np.stack([lg_amplitude(r, theta, LGMode(l, waist)) for l in alphabet])
    out = np.real(np.einsum("ab,aij,bij->ij", rho, fields, fields.conj())).copy()
    out[out < 0] = 0.0
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    l=st.integers(1, 6),
    data=st.data(),
    full=st.booleans(),
    rank_one=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_render_matches_einsum_oracle(l, data, full, rank_one, seed, scale):
    # a block supported on one +-m pair of (-m, m) or of range(-l, l + 1),
    # which is (-1, 0, 1) at l = 1
    m = data.draw(st.integers(0 if full else 1, l), label="m")
    alphabet = tuple(range(-l, l + 1)) if full else (-m, m)
    n, extent = 48, default_extent(1.0, l)
    idx = sorted({alphabet.index(q) for q in (-m, m)})
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
    rho = np.zeros((len(alphabet),) * 2, dtype=complex)
    rho[np.ix_(idx, idx)] = np.outer(a[0], a[0].conj()) if rank_one else a @ a.conj().T
    out = render_from_density(rho, alphabet, (n, extent), 1.0)
    expected = einsum_render(rho, alphabet, n, extent, 1.0)
    peak = expected.max()
    # the two sum in different orders; both are exact to a few ulps of the peak
    assert np.abs(out - expected).max() <= 1e-13 * peak
    assert out.min() >= 0.0
    scaled = render_from_density(scale * rho, alphabet, (n, extent), 1.0)
    assert np.abs(scaled - scale * out).max() <= 1e-13 * scale * peak


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(16, 600), extent=st.floats(1e-3, 1e3))
def test_pixel_polar_fold_matches_np_mod_bit_for_bit(n, extent):
    x, y = pixel_centers(n, extent)
    r, theta = pixel_polar(n, extent)
    assert same_bits(theta, np.mod(np.arctan2(y, x), 2.0 * np.pi))
    assert same_bits(r, np.hypot(x, y))
    assert theta.min() >= 0.0 and theta.max() < 2.0 * np.pi


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.sampled_from((16, 17, 129, 256, 257, 513)),
    extent=st.floats(1e-3, 1e3),
    l=st.integers(0, 12),
    waist_frac=st.floats(0.02, 0.5),
    lo=st.floats(0.0, 0.75),
    width=st.floats(1e-6, 0.5),
    nbins=st.integers(8, 144),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrant_geometry_matches_the_full_grid(n, extent, l, waist_frac, lo, width, nbins, seed):
    # r, the rings, the annulus and the angular bins are built from one grid
    # quadrant and the annulus pixels; here each is evaluated on the full
    # grid instead. Odd n share the center row and column between mirrored
    # halves, and the small n put most pixels in numpy's SIMD tail loops
    x, y = pixel_centers(n, extent)
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    assert same_bits(pixel_polar(n, extent)[0], r)

    # the factors and a render of a coherent block on them, with the
    # fringe as the (2, n, n) product summed over its stack axis
    waist = waist_frac * extent
    alphabet = (-1, 0, 1) if l == 0 else (-l, l)
    factors = mode_stack(alphabet, n, extent, waist)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = np.zeros((len(alphabet),) * 2, dtype=complex)
    rho[np.ix_([0, -1], [0, -1])] = a @ a.conj().T  # coherent on the outer +-m pair
    rho[len(alphabet) // 2, len(alphabet) // 2] += rng.random()
    expected = None
    for m, (d, c) in pair_terms(rho, alphabet).items():
        ring = lg_amplitude(r, 0.0, LGMode(m, waist)).real ** 2
        assert same_bits(factors[m][0], ring)
        if not (d or c):
            continue
        if c:
            trig = np.stack([np.cos(theta * (2 * m)), np.sin(theta * (2 * m))])
            assert same_bits(factors[m][1], trig)
            fringe = np.multiply(trig, [[[2.0 * c.real]], [[-2.0 * c.imag]]]).sum(axis=0) + d
            term = np.maximum(fringe, 0.0) * ring
        else:
            term = ring * d
        expected = term if expected is None else expected + term
    assert same_bits(render_from_density(rho, alphabet, (n, extent), waist), expected)

    # the annulus's last pixel, bins and histogram, from the full-grid theta
    annulus = (lo * extent, (lo + width) * extent)
    mask = (r >= annulus[0]) & (r <= annulus[1])
    inside = np.flatnonzero(mask)
    assert annulus_end(n, extent, annulus, nbins) == (int(inside[-1]) + 1 if inside.size else 0)
    img = FieldImage(rng.random((n, n)), extent)
    if not inside.size:
        with pytest.raises(ValueError, match="no pixels"):
            angular_profile(img, nbins, annulus)
        return
    idx = np.minimum((theta[mask] / (2.0 * np.pi) * nbins).astype(int), nbins - 1)
    hist = angular_profile(img, nbins, annulus)
    _, held_flat, held_idx = lgmodes._held_bins
    assert np.array_equal(held_flat, inside) and np.array_equal(held_idx, idx)
    assert same_bits(hist.bins, np.bincount(idx, weights=img.pixels[mask], minlength=nbins))
