"""render_from_density against the textbook three-operand einsum of lg_amplitude
fields, and pixel_polar's angle fold against np.mod, on generated inputs."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from hesim.lgmodes import LGMode, default_extent, lg_amplitude, pixel_polar, render_from_density


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
    # the documented pixel centers: x = (col - (n-1)/2) * extent/n, y = ((n-1)/2 - row) * extent/n
    step, c = extent / n, (n - 1) / 2.0
    x = ((np.arange(n) - c) * step)[None, :]
    y = ((c - np.arange(n)) * step)[:, None]
    r, theta = pixel_polar(n, extent)
    expected = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    # int64 views compare every bit, the sign of zero included
    assert np.array_equal(theta.view(np.int64), expected.view(np.int64))
    assert np.array_equal(r.view(np.int64), np.hypot(x, y).view(np.int64))
    assert theta.min() >= 0.0 and theta.max() < 2.0 * np.pi
