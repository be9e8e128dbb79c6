"""render_from_density against the textbook three-operand einsum, on generated blocks."""

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
    rank_one=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_render_matches_einsum_oracle(l, rank_one, seed, scale):
    alphabet, n, extent = tuple(range(-l, l + 1)), 48, default_extent(1.0, l)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * l + 1, 2 * l + 1)) + 1j * rng.normal(size=(2 * l + 1, 2 * l + 1))
    rho = np.outer(a[0], a[0].conj()) if rank_one else a @ a.conj().T
    out = render_from_density(rho, alphabet, (n, extent), 1.0)
    expected = einsum_render(rho, alphabet, n, extent, 1.0)
    peak = expected.max()
    # the two sum in different orders; both are exact to a few ulps of the peak
    assert np.abs(out - expected).max() <= 1e-13 * peak
    assert out.min() >= 0.0
    scaled = render_from_density(scale * rho, alphabet, (n, extent), 1.0)
    assert np.abs(scaled - scale * out).max() <= 1e-13 * scale * peak
