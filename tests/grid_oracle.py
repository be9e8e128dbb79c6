"""lgmodes.pixel_polar as it built the full-grid r and theta at the pixel
centers, kept as the oracle of the grid geometry that mode_stack and the
angular bins now build in parts: r from the grid quadrant, mirrored, and
theta by the one masked fold. tests/test_render_oracle.py holds both to a
full-grid np.hypot and np.mod, bit for bit."""

from hesim.lgmodes import _folded_angle, _mirrored, _pixel_xy, _quadrant_r


def pixel_polar(n: int, extent: float):
    """(r, theta) arrays at the pixel centers of an n x n image."""
    x, y = _pixel_xy(n, extent)  # theta broadcasts them to (n, n)
    return _mirrored(_quadrant_r(n, extent), n), _folded_angle(y, x)
