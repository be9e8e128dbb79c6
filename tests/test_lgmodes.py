"""Field rendering and petal analysis, anchored to 1-D scan oracles."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from hesim import lgmodes
from hesim.config import RunConfig
from hesim.detection import oam_block
from hesim.errors import ConfigError, NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import (
    AngularHistogram,
    FieldImage,
    LGMode,
    angular_maxima,
    angular_profile,
    default_annulus,
    default_extent,
    lg_amplitude,
    mode_stack,
    peak_radius,
    petal_fit,
    render_from_density,
    write_histogram_csv,
    write_pgm,
)
from hesim.pipelines import _render_plan, run_pump_gallery
from hesim.quantum import partial_trace, pol_ket
from grid_oracle import pixel_polar
from maxima_oracle import array_angular_maxima

OAM3 = tuple(range(-3, 4))
GRID = (256, default_extent(1.0, 3))


def pump_image(pump, label, grid=GRID) -> FieldImage:
    """The gallery's peak-normalised image of a pump behind analyzer ``label``
    (None: no analyzer), at waist 1."""
    if label is None:
        block = partial_trace(pump, keep="oam").matrix
    else:
        block, _ = oam_block(pump, {"pol": pol_ket(label)})
    intensity = render_from_density(block, pump.subsystems[1].labels, grid, 1.0)
    return FieldImage(intensity / intensity.max(), grid[1])


def circular_distance(a: float, b: float, period: float) -> float:
    """Shortest separation of two orientations on a circle of given period."""
    d = abs(a - b) % period
    return min(d, period - d)


def read_pgm(path) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if tokens[0] != "P2":
        raise ValueError("only plain PGM (P2) is supported")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array(tokens[4:], dtype=int)
    if data.size != w * h:
        raise ValueError("pixel count does not match header")
    if data.max(initial=0) > maxval:
        raise ValueError("pixel exceeds declared maxval")
    return data.reshape(h, w)


def scan_peak_oracle(l, w=1.0):
    # maximize r^(2|l|) exp(-2 r^2 / w^2) on a fine 1-D grid
    r = np.linspace(1e-6, 4 * w, 200001)
    return float(r[np.argmax(2 * abs(l) * np.log(r) - 2 * r**2 / w**2)])


def test_lg_amplitude_on_axis():
    g = LGMode(0, 1.0)
    center = lg_amplitude(np.array(0.0), np.array(0.0), g)
    assert center.imag == pytest.approx(0.0, abs=1e-15)
    assert center.real > 0
    off = lg_amplitude(np.array(0.7), np.array(0.3), g)
    assert abs(off) < abs(center)
    for l in (1, 2, 3):
        assert lg_amplitude(np.array(0.0), np.array(1.0), LGMode(l, 1.0)) == 0


def test_peak_radius_matches_scan_oracle():
    assert scan_peak_oracle(3) == pytest.approx(math.sqrt(1.5), abs=1e-3)
    assert peak_radius(LGMode(3, 1.0)) == pytest.approx(1.224744871391589, abs=1e-12)
    assert peak_radius(LGMode(3, 1.0)) == pytest.approx(scan_peak_oracle(3), abs=1e-3)
    assert peak_radius(LGMode(0, 1.0)) == 0.0


def test_mode_normalization_under_quadrature():
    n, extent = GRID
    r, theta = pixel_polar(n, extent)
    px_area = (extent / n) ** 2
    for l in (0, 1, 3):
        amp = lg_amplitude(r, theta, LGMode(l, 1.0))
        assert float(np.sum(np.abs(amp) ** 2) * px_area) == pytest.approx(1.0, abs=1e-3)


def test_mode_orthonormality_on_grid():
    n, extent = GRID
    px_area = (extent / n) ** 2
    r, theta = pixel_polar(n, extent)
    fields = np.stack([lg_amplitude(r, theta, LGMode(l, 1.0)) for l in (-2, 0, 1, 3)])
    gram = np.einsum("aij,bij->ab", fields.conj(), fields) * px_area
    assert np.allclose(gram, np.eye(4), atol=1e-3)


def test_pixel_polar_orientation():
    r, theta = pixel_polar(16, 8.0)
    # rightmost pixel of the center row points along theta = 0
    assert abs(theta[7, 15]) < 0.2
    # top row points upward (theta near pi/2)
    assert abs(theta[0, 8] - np.pi / 2) < 0.2
    assert r[7, 7] == r[8, 8]


# -- projection images ----------------------------------------------------------


def test_project_h_gives_uniform_vortex_ring():
    img = pump_image(pump_state(1, alphabet=OAM3), "H")
    # a single vortex is azimuthally uniform: no petal modulation survives the
    # fit, and the image inherits the full symmetry of the grid
    fit = petal_fit(angular_profile(img, 72, default_annulus(1.0, 1)), 1)
    assert fit.V < 1e-6
    assert np.allclose(img.pixels, img.pixels.T, atol=1e-12)
    assert np.allclose(img.pixels, img.pixels[::-1, :], atol=1e-12)
    # the field's own angular profile at the peak radius is flat
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    rp = peak_radius(LGMode(1, 1.0))
    vals = np.abs(lg_amplitude(np.full_like(theta, rp), theta, LGMode(1, 1.0))) ** 2
    assert np.std(vals) / np.mean(vals) < 1e-6
    assert img.pixels.max() == pytest.approx(1.0, abs=1e-12)


def test_project_d_gives_six_petals_at_l3():
    img = pump_image(pump_state(3, alphabet=OAM3), "D")
    hist = angular_profile(img, 72, default_annulus(1.0, 3))
    maxima = angular_maxima(hist)
    assert len(maxima) == 6
    spacing = np.diff(sorted(maxima))
    assert np.allclose(spacing, math.radians(60.0), atol=2 * 2 * np.pi / 72)


def test_zero_probability_projection_flagged_empty(tmp_path):
    # pump with alpha=1 has no V component at all
    block, weight = oam_block(pump_state(1, alpha=1.0, alphabet=OAM3), {"pol": pol_ket("V")})
    assert block is None and weight < 1e-15
    cfg = RunConfig.from_dict({"pump": {"l": 1, "alpha": 1.0}, "grid": {"n": 64}})
    manifest = run_pump_gallery(cfg, str(tmp_path))
    assert manifest["images"]["V"]["empty"]
    assert not read_pgm(tmp_path / "pump_V.pgm").any()


def test_unprojected_pump_is_uniform_ring():
    img = pump_image(pump_state(1, alphabet=OAM3), None)
    hist = angular_profile(img, 72, default_annulus(1.0, 1))
    fit = petal_fit(hist, 1)
    assert fit.V < 1e-6


# -- angular profiles -------------------------------------------------------------


def test_uniform_ring_bins_equal_within_pixelization():
    # constant-intensity annulus: bin sums track per-bin pixel area, which
    # evens out only once each wedge holds thousands of pixels
    n, extent = 2048, 2.4
    r, _ = pixel_polar(n, extent)
    ring = ((r >= 0.65) & (r <= 1.15)).astype(float)
    hist = angular_profile(FieldImage(ring, extent), 72, (0.65, 1.15))
    assert hist.bins.min() > 0
    assert (hist.bins.max() - hist.bins.min()) / hist.bins.max() < 0.02


def test_two_petal_profile_has_two_maxima():
    grid = (256, default_extent(1.0, 1))
    img = pump_image(pump_state(1, alphabet=OAM3), "D", grid)
    hist = angular_profile(img, 72, default_annulus(1.0, 1))
    maxima = angular_maxima(hist)
    assert len(maxima) == 2
    gap = circular_distance(maxima[0], maxima[1], 2 * np.pi)
    assert gap == pytest.approx(np.pi, abs=2 * np.pi / 72 + 1e-9)



@st.composite
def maxima_bins(draw) -> np.ndarray:
    """8 to 199 bins of noise on 0 to 12 petals; about a fifth rounded to a
    few levels, so the smoothed bins tie and make plateaus."""
    n = draw(st.integers(8, 199))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = (np.arange(n) + 0.5) * 2 * np.pi / n
    petals = draw(st.integers(0, 12))
    bins = 100.0 * (1.0 + 0.8 * np.cos(petals * theta + rng.uniform(0.0, 2 * np.pi)))
    bins += rng.normal(0.0, draw(st.sampled_from([0.0, 1.0, 10.0, 50.0])), n)
    if draw(st.integers(0, 4)) == 0:
        bins = np.round(bins / draw(st.sampled_from([10.0, 50.0, 200.0])))
    return bins


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bins=maxima_bins())
@example(bins=np.full(12, 3.0))  # flat: no maxima
@example(bins=np.array([0.0, 0, 3, 3, 3, 0, 0, 0, 3, 3, 3, 0]))  # tied plateaus
@example(bins=np.array([5.0, 1, 1, 1, 1, 1, 1, 1, 1, 5]))  # a plateau across the wrap
def test_angular_maxima_is_the_array_walk(bins):
    # the walk over Python floats gives the numpy walk's angles bit for bit
    hist = AngularHistogram(bins)
    got, expected = angular_maxima(hist), array_angular_maxima(hist)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_empty_annulus_raises():
    img = pump_image(pump_state(1, alphabet=OAM3), "H")
    with pytest.raises(ValueError):
        angular_profile(img, 72, (0.0001, 0.0002))


def test_histogram_validation():
    with pytest.raises(ValueError):
        AngularHistogram(np.ones(4))  # fewer than 8 bins


# -- petal fits --------------------------------------------------------------------


def synthetic_hist(l, theta0=0.0, background=0.0, nbins=72):
    centers = (np.arange(nbins) + 0.5) * 2 * np.pi / nbins
    vals = np.cos(l * (centers - theta0)) ** 2 + background
    return AngularHistogram(vals)


def test_petal_fit_self_consistency():
    fit = petal_fit(synthetic_hist(3), 3)
    assert fit.V == pytest.approx(1.0, abs=1e-6)
    assert min(fit.theta0, np.pi / 3 - fit.theta0) == pytest.approx(0.0, abs=1e-6)


def test_petal_fit_recovers_rotation():
    fit = petal_fit(synthetic_hist(3, theta0=math.radians(15.0)), 3)
    assert fit.theta0 == pytest.approx(math.radians(15.0), abs=1e-6)


def test_petal_fit_background_visibility():
    # cos^2 + 0.1 : (max - min)/(max + min) = 1/1.2 wait: max 1.1, min 0.1 -> 10/12
    fit = petal_fit(synthetic_hist(2, background=0.1), 2)
    assert fit.V == pytest.approx(1.0 / 1.2, abs=1e-9)


def test_petal_fit_mixture_background_visibility():
    # 0.9 cos^2 + 0.1 flat: V = 0.9 / 1.1
    nbins = 72
    centers = (np.arange(nbins) + 0.5) * 2 * np.pi / nbins
    vals = 0.9 * np.cos(3 * centers) ** 2 + 0.1
    fit = petal_fit(AngularHistogram(vals), 3)
    assert fit.V == pytest.approx(9.0 / 11.0, abs=1e-9)


def test_petal_fit_flat_flags_degenerate():
    fit = petal_fit(AngularHistogram(np.full(72, 2.5)), 3)
    assert fit.degenerate
    assert fit.V == 0.0
    assert math.isnan(fit.theta0)
    # flat at its own level, not nan: an empty sampled image must not make W nan
    assert fit.curve(np.array([0.0, 1.0])) == pytest.approx([2.5, 2.5])
    empty = petal_fit(AngularHistogram(np.zeros(72)), 3)
    assert empty.degenerate and float(empty.curve(0.3)) == 0.0


def test_petal_fit_argument_guards():
    with pytest.raises(ValueError):
        petal_fit(synthetic_hist(1, nbins=8), 3)  # needs more than 4l bins
    with pytest.raises(ValueError):
        petal_fit(synthetic_hist(2, nbins=8), 2)  # 4l bins alias cos(2l theta) away
    with pytest.raises(ValueError):
        petal_fit(synthetic_hist(1), 0)


def test_rotation_law_phase_to_angle():
    # adding phase phi on the -l amplitude rotates petals by phi / (2l)
    bin_width = 2 * np.pi / 72
    for l in (1, 2, 3):
        base = pump_image(pump_state(l, 0.0, alphabet=OAM3), "D")
        t0 = petal_fit(angular_profile(base, 72, default_annulus(1.0, l)), l).theta0
        for phi in (np.pi / 4, np.pi / 2, np.pi):
            img = pump_image(pump_state(l, phi, alphabet=OAM3), "D")
            fit = petal_fit(angular_profile(img, 72, default_annulus(1.0, l)), l)
            shift = circular_distance(fit.theta0, t0, np.pi / l)
            expected = phi / (2 * l)
            expected = min(expected % (np.pi / l), np.pi / l - expected % (np.pi / l))
            assert abs(shift - expected) <= bin_width


# -- serialization -----------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    img = pump_image(pump_state(1, alphabet=OAM3), "D", (64, 8.0))
    path = tmp_path / "petals.pgm"
    write_pgm(img, path)
    data = read_pgm(path)
    assert data.shape == (64, 64)
    expected = np.rint(img.pixels / img.pixels.max() * 65535)
    assert np.array_equal(data, expected)


def savetxt_pgm(img, path):
    """write_pgm's former np.savetxt writer, kept as its byte oracle."""
    px = img.pixels
    peak = px.max()
    scale = 65535 / peak if peak > 0 else 0.0
    quant = np.rint(px * scale).astype(int)
    header = f"P2\n{img.n} {img.n}\n65535"
    with open(path, "w") as fh:
        np.savetxt(fh, quant, fmt="%d", delimiter=" ", header=header, comments="")


def digit_edges_image():
    # every digit count and its edges, at row starts, inside rows and at row ends
    values = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535]
    return FieldImage(np.resize(np.array(values, dtype=float), (16, 16)), 4.0)


def gallery_image():
    pump = pump_state(6, alphabet=tuple(range(-6, 7)))
    return pump_image(pump, "D", (512, default_extent(1.0, 6)))


@pytest.mark.parametrize(
    "make_image",
    [
        digit_edges_image,
        lambda: FieldImage(np.zeros((16, 16)), 4.0),
        lambda: FieldImage(np.random.default_rng(19).random((16, 16)), 4.0),
        gallery_image,
    ],
    ids=["digit-edges", "all-zero", "random-16", "gallery-l6-512"],
)
def test_pgm_bytes_match_savetxt(tmp_path, make_image):
    img = make_image()
    write_pgm(img, tmp_path / "new.pgm")
    savetxt_pgm(img, tmp_path / "oracle.pgm")
    assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "oracle.pgm").read_bytes()


DIGIT_EDGES = (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(16, 48),
    seed=st.integers(0, 2**32 - 1),
    unit=st.sampled_from([1.0, 0.37, 2.5e-7]),
    block_px=st.integers(1, 3000),
    zero=st.booleans(),
)
def test_pgm_bytes_match_savetxt_on_random_images(tmp_path_factory, n, seed, unit, block_px, zero):
    # values of every digit count, with each digit-count edge at the start
    # and at the end of some row; pixels are value * unit, so the writer's
    # own quantisation maps them back to (about) the drawn values
    rng = np.random.default_rng(seed)
    values = np.rint(10.0 ** rng.uniform(0.0, math.log10(65535.0), (n, n)))
    values[rng.random((n, n)) < 0.1] = 0.0
    values[rng.permutation(n)[: len(DIGIT_EDGES)], 0] = DIGIT_EDGES
    values[rng.permutation(n)[: len(DIGIT_EDGES)], -1] = DIGIT_EDGES
    img = FieldImage(np.zeros((n, n)) if zero else values * unit, 4.0)
    path = tmp_path_factory.mktemp("pgm")
    # small blocks: rows split into many blocks and a short last block
    with mock.patch.object(lgmodes, "PGM_BLOCK_PX", block_px):
        write_pgm(img, path / "new.pgm")
    savetxt_pgm(img, path / "oracle.pgm")
    assert (path / "new.pgm").read_bytes() == (path / "oracle.pgm").read_bytes()


def test_pgm_writer_memory_does_not_grow_with_the_image(tmp_path):
    # every value 4 or 5 digits long, the longest text; the former
    # digit-plane writer peaked at 27.7 B/px on this image and at 24.0 B/px
    # on 1024^2 gallery frames
    n = 1024
    img = FieldImage(np.random.default_rng(0).random((n, n)), 4.0)
    tracemalloc.start()
    try:
        write_pgm(img, tmp_path / "big.pgm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n**2 < 24.0
    assert (tmp_path / "big.pgm").stat().st_size > 5 * n * n


def test_pgm_of_a_subnormal_peak_is_full_scale(tmp_path):
    # 65535 / 1e-310 overflows to inf, so such a peak is divided out first
    write_pgm(FieldImage(np.full((16, 16), 1e-310), 4.0), tmp_path / "tiny.pgm")
    data = read_pgm(tmp_path / "tiny.pgm")
    assert data.shape == (16, 16)
    assert np.all(data == 65535)


def test_pgm_words_are_each_values_text():
    # word v is f"{v} " in its low bytes, NUL-padded to 8
    words = lgmodes._pgm_words()
    assert words.dtype == np.dtype("<u8") and words.shape == (lgmodes.PGM_MAXVAL + 1,)
    assert not words.flags.writeable
    raw = words.tobytes()
    for v in range(lgmodes.PGM_MAXVAL + 1):
        assert raw[8 * v : 8 * v + 8] == f"{v} ".encode().ljust(8, b"\0"), v


def test_pgm_header_format(tmp_path):
    img = FieldImage(np.ones((16, 16)), 4.0)
    path = tmp_path / "flat.pgm"
    write_pgm(img, path)
    head = path.read_text().split()[:4]
    assert head == ["P2", "16", "16", "65535"]


def test_histogram_csv_format(tmp_path):
    hist = synthetic_hist(1, nbins=8)
    path = tmp_path / "profile.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_center_deg,value"
    assert len(lines) == 9
    first_center = float(lines[1].split(",")[0])
    assert first_center == pytest.approx(22.5)


def test_render_determinism():
    a = pump_image(pump_state(2, alphabet=OAM3), "L", (128, 10.0))
    b = pump_image(pump_state(2, alphabet=OAM3), "L", (128, 10.0))
    assert np.array_equal(a.pixels, b.pixels)


def test_field_image_validation():
    with pytest.raises(ValueError):
        FieldImage(np.ones((8, 8)), 4.0)  # too small
    with pytest.raises(NumericalError):
        FieldImage(-np.ones((16, 16)), 4.0)
    with pytest.raises(NumericalError):
        FieldImage(np.full((16, 16), np.nan), 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -0.0])
@pytest.mark.parametrize("where", [0, 137, -1])
def test_field_image_rejects_one_bad_pixel(bad, where):
    # the check is two reductions, min >= 0 and max < inf: one NaN, infinity
    # or negative pixel anywhere fails it, and -0.0 is not negative
    pixels = np.random.default_rng(3).random((17, 17))
    pixels.reshape(-1)[where] = bad
    if bad == 0.0:
        assert FieldImage(pixels, 4.0).pixels.reshape(-1)[where] == 0.0
    else:
        with pytest.raises(NumericalError):
            FieldImage(pixels, 4.0)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_only_a_drawn_image_skips_the_value_check(bad):
    # FieldImage.drawn takes Poisson counts as they are, for their values
    # cannot fail the check; every other image is checked in full. The shape
    # and extent are checked either way
    pixels = np.random.default_rng(3).random((17, 17))
    pixels[4, 5] = bad
    with pytest.raises(NumericalError):
        FieldImage(pixels, 4.0)
    img = FieldImage.drawn(pixels, 4.0, {"k": 1})
    assert img.pixels is pixels and img.extent == 4.0 and img.meta == {"k": 1}
    with pytest.raises(ValueError, match="square"):
        FieldImage.drawn(np.ones((8, 8)), 4.0, {})
    with pytest.raises(ValueError, match="extent"):
        FieldImage.drawn(np.ones((16, 16)), 0.0, {})

# -- held factors, renders and bins ------------------------------------------------

# a base key, then keys that each differ from it in one field only, so a
# cache that left a field out of its key hands back a wrong array, and a
# gallery-size +-l pair
STACK_KEYS = [
    ((-1, 0, 1), 32, 6.0, 1.0),
    ((-2, -1, 0, 1, 2), 32, 6.0, 1.0),
    ((-1, 0, 1), 40, 6.0, 1.0),
    ((-1, 0, 1), 32, 7.0, 1.0),
    ((-1, 0, 1), 32, 6.0, 1.3),
    ((-6, 6), 512, default_extent(1.0, 6), 1.0),
]


def interleaved(keys):
    """base, k1, base, k2, ..., base: every key revisits a stale held entry."""
    out = [keys[0]]
    for key in keys[1:]:
        out += [key, keys[0]]
    return out


def direct_factors(alphabet, n, extent, waist):
    """The documented factors, from lg_amplitude: its real part at theta = 0
    is the envelope, bit for bit."""
    r, theta = pixel_polar(n, extent)
    out = {}
    for m in sorted({abs(a) for a in alphabet}):
        ring = lg_amplitude(r, 0.0, LGMode(m, waist)).real ** 2
        trig = None
        if m and m in alphabet and -m in alphabet:
            trig = np.stack([np.cos(theta * (2 * m)), np.sin(theta * (2 * m))])
        out[m] = (ring, trig)
    return out


def same_factors(a, b):
    return a.keys() == b.keys() and all(
        same_bits(a[m][0], b[m][0])
        and (a[m][1] is None if b[m][1] is None else same_bits(a[m][1], b[m][1]))
        for m in a
    )


def direct_render(rho, key):
    """A fresh render: the same call with no held factors or kept means."""
    with mock.patch.object(lgmodes, "_held_stack", None):
        return render(rho, key)


COUNT, FLOOR = 1.0e5, 0.25  # a heralded image's event count and accidental floor


def count_mean(rho, key):
    """The count mean a heralded image renders of rho, the memo's one entry kind."""
    alphabet, n, extent, waist = key
    return render_from_density(rho, alphabet, (n, extent), waist, count=COUNT, floor=FLOOR)


def direct_mean(rho, key):
    """A fresh count mean: the same call with no held factors or kept means."""
    with mock.patch.object(lgmodes, "_held_stack", None):
        return count_mean(rho, key)


def same_mean(a, b):
    return same_bits(a.pixels, b.pixels) and a[1:] == b[1:]


def random_block(rng, alphabet, m=None):
    """A random positive block supported on the charges +-m of the alphabet
    (a random |m| of it by default)."""
    alphabet = list(alphabet)
    if m is None:
        m = int(rng.choice(sorted({abs(a) for a in alphabet})))
    idx = sorted({alphabet.index(a) for a in (m, -m) if a in alphabet})
    a = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
    block = np.zeros((len(alphabet),) * 2, dtype=complex)
    block[np.ix_(idx, idx)] = a @ a.conj().T
    return block


def render(rho, key):
    alphabet, n, extent, waist = key
    return render_from_density(rho, alphabet, (n, extent), waist)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_mode_stack_interleaved_keys_match_direct():
    for key in interleaved(STACK_KEYS):
        factors = mode_stack(*key)
        assert same_factors(factors, direct_factors(*key))
        for arr in (a for arrays in factors.values() for a in arrays if a is not None):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    l=st.integers(0, 12),
    reverse=st.booleans(),
    n=st.integers(16, 80),
    extent=st.floats(0.0, 1e3, exclude_min=True),
    waist=st.floats(0.1, 10.0),
)
def test_mode_stack_holds_direct_bits(l, reverse, n, extent, waist):
    # the factors hold the bits of the documented evaluation, and the ring
    # is lg_amplitude's squared modulus at every pixel angle
    alphabet = (-1, 0, 1) if l == 0 else (-l, l)
    key = (alphabet[::-1] if reverse else alphabet, n, extent, waist)
    factors = mode_stack(*key)
    assert same_factors(factors, direct_factors(*key))
    r, theta = pixel_polar(n, extent)
    for m, (ring, _) in factors.items():
        modulus = np.abs(lg_amplitude(r, theta, LGMode(m, waist))) ** 2
        assert np.abs(ring - modulus).max() <= 1e-15 * modulus.max()


def test_new_stack_key_drops_the_held_stack():
    first = weakref.ref(mode_stack(*STACK_KEYS[0])[1][0])
    gc.collect()
    assert first() is not None  # held between calls
    assert mode_stack(*STACK_KEYS[0])[1][0] is first()
    mode_stack(*STACK_KEYS[1])
    gc.collect()
    assert first() is None


def test_render_interleaved_keys_match_direct():
    rng = np.random.default_rng(7)
    blocks = {key[0]: [random_block(rng, key[0]) for _ in range(2)] for key in STACK_KEYS}
    # three count means of each block per visit: made, kept, returned from the
    # memo; and a render without a count, made afresh every time
    for key in interleaved(STACK_KEYS):
        for rho in blocks[key[0]]:
            for _ in range(3):
                assert same_mean(count_mean(rho, key), direct_mean(rho, key))
            assert same_bits(render(rho, key), direct_render(rho, key))


def test_render_keeps_only_repeated_blocks():
    key = STACK_KEYS[0]
    mode_stack(*STACK_KEYS[1])  # start from factors with nothing kept
    rho = random_block(np.random.default_rng(3), key[0], 1)
    once = count_mean(rho, key)
    assert once.pixels.flags.writeable
    first = weakref.ref(once.pixels)
    del once
    gc.collect()
    assert first() is None  # a block rendered once is not kept

    kept = count_mean(rho, key)
    assert not kept.pixels.flags.writeable
    with pytest.raises(ValueError):
        kept.pixels[0, 0] = 1.0
    assert count_mean(rho, key) is kept
    second = weakref.ref(kept.pixels)
    del kept
    gc.collect()
    assert second() is not None
    mode_stack(*STACK_KEYS[1])  # kept means go with their factors
    gc.collect()
    assert second() is None


def test_a_countless_render_touches_no_kept_mean():
    # a render without a count, such as the gallery's, is never repeated by a
    # bench: it neither reads nor writes the memo, with a kept mean of the
    # same block on the same factors, and each is the caller's own array
    key = STACK_KEYS[0]
    mode_stack(*STACK_KEYS[1])
    rho = random_block(np.random.default_rng(3), key[0], 1)
    kept = [count_mean(rho, key) for _ in range(2)][-1]
    held = lgmodes._held_stack
    with mock.patch.object(held, "means", mock.NonCallableMock(spec=[])) as memo:
        renders = [render(rho, key) for _ in range(3)]
    assert memo.mock_calls == []
    assert lgmodes._held_stack is held and len(held.means) == 1
    assert next(iter(held.means.values())) is kept
    assert all(r.flags.writeable for r in renders)
    assert renders[0] is not renders[1] and same_bits(renders[0], renders[1])
    assert same_bits(renders[0], direct_render(rho, key))


def test_kept_renders_are_capped():
    # the memo tracks at most MAX_KEPT_RENDERS count means, made once or kept
    key = STACK_KEYS[0]
    mode_stack(*STACK_KEYS[1])
    rng = np.random.default_rng(5)
    blocks = [random_block(rng, key[0]) for _ in range(lgmodes.MAX_KEPT_RENDERS + 3)]
    for _ in range(2):
        for rho in blocks:
            count_mean(rho, key)
    assert len(lgmodes._held_stack.means) == lgmodes.MAX_KEPT_RENDERS
    kept = [count_mean(rho, key) for rho in blocks]
    assert sum(not m.pixels.flags.writeable for m in kept) == lgmodes.MAX_KEPT_RENDERS
    for rho, m in zip(blocks, kept):
        assert same_mean(m, direct_mean(rho, key))


def test_a_kept_block_is_not_parsed_again():
    # the memo is read before pair_terms: the first two count means parse the
    # block (the second keeps it), and the third is returned unparsed
    key = STACK_KEYS[0]
    mode_stack(*STACK_KEYS[1])
    rho = random_block(np.random.default_rng(3), key[0], 1)
    with mock.patch.object(lgmodes, "pair_terms", wraps=lgmodes.pair_terms) as parse:
        means = [count_mean(rho, key) for _ in range(3)]
    assert parse.call_count == 2
    assert means[2] is means[1] and same_mean(means[2], direct_mean(rho, key))


def test_a_stray_coherence_block_raises_on_warm_factors():
    # a block pair_terms refuses raises on every render, with a kept block
    # on the same factors, and is neither kept nor tracked
    key = STACK_KEYS[0]
    mode_stack(*STACK_KEYS[1])
    good = random_block(np.random.default_rng(4), key[0], 1)
    for _ in range(3):
        render_from_density(good, key[0], key[1:3], key[3], count=100.0)
    held = lgmodes._held_stack
    (kept,) = held.means.values()
    assert kept is not None
    stray = good.copy()
    stray[0, 1] = stray[1, 0] = 0.5  # links -1 and 0
    for _ in range(3):
        with pytest.raises(NumericalError, match="coherences"):
            render_from_density(stray, key[0], key[1:3], key[3], count=100.0)
    assert lgmodes._held_stack is held and len(held.means) == 1
    assert next(iter(held.means.values())) is kept

def test_concurrent_renders_match_direct():
    # more workers than cores and a short switch interval, so threads swap
    # the held factors under each other between lookup and store
    rng = np.random.default_rng(11)
    blocks = {key[0]: [random_block(rng, key[0]) for _ in range(3)] for key in STACK_KEYS}
    jobs = [(rho, key) for key in interleaved(STACK_KEYS) for rho in blocks[key[0]]] * 3
    expected = [direct_mean(rho, key) for rho, key in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(count_mean, rho, key) for rho, key in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(same_mean(a, b) for a, b in zip(got, expected))


RENDER_HASHES = """
import hashlib
import numpy as np
from hesim import lgmodes
for l in (1, 3, 6):
    k = 2 * l + 1
    a = np.random.default_rng(l).normal(size=(2, 2)) @ [1, 1j]
    m = np.zeros((k, k), dtype=complex)
    m[np.ix_([0, -1], [0, -1])] = np.outer(a, a.conj())  # on the +-l pair
    grid = (256, lgmodes.default_extent(1.0, l))
    out = lgmodes.render_from_density(m, range(-l, l + 1), grid, 1.0)
    print(l, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_blas_thread_count_does_not_move_a_render():
    src = str(Path(lgmodes.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", RENDER_HASHES],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        hashes.append(run.stdout.split())
    assert len(hashes[0]) == 6
    assert hashes[0] == hashes[1]


def direct_profile(pixels, extent, nbins, annulus):
    r, theta = pixel_polar(pixels.shape[0], extent)
    mask = (r >= annulus[0]) & (r <= annulus[1])
    idx = np.minimum((theta[mask] / (2 * np.pi) * nbins).astype(int), nbins - 1)
    return np.bincount(idx, weights=pixels[mask], minlength=nbins)


def test_angular_profile_interleaved_keys_match_direct():
    rng = np.random.default_rng(13)
    # (n, extent, annulus, nbins): a base, then one field changed at a time
    keys = [
        (32, 6.0, (1.0, 2.0), 16),
        (40, 6.0, (1.0, 2.0), 16),
        (32, 7.0, (1.0, 2.0), 16),
        (32, 6.0, (0.8, 2.0), 16),
        (32, 6.0, (1.0, 2.4), 16),
        (32, 6.0, (1.0, 2.0), 24),
    ]
    for n, extent, annulus, nbins in interleaved(keys):
        pixels = rng.random((n, n))
        hist = angular_profile(FieldImage(pixels, extent), nbins, annulus)
        assert same_bits(hist.bins, direct_profile(pixels, extent, nbins, annulus))
    # an annulus with no pixel center still raises after a held entry
    with pytest.raises(ValueError):
        angular_profile(FieldImage(pixels, extent), nbins, (1e-4, 2e-4))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(16, 160),
    extent=st.floats(1e-3, 1e3),
    lo=st.floats(0.0, 1.0),
    width=st.floats(1e-6, 1.0),
)
def test_annulus_end_covers_the_profile_mask(n, extent, lo, width):
    # radii as fractions of the extent: the frame's corner centers sit near
    # 0.707, so an annulus may hold no pixel or reach past the frame
    annulus = (lo * extent, (lo + width) * extent)
    assume(annulus[0] < annulus[1])
    end = lgmodes.annulus_end(n, extent, annulus, 16)
    cfg = RunConfig.from_dict(
        {
            "pump": {"l": 1},
            "grid": {"n": n, "extent": extent},
            "analysis": {"annulus": list(annulus), "nbins": 16},
        }
    )
    pixels = np.random.default_rng(n).random((n, n)) + 1.0
    if end == 0:
        with pytest.raises(ConfigError):
            _render_plan(cfg, 1)
        with pytest.raises(ValueError):
            angular_profile(FieldImage(pixels, extent), 16, annulus)
        return
    assert _render_plan(cfg, 1) == ((n, extent), annulus)
    # the profile reads no pixel from end on, and reads pixel end - 1
    full = angular_profile(FieldImage(pixels, extent), 16, annulus).bins
    pixels.reshape(-1)[end:] = 0.0
    assert same_bits(angular_profile(FieldImage(pixels, extent), 16, annulus).bins, full)
    pixels[...] = 0.0
    pixels.reshape(-1)[end - 1] = 1.0
    assert angular_profile(FieldImage(pixels, extent), 16, annulus).bins.sum() == 1.0
