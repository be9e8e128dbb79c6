"""Laguerre-Gauss p=0 modes, their rendered images, and the fringe fit.

One fringe model, base * (1 + V cos(freq (theta - theta0))), serves both
readouts: fringe_fit fits it to a polarization sweep (freq 2) and, through
petal_fit, to the angular profile of a 2l-petal image (freq 2l). Images
are rendered from OAM density blocks, never from states: the module has no
quantum layer, and detection.oam_block takes the polarization step.

Geometry conventions (fixed, also used by the angular histogram):

* Images are square, pixels indexed (row, col). Pixel centers sit at
  x = (col - (N-1)/2) * extent/N and y = ((N-1)/2 - row) * extent/N,
  so row 0 is the top of the picture and +y points up.
* The polar angle is atan2(y, x) folded into [0, 2*pi); angular bin k of an
  nbins histogram covers [2*pi*k/nbins, 2*pi*(k+1)/nbins) and is reported
  by its center angle.
* Which lab direction is theta = 0 is a simulation convention; fitted petal
  orientations are only meaningful as differences between projections.

A render is a ring times a fringe. The charges +m and -m share one radial
envelope R_m (Allen, Beijersbergen, Spreeuw & Woerdman, PRA 45, 8185
(1992)), so a density block whose only coherences link +m and -m renders
as sum_m R_m^2 (d_m + 2 Re(c_m exp(2 i m theta))). pair_terms reads d_m and
c_m for the render and for the expectation route (analysis) alike, and
refuses any other coherence. The evaluation is elementwise, with no BLAS
call: identical inputs give bit-identical images on one numpy build and
CPU family.

The geometry is built once per grid quadrant. The pixel centers sit at
(i - c) * step with c = (N-1)/2, and i - c is exactly -(N-1-i - c) for odd
and even N, so x and y are exactly antisymmetric about the center lines.
hypot reads only their moduli, so r, and every function of r alone (the
rings R_m^2, the annulus mask), is evaluated on the top-left (N+1)//2
square and mirrored left-right and top-bottom, with the bits a full-grid
evaluation gives. The angle is not symmetric this way and is taken on the
full grid, or for the angular bins on the annulus pixels only.

Renders repeat: every bootstrap draw of a witness row renders the same four
density blocks on one grid, each made into the same mean count image. So
the module holds the render factors of the last grid; the results of
renders repeated on them, 8 B per pixel each: a heralded image's count
mean, kept in place of its intensity with its sum and max, or the
intensity of a render made without a count; and the flat pixel index and
bin index of the last angular annulus. All are read-only and have the bits
a fresh computation gives. One lock guards the holders against a caller
that renders from several threads.
"""

import functools
import math
import struct
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LGMode:
    """Single-ring Laguerre-Gauss mode (radial order zero)."""

    l: int
    waist: float = 1.0

    def __post_init__(self):
        if self.waist <= 0:
            raise ValueError("waist must be positive")


# the largest |l| whose LG normalisation sqrt(2 / (pi |l|!)) a float holds
MAX_CHARGE = next(l for l in range(1 << 16) if math.factorial(l + 1) > math.nextafter(math.inf, 0))


def _envelope(r, l: int, waist: float) -> np.ndarray:
    """The real radial envelope of charge l, shared by +l and -l."""
    r = np.asarray(r, dtype=float)
    al = abs(int(l))
    c = math.sqrt(2.0 / (math.pi * math.factorial(al))) / waist
    return c * (np.sqrt(2.0) * r / waist) ** al * np.exp(-(r * r) / (waist * waist))


def lg_amplitude(r, theta, mode: LGMode) -> np.ndarray:
    """Normalised transverse amplitude of a p=0 LG mode.

    A(r, theta) = C * (sqrt(2) r / w)^|l| * exp(-r^2/w^2) * exp(i l theta)
    with C = sqrt(2 / (pi |l|!)) / w so that the squared modulus integrates
    to one over the plane.
    """
    theta = np.asarray(theta, dtype=float)
    return _envelope(r, mode.l, mode.waist) * np.exp(1j * mode.l * theta)


def peak_radius(mode: LGMode) -> float:
    """Radius of maximum intensity, w * sqrt(|l|/2) (zero for l = 0)."""
    return mode.waist * math.sqrt(abs(mode.l) / 2.0)


def default_extent(waist: float, max_abs_l: int) -> float:
    # wide enough that the brightest ring and its tails fit with margin
    return 8.0 * waist * math.sqrt(max_abs_l / 2.0 + 1.0)


def default_annulus(waist: float, l: int) -> tuple:
    """Analysis annulus bracketing the petal ring at +-35%."""
    if l == 0:
        raise ValueError("a Gaussian mode has no petal ring to bracket")
    rp = peak_radius(LGMode(l, waist))
    return (0.65 * rp, 1.35 * rp)


@dataclass
class FieldImage:
    """Pixel intensities plus the physical size they were sampled over."""

    pixels: np.ndarray
    extent: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[0] != px.shape[1] or px.shape[0] < 16:
            raise ValueError(f"image must be square and at least 16x16, got {px.shape}")
        # two reductions: a NaN fails both comparisons, -0.0 passes the first
        if not (px.min() >= 0.0 and px.max() < np.inf):
            raise NumericalError("image has negative or non-finite pixels")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        self.pixels = px

    @property
    def n(self) -> int:
        return self.pixels.shape[0]


def _pixel_xy(n: int, extent: float):
    """x as a row and y as a column, at the pixel centers of an n x n image."""
    step = extent / n
    c = (n - 1) / 2.0
    cols = (np.arange(n) - c) * step
    rows = (c - np.arange(n)) * step
    return cols[None, :], rows[:, None]


def _quadrant_r(n: int, extent: float) -> np.ndarray:
    """np.hypot(x, y) on the top-left (n+1)//2 square of the pixel centers."""
    h = (n + 1) // 2
    x, y = _pixel_xy(n, extent)
    return np.hypot(x[:, :h], y[:h])


def _mirrored(quadrant: np.ndarray, n: int) -> np.ndarray:
    """The n x n array whose top-left (n+1)//2 square is quadrant, mirrored
    left-right and top-bottom; an odd n shares the center row and column."""
    h = quadrant.shape[0]
    out = np.empty((n, n), dtype=quadrant.dtype)
    out[:h, :h] = quadrant
    out[:h, h:] = quadrant[:, : n - h][:, ::-1]
    out[h:] = out[: n - h][::-1]
    return out


def _annulus_mask(n: int, extent: float, r_min: float, r_max: float) -> np.ndarray:
    """Whether each pixel center of an n x n image has r_min <= r <= r_max."""
    r = _quadrant_r(n, extent)
    return _mirrored((r >= r_min) & (r <= r_max), n)


def _folded_angle(y, x) -> np.ndarray:
    """atan2(y, x) folded into [0, 2 pi) by one masked add (see pixel_polar)."""
    theta = np.arctan2(y, x)
    np.add(theta, TWO_PI, out=theta, where=theta < 0)
    return theta


def pixel_polar(n: int, extent: float):
    """(r, theta) arrays at the pixel centers of an n x n image.

    r is hypot(x, y), built from the top-left quadrant (module docstring).
    theta folds atan2(y, x), which lies in [-pi, pi], into [0, 2 pi) with
    one masked add of 2 pi. On that range this is np.mod's arithmetic bit
    for bit (fmod returns the angle, and a negative one gets 2 pi added),
    except that np.mod maps -0.0 to +0.0. atan2 returns -0.0 only for a
    y of -0.0, and the grid never makes one: y is c - row times a positive
    step, and c - row rounds an exact 0 to +0.0.
    """
    x, y = _pixel_xy(n, extent)  # theta broadcasts them to (n, n)
    return _mirrored(_quadrant_r(n, extent), n), _folded_angle(y, x)


def annulus_end(n: int, extent: float, annulus) -> int:
    """The flat (C-order) index one past the last pixel center of an n x n
    image that angular_profile's mask puts in the annulus; 0 if it holds none.
    The pixels from there on are never read by an angular profile."""
    inside = np.flatnonzero(_annulus_mask(n, extent, float(annulus[0]), float(annulus[1])))
    return int(inside[-1]) + 1 if inside.size else 0


def finite_on_grid(l: int, n: int, extent: float, waist: float) -> bool:
    """Whether the charge-l amplitude is finite at every pixel center of an n x n image:
    its radial power (sqrt(2) r / w)^|l| overflows first at the corner pixel centers."""
    x, y = _pixel_xy(n, extent)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(lg_amplitude(np.hypot(x[0, 0], y[0, 0]), 0.0, LGMode(l, waist))))


def pair_terms(block: np.ndarray, alphabet) -> dict:
    """{m: (d_m, c_m)} for each |m| of the alphabet, in increasing m: d_m =
    rho(-m,-m) + rho(+m,+m) over the charges present, and c_m = rho(+m,-m)
    (0 at m = 0 or without both charges). Any other coherence over 1e-10 of
    the block's largest entry raises NumericalError."""
    index = {a: i for i, a in enumerate(alphabet)}
    off = np.array(block, dtype=complex)
    np.fill_diagonal(off, 0.0)
    terms = {}
    for m in sorted({abs(a) for a in index}):
        d = sum(float(block[index[q], index[q]].real) for q in {m, -m} if q in index)
        c = 0j
        if m and m in index and -m in index:
            c = complex(block[index[m], index[-m]])
            off[index[m], index[-m]] = off[index[-m], index[m]] = 0.0
        terms[m] = (d, c)
    if np.abs(off).max(initial=0.0) > 1e-10 * np.abs(block).max(initial=0.0):
        raise NumericalError("OAM block carries coherences outside the +-m pairs")
    return terms


MAX_KEPT_RENDERS = 8  # per held stack: kept results, and renders tracked as made once
# bytes a render holds per pixel, at most: the alphabet's factors (two rings and
# a cos/sin pair at l = 0), 32 B; its result, a fringe and the sin row's product
# it adds, 24 B, budgeted at 32 B; MAX_KEPT_RENDERS kept count means (or
# intensities, for renders without a count), 8 B each
RENDER_BYTES_PER_PIXEL = 32 + 32 + 8 * MAX_KEPT_RENDERS


@dataclass
class _HeldStack:
    """The render factors of the last grid, with the renders that repeated on them."""

    key: tuple
    factors: dict
    seen: set = field(default_factory=set)  # render keys made once
    kept: dict = field(default_factory=dict)  # render key -> read-only result


_lock = threading.Lock()
_held_stack = None
_held_bins = None  # ((n, extent, r_min, r_max, nbins), flat pixel index, bin index)


def mode_stack(alphabet, n: int, extent: float, waist: float) -> dict:
    """The render factors of an OAM alphabet on the n x n grid, read-only.

    {m: (ring, trig)} for each |m| of the alphabet: ring is R_m^2, and trig
    stacks cos(2 m theta) and sin(2 m theta) where +m and -m both belong to
    the alphabet (else None). The last factors are held; a new key drops
    them before building the next, so the module never holds two.
    """
    global _held_stack
    alphabet = tuple(alphabet)
    key = (alphabet, n, extent, waist)
    with _lock:
        if _held_stack is None or _held_stack.key != key:
            _held_stack = None
            r, theta = pixel_polar(n, extent)
            quadrant = r[: (n + 1) // 2, : (n + 1) // 2]  # the rings depend on r alone
            factors = {}
            for m in sorted({abs(a) for a in alphabet}):
                ring, trig = _mirrored(np.square(_envelope(quadrant, m, waist)), n), None
                if m and m in alphabet and -m in alphabet:
                    # the angle goes in the sin row, and cos and sin read it there
                    trig = np.empty((2, n, n))
                    angle = np.multiply(theta, 2 * m, out=trig[1])
                    np.cos(angle, out=trig[0])
                    np.sin(angle, out=angle)
                    trig.setflags(write=False)
                ring.setflags(write=False)
                factors[m] = (ring, trig)
            _held_stack = _HeldStack(key, factors)
        return _held_stack.factors


class CountMean(NamedTuple):
    """A heralded image's mean count per pixel, with its sum and its largest value."""

    pixels: np.ndarray
    expected_counts: float
    peak: float


def _count_mean(intensity: np.ndarray, count: float, floor: float) -> CountMean:
    """floor + count * intensity / intensity.sum(), made in intensity's buffer:
    scaled by count, divided by the sum, then floor added; floor everywhere
    when the sum is not positive."""
    total = intensity.sum()
    if total > 0:
        intensity *= count
        intensity /= total
        intensity += floor
    else:
        intensity.fill(floor)
    return CountMean(intensity, float(intensity.sum()), float(intensity.max(initial=0.0)))


def render_from_density(
    rho_oam: np.ndarray, alphabet, grid, waist: float, *, count: float | None = None, floor: float = 0.0
) -> "np.ndarray | CountMean":
    """Intensity of an OAM-space density operator on the pixel grid:
    sum_m R_m^2 (d_m + 2 Re(c_m exp(2 i m theta))), from pair_terms.

    rho_oam may be unnormalised (its trace carries the event rate); the
    returned array integrates to trace * (flux captured by this grid). Each
    fringe is clipped at 0 before its ring multiplies it, so rounding on a
    node leaves no negative pixel.

    With a count, the intensity is made into a heralded image's mean count
    image instead: the count of events spread in proportion to it, plus a
    flat floor per pixel (see _count_mean), returned as a CountMean.

    The second render of a block on the held factors, with the same count
    and floor bits, keeps its result read-only for later renders of them:
    a CountMean's pixels, or the intensity.
    """
    n, extent = int(grid[0]), float(grid[1])
    rho = np.asarray(rho_oam, dtype=complex)
    alphabet = tuple(alphabet)
    k = len(alphabet)
    if rho.shape != (k, k):
        raise ValueError(f"density block {rho.shape} does not match alphabet size {k}")
    terms = {m: dc for m, dc in pair_terms(rho, alphabet).items() if any(dc)}
    factors = mode_stack(alphabet, n, extent, waist)
    # the bits of count and floor, not their values: -0.0 == 0.0 gives other bits
    key = (rho.tobytes(), None if count is None else struct.pack("<2d", count, floor))
    keep = False
    with _lock:
        held = _held_stack
        if held is not None and held.factors is factors:
            if key in held.kept:
                return held.kept[key]
            keep = key in held.seen and len(held.kept) < MAX_KEPT_RENDERS
            if not keep and len(held.seen) < MAX_KEPT_RENDERS:
                held.seen.add(key)
    out = None if terms else np.zeros((n, n))
    for m, (d, c) in terms.items():
        ring, trig = factors[m]
        if c:
            # 2 Re(c exp(2 i m theta)): trig dotted with (2 Re c, -2 Im c), the
            # cos row's product plus the sin row's, as a sum over the stack adds them
            fringe = np.multiply(trig[0], 2.0 * c.real)
            fringe += trig[1] * (-2.0 * c.imag)
            fringe += d
            term = np.multiply(np.maximum(fringe, 0.0, out=fringe), ring, out=fringe)
        else:
            term = ring * d
        out = term if out is None else np.add(out, term, out=out)
    result = out if count is None else _count_mean(out, count, floor)
    if keep:
        out.setflags(write=False)
        with _lock:
            held.seen.discard(key)
            result = held.kept.setdefault(key, result)
    return result


# -- angular analysis --------------------------------------------------------

MIN_PROMINENCE = 0.1  # of the smoothed histogram range, for angular_maxima


@dataclass
class AngularHistogram:
    """Counts (or intensity) summed per polar-angle bin inside an annulus."""

    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=float)
        if b.ndim != 1 or b.size < 8:
            raise ValueError("need at least 8 angular bins")
        if not np.all(np.isfinite(b)):
            raise NumericalError("histogram has non-finite bins")
        self.bins = b

    @property
    def nbins(self) -> int:
        return self.bins.size

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.nbins) + 0.5) * TWO_PI / self.nbins


def angular_profile(img: FieldImage, nbins: int, annulus: tuple) -> AngularHistogram:
    """Sum image pixels into polar-angle bins restricted to an annulus.

    The flat (C-order) index of the annulus pixels and their bin index are
    held for the last (grid, annulus, nbins); the pixels are read with take,
    in the order a boolean mask reads them.
    """
    global _held_bins
    r_min, r_max = float(annulus[0]), float(annulus[1])
    if not 0.0 <= r_min < r_max:
        raise ValueError(f"bad annulus ({r_min}, {r_max})")
    if nbins < 8:
        raise ValueError("need at least 8 angular bins")
    key = (img.n, img.extent, r_min, r_max, nbins)
    with _lock:
        if _held_bins is None or _held_bins[0] != key:
            flat = np.flatnonzero(_annulus_mask(img.n, img.extent, r_min, r_max))
            if not flat.size:
                raise ValueError("annulus contains no pixels on this grid")
            rows, cols = np.divmod(flat, img.n)
            x, y = _pixel_xy(img.n, img.extent)
            theta = _folded_angle(y[rows, 0], x[0, cols])  # on the annulus pixels only
            idx = np.minimum((theta / TWO_PI * nbins).astype(int), nbins - 1)
            flat.setflags(write=False)
            idx.setflags(write=False)
            _held_bins = (key, flat, idx)
        _, flat, idx = _held_bins
    bins = np.bincount(idx, weights=img.pixels.take(flat), minlength=nbins)
    return AngularHistogram(bins)


def angular_maxima(hist: AngularHistogram) -> np.ndarray:
    """Bin-center angles of petal maxima.

    Bins get a one-bin circular smoothing, runs of equal values count as a
    single peak, and peaks whose prominence falls below MIN_PROMINENCE times
    the smoothed range are dropped. The pruning matters at N=256: per-bin
    pixel-area jitter puts percent-level wiggles on petal shoulders that a
    bare neighbor comparison would count as extra maxima. Returned angles are
    refined below one bin: a parabola through the peak and its neighbors, or
    the midpoint of an exactly tied plateau.
    """
    b = hist.bins
    n = b.size
    sm = (np.roll(b, 1) + b + np.roll(b, -1)) / 3.0
    rng = float(sm.max() - sm.min())
    if rng == 0.0:
        return hist.bin_centers[:0]
    # plateau-aware candidates: maximal circular runs of one value, strictly
    # above both sides, represented by the run's first bin
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
    for idx, s, run in sorted(keep):  # each candidate has its own idx
        if run > 1:
            # exact ties straddle the true peak; take the plateau midpoint
            frac = s + run / 2.0 - 0.5
        else:
            # sub-bin refinement: parabola through the peak and its neighbors
            ym, y0, yp = sm[(idx - 1) % n], sm[idx], sm[(idx + 1) % n]
            denom = ym - 2.0 * y0 + yp
            delta = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
            frac = idx + min(max(delta, -0.5), 0.5)
        angles.append(((frac + 0.5) * width) % TWO_PI)
    return np.array(angles)


@dataclass(frozen=True)
class Fringe:
    """A fitted fringe, base * (1 + V cos(freq (theta - theta0))), base its mean level.

    freq is 2 for a polarization sweep and 2l for a 2l-petal pattern. theta0
    is folded into [0, 2 pi / freq) by fold_phase. flags may hold
    "degenerate" (nothing to orient: V = 0, theta0 = nan), "clipped" (a V
    over 1, reported as 1) and "v_minus_sigma_subzero" (V less than one
    stderr above zero).
    """

    freq: int
    V: float
    theta0: float
    base: float
    stderr: float = 0.0
    flags: tuple = ()

    @property
    def degenerate(self) -> bool:
        return "degenerate" in self.flags

    def curve(self, theta) -> np.ndarray:
        if self.degenerate:  # flat at base; its theta0 is nan
            return np.full(np.shape(theta), self.base)
        return self.base * (1.0 + self.V * np.cos(self.freq * (np.asarray(theta) - self.theta0)))


def fold_phase(theta: float, period: float) -> float:
    """theta modulo period, in [0, period): a rounding below 0 folds to 0, not to period."""
    folded = theta % period
    return 0.0 if folded == period else folded


def fringe_fit(angles, values, freq: int):
    """Least-squares fringe m + a cos(freq t) + b sin(freq t), read as a Fringe.

    base = m and V = hypot(a, b) / m, with a delta-method stderr from the
    residual variance (nan at a level too small for that arithmetic); V is
    clipped to 1. One rule marks a fringe degenerate, for sweeps and petals
    alike: m <= 0 or V < 1e-12. An angle set that cannot separate the three
    terms raises NumericalError.

    ``values`` is one fringe's values (a Fringe is returned) or a (k, len)
    array of k fringes at the same angles (a list of k Fringes). The design
    matrix and its inverse normal matrix are built once for the batch; each
    row is its own lstsq solve, because one solve over k right-hand sides
    moves the last bits of the coefficients.
    """
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
    """The Fringe of one least-squares solve (see fringe_fit)."""
    m, a, b = coef
    if m <= 0:
        return Fringe(freq, 0.0, math.nan, 0.0, math.nan, ("degenerate",))
    resid = values - design @ coef
    cov = float(resid @ resid) / max(len(values) - 3, 1) * inv_normal
    amp = math.hypot(a, b)
    # delta method for V = sqrt(a^2 + b^2) / m; at a level so small that
    # 1/m^2 overflows, or the variance does, the stderr is unknown (nan)
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
    flags = ("clipped",) if amp / m > 1.0 + 1e-9 else ()  # genuine overshoot, not roundoff
    if v - stderr < 0.0:
        flags += ("v_minus_sigma_subzero",)
    theta0 = fold_phase(math.atan2(b, a) / freq, TWO_PI / freq)
    return Fringe(freq, float(v), theta0, float(m), stderr, flags)


def petal_fit(hist, l: int):
    """Fit the 2l-petal fringe to an angular histogram (see fringe_fit).

    ``hist`` is one AngularHistogram (a Fringe is returned) or a list of
    them with one bin count (a list of Fringes, from one fringe_fit batch).
    """
    l = int(l)
    if l < 1:
        raise ValueError("petal fit needs l >= 1")
    single = isinstance(hist, AngularHistogram)
    hists = [hist] if single else list(hist)
    nbins = {h.nbins for h in hists}
    if len(nbins) != 1:
        raise ValueError(f"petal fit needs histograms of one bin count, got {sorted(nbins)}")
    if hists[0].nbins <= 4 * l:
        # at 4l bins cos(2l theta) vanishes at every bin center
        raise ValueError(f"need more than {4 * l} bins to resolve 2l={2 * l} petals")
    fits = fringe_fit(hists[0].bin_centers, np.stack([h.bins for h in hists]), 2 * l)
    return fits[0] if single else fits


# -- serialization -----------------------------------------------------------

PGM_MAXVAL = 65535
PGM_BLOCK_PX = 1 << 16  # pixels write_pgm formats at a time


@functools.cache
def _pgm_words() -> np.ndarray:
    """The "%d " text of every value 0..PGM_MAXVAL, one read-only
    little-endian uint64 word each: first character in the lowest byte, the
    unused high bytes NUL. Built on first use, not at import."""
    rest = np.arange(PGM_MAXVAL + 1, dtype=np.uint32)
    words = np.full(rest.shape, ord(" "), dtype=np.uint64)
    for j in range(len(str(PGM_MAXVAL))):
        # the next digit from the right goes in front of the text so far,
        # while any digits are left (0 keeps its one)
        digit = (rest % 10 + ord("0")).astype(np.uint64)
        words = np.where((rest > 0) | (j == 0), (words << 8) | digit, words)
        rest //= 10
    words = words.astype("<u8")
    words.setflags(write=False)
    return words


def write_pgm(img: FieldImage, path) -> None:
    """Plain-text 16-bit PGM, max-normalised, row-major from the top row.

    Values are separated by one space and rows end in a newline. Each block
    of rows is quantised, looked up in the text table of _pgm_words and
    given its row-end newlines; bytes.translate then deletes the table's
    NUL padding from the block's bytes in one C pass, and the rest is
    written. Memory is bounded by the block, so it does not grow with the
    image.
    """
    px = img.pixels
    peak = float(px.max())
    scale = PGM_MAXVAL / peak if peak > 0 else 0.0
    n = img.n
    words = _pgm_words()
    rows = max(1, PGM_BLOCK_PX // n)
    with open(path, "wb") as fh:
        fh.write(f"P2\n{n} {n}\n{PGM_MAXVAL}\n".encode("ascii"))
        for top in range(0, n, rows):
            block = px[top : top + rows]
            # a peak below PGM_MAXVAL / DBL_MAX overflows the scale: divide first
            quant = block * scale if math.isfinite(scale) else block / peak * PGM_MAXVAL
            quant = np.rint(quant).astype(np.intp)
            text = words.take(quant).view(np.uint8).reshape(*quant.shape, 8)
            ends = text[:, -1]  # a view: the last value of each row
            ends[ends == ord(" ")] = ord("\n")
            fh.write(text.tobytes().translate(None, b"\0"))


def write_angle_csv(header: str, angles, values, path) -> None:
    """Two columns under ``header``: an angle in degrees and its value."""
    lines = [header]
    for a, v in zip(angles, values):
        lines.append(f"{math.degrees(a):.12g},{v:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_histogram_csv(hist: AngularHistogram, path) -> None:
    """Two columns: bin center in degrees, summed value."""
    write_angle_csv("bin_center_deg,value", hist.bin_centers, hist.bins, path)
