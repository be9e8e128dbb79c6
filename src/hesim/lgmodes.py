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

Rendering is a closed-form evaluation on the pixel grid with no stochastic
element: one BLAS matrix product mixes the mode stack by the density block,
and one real reduction pairs the result with the stack. Identical inputs
give bit-identical images on one numpy/OpenBLAS build and CPU family.
OpenBLAS picks its kernel for the CPU at run time, so another CPU family
may move the last bits; the BLAS thread count does not. A mode stack
evaluates each charge pair +-l once: the phase factor of -l is the bitwise
conjugate of that of +l, as long as the host's complex exponential is
conjugate-symmetric (tested), so the stack holds the bits of a direct
evaluation of every mode.

Renders repeat: every bootstrap draw of a witness row renders the same four
density blocks on one mode stack. So the module holds the last mode stack,
the intensities of blocks rendered more than once on it, and the pixel mask
and bin index of the last angular annulus. Held arrays are read-only and
hold the bits a fresh computation gives, so a repeat returns identical
images. The holders are module state, so one lock guards them against a
caller that renders from several threads; the product and its reduction
run outside it, so such threads share one stack without queueing on it.
"""

import functools
import math
import threading
from dataclasses import dataclass, field

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


def lg_amplitude(r, theta, mode: LGMode) -> np.ndarray:
    """Normalised transverse amplitude of a p=0 LG mode.

    A(r, theta) = C * (sqrt(2) r / w)^|l| * exp(-r^2/w^2) * exp(i l theta)
    with C = sqrt(2 / (pi |l|!)) / w so that the squared modulus integrates
    to one over the plane.
    """
    radial, phase = _lg_factors(r, theta, mode)
    return radial * phase


def _lg_factors(r, theta, mode: LGMode):
    """The real radial envelope and the unit phase factor whose product is
    lg_amplitude. The envelope depends on |l| only, and the phase argument
    of -l is the exact conjugate of that of +l."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    w = mode.waist
    al = abs(int(mode.l))
    c = math.sqrt(2.0 / (math.pi * math.factorial(al))) / w
    radial = c * (np.sqrt(2.0) * r / w) ** al * np.exp(-(r * r) / (w * w))
    return radial, np.exp(1j * mode.l * theta)


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
        if not np.all(np.isfinite(px)) or np.any(px < 0):
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


def pixel_polar(n: int, extent: float):
    """(r, theta) arrays at the pixel centers of an n x n image."""
    x, y = _pixel_xy(n, extent)
    r = np.hypot(x, y)  # broadcasts to (n, n)
    theta = np.mod(np.arctan2(y, x), TWO_PI)
    return r, theta


def annulus_on_grid(n: int, extent: float, annulus) -> bool:
    """Whether angular_profile finds a pixel center of an n x n image in the annulus."""
    r = np.hypot(*_pixel_xy(n, extent))
    return bool(((r >= annulus[0]) & (r <= annulus[1])).any())


def finite_on_grid(l: int, n: int, extent: float, waist: float) -> bool:
    """Whether the charge-l amplitude is finite at every pixel center of an n x n image:
    its radial power (sqrt(2) r / w)^|l| overflows first at the corner pixel centers."""
    x, y = _pixel_xy(n, extent)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(lg_amplitude(np.hypot(x[0, 0], y[0, 0]), 0.0, LGMode(l, waist))))


MAX_KEPT_RENDERS = 8  # per held stack: kept intensities, and blocks tracked as rendered once


@dataclass
class _HeldStack:
    """The last mode stack, with the renders that repeated on it."""

    key: tuple
    fields: np.ndarray
    seen: set = field(default_factory=set)  # density blocks rendered once
    kept: dict = field(default_factory=dict)  # density block -> read-only intensity


_lock = threading.Lock()
_held_stack = None
_held_bins = None  # ((n, extent, r_min, r_max, nbins), mask, bin index)


def mode_stack(alphabet, n: int, extent: float, waist: float) -> np.ndarray:
    """Complex field of every mode in the OAM alphabet, shape (len, n, n).

    Each field has the bits lg_amplitude gives, but a charge pair +-l takes
    one evaluation: the second charge of the pair reuses the radial envelope
    and multiplies it by the conjugated phase factor, which is the other
    charge's phase factor bit for bit (signed zeros included) while the
    host's complex exponential is conjugate-symmetric. Conjugating the
    finished field instead would flip the sign of zeros on the theta = 0 ray
    and where the envelope underflows.

    The last stack is held and returned read-only. A new key drops it before
    building the next, so the module never holds two.
    """
    global _held_stack
    alphabet = tuple(alphabet)
    key = (alphabet, n, extent, waist)
    with _lock:
        if _held_stack is None or _held_stack.key != key:
            _held_stack = None
            r, theta = pixel_polar(n, extent)
            # filled row by row: no per-mode arrays and no stacked copy
            fields = np.empty((len(alphabet), n, n), dtype=complex)
            held = {}  # charge -> its factors, kept for -charge later in the alphabet
            for i, l in enumerate(alphabet):
                if -l in held:
                    radial, phase = held.pop(-l)
                    np.conjugate(phase, out=phase)
                else:
                    radial, phase = _lg_factors(r, theta, LGMode(l, waist))
                    if l and -l in alphabet[i + 1 :]:
                        held[l] = radial, phase
                np.multiply(radial, phase, out=fields[i])
                del radial, phase
            fields.setflags(write=False)
            _held_stack = _HeldStack(key, fields)
        return _held_stack.fields


def render_from_density(rho_oam: np.ndarray, alphabet, grid, waist: float) -> np.ndarray:
    """Intensity of an OAM-space density operator on the pixel grid.

    rho_oam may be unnormalised (its trace carries the event rate); the
    returned array integrates to trace * (flux captured by this grid).
    The second render of a block on the held stack keeps its intensity,
    read-only, and later renders of that block return it.
    """
    n, extent = int(grid[0]), float(grid[1])
    rho = np.asarray(rho_oam, dtype=complex)
    k = len(tuple(alphabet))
    if rho.shape != (k, k):
        raise ValueError(f"density block {rho.shape} does not match alphabet size {k}")
    fields = mode_stack(alphabet, n, extent, waist)
    block = rho.tobytes()
    keep = False
    with _lock:
        held = _held_stack
        if held is not None and held.fields is fields:
            if block in held.kept:
                return held.kept[block]
            keep = block in held.seen and len(held.kept) < MAX_KEPT_RENDERS
            if not keep and len(held.seen) < MAX_KEPT_RENDERS:
                held.seen.add(block)
    # sum_ab rho_ab f_a conj(f_b): row b of mixed is sum_a rho_ab f_a, and
    # Re(mixed_b conj(f_b)) is the dot product of their (real, imag) pairs
    flat = fields.reshape(k, -1)
    mixed = rho.T @ flat
    out = np.einsum(
        "bpc,bpc->p", flat.view(float).reshape(k, -1, 2), mixed.view(float).reshape(k, -1, 2)
    ).reshape(n, n)
    del mixed  # before the clip's mask, so the peak stays within pipelines' budget
    out[out < 0] = 0.0  # rounding dust from the complex cross terms
    if keep:
        out.setflags(write=False)
        with _lock:
            held.seen.discard(block)
            out = held.kept.setdefault(block, out)
    return out


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

    The pixel mask and bin index of the last (grid, annulus, nbins) are held.
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
            r, theta = pixel_polar(img.n, img.extent)
            mask = (r >= r_min) & (r <= r_max)
            if not mask.any():
                raise ValueError("annulus contains no pixels on this grid")
            idx = np.minimum((theta[mask] / TWO_PI * nbins).astype(int), nbins - 1)
            mask.setflags(write=False)
            idx.setflags(write=False)
            _held_bins = (key, mask, idx)
        _, mask, idx = _held_bins
    bins = np.bincount(idx, weights=img.pixels[mask], minlength=nbins)
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


def fringe_fit(angles, values, freq: int) -> Fringe:
    """Least-squares fringe m + a cos(freq t) + b sin(freq t), read as a Fringe.

    base = m and V = hypot(a, b) / m, with a delta-method stderr from the
    residual variance (nan at a level too small for that arithmetic); V is
    clipped to 1. One rule marks a fringe degenerate, for sweeps and petals
    alike: m <= 0 or V < 1e-12. An angle set that cannot separate the three
    terms raises NumericalError.
    """
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.column_stack([np.ones_like(angles), np.cos(freq * angles), np.sin(freq * angles)])
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 3:
        raise NumericalError("angle set cannot resolve a fringe (rank-deficient fit)")
    m, a, b = coef
    if m <= 0:
        return Fringe(freq, 0.0, math.nan, 0.0, math.nan, ("degenerate",))
    resid = values - design @ coef
    cov = float(resid @ resid) / max(len(values) - 3, 1) * np.linalg.inv(design.T @ design)
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


def petal_fit(hist: AngularHistogram, l: int) -> Fringe:
    """Fit the 2l-petal fringe to an angular histogram (see fringe_fit)."""
    l = int(l)
    if l < 1:
        raise ValueError("petal fit needs l >= 1")
    if hist.nbins <= 4 * l:
        # at 4l bins cos(2l theta) vanishes at every bin center
        raise ValueError(f"need more than {4 * l} bins to resolve 2l={2 * l} petals")
    return fringe_fit(hist.bin_centers, hist.bins, 2 * l)


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
    of rows is quantised, looked up in the text table of _pgm_words, given
    its row-end newlines and written without the NUL padding, so the
    writer's memory does not grow with the image.
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
            fh.write(text[text != 0])


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
