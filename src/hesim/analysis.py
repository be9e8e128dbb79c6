"""Fringe sweeps, CHSH, linear tomography, entanglement witness, bootstrap.

The two entanglement figures of merit each exist along two routes that are
kept deliberately separate:

* a desk-scale route that walks the full measurement chain (projection
  images or count tables, possibly Poisson-sampled), and
* an expectation route evaluated directly from Born probabilities, used to
  pin ideal values and to calibrate noise levels.

Collapsing one into the other would hide exactly the discretisation and
shot-noise effects this package exists to expose.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import detection, lgmodes
from .detection import (
    DetectorModel,
    SETTING_KETS,
    SETTINGS,
    coincidence_row,
    conditional_oam,
    dial_amplitudes,
    linear_analyzer_ket,
    sample_counts,
    str_word,
    stream_keys,
)
from .errors import NumericalError
from .lgmodes import Fringe, fold_phase, fringe_fit, petal_fit
from .quantum import DensityMatrix, pol_ket, pol_subsystem
from .spdc import SIGNAL_OAM

CHSH_SETTINGS_DEG = (0.0, 45.0, 22.5, 67.5)
BELL_VISIBILITY_BOUND = 1.0 / math.sqrt(2.0)


# -- fringe sweeps --------------------------------------------------------------


def fit_visibility(series) -> Fringe:
    """Fit the fringe C(theta) = base (1 + V cos(2(theta - theta0))) to a sweep.

    ``series`` is a sequence of (angle_rad, counts) pairs covering at least
    half a turn with 8 or more points; lgmodes.fringe_fit does the fit.
    """
    pts = [(float(a), float(v)) for a, v in series]
    if len(pts) < 8:
        raise ValueError("need at least 8 sweep points")
    angles = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if angles.max() - angles.min() < np.pi - 1e-9:
        raise ValueError("sweep must span at least 180 degrees")
    return fringe_fit(angles, values, 2)


def _counts(probs, det: DetectorModel, l: int, tag, *columns) -> list:
    """Coincidence counts for a table of settings: Poisson draws if
    det.sampled, else the means. Cell k has Born probability probs[k] and
    draws from the stream keyed (det.seed, "counts", l, mean, tag, column
    entries at k); ``tag`` is a str or a tuple of constant parts, each
    column an int array. The means come from one mean_counts call, the keys
    from one stream_keys pass, and one generator is reset to each key."""
    means = det.mean_counts(probs, l)
    if not det.sampled:
        return means.tolist()
    tag = tag if isinstance(tag, tuple) else (tag,)
    keys = stream_keys(det.seed, "counts", l, means, *tag, *columns)
    gen = np.random.Generator(np.random.Philox(0))
    return [float(sample_counts(gen, mean, key)) for mean, key in zip(means.tolist(), keys)]


def sweep_dial(step_deg: float = 10.0) -> tuple:
    """(angles, amplitudes) of a full turn of the signal dial: the angles in
    radians at each step, and their (N, 2) dial_amplitudes, one read-only
    row per angle, bit for bit the linear_analyzer_ket amplitudes."""
    angles = tuple(math.radians(float(deg)) for deg in np.arange(0.0, 360.0, step_deg))
    return angles, dial_amplitudes(angles, "signal")


def sweep_series(
    state,
    idler,
    det: DetectorModel,
    l: int = 0,
    dial=None,
    tag: str = "sweep",
):
    """Coincidence counts against the signal-arm analyzer dial angle, as
    (angle, counts) pairs.

    ``dial`` is a sweep_dial (angles, amplitudes) pair (default: 10 degree
    steps); sweeps that share their dial angles share one pair, so its
    amplitudes are built once. The amplitudes are the signal row as given.
    """
    angles, amplitudes = sweep_dial() if dial is None else dial
    probs = coincidence_row(state, idler, amplitudes)
    counts = _counts(probs, det, l, tag, np.arange(len(angles)))
    return list(zip(angles, counts))


# -- CHSH ---------------------------------------------------------------------


def chsh_table(
    state,
    det: DetectorModel,
    settings_deg=CHSH_SETTINGS_DEG,
    l: int = 0,
    tag: str = "chsh",
    sampled: bool | None = None,
) -> np.ndarray:
    """4x4 coincidence-count table at the standard CHSH analyzer settings.

    Rows are the idler dial at (a, a+90, a', a'+90); columns the signal dial
    at (b, b+90, b', b'+90), each in its own arm frame. The four signal
    kets are one dial_amplitudes row; each idler is a linear_analyzer_ket,
    the Ket that projecting a mixed state takes. ``sampled`` overrides
    det.sampled when given; it remains only for the benchmark's Bell
    check and goes once that check passes an unsampled detector.
    """
    if sampled is not None:
        det = replace(det, sampled=sampled)
    a, ap, b, bp = (math.radians(float(x)) for x in settings_deg)
    idler_angles = (a, a + np.pi / 2, ap, ap + np.pi / 2)
    signal_angles = (b, b + np.pi / 2, bp, bp + np.pi / 2)
    signals = dial_amplitudes(signal_angles, "signal")
    probs = [
        p
        for ia in idler_angles
        for p in coincidence_row(state, linear_analyzer_ket(ia, "idler"), signals)
    ]
    cells = np.arange(16)
    return np.array(_counts(probs, det, l, tag, cells // 4, cells % 4)).reshape(4, 4)


def _correlation(block: np.ndarray):
    total = block.sum()
    if total <= 0:
        raise NumericalError("zero total counts in a correlation block")
    e = (block[0, 0] + block[1, 1] - block[0, 1] - block[1, 0]) / total
    var = max(1.0 - e * e, 0.0) / total  # Poisson propagation through the ratio
    return float(e), float(var)


def chsh(counts16) -> tuple:
    """S and its Poisson-propagated error from a 4x4 coincidence table.

    S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| where each E is read from
    the corresponding 2x2 sub-block of the table.
    """
    t = np.asarray(counts16, dtype=float)
    if t.shape != (4, 4) or np.any(t < 0):
        raise ValueError("expected a non-negative 4x4 count table")
    e = {}
    var = {}
    for bi, rows in enumerate((slice(0, 2), slice(2, 4))):
        for bj, cols in enumerate((slice(0, 2), slice(2, 4))):
            e[bi, bj], var[bi, bj] = _correlation(t[rows, cols])
    s = abs(e[0, 0] - e[0, 1] + e[1, 0] + e[1, 1])
    sigma = math.sqrt(sum(var.values()))
    return float(s), float(sigma)


# -- linear tomography ---------------------------------------------------------

# canonical 16-projection set; the first four form a complete basis and fix
# the count normalisation
TOMO_SETTINGS = (
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
)


def _tomo_design() -> np.ndarray:
    rows = []
    for li, ls in TOMO_SETTINGS:
        vi = pol_ket(li).amplitudes
        vs = pol_ket(ls).amplitudes
        v = np.kron(vi, vs)
        proj = np.outer(v, v.conj())
        rows.append(proj.T.reshape(-1))  # Tr(P rho) = vec(P^T) . vec(rho)
    return np.array(rows)


_TOMO_A = _tomo_design()


def tomography_counts(state, det: DetectorModel, l: int = 0, tag: str = "tomo") -> np.ndarray:
    """Coincidence counts for the 16 canonical projection pairs.

    Each setting's ket comes from SETTING_KETS. The Born probabilities are
    taken one coincidence_row per idler setting, over the stacked
    amplitudes of its signal kets, and the 16 counts are drawn as one
    table; count k keeps the tag (tag, k) of its place in TOMO_SETTINGS.
    """
    probs = [0.0] * 16
    for li in dict.fromkeys(li for li, _ in TOMO_SETTINGS):
        cells = [(k, ls) for k, (i, ls) in enumerate(TOMO_SETTINGS) if i == li]
        signals = np.array([SETTING_KETS[SETTINGS[ls]].amplitudes for _, ls in cells])
        row = coincidence_row(state, SETTING_KETS[SETTINGS[li]], signals)
        for (k, _), prob in zip(cells, row):
            probs[k] = prob
    return np.array(_counts(probs, det, l, tag, np.arange(16)))


def tomography_linear(counts16) -> DensityMatrix:
    """Linear inversion of the 16 canonical counts to a two-qubit matrix.

    The result is Hermitian with unit trace by construction; positivity is
    reported through ``psd_flag`` and never enforced here. Use
    ``clip_to_physical`` downstream if a physical matrix is required.
    """
    n = np.asarray(counts16, dtype=float).reshape(-1)
    if n.size != 16 or np.any(n < 0):
        raise ValueError("expected 16 non-negative counts")
    total = n[:4].sum()
    if total <= 0:
        raise NumericalError("no counts in the normalising basis")
    p = n / total
    rho_vec = np.linalg.solve(_TOMO_A, p.astype(complex))
    mat = rho_vec.reshape(4, 4)
    mat = 0.5 * (mat + mat.conj().T)
    subs = (pol_subsystem("idler"), pol_subsystem("signal_pol"))
    return DensityMatrix(subs, mat)


# -- entanglement witness -------------------------------------------------------


# Petal orientation of each idler basis relative to the A maximum, in units of
# one petal period pi/l. Only the value mod a half period matters downstream,
# so a swapped R/L or mirrored D convention reads out identically.
_BASIS_OFFSETS = {"A": 0.0, "D": 0.5, "R": 0.25, "L": 0.75}
SCAN_BASES = ("A", "D", "R", "L")


def _contrast(x: Fringe, y: Fringe, anchor: float, l: int) -> float:
    """Correlation contrast of two conjugate petal fringes.

    Both curves are read at the anchor orientation and a quarter petal
    period away; the four values form a normalised difference. For a hybrid
    entangled state the curves are complementary and the contrast equals
    the fringe visibility; for an idler-separable state the heralded pattern
    cannot depend on the idler basis and the contrast collapses.
    """
    t1 = float(anchor)
    t2 = t1 + np.pi / (2 * l)
    cx1, cx2 = float(x.curve(t1)), float(x.curve(t2))
    cy1, cy2 = float(y.curve(t1)), float(y.curve(t2))
    denom = cx1 + cx2 + cy1 + cy2
    if denom <= 0.0:  # a ratio has no scale: any positive level reads its contrast
        return 0.0
    return abs(cx1 + cy2 - cx2 - cy1) / denom


def _witness_pairs(fringes: dict, l: int) -> dict:
    """V_DA and V_RL from the petal fringes of the four idler bases.

    Both pairs are read at anchors a rigid 45/l degrees apart, tied to one
    reference: the A-basis maximum, backed out of the first basis with a
    finite orientation by its known offset. If each pair re-centred on its
    own best orientation, a separable state with a petal-shaped signal
    marginal could push W above 1. How the reference noise enters cancels
    to first order, because every read-out sits at a stationary point of
    its curve.
    """
    first = next((b for b in SCAN_BASES if math.isfinite(fringes[b].theta0)), None)
    ref = 0.0 if first is None else fringes[first].theta0 - _BASIS_OFFSETS[first] * (np.pi / l)
    return {
        "DA": _contrast(fringes["A"], fringes["D"], ref, l),
        "RL": _contrast(fringes["R"], fringes["L"], ref + np.pi / (4 * l), l),
    }


@dataclass
class AngularScan:
    """Everything the petal pipeline produced for one state.

    images holds the heralded image of each basis for a whole-image scan,
    and is empty for a scan drawn with ``through``: each image is dropped
    once its profile is taken.
    """

    fits: dict
    histograms: dict
    images: dict
    pair_vis: dict
    W: float


def witness_keys(seed: int, l: int, n_bootstrap: int = 0) -> tuple:
    """(scans, none): the Philox key of every heralded image of a witness
    run, the one place their layout is written.

    scans is (1 + n_bootstrap, 4, 2): row 0 keys the SCAN_BASES images of
    the first scan on ``seed``, row i + 1 those of bootstrap scan i on
    bootstrap_seeds(seed, n_bootstrap)[i]. none keys the unanalyzed image
    on ``seed``. An image keys on (its scan's seed, "heralded_image", l,
    str(("scan", basis))), with basis "none" for the unanalyzed one. One
    bootstrap_seeds pass, then one stream_keys pass keys every image; the
    five names are hashed once each (str_word), and their words passed as
    the column, which stream_keys keys as it keys the strs.
    """
    seeds = np.empty(1 + n_bootstrap, dtype=np.uint64)  # float64 would drop a seed's low bits
    seeds[0] = seed
    seeds[1:] = bootstrap_seeds(seed, n_bootstrap)
    words = np.array([str_word(str(("scan", b))) for b in (*SCAN_BASES, "none")], dtype=np.uint32)
    names = np.append(np.tile(words[:4], len(seeds)), words[4])
    keys = stream_keys(np.append(np.repeat(seeds, 4), seeds[0]), "heralded_image", l, names)
    return keys[:-1].reshape(-1, 4, 2), keys[-1]


def angular_basis_scan(
    state,
    l: int,
    det: DetectorModel,
    grid,
    waist: float,
    *,
    annulus,
    nbins: int,
    keys,
    through: int | None = None,
) -> AngularScan:
    """Heralded image -> angular profile -> petal fit, per idler basis.

    The idler is analyzed in A, D, R and L; the signal always in D. The
    images draw from ``keys``, the (4, 2) SCAN_BASES keys of one scan (a
    witness_keys row). Each image is profiled in nbins bins over annulus as
    soon as it is drawn, and the four histograms are fitted in one petal_fit
    batch. through is passed to each heralded_image. At lgmodes.annulus_end
    of the grid and annulus, each image is drawn only up to the last pixel
    the profiles read, and every histogram, fit and W is the one a full draw
    gives. Such a cut image is zeros past the annulus end, so a scan with
    through keeps no image (images is empty); a scan without keeps its four.
    """
    hists, images = {}, {}
    for basis, key in zip(SCAN_BASES, keys):
        img = detection.heralded_image(
            state,
            SETTINGS[basis],
            SETTINGS["D"],
            grid,
            waist,
            det,
            l,
            key,
            through=through,
        )
        hists[basis] = lgmodes.angular_profile(img, nbins, annulus)
        if through is None:
            images[basis] = img
        del img  # not held while the next image is drawn
    fits = dict(zip(SCAN_BASES, petal_fit(list(hists.values()), l)))
    pair_vis = _witness_pairs(fits, l)
    return AngularScan(fits, hists, images, pair_vis, pair_vis["DA"] + pair_vis["RL"])


def _oam_fringe(block: np.ndarray, alphabet, l: int) -> Fringe:
    """The exact petal fringe of a heralded OAM block, read by lgmodes.pair_terms.

    Only the coherence linking -l and +l is modelled; any other (also one
    linking another +-m pair) adds angular frequencies the fringe does not
    carry, so it is refused. A block with no such coherence is degenerate.
    """
    terms = lgmodes.pair_terms(block, alphabet)
    if any(c for m, (_, c) in terms.items() if m != l):
        raise NumericalError("state carries OAM coherences outside the +-l pair")
    base = float(np.real(np.trace(block)))
    coh = terms[l][1]  # <+l| rho |-l>, multiplies exp(+2 i l theta)
    amp = 2.0 * abs(coh)
    if amp == 0:
        return Fringe(2 * l, 0.0, math.nan, base, flags=("degenerate",))
    theta0 = fold_phase(-np.angle(coh) / (2.0 * l), np.pi / l)
    return Fringe(2 * l, amp / base, theta0, base)


def witness_expectation(state, l: int) -> dict:
    """Witness from exact Born-level angular densities (no grid, no noise).

    Serves as the oracle the desk-scale image route is checked against.
    """
    l = int(l)
    if l < 1:
        raise ValueError("hybrid witness needs l >= 1")
    alphabet = state.subsystems[state.axis(SIGNAL_OAM)].labels
    fringes = {}
    for basis in SCAN_BASES:
        block, _ = conditional_oam(state, SETTINGS[basis], SETTINGS["D"])
        fringes[basis] = _oam_fringe(block, alphabet, l)
    pairs = _witness_pairs(fringes, l)
    return {
        "V_DA": pairs["DA"],
        "V_RL": pairs["RL"],
        "W": pairs["DA"] + pairs["RL"],
        "theta0": {basis: f.theta0 for basis, f in fringes.items()},
        "baseline": {basis: f.base for basis, f in fringes.items()},
    }


# -- bootstrap ------------------------------------------------------------------


@dataclass
class BootstrapResult:
    samples: dict
    n_iter: int

    def sigma(self, name: str) -> float:
        vals = self.samples[name]
        if len(vals) < 2:
            return float("nan")  # one repetition cannot estimate spread
        return float(np.std(vals, ddof=1))

    def mean(self, name: str) -> float:
        return float(np.mean(self.samples[name]))


def bootstrap_seeds(seed: int, n_iter: int) -> np.ndarray:
    """The uint64 seeds of n_iter bootstrap iterations, from one stream_keys
    pass: iteration i's is the first word of the key of (seed, "bootstrap", i)."""
    return stream_keys(seed, "bootstrap", np.arange(n_iter))[:, 0]


def bootstrap_errors(pipeline, inputs) -> BootstrapResult:
    """Parametric bootstrap: run a sampled pipeline once per input.

    ``pipeline`` maps one input to a {statistic: value} dict. The caller
    keys the inputs, such as a witness_keys scan row per iteration or
    bootstrap_seeds, so the result is a pure function of them.
    """
    results = [pipeline(x) for x in inputs]
    if not results:
        raise ValueError("a bootstrap needs at least one input")
    names = results[0].keys()
    samples = {k: np.array([r[k] for r in results], dtype=float) for k in names}
    return BootstrapResult(samples, len(results))
