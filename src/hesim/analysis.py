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
from dataclasses import dataclass, field, replace

import numpy as np

from . import detection, lgmodes
from .detection import (
    DetectorModel,
    SETTING_KETS,
    SETTINGS,
    coincidence_row,
    conditional_oam,
    derived_seed,
    linear_analyzer_ket,
    sample_counts,
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


def _counts(prob: float, det: DetectorModel, l: int, tag) -> float:
    """Coincidence counts for one setting: a Poisson draw if det.sampled, else its mean."""
    if det.sampled:
        return float(sample_counts(prob, det, l, tag=tag))
    return det.mean_counts(prob, l)


def sweep_dial(step_deg: float = 10.0) -> list:
    """(dial angle in radians, signal analyzer ket) at each step of a full turn."""
    angles = (math.radians(float(deg)) for deg in np.arange(0.0, 360.0, step_deg))
    return [(ang, linear_analyzer_ket(ang, "signal")) for ang in angles]


def sweep_series(
    state,
    idler,
    det: DetectorModel,
    l: int = 0,
    dial=None,
    tag: str = "sweep",
):
    """Coincidence counts against the signal-arm analyzer dial angle.

    ``dial`` is a sweep_dial list (default: 10 degree steps); sweeps that
    share their dial angles share one list, so its kets are built once.
    """
    if dial is None:
        dial = sweep_dial()
    probs = coincidence_row(state, idler, [ket for _, ket in dial])
    return [
        (ang, _counts(prob, det, l, (tag, k)))
        for k, ((ang, _), prob) in enumerate(zip(dial, probs))
    ]


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
    at (b, b+90, b', b'+90), each in its own arm frame. ``sampled``
    overrides det.sampled when given; it remains only for the benchmark's
    Bell check and goes once that check passes an unsampled detector.
    """
    if sampled is not None:
        det = replace(det, sampled=sampled)
    a, ap, b, bp = (math.radians(float(x)) for x in settings_deg)
    idler_angles = (a, a + np.pi / 2, ap, ap + np.pi / 2)
    signal_angles = (b, b + np.pi / 2, bp, bp + np.pi / 2)
    signals = [linear_analyzer_ket(sa, "signal") for sa in signal_angles]
    table = np.zeros((4, 4))
    for i, ia in enumerate(idler_angles):
        row = coincidence_row(state, linear_analyzer_ket(ia, "idler"), signals)
        for j, prob in enumerate(row):
            table[i, j] = _counts(prob, det, l, (tag, i, j))
    return table


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

    Each setting's ket comes from SETTING_KETS, and the pairs are measured
    one idler setting (one row) at a time; count k keeps the tag (tag, k) of
    its place in TOMO_SETTINGS.
    """
    counts = np.zeros(16)
    for li in dict.fromkeys(li for li, _ in TOMO_SETTINGS):
        cells = [(k, ls) for k, (i, ls) in enumerate(TOMO_SETTINGS) if i == li]
        signals = [SETTING_KETS[SETTINGS[ls]] for _, ls in cells]
        row = coincidence_row(state, SETTING_KETS[SETTINGS[li]], signals)
        for (k, _), prob in zip(cells, row):
            counts[k] = _counts(prob, det, l, (tag, k))
    return counts


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
    first = next((b for b in ("A", "D", "R", "L") if math.isfinite(fringes[b].theta0)), None)
    ref = 0.0 if first is None else fringes[first].theta0 - _BASIS_OFFSETS[first] * (np.pi / l)
    return {
        "DA": _contrast(fringes["A"], fringes["D"], ref, l),
        "RL": _contrast(fringes["R"], fringes["L"], ref + np.pi / (4 * l), l),
    }


@dataclass
class AngularScan:
    """Everything the petal pipeline produced for one state."""

    fits: dict
    histograms: dict
    images: dict
    pair_vis: dict
    W: float


def angular_basis_scan(
    state,
    l: int,
    det: DetectorModel,
    grid,
    waist: float,
    annulus=None,
    nbins: int = 72,
    tag: str = "scan",
) -> AngularScan:
    """Heralded image -> angular profile -> petal fit, per idler basis.

    The idler is analyzed in A, D, R and L; the signal always in D.
    """
    if annulus is None:
        annulus = lgmodes.default_annulus(waist, l)
    fits, hists, images = {}, {}, {}
    for basis in ("A", "D", "R", "L"):
        img = detection.heralded_image(
            state,
            SETTINGS[basis],
            SETTINGS["D"],
            grid,
            waist,
            det,
            l,
            tag=(tag, basis),
        )
        hist = lgmodes.angular_profile(img, nbins, annulus)
        fits[basis] = petal_fit(hist, l)
        hists[basis] = hist
        images[basis] = img
    pair_vis = _witness_pairs(fits, l)
    return AngularScan(fits, hists, images, pair_vis, pair_vis["DA"] + pair_vis["RL"])


def _oam_fringe(block: np.ndarray, alphabet, l: int) -> Fringe:
    """The exact petal fringe of a heralded OAM block.

    Valid when the only coherence in the block links -l and +l; any other
    off-diagonal weight would add angular frequencies the fringe does not
    model, so it is rejected. A block with no such coherence is degenerate.
    """
    alphabet = list(alphabet)
    ip, im = alphabet.index(+l), alphabet.index(-l)
    off = block.copy()
    off[ip, im] = off[im, ip] = 0.0
    np.fill_diagonal(off, 0.0)
    if np.max(np.abs(off)) > 1e-10:
        raise NumericalError("state carries OAM coherences outside the +-l pair")
    base = float(np.real(np.trace(block)))
    coh = complex(block[ip, im])  # <+l| rho |-l>, multiplies exp(+2 i l theta)
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
    for basis in ("A", "D", "R", "L"):
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


def bootstrap_errors(pipeline, n_iter: int, seed: int) -> BootstrapResult:
    """Parametric bootstrap: rerun a sampled pipeline with derived seeds.

    ``pipeline`` maps an integer seed to a {statistic: value} dict. Iteration
    i runs on derived_seed(seed, "bootstrap", i), a pure function of (seed, i),
    so the result is reproducible.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    results = [pipeline(derived_seed(seed, "bootstrap", i)) for i in range(n_iter)]
    names = results[0].keys()
    samples = {k: np.array([r[k] for r in results], dtype=float) for k in names}
    return BootstrapResult(samples, n_iter)


# -- report ----------------------------------------------------------------------

SCHEMA_VERSION = 1


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    return obj


@dataclass
class AnalysisReport:
    """Serializable summary of one simulated experiment."""

    kind: str
    S: float | None = None
    S_sigma: float | None = None
    W: float | None = None
    W_sigma: float | None = None
    fidelity: float | None = None
    rho: DensityMatrix | None = None
    visibilities: dict = field(default_factory=dict)
    petals: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def violation_sigmas(self) -> dict:
        """Distance above the classical bounds, recomputed on demand."""
        out = {}
        if self.S is not None and self.S_sigma and self.S_sigma > 0:
            out["chsh"] = (self.S - 2.0) / self.S_sigma
        if self.W is not None and self.W_sigma and self.W_sigma > 0:
            out["witness"] = (self.W - 1.0) / self.W_sigma
        return out

    def bell_bound_flag(self) -> bool | None:
        """True when both sweep visibilities clear 1/sqrt(2)."""
        if "H" not in self.visibilities or "D" not in self.visibilities:
            return None
        return bool(
            self.visibilities["H"].V > BELL_VISIBILITY_BOUND
            and self.visibilities["D"].V > BELL_VISIBILITY_BOUND
        )

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "violation_sigmas": self.violation_sigmas(),
            "config": self.config,
        }
        if self.S is not None:
            doc["chsh"] = {"S": self.S, "sigma": self.S_sigma}
        if self.W is not None:
            doc["witness"] = {"W": self.W, "sigma": self.W_sigma}
        if self.fidelity is not None:
            doc["fidelity"] = self.fidelity
        if self.rho is not None:
            doc["rho"] = {
                "re": np.real(self.rho.matrix).tolist(),
                "im": np.imag(self.rho.matrix).tolist(),
                "psd": self.rho.psd_flag,
            }
        if self.visibilities:
            flag = self.bell_bound_flag()
            doc["visibilities"] = {
                k: {
                    "V": v.V,
                    "theta0_deg": math.degrees(v.theta0)
                    if math.isfinite(v.theta0)
                    else None,
                    "stderr": v.stderr,
                    "flags": list(v.flags),
                }
                for k, v in self.visibilities.items()
            }
            if flag is not None:
                doc["bell_bound_flag"] = flag
        if self.petals:
            doc["petals"] = self.petals
        return _json_ready(doc)
