"""Analyzer settings, coincidence probabilities, and Poisson counting.

Each arm carries a removable quarter-wave plate, a half-wave plate and a
polarizing beam splitter; a setting (q, h) transmits the polarization state
QWP(q)^dagger HWP(h) |H>. Angles that realise the six standard projections
are tabulated in SETTINGS.

Analyzer dial angles for plain linear projections are specified in each
arm's local frame. The two arms face opposite propagation directions, so a
positive dial rotation on the signal arm corresponds to a negative rotation
in the idler frame: dial angle chi transmits cos(chi) H + sin(chi) V on the
idler side and cos(chi) H - sin(chi) V on the signal side. Named basis kets
(H, V, D, A, R, L) always refer to the shared H/V frame.

All sampling is routed through counter-based Philox streams keyed by
(seed, purpose, indices), so counts are pure functions of their inputs and
never depend on call order. The keys are the determinism contract; changing
one moves every draw made from it:

* sample_counts keys on (seed, "counts", l, float(mean), tag), where the
  mean comes from the Born probability coincidence_row computes, so any
  change to coincidence_row's arithmetic (or the mean's) moves every
  sweep, CHSH and tomography count;
* heralded_image keys on (seed, "heralded_image", l, str(tag)), so the tag
  7 and the tag "7" draw the same image.

The Poisson draw of an image depends on every bit of its mean image. The
render memo in lgmodes returns the bits a fresh render gives, so it never
moves a draw. Reruns are byte-identical on one numpy/OpenBLAS build and CPU
family: a render's matrix product runs in OpenBLAS, which picks its kernel
for the CPU at run time, so another CPU family may move a mean's last bits
(the BLAS thread count does not). With no accidentals, a noiseless source's
sampled images also depend on the sign of the rounding dust on nodal
pixels: the render clips negative dust to a mean of 0, which takes no draw
from the stream, while a tiny positive mean does, so one such pixel shifts
the draws of every pixel after it.
"""

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import jones, lgmodes
from .errors import ConfigError, NumericalError
from .quantum import (
    NULL_TOL,
    Ket,
    Subsystem,
    pol_ket,
    pol_subsystem,
    project,
)
from .spdc import IDLER, SIGNAL_OAM, SIGNAL_POL

MEAN_OVERFLOW = 1e12


@dataclass(frozen=True)
class AnalyzerSetting:
    """Wave-plate angles in radians; qwp_angle None means the plate is out."""

    qwp_angle: float | None
    hwp_angle: float


SETTINGS = {
    "H": AnalyzerSetting(None, 0.0),
    "V": AnalyzerSetting(None, np.pi / 4),
    "D": AnalyzerSetting(None, np.pi / 8),
    "A": AnalyzerSetting(None, -np.pi / 8),
    "R": AnalyzerSetting(np.pi / 4, np.pi / 4),
    "L": AnalyzerSetting(np.pi / 4, 0.0),
}


def analyzer_state(setting: AnalyzerSetting, name: str = "pol") -> Ket:
    """Polarization ket transmitted by the QWP -> HWP -> PBS chain."""
    vec = jones.half_wave(setting.hwp_angle) @ np.array([1.0, 0.0 + 0.0j])
    if setting.qwp_angle is not None:
        vec = jones.quarter_wave(setting.qwp_angle).conj().T @ vec
    return Ket((pol_subsystem(name),), vec)


def linear_analyzer_ket(angle: float, arm: str) -> Ket:
    """Transmitted state of a bare linear analyzer at a local dial angle.

    The dial is a half-wave plate at half the angle; the signal arm turns it
    the other way, because the two arms face opposite directions.
    """
    signs = {"idler": 1.0, "signal": -1.0}
    if arm not in signs:
        raise ConfigError(f"unknown arm {arm!r}")
    return analyzer_state(AnalyzerSetting(None, signs[arm] * angle / 2.0))


@dataclass(frozen=True)
class DetectorModel:
    """Coincidence counting model with Poisson statistics.

    Expected counts for a projection with Born probability P on a run with
    OAM order l:

        mean = (pair_rate * rate_scale_per_l[|l|] * P + accidental_rate) * integration_time

    The per-l rate scale stands in for the l-dependent generation and
    coupling efficiency; the values are synthetic knobs, not measurements.
    ``sampled`` makes count tables and heralded images record Poisson
    draws (True) or the expected means themselves (False).
    """

    pair_rate: float = 1.0e4
    accidental_rate: float = 0.0
    integration_time: float = 10.0
    rate_scale_per_l: dict = field(
        default_factory=lambda: {0: 1.0, 1: 0.5, 2: 0.25, 3: 0.12}
    )
    seed: int = 0
    sampled: bool = True

    def __post_init__(self):
        if self.pair_rate < 0 or self.accidental_rate < 0:
            raise ConfigError("rates must be non-negative")
        if self.integration_time <= 0:
            raise ConfigError("integration time must be positive")
        # JSON object keys arrive as strings
        scales = {int(k): float(v) for k, v in dict(self.rate_scale_per_l).items()}
        for l, scale in scales.items():
            if not 0.0 < scale <= 1.0:
                raise ConfigError(f"rate scale for l={l} must sit in (0, 1], got {scale}")
        object.__setattr__(self, "rate_scale_per_l", scales)
        object.__setattr__(self, "seed", int(self.seed))

    def scale(self, l: int) -> float:
        try:
            return self.rate_scale_per_l[abs(int(l))]
        except KeyError:
            raise ConfigError(f"no rate scale declared for |l|={abs(int(l))}") from None

    def mean_counts(self, prob: float, l: int) -> float:
        if not 0.0 <= prob <= 1.0 + 1e-9:
            raise ValueError(f"probability {prob} outside [0, 1]")
        return (self.pair_rate * self.scale(l) * min(prob, 1.0) + self.accidental_rate) * self.integration_time


def _tag_ints(tags) -> tuple:
    out = []
    for t in tags:
        if isinstance(t, (tuple, list)):
            out.extend(_tag_ints(t))
        elif isinstance(t, str):
            out.append(zlib.crc32(t.encode()))
        elif isinstance(t, float):
            bits = int(np.float64(t).view(np.uint64))
            out.extend((bits >> 32, bits & 0xFFFFFFFF))
        else:
            out.append(int(t) % (1 << 32))
    return tuple(out)


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Deterministic counter-based generator keyed by seed and tags."""
    ss = np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=_tag_ints(tags))
    return np.random.Generator(np.random.Philox(ss))


def derived_seed(seed: int, *tags) -> int:
    """A child seed that is a pure function of (seed, tags)."""
    ss = np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=_tag_ints(tags))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_counts(prob: float, det: DetectorModel, l: int, tag=0) -> int:
    """One Poisson draw of coincidence counts; pure in (det.seed, inputs, tag)."""
    mean = det.mean_counts(prob, l)
    if mean > MEAN_OVERFLOW:
        raise NumericalError(f"expected counts {mean:.3e} overflow the counter model")
    gen = rng_stream(det.seed, "counts", l, float(mean), tag)
    return int(gen.poisson(mean))


def _as_proj_ket(setting, name):
    if isinstance(setting, Ket):
        return Ket((Subsystem(name, ("H", "V")),), setting.amplitudes, fix_phase=False)
    if isinstance(setting, AnalyzerSetting):
        return analyzer_state(setting, name=name)
    raise ConfigError(f"cannot interpret analyzer setting {setting!r}")


def coincidence_row(state, idler, signals) -> list:
    """Joint Born probabilities of one idler setting with each signal setting.

    The signal OAM register is traced out. Settings may be AnalyzerSetting
    values or bare polarization kets; look basis labels up in SETTINGS. A
    mixed state has its idler projected once, and each cell is the idler
    probability times the signal probability of the residual. A pure
    state contracts each cell on its own, signal axis first: those are the
    bits its counts key on.
    """
    idler = _as_proj_ket(idler, IDLER)
    signals = [_as_proj_ket(s, SIGNAL_POL) for s in signals]
    if isinstance(state, Ket):
        axes = (state.axis(SIGNAL_POL), state.axis(IDLER))
        t = np.moveaxis(state.amplitudes.reshape(state.dims), axes, (0, 1))
        v_i = idler.amplitudes.conj()
        probs = []
        for ket in signals:
            t_i = np.tensordot(ket.amplitudes.conj(), t, axes=1)
            probs.append(float(np.sum(np.abs(np.tensordot(v_i, t_i, axes=1)) ** 2)))
        return probs
    residual, p1 = project(state, idler, subsystem=IDLER)
    if p1 < NULL_TOL:
        return [0.0] * len(signals)
    p2s = (project(residual, ket, subsystem=SIGNAL_POL)[1] for ket in signals)
    return [p1 * p2 if p2 >= NULL_TOL else 0.0 for p2 in p2s]


def conditional_oam(state, idler, signal_pol):
    """Unnormalised signal-OAM block after the polarization projections.

    Returns (rho_oam, weight): weight is the joint projection probability
    and equals trace(rho_oam). idler may be None, meaning no idler analyzer;
    the conditional is then the incoherent sum over any orthonormal idler
    basis (H/V is used).
    """
    if idler is None:
        total = None
        weight = 0.0
        for label in ("H", "V"):
            block, w = conditional_oam(state, pol_ket(label), signal_pol)
            total = block if total is None else total + block
            weight += w
        return total, weight

    st, p1 = project(state, _as_proj_ket(idler, IDLER), subsystem=IDLER)
    if st is not None:
        st, p2 = project(st, _as_proj_ket(signal_pol, SIGNAL_POL), subsystem=SIGNAL_POL)
    if st is None:
        n = state.dims[state.axis(SIGNAL_OAM)]
        return np.zeros((n, n), dtype=complex), 0.0
    weight = p1 * p2
    if isinstance(st, Ket):
        block = np.outer(st.amplitudes, st.amplitudes.conj())
    else:
        block = st.matrix
    return block * weight, weight


def heralded_image(
    state,
    idler,
    signal_pol,
    grid,
    waist: float,
    det: DetectorModel,
    l: int,
    tag="image",
) -> lgmodes.FieldImage:
    """Coincidence image of the signal arm conditioned on the idler.

    Pixel means follow the detector model: the joint-projection event rate
    is spread over the pixels in proportion to the rendered intensity, and
    the accidental rate is spread flat. With det.sampled each pixel is an
    independent Poisson draw from a stream keyed by (seed, tag); otherwise
    the expected means themselves are returned.
    """
    n, extent = int(grid[0]), float(grid[1])
    alphabet = state.subsystems[state.axis(SIGNAL_OAM)].labels
    block, weight = conditional_oam(state, idler, signal_pol)
    meta = {"joint_probability": weight, "idler": str(idler), "signal": str(signal_pol)}

    acc_per_px = det.accidental_rate * det.integration_time / (n * n)
    if weight <= 1e-15 and acc_per_px == 0.0:
        return lgmodes.FieldImage(np.zeros((n, n)), extent, meta=meta, empty=True)

    intensity = lgmodes.render_from_density(block, alphabet, grid, waist)
    total = intensity.sum()
    expected_pairs = det.pair_rate * det.scale(l) * det.integration_time * weight
    lam = np.full((n, n), acc_per_px)
    if total > 0:
        lam += expected_pairs * intensity / total
    meta["expected_counts"] = float(lam.sum())

    if not det.sampled:
        return lgmodes.FieldImage(lam, extent, meta=meta)
    if lam.max(initial=0.0) > MEAN_OVERFLOW:
        raise NumericalError("per-pixel mean overflows the counter model")
    gen = rng_stream(det.seed, "heralded_image", l, str(tag))
    counts = gen.poisson(lam).astype(float)
    return lgmodes.FieldImage(counts, extent, meta=meta)
