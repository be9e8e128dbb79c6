"""Analyzer settings, the OAM blocks they select, coincidence probabilities,
and Poisson counting. oam_block is the one polarization-to-OAM-block step
of both image benches: the pump gallery renders its block, and heralded
images render conditional_oam's, the block scaled by its weight.

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
never depend on call order. numpy.random.SeedSequence hashes the seed and
the tag words (_tag_ints) into the Philox key. The words go in as one
uint32 array, which gives the pool that handing them over as ints gives
(tested). So a change to the tag words moves every draw, and so would a
numpy release whose SeedSequence or Philox seeding differs (CI pins numpy
2.4.6). The keys are the determinism contract; changing one moves every
draw made from it:

* sample_counts keys on (seed, "counts", l, float(mean), tag), where the
  mean comes from the Born probability coincidence_row computes in one
  stacked row contraction (its docstring names the products). So any
  change to that arithmetic, to the mean's, or to the bits of an arm ket
  moves every sweep, CHSH and tomography count; np.einsum is not an
  equivalent. A cell's mean does not depend on how many settings share
  its row, nor on the BLAS thread count (both are tested);
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

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import jones, lgmodes
from .errors import ConfigError, NumericalError, number
from .quantum import (
    NULL_TOL,
    POL_LABELS,
    Ket,
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


# the |H> a PBS transmits, and the arm subsystems: constants every ket reuses
_H_IN = np.array([1.0, 0.0 + 0.0j])
_H_IN.setflags(write=False)
_ARMS = {"idler": (1.0, pol_subsystem(IDLER)), "signal": (-1.0, pol_subsystem(SIGNAL_POL))}


def _transmitted(qwp_angle, hwp_angle: float, subsystem) -> Ket:
    """Ket on ``subsystem`` that QWP(qwp_angle)^dagger HWP(hwp_angle) makes of |H>."""
    vec = jones.half_wave(hwp_angle) @ _H_IN
    if qwp_angle is not None:
        vec = jones.quarter_wave(qwp_angle).conj().T @ vec
    return Ket((subsystem,), vec)


def analyzer_state(setting: AnalyzerSetting, name: str = "pol") -> Ket:
    """Polarization ket transmitted by the QWP -> HWP -> PBS chain."""
    return _transmitted(setting.qwp_angle, setting.hwp_angle, pol_subsystem(name))


def linear_analyzer_ket(angle: float, arm: str) -> Ket:
    """Transmitted state of a bare linear analyzer at a local dial angle.

    The dial is a half-wave plate at half the angle; the signal arm turns it
    the other way, because the two arms face opposite directions. The ket
    lives on its arm's subsystem and is normalised there a second time:
    every dial count keys on those bits.
    """
    try:
        sign, sub = _ARMS[arm]
    except KeyError:
        raise ConfigError(f"unknown arm {arm!r}") from None
    ket = _transmitted(None, sign * angle / 2.0, sub)
    return Ket((sub,), ket.amplitudes, fix_phase=False)


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
        def check(name, *b, **kw):
            object.__setattr__(self, name, number(getattr(self, name), f"detector.{name}", *b, **kw))

        check("pair_rate", 0.0)
        check("accidental_rate", 0.0)
        check("integration_time", 0.0, open_lo=True)
        check("seed", integer=True)
        if type(self.sampled) is not bool:
            raise ConfigError(f"detector.sampled must be true or false, got {self.sampled!r}")
        scales = {}
        key = "detector.rate_scale_per_l key"
        for k, v in dict(self.rate_scale_per_l).items():  # JSON object keys arrive as strings
            l = number(int(k) if isinstance(k, str) and k.isdecimal() else k, key, 0, integer=True)
            scales[l] = number(v, f"detector.rate_scale_per_l[{l}]", 0.0, 1.0, open_lo=True)
        object.__setattr__(self, "rate_scale_per_l", scales)

    def scale(self, l: int) -> float:
        try:
            return self.rate_scale_per_l[abs(int(l))]
        except KeyError:
            raise ConfigError(f"no rate scale declared for |l|={abs(int(l))}") from None

    def mean_counts(self, prob: float, l: int) -> float:
        if not 0.0 <= prob <= 1.0 + 1e-9:
            raise ValueError(f"probability {prob} outside [0, 1]")
        return (self.pair_rate * self.scale(l) * min(prob, 1.0) + self.accidental_rate) * self.integration_time


def _tag_ints(tags) -> list:
    """The uint32 words of a flattened tag tuple: a string's CRC-32, an int
    modulo 2**32, a float's IEEE-754 bits as two words, high word first."""
    out = []
    for t in tags:
        if isinstance(t, str):
            out.append(zlib.crc32(t.encode()))
        elif isinstance(t, float):
            out += struct.unpack(">II", struct.pack(">d", t))  # big-endian: high word first
        elif isinstance(t, (tuple, list)):
            out += _tag_ints(t)
        else:
            out.append(int(t) % (1 << 32))
    return out


def _seed_sequence(seed: int, tags) -> np.random.SeedSequence:
    """The SeedSequence of (seed, tags). The tag words go in as one uint32
    array, which gives the pool their ints would, without coercing each."""
    words = np.array(_tag_ints(tags), dtype=np.uint32)
    return np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(words,))


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """Deterministic counter-based generator keyed by seed and tags."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tags)))


def derived_seed(seed: int, *tags) -> int:
    """A child seed that is a pure function of (seed, tags)."""
    return int(_seed_sequence(seed, tags).generate_state(1, np.uint64)[0])


def sample_counts(prob: float, det: DetectorModel, l: int, tag=0) -> int:
    """One Poisson draw of coincidence counts; pure in (det.seed, inputs, tag)."""
    mean = det.mean_counts(prob, l)
    if mean > MEAN_OVERFLOW:
        raise NumericalError(f"expected counts {mean:.3e} overflow the counter model")
    gen = rng_stream(det.seed, "counts", l, float(mean), tag)
    return int(gen.poisson(mean))


# the ket each named setting transmits, built once: every heralded image
# and count-table row asks for them again. An equal setting gets the same
# ket; the one equal setting with other bits, a -0.0 plate angle for 0.0,
# transmits the same bits (tested)
SETTING_KETS = {setting: analyzer_state(setting) for setting in SETTINGS.values()}


def _arm_ket(setting) -> Ket:
    """An analyzer setting as the ket it transmits; a polarization ket is used as given."""
    if isinstance(setting, AnalyzerSetting):
        ket = SETTING_KETS.get(setting)
        return analyzer_state(setting) if ket is None else ket
    if isinstance(setting, Ket) and [s.labels for s in setting.subsystems] == [POL_LABELS]:
        return setting
    raise ConfigError(f"cannot interpret analyzer setting {setting!r}")


def coincidence_row(state, idler, signals) -> list:
    """Joint Born probabilities of one idler setting with each signal setting.

    The signal OAM register is traced out. Settings may be AnalyzerSetting
    values or polarization kets, which are used as given (not normalised
    again); look basis labels up in SETTINGS. The whole row is one stacked
    contraction over the signal amplitudes S (N x 2), and that arithmetic
    is what its counts key on:

    * a mixed state has its idler projected once. Each cell's bra <s| meets
      the residual rho in np.matmul(S.conj()[:, None, :], rho), the
      (1 x 2) @ (2 x ...) product a single cell makes; one np.matmul with S
      closes the cell, its trace over the OAM register is the signal
      probability, and the idler probability scales it;
    * a pure state meets its signal axis the same way, then the conjugate
      idler ket in np.matmul, and sums |amplitude|^2.

    Each cell equals the per-cell projection chain bit for bit, and does
    not depend on how many settings share its row; both are tested. Other
    forms of the same sums are not equivalent: np.dot(S.conj(), rho) takes
    another BLAS kernel for a stacked S, and np.einsum moves cells by an
    ulp.
    """
    idler = _arm_ket(idler)
    S = np.array([_arm_ket(s).amplitudes for s in signals], dtype=complex).reshape(-1, 2)
    n = len(S)
    # one (1 x 2) @ (2 x ...) product per cell, as the per-cell chain makes it
    bras = S.conj()[:, None, :]
    if isinstance(state, Ket):
        axes = (state.axis(SIGNAL_POL), state.axis(IDLER))
        t = np.moveaxis(state.amplitudes.reshape(state.dims), axes, (0, 1))
        row = np.matmul(bras, t.reshape(2, -1)).reshape(n, 2, t[0, 0].size)
        amps = np.matmul(idler.amplitudes.conj(), row)
        return [float(p) for p in np.sum(np.abs(amps) ** 2, axis=1)]
    residual, p1 = project(state, idler, subsystem=IDLER)
    if p1 < NULL_TOL:
        return [0.0] * n
    k = len(residual.dims)
    ax = residual.axis(SIGNAL_POL)
    rho = np.moveaxis(residual.matrix.reshape(residual.dims * 2), (ax, k + ax), (0, k))
    r = residual.dim // 2
    # <s| rho, laid out (cell, oam ket, oam bra, signal bra) for the |s> product
    bra = np.matmul(bras, rho.reshape(2, -1)).reshape(n, r, 2, r).transpose(0, 1, 3, 2)
    cells = np.matmul(bra.reshape(n, r * r, 2), S[:, :, None]).reshape(n, r, r)
    p2s = np.trace(cells, axis1=1, axis2=2).real
    return [p1 * float(p2) if p2 >= NULL_TOL else 0.0 for p2 in p2s]


def oam_block(state, analyzers: dict):
    """(block, weight) left by polarization analyzers: block is the normalised
    OAM density matrix (None on a null outcome), weight the product of the
    projection probabilities. analyzers maps subsystem names to settings or
    kets, read as coincidence_row reads them, and projects them in order."""
    weight = 1.0
    for name, setting in analyzers.items():
        state, p = project(state, _arm_ket(setting), subsystem=name)
        weight *= p
        if state is None:
            return None, weight
    if isinstance(state, Ket):
        return np.outer(state.amplitudes, state.amplitudes.conj()), weight
    return state.matrix, weight


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

    block, weight = oam_block(state, {IDLER: idler, SIGNAL_POL: signal_pol})
    if block is None:
        n = state.dims[state.axis(SIGNAL_OAM)]
        return np.zeros((n, n), dtype=complex), 0.0
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
        return lgmodes.FieldImage(np.zeros((n, n)), extent, meta=meta)

    intensity = lgmodes.render_from_density(block, alphabet, grid, waist)
    total = intensity.sum()
    expected_pairs = det.pair_rate * det.scale(l) * det.integration_time * weight
    if total > 0:
        # acc + expected * intensity / total, with the same roundings, in place
        lam = np.multiply(intensity, expected_pairs)
        lam /= total
        lam += acc_per_px
    else:
        lam = np.full((n, n), acc_per_px)
    meta["expected_counts"] = float(lam.sum())

    if not det.sampled:
        return lgmodes.FieldImage(lam, extent, meta=meta)
    if lam.max(initial=0.0) > MEAN_OVERFLOW:
        raise NumericalError("per-pixel mean overflows the counter model")
    gen = rng_stream(det.seed, "heralded_image", l, str(tag))
    counts = gen.poisson(lam).astype(float)
    return lgmodes.FieldImage(counts, extent, meta=meta)
