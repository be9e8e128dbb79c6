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
never depend on call order. stream_keys derives every key with the
in-repo hash, for a whole count table or a witness run's images in one
pass. The hash is the one numpy.random seeds a bit generator with,
reimplemented here and run by column. A Philox stream needs nothing but
its key (Salmon et al., SC'11): an image draws from
Generator(Philox(key=...)), and sample_counts resets one generator to each
count's key. So a change to numpy's seeding cannot move a draw; only
Philox and Generator.poisson can (CI pins numpy 2.4.6). The tests hold the
hash to numpy's seeding as an oracle and pin literal keys. The keys are
the determinism contract; changing one moves every draw made from it:

* a count keys on (seed, "counts", l, mean, tag, cell indices): a sweep's
  cell k on (tag, k), a CHSH cell on (tag, i, j), a tomography count on
  (tag, k). The mean comes from the Born probability coincidence_row
  computes in one stacked row contraction (its docstring names the
  products). So any change to that arithmetic, to the mean's, or to the
  bits of an arm ket moves every sweep, CHSH and tomography count;
  np.einsum is not an equivalent. A cell's mean does not depend on how
  many settings share its row, nor on the BLAS thread count (both are
  tested). A sweep's and a CHSH table's signal kets come from
  dial_amplitudes, one numpy pass over the dial that gives bit for bit
  linear_analyzer_ket's two-normalisation chain, angle by angle; a
  count's mean keys on those bits, and a property test holds the two
  paths equal;
* an image of a witness run keys on (scan seed, "heralded_image", l,
  str(("scan", basis))), basis "none" for the unanalyzed image. The first
  scan's seed is the run's; bootstrap scan i's is the first word of the
  key of (seed, "bootstrap", i) (analysis.bootstrap_seeds).
  analysis.witness_keys is this one layout: it keys every image of a run
  in one bootstrap_seeds pass and one stream_keys pass. Below it keys are
  only passed down; heralded_image, angular_basis_scan and
  bootstrap_errors derive none.

The Poisson draw of an image depends on every bit of its mean image. The
render memo in lgmodes keeps the count mean of a repeated heralded block,
in place of its intensity: keyed by the block and the bits of its event
count and accidental floor, read-only, with its sum (expected_counts) and
its max (the MEAN_OVERFLOW check, run on every image). A kept mean has the
bits, sum and max a fresh one gives; an image drawn from it takes its
counts in a buffer of its own, so no draw writes into it. quantum.project
memoizes each state's projections too: a repeated analyzer on the same
state returns the first projection's tuple, whose read-only residual every
caller shares. So neither memo moves a draw. A witness run heralds the same
bases on one state in every scan, so it projects once per analyzer, not
once per image, and makes each of its five means at most twice. With no
accidentals, a noiseless source's sampled images also depend on the
rounding on nodal pixels: the render clips a fringe that rounds below 0 to
a mean of 0, which takes no draw from the stream, while a tiny positive
mean does, so one such pixel shifts the draws of every pixel after it.

The converse makes truncated draws exact. Generator.poisson draws an array
in C order from its one Philox stream, so a pixel's count depends only on
its mean and the means before it. So heralded_image(..., through=k) gives
the first k pixels the counts a full draw gives them, and leaves the rest
at 0. Only the bootstrap scans of hybrid-witness truncate, at
lgmodes.annulus_end, one past the last pixel an angular profile reads. No
stream key changes, and no histogram, fit, W or sigma moves. The first
scan and the unanalyzed image are written to disk, so they are drawn whole.
A truncated image is zeros past the cut and is read only by its profile,
so analysis.angular_basis_scan keeps no image of a truncated scan: it
profiles each image as it is drawn and drops it before the next draw.
"""

import functools
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


def _arm(arm: str):
    try:
        return _ARMS[arm]
    except KeyError:
        raise ConfigError(f"unknown arm {arm!r}") from None


def linear_analyzer_ket(angle: float, arm: str) -> Ket:
    """Transmitted state of a bare linear analyzer at one local dial angle.

    The dial is a half-wave plate at half the angle; the signal arm turns it
    the other way, because the two arms face opposite directions. The ket
    lives on its arm's subsystem and is normalised there a second time. A
    CHSH idler is this ket; a sweep's or a CHSH table's signal row is
    dial_amplitudes, which gives the same bits.
    """
    sign, sub = _arm(arm)
    ket = _transmitted(None, sign * angle / 2.0, sub)
    return Ket((sub,), ket.amplitudes, fix_phase=False)


def _unit_rows(amp: np.ndarray) -> np.ndarray:
    """Each row over its norm, the squared norm summed as np.linalg.norm
    sums a complex vector: re.re + im.im, each a dot product."""
    re, im = amp.real, amp.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    return amp / np.sqrt(sq.reshape(-1, 1))


def dial_amplitudes(angles, arm: str) -> np.ndarray:
    """The read-only (N, 2) amplitudes of linear_analyzer_ket at N dial angles.

    Row k is linear_analyzer_ket(angles[k], arm).amplitudes bit for bit
    (tested): the same plate, one stacked plate-times-|H> product, the
    phase fix of a Ket and two normalisations, run on arrays. Other forms
    of the same sums (np.linalg.norm(axis=1), np.einsum) or a third
    normalisation move some rows by an ulp, and every dial count keys on
    these bits.
    """
    sign, _ = _arm(arm)
    theta = sign * np.asarray(angles, dtype=np.float64).reshape(-1) / 2.0
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    plates = np.stack([c, s, s, -c], axis=1).astype(complex).reshape(-1, 2, 2)
    amp = _unit_rows(np.matmul(plates, _H_IN))
    # the first amplitude above 1e-12 made real and non-negative, as a Ket does
    first = np.where(np.abs(amp[:, 0]) > 1e-12, amp[:, 0], amp[:, 1])
    amp = _unit_rows(amp * np.exp(-1j * np.angle(first))[:, None])
    amp.setflags(write=False)
    return amp


@dataclass(frozen=True)
class DetectorModel:
    """Coincidence counting model with Poisson statistics.

    Expected counts for a projection with Born probability P on a run with
    OAM order l:

        mean = (pair_rate * rate_scale_per_l[|l|] * P + accidental_rate) * integration_time

    The per-l rate scale stands in for the l-dependent generation and
    coupling efficiency; the values are synthetic knobs, not measurements.
    ``sampled`` makes count tables and heralded images record Poisson
    draws (True) or the expected means themselves (False). ``seed`` is
    the first part of every stream key (stream_keys), taken as 64 bits, so
    it must lie in [0, 2**64).
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
        check("seed", 0, (1 << 64) - 1, integer=True)
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

    def mean_counts(self, prob, l: int):
        """The mean of each probability in ``prob`` (a number or an array),
        in one expression, so a cell's mean is the scalar formula's float."""
        p = np.asarray(prob, dtype=np.float64)
        bad = ~((p >= 0.0) & (p <= 1.0 + 1e-9))
        if bad.any():
            raise ValueError(f"probability {p[bad].flat[0]} outside [0, 1]")
        rate = self.pair_rate * self.scale(l)
        return (rate * np.minimum(p, 1.0) + self.accidental_rate) * self.integration_time


# the in-repo hash: the constants and pool size of numpy.random's seeding hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


@functools.cache
def _hash_consts(length: int) -> tuple:
    """The running hash constants of a length-word entropy, as _seed_keys
    reads them: one read-only (const, next const) pair of (pool size, 1)
    uint32 columns per step, row d for pool word d. The steps are the
    pool's first hash, one step per source word, and the output hash. While
    one of the first pool-size words mixes into the others, those take the
    step's constants in order, and the source word's own row is unused. The
    constants depend only on the step, so every stream shares them.
    """

    def running(n, init, mult):
        out = [init]
        for _ in range(n - 1):
            out.append(out[-1] * mult & 0xFFFFFFFF)
        return np.array(out, dtype=np.uint32)

    def pair(consts, at):
        at = np.asarray(at)
        cols = consts[at][:, None], consts[at + 1][:, None]
        for col in cols:
            col.setflags(write=False)
        return cols

    c = running(_POOL + _POOL * (_POOL - 1) + _POOL * (length - _POOL) + 1, _INIT_A, _MULT_A)
    schedule = [pair(c, range(_POOL))]
    k = _POOL
    for src in range(_POOL):
        schedule.append(pair(c, [k + d - (d > src) if d != src else k for d in range(_POOL)]))
        k += _POOL - 1
    for _ in range(_POOL, length):
        schedule.append(pair(c, range(k, k + _POOL)))
        k += _POOL
    schedule.append(pair(running(_POOL + 1, _INIT_B, _MULT_B), range(_POOL)))
    return tuple(schedule)


def _hashmix(value, const, next_const):
    value = value ^ const
    value *= next_const
    value ^= value >> 16
    return value


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    out ^= out >> 16
    return out


def _seed_keys(words: np.ndarray) -> np.ndarray:
    """The (N, 2) uint64 Philox keys of N word rows at once.

    Row k of ``words`` (N x length, uint32, length >= the pool size) is the
    entropy of stream k. The steps are numpy's mix_entropy and
    generate_state(2, uint64), run down the columns with the constants of
    _hash_consts.
    """
    length = words.shape[1]
    cols = words.T
    schedule = _hash_consts(length)
    pool = _hashmix(cols[:_POOL], *schedule[0])
    # each source word mixes into every other pool word and is not changed
    # meanwhile: every row is mixed, and the source row put back
    for src in range(_POOL):
        held = pool[src].copy()
        pool = _mix(pool, _hashmix(held, *schedule[1 + src]))
        pool[src] = held
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(cols[src], *schedule[1 + src]))
    out = _hashmix(pool, *schedule[-1]).astype(np.uint64)
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


def str_word(text: str) -> int:
    """The key word of a str: the CRC-32 of its UTF-8 bytes."""
    return zlib.crc32(text.encode())


def _part_words(part) -> np.ndarray:
    """The uint32 words of one key part, one row per stream (one for a constant)."""
    if isinstance(part, int):  # an int of any size, which no int64 array holds
        return np.array([[part % (1 << 32)]], dtype=np.uint32)
    col = part if isinstance(part, np.ndarray) else np.array([part])
    if col.ndim == 1 and col.dtype.kind == "f":
        bits = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64)
        return np.stack([bits >> np.uint64(32), bits], axis=1).astype(np.uint32)
    if col.ndim == 1 and col.dtype.kind in "iu":
        return col.astype(np.uint32)[:, None]  # modulo 2**32
    if col.ndim == 1 and col.dtype.kind == "U":
        return np.array([str_word(s) for s in col.tolist()], dtype=np.uint32)[:, None]
    raise TypeError(f"cannot key on {part!r}")


def stream_keys(seed, *parts) -> np.ndarray:
    """The (N, 2) uint64 Philox keys of N streams, derived in one pass.

    ``seed`` is an int, or a uint64 column with one seed per stream. Each
    part is a constant, which every stream shares, or a column: a 1-D numpy
    array with one entry per stream. The columns set N; with none, N is 1.
    A str becomes its CRC-32 (str_word), an int its value modulo 2**32 and
    a float its IEEE-754 bits as two words, high word first. Stream k
    hashes its seed's low and high words, two zero words, then each part's
    words at row k. The hash is numpy.random's, so the key is the one numpy
    seeds a Philox with from entropy seed % 2**64 and those part words as
    the spawn key, bit for bit (tested).
    """
    n = next((len(p) for p in (seed, *parts) if isinstance(p, np.ndarray)), 1)
    if not isinstance(seed, np.ndarray):
        seed = np.array([int(seed) % (1 << 64)], dtype=np.uint64)
    head = np.zeros((len(seed), 4), dtype=np.uint32)
    head[:, 0], head[:, 1] = seed & np.uint64(0xFFFFFFFF), seed >> np.uint64(32)
    blocks = [head] + [_part_words(part) for part in parts]
    words = np.empty((n, sum(b.shape[1] for b in blocks)), dtype=np.uint32)
    at = 0
    for b in blocks:  # a constant's one row fills every row; a column of another length raises
        words[:, at : at + b.shape[1]] = b
        at += b.shape[1]
    return _seed_keys(words)


_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.setflags(write=False)


def sample_counts(gen: np.random.Generator, mean: float, key) -> int:
    """One Poisson draw of coincidence counts from the Philox stream ``key``.

    ``gen`` is any Generator on a Philox bit generator; its state is reset
    to ``key`` at counter 0 with an empty buffer, the state a fresh stream
    starts in, so one generator serves a whole table: each draw is the one
    a fresh Generator(Philox(key=key)) makes.
    """
    if mean > MEAN_OVERFLOW:
        raise NumericalError(f"expected counts {mean:.3e} overflow the counter model")
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
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

    The signal OAM register is traced out. The idler may be an
    AnalyzerSetting or a polarization ket, used as given (not normalised
    again); look basis labels up in SETTINGS. ``signals`` is the (N, 2)
    complex amplitude array S of the signal settings, such as
    dial_amplitudes gives or SETTING_KETS amplitudes stacked, used as given
    as a ket's amplitudes are. The whole row is one stacked contraction
    over S, and that arithmetic is what its counts key on:

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
    S = signals
    if not isinstance(S, np.ndarray) or S.dtype != complex or S.ndim != 2 or S.shape[1] != 2:
        raise ConfigError(f"signal amplitudes must be an (N, 2) complex array, got {S!r}")
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
    kets, read as coincidence_row reads its idler, and projects them in order."""
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
    basis (H/V is used). The projections come from the state's memo
    (quantum.project), so a repeated call projects nothing again; the
    returned block is a new array each time.
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
    key,
    through: int | None = None,
) -> lgmodes.FieldImage:
    """Coincidence image of the signal arm conditioned on the idler.

    Pixel means follow the detector model: the joint-projection event rate
    is spread over the pixels in proportion to the rendered intensity, and
    the accidental rate is spread flat. With det.sampled each pixel is an
    independent Poisson draw from the Philox stream ``key``, a stream_keys
    row such as analysis.witness_keys gives; otherwise the expected means
    themselves are returned and ``key`` is unused.

    through, a count in [0, n*n], draws only the first ``through`` pixels
    in C order and leaves the rest at 0; those pixels get the counts a full
    draw gives them (see the module docstring). The mean image, its
    expected_counts and the overflow check still cover every pixel, and an
    unsampled image is returned whole. None draws every pixel.

    The mean comes from lgmodes.render_from_density, which keeps it for a
    repeated block (module docstring); the returned pixels are the
    caller's own either way.
    """
    n, extent = int(grid[0]), float(grid[1])
    if through is None:
        through = n * n
    elif not 0 <= through <= n * n:
        raise ValueError(f"through={through} is outside [0, {n * n}]")
    alphabet = state.subsystems[state.axis(SIGNAL_OAM)].labels
    block, weight = conditional_oam(state, idler, signal_pol)
    meta = {"joint_probability": weight, "idler": str(idler), "signal": str(signal_pol)}

    acc_per_px = det.accidental_rate * det.integration_time / (n * n)
    if weight <= 1e-15 and acc_per_px == 0.0:
        meta["expected_counts"] = 0.0
        return lgmodes.FieldImage(np.zeros((n, n)), extent, meta=meta)

    count = det.pair_rate * det.scale(l) * det.integration_time * weight
    mean = lgmodes.render_from_density(block, alphabet, grid, waist, count=count, floor=acc_per_px)
    meta["expected_counts"] = mean.expected_counts
    lam = mean.pixels
    # a kept mean is read-only and shared: the image gets a buffer of its own
    fresh = lam.flags.writeable
    if not det.sampled:
        return lgmodes.FieldImage(lam if fresh else lam.copy(), extent, meta=meta)
    if mean.peak > MEAN_OVERFLOW:
        raise NumericalError("per-pixel mean overflows the counter model")
    gen = np.random.Generator(np.random.Philox(key=key))
    counts = lam if fresh else np.empty((n, n))  # a fresh mean takes its counts in place
    flat = counts.reshape(-1)
    flat[:through] = gen.poisson(lam.reshape(-1)[:through])
    flat[through:] = 0.0
    return lgmodes.FieldImage(counts, extent, meta=meta)
