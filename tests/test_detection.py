"""Analyzer settings, coincidence probabilities, and the counting model."""

import dataclasses
import math
import zlib
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from hesim import lgmodes
from hesim.analysis import (
    CHSH_SETTINGS_DEG,
    SCAN_BASES,
    angular_basis_scan,
    bootstrap_errors,
    bootstrap_seeds,
    sweep_dial,
    witness_keys,
)
from hesim.detection import (
    MEAN_OVERFLOW,
    SETTING_KETS,
    SETTINGS,
    AnalyzerSetting,
    DetectorModel,
    _arm_ket,
    analyzer_state,
    coincidence_row,
    conditional_oam,
    dial_amplitudes,
    heralded_image,
    linear_analyzer_ket,
    sample_counts,
    stream_keys,
)
from hesim.errors import ConfigError, NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import (
    angular_maxima,
    angular_profile,
    default_annulus,
    default_extent,
    petal_fit,
    render_from_density,
)
from hesim.quantum import pol_ket
from hesim.spdc import apply_noise, down_convert

OAM3 = tuple(range(-3, 4))

POL = {
    "H": np.array([1.0, 0.0]),
    "V": np.array([0.0, 1.0]),
    "D": np.array([1.0, 1.0]) / np.sqrt(2),
    "A": np.array([1.0, -1.0]) / np.sqrt(2),
    "R": np.array([1.0, -1.0j]) / np.sqrt(2),
    "L": np.array([1.0, 1.0j]) / np.sqrt(2),
}


def hwp_oracle(t):
    c, s = np.cos(2 * t), np.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_oracle(t):
    r = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return r(t) @ np.diag([1.0, 1.0j]) @ r(-t)


def bell_state():
    return down_convert(pump_state(0, alphabet=(0,)))


def test_analyzer_settings_select_the_six_canonical_states():
    for name, vec in POL.items():
        ket = analyzer_state(SETTINGS[name])
        assert abs(np.vdot(vec, ket.amplitudes)) == pytest.approx(1.0, abs=1e-12), name


def test_analyzer_matches_plate_chain_oracle():
    # transmitted state is the one the PBS maps to H after both plates
    for name, setting in SETTINGS.items():
        vec = hwp_oracle(setting.hwp_angle).conj().T @ POL["H"]
        if setting.qwp_angle is not None:
            vec = qwp_oracle(setting.qwp_angle).conj().T @ vec
        ket = analyzer_state(setting)
        assert abs(np.vdot(vec, ket.amplitudes)) == pytest.approx(1.0, abs=1e-12), name


def test_named_setting_kets_hold_fresh_bits():
    def same(a, b):
        return a.subsystems == b.subsystems and a.amplitudes.tobytes() == b.amplitudes.tobytes()

    assert set(SETTING_KETS) == set(SETTINGS.values())
    for name, setting in SETTINGS.items():
        assert _arm_ket(setting) is SETTING_KETS[setting], name
        assert same(SETTING_KETS[setting], analyzer_state(setting)), name
    # H and L have a 0.0 half-wave angle: a -0.0 one compares equal, so it
    # finds their ket, and a fresh build of it has the same bits
    for name in ("H", "L"):
        signed = AnalyzerSetting(SETTINGS[name].qwp_angle, -0.0)
        assert signed in SETTING_KETS
        assert same(_arm_ket(signed), analyzer_state(signed)), name
    other = AnalyzerSetting(0.1, 0.2)
    assert other not in SETTING_KETS
    assert same(_arm_ket(other), analyzer_state(other))


def test_linear_analyzer_arm_conventions():
    chi = 0.3
    sig = linear_analyzer_ket(chi, "signal")
    idl = linear_analyzer_ket(chi, "idler")
    assert np.allclose(sig.amplitudes, [np.cos(chi), -np.sin(chi)], atol=1e-12)
    assert np.allclose(idl.amplitudes, [np.cos(chi), np.sin(chi)], atol=1e-12)
    with pytest.raises(ConfigError):
        linear_analyzer_ket(chi, "pump")


def assert_dial_is_its_kets(angles, arm):
    got = dial_amplitudes(angles, arm)
    want = np.array([linear_analyzer_ket(a, arm).amplitudes for a in angles], dtype=complex)
    assert got.shape == (len(angles), 2)
    assert np.array_equal(got.view(np.uint64), want.reshape(-1, 2).view(np.uint64))


@pytest.mark.parametrize("step", [0.01, 0.25, 1.0, 2.0, 5.0, 10.0])
def test_every_sweep_dial_is_its_analyzer_kets_bit_for_bit(step):
    # every dial count keys on these bits, through its Born probability
    angles, amplitudes = sweep_dial(step)
    assert np.array_equal(
        amplitudes.view(np.uint64), dial_amplitudes(angles, "signal").view(np.uint64)
    )
    for arm in ("signal", "idler"):
        assert_dial_is_its_kets(angles, arm)


CHSH_SIGNAL_ANGLES = [
    math.radians(CHSH_SETTINGS_DEG[k]) + quarter
    for k in (2, 3)
    for quarter in (0.0, np.pi / 2)
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    arm=st.sampled_from(("signal", "idler")),
    angles=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=40),
)
@example(arm="signal", angles=[0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi])
@example(arm="idler", angles=[0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi])
@example(arm="signal", angles=CHSH_SIGNAL_ANGLES)
def test_dial_amplitudes_are_the_analyzer_kets_bit_for_bit(arm, angles):
    assert_dial_is_its_kets(angles, arm)


def test_dial_amplitudes_shape_and_refusals():
    amp = dial_amplitudes([0.1, 0.2], "idler")
    assert not amp.flags.writeable
    with pytest.raises(ValueError):
        amp[0, 0] = 1.0
    assert dial_amplitudes([], "signal").shape == (0, 2)
    with pytest.raises(ConfigError):
        dial_amplitudes([0.1], "pump")
    with pytest.raises(ConfigError):  # an amplitude row is (N, 2) complex
        coincidence_row(bell_state(), SETTINGS["H"], amp.real)


def signal_row(settings) -> np.ndarray:
    """The (N, 2) signal amplitudes of settings or kets, stacked as coincidence_row takes them."""
    return np.array([_arm_ket(s).amplitudes for s in settings], dtype=complex).reshape(-1, 2)


def test_coincidence_table_against_kron_oracle():
    state = bell_state()
    bell = np.zeros(4, dtype=complex)
    bell[0], bell[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    for a, va in POL.items():
        row = coincidence_row(state, SETTINGS[a], signal_row([SETTINGS[b] for b in POL]))
        for (b, vb), got in zip(POL.items(), row):
            expected = abs(np.vdot(np.kron(va, vb), bell)) ** 2
            assert got == pytest.approx(expected, abs=1e-10), (a, b)


def test_coincidence_spot_values():
    state = bell_state()
    assert coincidence_row(state, SETTINGS["H"], signal_row([SETTINGS["H"]])) == [
        pytest.approx(0.5, abs=1e-12)
    ]
    assert coincidence_row(state, SETTINGS["D"], signal_row([SETTINGS["D"], SETTINGS["A"]])) == [
        pytest.approx(0.0, abs=1e-12),
        pytest.approx(0.5, abs=1e-12),
    ]
    assert coincidence_row(state, SETTINGS["H"], signal_row([])) == []
    with pytest.raises(ConfigError):  # labels are looked up in SETTINGS by the caller
        coincidence_row(state, "H", signal_row([SETTINGS["H"]]))
    with pytest.raises(ConfigError):  # signals are one amplitude array, not a list of settings
        coincidence_row(state, SETTINGS["H"], [SETTINGS["H"]])


def test_werner_correlation_visibility_is_one_minus_p():
    for p in (0.0, 0.1, 0.31):
        rho = apply_noise(down_convert(pump_state(3, alphabet=OAM3)), p)
        idler = pol_ket("V", name="idler")
        signals = [linear_analyzer_ket(np.radians(x), "signal") for x in np.arange(0, 180, 7.5)]
        probs = coincidence_row(rho, idler, signal_row(signals))
        vis = (max(probs) - min(probs)) / (max(probs) + min(probs))
        assert vis == pytest.approx(1.0 - p, abs=1e-10)


def test_no_signaling_idler_marginal():
    rho = apply_noise(down_convert(pump_state(2, alphabet=OAM3)), 0.2)
    base = None
    for chi in np.radians(np.arange(0, 180, 12.5)):
        total = sum(
            coincidence_row(
                rho,
                SETTINGS["D"],
                signal_row([linear_analyzer_ket(c, "signal") for c in (chi, chi + np.pi / 2)]),
            )
        )
        base = total if base is None else base
        assert total == pytest.approx(base, abs=1e-10)
    assert base == pytest.approx(0.5, abs=1e-10)


# -- counting -----------------------------------------------------------------------


def golden_detector(seed=0):
    return DetectorModel(
        pair_rate=10.0,
        accidental_rate=0.0,
        integration_time=10.0,
        rate_scale_per_l={0: 1.0},
        seed=seed,
    )


def draw_count(prob, det, l, tag=0) -> int:
    """One count drawn as a table of one cell: its key from stream_keys, its
    draw from a generator made for it. A tuple tag is its constant parts."""
    mean = det.mean_counts(prob, l)
    tag = tag if isinstance(tag, tuple) else (tag,)
    key = stream_keys(det.seed, "counts", l, float(mean), *tag)[0]
    return sample_counts(np.random.Generator(np.random.Philox(0)), mean, key)


def test_zero_probability_draws_zero_counts():
    assert draw_count(0.0, golden_detector(), 0) == 0


def test_golden_poisson_draws():
    # frozen values pin the stream layout; a change here is a compat break
    assert draw_count(1.0, golden_detector(seed=0), 0, tag=0) == 109
    assert draw_count(1.0, golden_detector(seed=1), 0, tag=0) == 103


def test_sample_counts_mean_tracks_rate():
    det = DetectorModel(
        pair_rate=1e5, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={0: 1.0}, seed=7,
    )
    n = draw_count(1.0, det, 0, tag="bulk")
    assert abs(n - 1e6) < 5 * np.sqrt(1e6)


def test_sample_counts_overflow_guard():
    det = DetectorModel(
        pair_rate=1e12, accidental_rate=0.0, integration_time=100.0,
        rate_scale_per_l={0: 1.0}, seed=0,
    )
    with pytest.raises(NumericalError):
        draw_count(1.0, det, 0)


def test_sample_counts_is_pure_in_its_inputs():
    det = golden_detector(seed=3)
    a = [draw_count(0.7, det, 0, tag=("sweep", k)) for k in range(6)]
    b = [draw_count(0.7, det, 0, tag=("sweep", k)) for k in range(6)]
    assert a == b
    assert len(set(a)) > 1  # distinct tags give distinct draws


def test_mean_counts_includes_accidentals():
    det = DetectorModel(
        pair_rate=100.0, accidental_rate=2.0, integration_time=5.0,
        rate_scale_per_l={0: 1.0, 2: 0.25}, seed=0,
    )
    assert det.mean_counts(0.0, 0) == pytest.approx(10.0)
    assert det.mean_counts(0.5, 2) == pytest.approx(100 * 0.25 * 0.5 * 5 + 10)
    with pytest.raises(ValueError):
        det.mean_counts(-0.1, 0)
    with pytest.raises(ConfigError):
        det.mean_counts(0.5, 5)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    probs=st.lists(st.floats(0.0, 1.0 + 1e-9), max_size=20),
    pair_rate=st.floats(0.0, 1e9),
    accidental_rate=st.floats(0.0, 1e3),
    integration_time=st.floats(1e-3, 1e3),
    scale=st.floats(0.0, 1.0, exclude_min=True),
)
@example(
    probs=[0.0, -0.0, 5e-324, 1.0, 1.0 + 1e-9, 0.1], pair_rate=1e4,
    accidental_rate=0.0, integration_time=10.0, scale=0.12,
)
def test_table_means_are_the_scalar_formula(
    probs, pair_rate, accidental_rate, integration_time, scale
):
    # a count keys on float(mean), so a table's means must be the per-cell floats
    det = DetectorModel(
        pair_rate=pair_rate, accidental_rate=accidental_rate,
        integration_time=integration_time, rate_scale_per_l={3: scale},
    )
    scalar = [
        (det.pair_rate * det.scale(3) * min(p, 1.0) + det.accidental_rate) * det.integration_time
        for p in probs
    ]
    means = det.mean_counts(np.array(probs, dtype=np.float64), -3)
    assert means.shape == (len(probs),)
    assert means.view(np.uint64).tolist() == np.array(scalar).view(np.uint64).tolist()
    with pytest.raises(ValueError):
        det.mean_counts(np.array(probs + [1.1]), 3)
    with pytest.raises(ValueError):
        det.mean_counts(np.array([math.nan] + probs), 3)


def test_detector_model_validation():
    with pytest.raises(ConfigError):
        DetectorModel(pair_rate=-1.0, accidental_rate=0.0, integration_time=1.0,
                      rate_scale_per_l={0: 1.0}, seed=0)
    with pytest.raises(ConfigError):
        DetectorModel(pair_rate=1.0, accidental_rate=0.0, integration_time=0.0,
                      rate_scale_per_l={0: 1.0}, seed=0)
    with pytest.raises(ConfigError):
        DetectorModel(pair_rate=1.0, accidental_rate=0.0, integration_time=1.0,
                      rate_scale_per_l={0: 0.0}, seed=0)


def test_detector_seed_spans_64_bits():
    # every stream keys on 64 bits of the seed, so a seed outside them would alias
    for seed in (0, 2**64 - 1):
        assert DetectorModel(seed=seed).seed == seed
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ConfigError):
            DetectorModel(seed=seed)


# -- conditional OAM and heralded images ---------------------------------------------


def test_conditional_oam_weight_equals_trace():
    state = down_convert(pump_state(3, alphabet=OAM3))
    block, weight = conditional_oam(state, SETTINGS["A"], SETTINGS["D"])
    assert weight == pytest.approx(np.trace(block).real, abs=1e-12)
    assert weight == pytest.approx(0.25, abs=1e-12)


def test_conditional_oam_without_idler_sums_basis():
    state = down_convert(pump_state(1, alphabet=OAM3))
    none_block, none_w = conditional_oam(state, None, SETTINGS["D"])
    h_block, h_w = conditional_oam(state, pol_ket("H"), SETTINGS["D"])
    v_block, v_w = conditional_oam(state, pol_ket("V"), SETTINGS["D"])
    assert np.allclose(none_block, h_block + v_block, atol=1e-12)
    assert none_w == pytest.approx(h_w + v_w, abs=1e-12)
    # the mixture has no +l/-l coherence: off-diagonal block vanishes
    assert abs(none_block[2, 4]) < 1e-12


def test_conditional_oam_null_projection_is_zero():
    state = down_convert(pump_state(1, alpha=1.0, alphabet=OAM3))  # idler is purely V
    block, weight = conditional_oam(state, pol_ket("H"), SETTINGS["D"])
    assert weight == 0.0
    assert not block.any()


def make_detector(seed=0, sampled=True):
    return DetectorModel(
        pair_rate=1e4, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={0: 1.0, 1: 0.5, 2: 0.25, 3: 0.12}, seed=seed, sampled=sampled,
    )


def heralded(l, idler, sampled=False, seed=0, tag="t"):
    state = down_convert(pump_state(l, alphabet=OAM3))
    grid = (256, default_extent(1.0, l))
    setting = None if idler is None else SETTINGS[idler]
    key = stream_keys(seed, "heralded_image", l, str(tag))[0]
    return heralded_image(
        state, setting, SETTINGS["D"], grid, 1.0, make_detector(seed, sampled), l, key=key
    )


def test_heralded_a_image_shows_six_petals():
    img = heralded(3, "A")
    hist = angular_profile(img, 72, default_annulus(1.0, 3))
    assert len(angular_maxima(hist)) == 6


def test_heralded_none_image_is_uniform():
    img = heralded(3, None)
    fit = petal_fit(angular_profile(img, 72, default_annulus(1.0, 3)), 3)
    assert fit.V < 1e-9
    # sampled at bright-beam count scales the fitted modulation stays small
    det = DetectorModel(
        pair_rate=1e6, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={1: 0.5}, seed=0,
    )
    state = down_convert(pump_state(1, alphabet=OAM3))
    grid = (256, default_extent(1.0, 1))
    key = stream_keys(0, "heralded_image", 1, "image")[0]
    img_s = heralded_image(state, None, SETTINGS["D"], grid, 1.0, det, 1, key)
    fit_s = petal_fit(angular_profile(img_s, 72, default_annulus(1.0, 1)), 1)
    assert fit_s.V < 0.02


def test_heralded_r_and_a_differ_by_quarter_period():
    l = 1
    bin_width = np.degrees(2 * np.pi / 72)
    t0 = {}
    for idler in ("R", "A"):
        img = heralded(l, idler)
        fit = petal_fit(angular_profile(img, 72, default_annulus(1.0, l)), l)
        t0[idler] = np.degrees(fit.theta0)
    period = 180.0 / l
    shift = (t0["R"] - t0["A"]) % period
    shift = min(shift, period - shift)
    assert abs(shift - 45.0 / l) <= bin_width / 2


def test_heralded_empty_image_flag():
    state = down_convert(pump_state(1, alpha=1.0, alphabet=OAM3))
    grid = (256, default_extent(1.0, 1))
    img = heralded_image(
        state, SETTINGS["H"], SETTINGS["D"], grid, 1.0, make_detector(sampled=False), 1, None
    )
    assert img.meta["joint_probability"] == 0.0
    assert img.meta["expected_counts"] == 0.0
    assert not img.pixels.any()


def test_expected_image_keeps_the_flat_then_add_bits():
    # the mean image as it was first assembled: the flat accidental floor,
    # then the pair rate spread by intensity added onto it
    state = apply_noise(down_convert(pump_state(2, phi=0.7, alpha=0.3, alphabet=OAM3)), 0.2)
    grid = (64, default_extent(1.0, 2))
    for acc in (0.0, 37.5):
        det = DetectorModel(accidental_rate=acc, seed=3, sampled=False)
        for idler in (None, "R", "A"):
            setting = None if idler is None else SETTINGS[idler]
            img = heralded_image(state, setting, SETTINGS["D"], grid, 1.0, det, 2, None)
            block, weight = conditional_oam(state, setting, SETTINGS["D"])
            intensity = render_from_density(block, OAM3, grid, 1.0)
            expected_pairs = det.pair_rate * det.scale(2) * det.integration_time * weight
            lam = np.full((64, 64), acc * det.integration_time / 64**2)
            lam += expected_pairs * intensity / intensity.sum()
            assert img.pixels.tobytes() == lam.tobytes(), (acc, idler)


def test_heralded_expected_counts_meta():
    img = heralded(3, "A")
    det = make_detector()
    expected = det.pair_rate * det.scale(3) * det.integration_time * 0.25
    assert img.meta["expected_counts"] == pytest.approx(expected, rel=1e-9)
    assert img.meta["joint_probability"] == pytest.approx(0.25, abs=1e-12)


def test_heralded_sampling_determinism():
    a = heralded(2, "D", sampled=True, seed=5, tag="x")
    b = heralded(2, "D", sampled=True, seed=5, tag="x")
    c = heralded(2, "D", sampled=True, seed=5, tag="y")
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def fresh_image(*args):
    """heralded_image with no held render factors or kept means: a fresh mean."""
    with mock.patch.object(lgmodes, "_held_stack", None):
        return heralded_image(*args)


detector_rates = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1.0, 1e6))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    pair_rate=detector_rates,
    accidental=detector_rates,
    other=st.sampled_from(["pair_rate", "accidental_rate"]),
    other_rate=detector_rates,
    idler=st.sampled_from([None, "A", "R"]),
    through=st.sampled_from([None, 0, 500, 32 * 32]),
)
@example(pair_rate=-0.0, accidental=-0.0, other="accidental_rate", other_rate=0.0, idler="A", through=None)
def test_a_kept_count_mean_gives_a_fresh_ones_bits(pair_rate, accidental, other, other_rate, idler, through):
    # the third image of a block is drawn from its kept mean, the second from
    # the mean as it is kept; both give the bits, expected_counts and draws
    # of a fresh mean, and neither draw writes into the kept mean
    state = apply_noise(down_convert(pump_state(2, phi=0.4, alpha=0.3, alphabet=OAM3)), 0.1)
    grid = (32, default_extent(1.0, 2))
    setting = None if idler is None else SETTINGS[idler]
    key = stream_keys(5, "heralded_image", 2, "kept")[0]
    lgmodes.mode_stack((0,), 16, 1.0, 1.0)  # start from factors with nothing kept

    def images(det):
        # the drawn images, then the kept mean after the draws: the unsampled
        # image of the same count and floor
        for d in (det, dataclasses.replace(det, sampled=False)):
            args = (state, setting, SETTINGS["D"], grid, 1.0, d, 2, key, through)
            fresh = fresh_image(*args)
            for _ in range(3):
                img = heralded_image(*args)
                assert img.pixels.tobytes() == fresh.pixels.tobytes()
                assert img.meta == fresh.meta
                assert img.pixels.flags.writeable
                img.pixels.fill(-1.0)  # the caller's own buffer, shared with no kept mean

    det = DetectorModel(pair_rate=pair_rate, accidental_rate=accidental, seed=5)
    images(det)
    # the same block at another rate, even one equal but for its sign bit,
    # has a count mean of its own
    images(dataclasses.replace(det, **{other: other_rate}))


def test_a_kept_count_mean_is_checked_for_overflow():
    state = down_convert(pump_state(2, alphabet=OAM3))
    grid = (32, default_extent(1.0, 2))
    det = DetectorModel(pair_rate=1e15, seed=5)
    args = (state, SETTINGS["A"], SETTINGS["D"], grid, 1.0)
    lgmodes.mode_stack((0,), 16, 1.0, 1.0)
    for _ in range(3):  # kept on the second call; an unsampled image is not checked
        img = heralded_image(*args, dataclasses.replace(det, sampled=False), 2, None)
    assert img.pixels.max() > MEAN_OVERFLOW
    with pytest.raises(NumericalError, match="overflows"):
        heralded_image(*args, det, 2, stream_keys(5, "heralded_image", 2, "x")[0])


def test_an_overflowing_event_count_is_refused():
    # the count overflows to inf, and 0 * inf makes NaN on the nodal pixels,
    # so the peak is NaN: the overflow check refuses it as it refuses inf,
    # and the mean is made without a RuntimeWarning (an error under pytest)
    state = down_convert(pump_state(2, alphabet=OAM3))
    det = DetectorModel(pair_rate=1e300, integration_time=1e10, seed=5)
    args = (state, SETTINGS["A"], SETTINGS["D"], (32, default_extent(1.0, 2)), 1.0)
    lgmodes.mode_stack((0,), 16, 1.0, 1.0)
    for _ in range(3):  # a fresh mean, the mean as it is kept, and the kept mean
        with pytest.raises(NumericalError, match="overflows"):
            heralded_image(*args, det, 2, stream_keys(5, "heralded_image", 2, "x")[0])
    peak = next(m for m in lgmodes._held_stack.means.values() if m is not None).peak
    assert math.isnan(peak)
    with pytest.raises(NumericalError, match="non-finite"):
        heralded_image(*args, dataclasses.replace(det, sampled=False), 2, None)


def oracle_stream(seed, *tags) -> np.random.Generator:
    """A fresh stream keyed through numpy's SeedSequence, the keys' oracle."""
    return np.random.Generator(np.random.Philox(former_seed_sequence(seed, tags)))


def oracle_key(seed, *tags) -> list:
    """The Philox key numpy's SeedSequence makes of a seed and tags, as a list."""
    return former_seed_sequence(seed, tags).generate_state(2, np.uint64).tolist()


def test_random_streams_follow_the_determinism_contract():
    # counts key on (seed, "counts", l, mean, tag)
    det = make_detector(seed=9)
    for prob, l, tag in ((0.3, 0, 0), (0.7, 2, "sweep"), (1.0, 3, ("chsh", 4))):
        mean = det.mean_counts(prob, l)
        expected = int(oracle_stream(9, "counts", l, float(mean), tag).poisson(mean))
        assert draw_count(prob, det, l, tag=tag) == expected
    # a heralded image draws from the key it is given, on the unsampled
    # image's means; repeated renders leave those bits alone
    lams = [heralded(2, "R", sampled=False, seed=9).pixels for _ in range(3)]
    assert all(lam.tobytes() == lams[0].tobytes() for lam in lams)
    drawn = oracle_stream(9, "heralded_image", 2, "7").poisson(lams[0]).astype(float)
    assert heralded(2, "R", sampled=True, seed=9, tag="7").pixels.tobytes() == drawn.tobytes()
    # a scan draws the image of each basis from the key it is given
    state = down_convert(pump_state(2, alphabet=OAM3))
    grid = (32, default_extent(1.0, 2))
    keys = stream_keys(9, "heralded_image", 2, np.array([str(("s", b)) for b in SCAN_BASES]))
    scan = angular_basis_scan(
        state, 2, det, grid, 1.0, annulus=default_annulus(1.0, 2), nbins=16, keys=keys
    )
    for basis, img in scan.images.items():
        setting = SETTINGS[basis]
        unsampled = make_detector(9, False)
        lam = heralded_image(state, setting, SETTINGS["D"], grid, 1.0, unsampled, 2, None)
        drawn = oracle_stream(9, "heralded_image", 2, f"('s', '{basis}')").poisson(lam.pixels)
        assert img.pixels.tobytes() == drawn.astype(float).tobytes(), basis
    # a witness run keys its images on (scan seed, "heralded_image", l, str(("scan", basis)))
    scans, none = witness_keys(9, 2)
    for basis, key in zip((*SCAN_BASES, "none"), (*scans[0], none)):
        assert key.tolist() == oracle_key(9, "heralded_image", 2, str(("scan", basis))), basis


def test_heralded_image_through_draws_a_prefix():
    state = apply_noise(down_convert(pump_state(2, phi=0.4, alphabet=OAM3)), 0.1)
    n = 48
    grid = (n, default_extent(1.0, 2))
    for acc in (0.0, 20.0):

        def image(through, sampled=True):
            det = DetectorModel(accidental_rate=acc, seed=11, sampled=sampled)
            key = stream_keys(11, "heralded_image", 2, "image")[0]
            return heralded_image(state, SETTINGS["R"], SETTINGS["D"], grid, 1.0, det, 2, key, through)

        full = image(None)
        assert image(n * n).pixels.tobytes() == full.pixels.tobytes()
        for k in (0, 1, 1000, n * n - 1):
            cut = image(k)
            assert cut.pixels.reshape(-1)[:k].tobytes() == full.pixels.reshape(-1)[:k].tobytes()
            assert not cut.pixels.reshape(-1)[k:].any()
            assert cut.meta == full.meta  # the mean and its sum are whole
        # an unsampled image is the mean, whole at any cut
        assert image(5, sampled=False).pixels.tobytes() == image(None, sampled=False).pixels.tobytes()
        for k in (-1, n * n + 1):
            with pytest.raises(ValueError, match="through"):
                image(k)


def former_tag_ints(tags) -> tuple:
    """The tag words as the stream keys were first made, kept as an oracle."""
    out = []
    for t in tags:
        if isinstance(t, (tuple, list)):
            out.extend(former_tag_ints(t))
        elif isinstance(t, str):
            out.append(zlib.crc32(t.encode()))
        elif isinstance(t, float):
            bits = int(np.float64(t).view(np.uint64))
            out.extend((bits >> 32, bits & 0xFFFFFFFF))
        else:
            out.append(int(t) % (1 << 32))
    return tuple(out)


def former_seed_sequence(seed, tags):
    """SeedSequence(entropy, spawn_key=<tuple of ints>), the former form of every key."""
    return np.random.SeedSequence(entropy=int(seed) % 2**64, spawn_key=former_tag_ints(tags))


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e12]  # 5e-324 is subnormal
key_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
key_ints = st.integers(-(2**40), 2**40)
key_texts = st.text(max_size=6)


@st.composite
def key_parts(draw) -> tuple:
    """Constants and columns of one length, in any order."""
    n = draw(st.integers(0, 5))

    def column(values, dtype):
        return st.lists(values, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=dtype))

    part = st.one_of(
        key_texts, key_ints, key_floats,
        column(key_ints, np.int64), column(key_texts, str), column(key_floats, np.float64),
    )
    return tuple(draw(st.lists(part, max_size=5)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(-(2**70), 2**70)),
    parts=key_parts(),
)
@example(seed=0, parts=("counts", 3, np.array(SPECIAL_FLOATS), "sweep", np.arange(7)))
@example(seed=2**32 - 1, parts=(np.array(["A", "D", "", "\u00e9"]), -1, np.arange(-2, 2)))
@example(seed=2**32, parts=(2.5, np.array([-(2**40), -1, 0, 2**40]), "x", -0.0))
@example(seed=2**64 - 1, parts=())
@example(seed=3, parts=("counts", 0, np.zeros(0), "t", np.arange(0)))  # an empty table
def test_stream_keys_match_the_former_seed_sequence(seed, parts):
    # row k is the key numpy's SeedSequence makes of the seed and the words
    # of every constant and of every column's entry k
    keys = stream_keys(seed, *parts)
    columns = [p for p in parts if isinstance(p, np.ndarray)]
    n = len(columns[0]) if columns else 1
    assert keys.dtype == np.uint64 and keys.shape == (n, 2)
    rows = [[p.tolist()[k] if isinstance(p, np.ndarray) else p for p in parts] for k in range(n)]
    for key, tags in zip(keys, rows):
        expected = former_seed_sequence(seed, tags).generate_state(2, np.uint64)
        assert key.tolist() == expected.tolist()
    if n:
        # a Philox stream needs nothing but its key
        gen = np.random.Generator(np.random.Philox(key=keys[0]))
        oracle = oracle_stream(seed, *rows[0])
        assert gen.integers(0, 2**63, size=3).tolist() == oracle.integers(0, 2**63, size=3).tolist()
        assert gen.poisson(1234.5) == oracle.poisson(1234.5)


def test_stream_keys_are_pinned():
    # literal keys: a change to the hash, or to how a part becomes words,
    # moves every draw, and fails here first
    assert stream_keys(0, "counts", 0, 1000.0, "sweep", 0)[0].tolist() == [
        13234377131452054650,
        2326913619267806749,
    ]
    seeds = np.array([0, 2**40 + 7], dtype=np.uint64)  # a seed column keys as its seeds do
    assert stream_keys(seeds, "heralded_image", 3, "7")[1].tolist() == [
        8568604883995141690,
        14065749193063730373,
    ]
    assert stream_keys(0, "bootstrap", np.arange(3))[1, 0] == 15229887652550685136
    assert stream_keys(-5, 2.5, "a", -0.0)[0, 0] == 1623809198250117318


@pytest.mark.parametrize("n_bootstrap", [0, 1, 25])
@pytest.mark.parametrize("seed", [0, 2**53 + 1, 2**63, 2**64 - 1])
def test_witness_keys_match_the_former_seed_sequence(seed, n_bootstrap):
    # one pass keys every image of a witness run: the first scan and the
    # unanalyzed image on the seed, bootstrap scan i on bootstrap seed i.
    # 2**53 + 1 is the first seed a float64 seed column would round
    seeds = bootstrap_seeds(seed, n_bootstrap).tolist()
    assert seeds == [oracle_key(seed, "bootstrap", i)[0] for i in range(n_bootstrap)]
    for l in (1, 3):
        scans, none = witness_keys(seed, l, n_bootstrap)
        assert scans.dtype == np.uint64 and scans.shape == (1 + n_bootstrap, 4, 2)
        for row, s in zip(scans, [seed, *seeds]):
            tags = [str(("scan", b)) for b in SCAN_BASES]
            assert row.tolist() == [oracle_key(s, "heralded_image", l, t) for t in tags]
        assert none.tolist() == oracle_key(seed, "heralded_image", l, str(("scan", "none")))
        # the words of the five names, hashed once, key as the column of one str per image
        names = np.array(tags * (1 + n_bootstrap) + [str(("scan", "none"))])
        column = np.repeat(np.array([seed, *seeds, seed], dtype=np.uint64), 4)[:-3]
        by_str = stream_keys(column, "heralded_image", l, names)
        assert by_str.tobytes() == scans.tobytes() + none.tobytes()
        # a bootstrap scan keys as the first scan of a run on its own seed
        for i, s in enumerate(seeds):
            assert scans[i + 1].tolist() == witness_keys(s, l)[0][0].tolist()
    if n_bootstrap == 0:  # a run without bootstrap rows has nothing to bootstrap
        with pytest.raises(ValueError):
            bootstrap_errors(lambda keys: {"W": 1.0}, scans[1:])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(-(2**70), 2**70)),
    l=st.integers(-(2**33), 2**33),
    means=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e12]), st.floats(0.0, 1e12)),
                   min_size=1, max_size=6),
    tag=st.lists(st.one_of(key_texts, key_ints), max_size=3).map(tuple),
    with_column=st.booleans(),
)
@example(seed=0, l=0, means=[0.0, -0.0, 5e-324, 1e12], tag=("sweep",), with_column=True)
@example(seed=2**32 + 5, l=3, means=[1000.0, 0.5], tag=("chsh", 1, 2), with_column=False)
def test_count_keys_are_the_stream_keys(seed, l, means, tag, with_column):
    # a count table keys as _counts does it: a means column, the constant
    # tag parts, then any int columns; cell k gets the key of its own stream
    columns = [np.arange(len(means)) - 1] if with_column else []
    keys = stream_keys(seed, "counts", l, np.array(means), *tag, *columns)
    assert keys.dtype == np.uint64 and keys.shape == (len(means), 2)
    for k, mean in enumerate(means):
        cell = ("counts", l, float(mean), *tag, *(int(c[k]) for c in columns))
        assert keys[k].tolist() == former_seed_sequence(seed, cell).generate_state(2, np.uint64).tolist()
    # a column of another length is refused, not broadcast
    with pytest.raises(ValueError):
        stream_keys(seed, "counts", l, np.array(means), np.arange(len(means) + 1))


def test_count_keys_of_an_empty_table():
    keys = stream_keys(3, "counts", 0, np.zeros(0), "t", np.arange(0))
    assert keys.dtype == np.uint64 and keys.shape == (0, 2)


def test_one_generator_draws_a_shuffled_table_as_fresh_streams():
    # numpy's Poisson sampler takes another algorithm below a mean of 10
    means = np.array([0.0, 0.3, 2.5, 9.999, 10.0, 10.5, 73.2, 1e4, 1e9])
    keys = stream_keys(11, "counts", 2, means, "reuse", np.arange(len(means)))
    gen = np.random.Generator(np.random.Philox(0))
    gen.integers(0, 2**32, dtype=np.uint32)  # a half-used buffer and a held uint32
    assert gen.bit_generator.state["has_uint32"] == 1
    for k in np.random.default_rng(3).permutation(len(means)):
        fresh = int(np.random.Generator(np.random.Philox(key=keys[k])).poisson(means[k]))
        assert sample_counts(gen, means[k], keys[k]) == fresh



def philox_state(gen) -> dict:
    """The whole state of a generator's Philox, its arrays as lists."""
    state = gen.bit_generator.state
    words = {k: v.tolist() for k, v in state["state"].items()}
    return {**state, "state": words, "buffer": state["buffer"].tolist()}


# draws that leave a generator mid-stream: a used buffer, a held uint32, an
# advanced counter
STIRS = {
    "random": lambda gen: gen.random(),
    "integers": lambda gen: gen.integers(0, 2**32, dtype=np.uint32),
    "standard_normal": lambda gen: gen.standard_normal(3),
    "poisson": lambda gen: gen.poisson([7.5, 1e4]),
}
top_bit_words = st.integers(2**63, 2**64 - 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    keys=st.lists(st.tuples(top_bit_words, top_bit_words), min_size=1, max_size=4),
    stirs=st.lists(st.sampled_from(sorted(STIRS)), min_size=1, max_size=3),
    through=st.sampled_from([None, 0, 1, 500, 32 * 32]),
    mean=st.sampled_from([0.0, 0.3, 9.999, 10.0, 73.2, 1e9]),
)
def test_a_reset_generator_draws_as_a_fresh_stream(keys, stirs, through, mean):
    # heralded_image and sample_counts share one generator that other draws
    # leave mid-stream; each draw is the one a fresh Generator(Philox(key=k))
    # makes, and leaves the generator in that fresh stream's state. Every key
    # word has its top bit set, which a float or an int64 does not keep
    state = apply_noise(down_convert(pump_state(2, phi=0.4, alpha=0.3, alphabet=OAM3)), 0.1)
    grid = (32, default_extent(1.0, 2))
    det = DetectorModel(accidental_rate=5.0, seed=5)
    args = (state, SETTINGS["R"], SETTINGS["D"], grid, 1.0)
    lam = heralded_image(*args, dataclasses.replace(det, sampled=False), 2, None).pixels.reshape(-1)
    cut = lam.size if through is None else through
    gen = np.random.Generator(np.random.Philox(0))
    for i, key in enumerate(keys):
        row = np.array(key, dtype=np.uint64)
        # a stream_keys row, or its tolist() as analysis._counts passes it
        image_key, count_key = (row, list(key)) if i % 2 == 0 else (list(key), row)
        for name in stirs:
            STIRS[name](gen)
        fresh = np.random.Generator(np.random.Philox(key=row))
        img = heralded_image(*args, det, 2, image_key, through, gen=gen)
        drawn = np.zeros(lam.size)
        drawn[:cut] = fresh.poisson(lam[:cut])
        assert img.pixels.tobytes() == drawn.tobytes()
        assert philox_state(gen) == philox_state(fresh)
        for name in stirs:
            STIRS[name](gen)
        fresh = np.random.Generator(np.random.Philox(key=row))
        assert sample_counts(gen, mean, count_key) == int(fresh.poisson(mean))
        assert philox_state(gen) == philox_state(fresh)


NEGLIGIBLE = 2.0**-64
JUST_UNDER = math.nextafter(NEGLIGIBLE, 0.0)
JUST_OVER = math.nextafter(NEGLIGIBLE, 1.0)


def span_oracle(lam) -> tuple:
    """(first, end) of the live pixels of a flat mean, by index search: live
    unless 0 <= m < 2**-64. Both are the pixel count if none is live."""
    live = np.flatnonzero(~((lam >= 0.0) & (lam < NEGLIGIBLE)))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (lam.size, lam.size)


def assert_drawn_as_a_fresh_stream(img, gen, lam, key, through):
    """An image drawn with a cut at ``through`` has the counts a fresh stream
    draws for lam[:through], and leaves its generator where that stream is
    after the last live pixel before the cut (at its start if the cut comes
    at or before the first)."""
    row = np.array(key, dtype=np.uint64)
    drawn = np.zeros(lam.size)
    drawn[:through] = np.random.Generator(np.random.Philox(key=row)).poisson(lam[:through])
    assert img.pixels.tobytes() == drawn.tobytes(), through
    first, end = span_oracle(lam)
    fresh = np.random.Generator(np.random.Philox(key=row))
    fresh.poisson(lam[: min(end, through) if through > first else 0])
    assert philox_state(gen) == philox_state(fresh), through


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    keys=st.lists(st.tuples(top_bit_words, top_bit_words), min_size=1, max_size=3),
    stirs=st.lists(st.sampled_from(sorted(STIRS)), min_size=1, max_size=3),
    phi=st.floats(0.0, 2 * np.pi),
    alpha=st.floats(0.0, 1.0),
    idler=st.sampled_from([None, "A", "R"]),
)
def test_a_noiseless_image_draws_as_a_fresh_stream(keys, stirs, phi, alpha, idler):
    # with no accidentals the corner pixels hold negligible means: the draw
    # skips the leading run's stream words and stops at the last live pixel,
    # and gives the counts of a full draw at every cut
    state = down_convert(pump_state(2, phi=phi, alpha=alpha, alphabet=(-2, 2)))
    grid = (32, default_extent(1.0, 2))
    det = DetectorModel(seed=5)
    setting = None if idler is None else SETTINGS[idler]
    args = (state, setting, SETTINGS["D"], grid, 1.0)
    lam = heralded_image(*args, dataclasses.replace(det, sampled=False), 2, None).pixels.reshape(-1)
    first, end = span_oracle(lam)
    assert 0 < first < end < lam.size  # both runs are there to skip
    gen = np.random.Generator(np.random.Philox(0))
    for key in keys:
        for through in sorted({0, 1, first, first + 1, 500, end - 1, end, end + 1, lam.size}):
            for name in stirs:
                STIRS[name](gen)
            img = heralded_image(*args, det, 2, list(key), through, gen=gen)
            assert_drawn_as_a_fresh_stream(img, gen, lam, key, through)


def negligible_run(positives: int, length: int) -> list:
    """A run of negligible means holding ``positives`` positive ones (dust,
    subnormals, the largest under the bound) among 0.0 and -0.0."""
    dust = [5e-324, 1e-300, JUST_UNDER, 3e-20]
    zeros = [0.0, -0.0]
    run = [zeros[i % 2] for i in range(length)]
    for i in range(positives):
        run[(2 * i + 1) % length] = dust[i % len(dust)]
    return run


def image_of(lam, n=16):
    """heralded_image's arguments with the render returning the read-only
    mean ``lam``, as a kept mean is, with its live span."""
    lam = np.array(lam, dtype=float).reshape(n, n)
    lam.setflags(write=False)
    mean = lgmodes.CountMean(lam, float(lam.sum()), float(lam.max()), lgmodes.live_span(lam))
    state = down_convert(pump_state(2, alphabet=OAM3))
    args = (state, SETTINGS["A"], SETTINGS["D"], (n, default_extent(1.0, 2)), 1.0)
    return mock.patch.object(lgmodes, "render_from_density", return_value=mean), args


LIVE = [JUST_OVER, 0.3, 0.0, 5e-324, 9.999, 10.0, -0.0, 73.2, NEGLIGIBLE, 1e4, JUST_UNDER, 2.5]
SPAN_MEANS = [0.0, -0.0, 5e-324, 1e-300, JUST_UNDER, NEGLIGIBLE, JUST_OVER, 0.7, 12.5]


@pytest.mark.parametrize("lead", range(8))
def test_a_span_draw_skips_the_lead_words_exactly(lead):
    # leads of 0 to 7 words: none, part of a Philox block, a whole block,
    # and a block and a part. Exact zeros in the run take no word
    head = negligible_run(lead, 2 * lead + 3)
    tail = negligible_run(5, 40)
    lam = head + (LIVE * 20)[: 255 - len(head) - len(tail)] + [1.5] + tail
    first, end = span_oracle(np.array(lam))
    assert (first, end) == (len(head), 256 - len(tail))
    assert lgmodes.live_span(np.array(lam)) == (first, end, lead)
    patch, args = image_of(lam)
    key = stream_keys(7, "heralded_image", 2, "span", lead)[0]
    gen = np.random.Generator(np.random.Philox(0))
    with patch:
        for through in sorted({0, 1, first, first + 1, 100, end - 1, end, end + 1, 256}):
            STIRS["integers"](gen)
            img = heralded_image(*args, make_detector(), 2, key, through, gen=gen)
            assert_drawn_as_a_fresh_stream(img, gen, np.array(lam), key, through)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    values=st.lists(st.sampled_from(SPAN_MEANS), min_size=256, max_size=256),
    through=st.integers(0, 256),
)
def test_a_span_draw_of_any_mean_is_a_full_draw(values, through):
    patch, args = image_of(values)
    key = stream_keys(7, "heralded_image", 2, "any")[0]
    gen = np.random.Generator(np.random.Philox(0))
    STIRS["poisson"](gen)
    with patch:
        img = heralded_image(*args, make_detector(), 2, key, through, gen=gen)
    assert_drawn_as_a_fresh_stream(img, gen, np.array(values), key, through)


def test_an_all_negligible_mean_draws_nothing():
    lam = negligible_run(9, 256)
    assert lgmodes.live_span(np.array(lam)) == (256, 256, 9)
    patch, args = image_of(lam)
    key = stream_keys(7, "heralded_image", 2, "none")[0]
    gen = np.random.Generator(np.random.Philox(0))
    fresh = philox_state(np.random.Generator(np.random.Philox(key=key)))
    with patch:
        for through in (None, 0, 100, 256):
            STIRS["standard_normal"](gen)
            img = heralded_image(*args, make_detector(), 2, key, through, gen=gen)
            assert not img.pixels.any()
            assert philox_state(gen) == fresh  # reset, and nothing drawn


def test_a_bad_mean_in_a_negligible_run_is_refused():
    # a NaN is live, so it opens the span at pixel 0; a negative mean is
    # live, so it closes the span in the trailing run. A sampled image
    # refuses either: the NaN peak fails the overflow check before the draw,
    # and the draw refuses the negative mean. FieldImage refuses either
    # unsampled
    body = negligible_run(3, 20) + [0.5] * 200 + negligible_run(3, 36)
    for at, bad in ((0, np.nan), (240, -1e-30)):
        lam = list(body)
        lam[at] = bad
        span = lgmodes.live_span(np.array(lam))
        assert (span.first, span.end) == ((0, 220) if at == 0 else (20, 241))
        patch, args = image_of(lam)
        key = stream_keys(5, "heralded_image", 2, "bad")[0]
        refused, message = (NumericalError, "overflows") if at == 0 else (ValueError, "lam")
        with patch:
            with pytest.raises(refused, match=message):
                heralded_image(*args, make_detector(), 2, key)
            with pytest.raises(NumericalError, match="negative or non-finite"):
                heralded_image(*args, make_detector(sampled=False), 2, None)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_a_bad_mean_makes_no_image(bad):
    # a drawn image skips FieldImage's value check, but its mean does not
    # pass the draw: Generator.poisson refuses a negative or NaN mean. An
    # unsampled image is its mean, checked in full by FieldImage
    lam = np.full((32, 32), 2.0)
    lam[3, 4] = bad
    mean = lgmodes.CountMean(lam, 2048.0, 2.0, lgmodes.live_span(lam))
    state = down_convert(pump_state(2, alphabet=OAM3))
    args = (state, SETTINGS["A"], SETTINGS["D"], (32, default_extent(1.0, 2)), 1.0)
    key = stream_keys(5, "heralded_image", 2, "bad")[0]
    with mock.patch.object(lgmodes, "render_from_density", return_value=mean):
        with pytest.raises(NumericalError, match="negative or non-finite"):
            heralded_image(*args, make_detector(sampled=False), 2, None)
        with pytest.raises(ValueError, match="lam"):
            heralded_image(*args, make_detector(), 2, key)

PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    l=st.integers(1, 3),
    phi=st.floats(0.0, 2 * np.pi),
    alpha=st.floats(0.0, 1.0),
    p_white=st.floats(0.0, 1.0),
    space=st.sampled_from(("postselected", "polarization")),
)
def test_heralded_images_do_not_signal(l, phi, alpha, p_white, space):
    # summing an analyzer pair on one arm leaves the other arm's image free
    # of that pair's basis: an idler pair gives the unanalyzed idler's image
    state = apply_noise(down_convert(pump_state(l, phi, alpha, alphabet=(-l, l))), p_white, space)
    det = make_detector(sampled=False)
    grid = (64, default_extent(1.0, l))

    def image(idler, signal):
        idler = None if idler is None else SETTINGS[idler]
        return heralded_image(state, idler, SETTINGS[signal], grid, 1.0, det, l, None).pixels

    def assert_same(images, reference):
        for img in images:
            assert np.max(np.abs(img - reference)) <= 1e-12 * reference.max()

    for signal in SETTINGS:
        assert_same([image(a, signal) + image(b, signal) for a, b in PAIRS], image(None, signal))
    for idler in (*SETTINGS, None):
        sums = [image(idler, a) + image(idler, b) for a, b in PAIRS]
        assert_same(sums[1:], sums[0])
