"""Analyzer settings, coincidence probabilities, and the counting model."""

import numpy as np
import pytest

from hesim.detection import (
    SETTINGS,
    DetectorModel,
    analyzer_state,
    coincidence_row,
    conditional_oam,
    derived_seed,
    heralded_image,
    linear_analyzer_ket,
    rng_stream,
    sample_counts,
)
from hesim.errors import ConfigError, NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import angular_maxima, angular_profile, default_annulus, default_extent, petal_fit
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


def test_linear_analyzer_arm_conventions():
    chi = 0.3
    sig = linear_analyzer_ket(chi, "signal")
    idl = linear_analyzer_ket(chi, "idler")
    assert np.allclose(sig.amplitudes, [np.cos(chi), -np.sin(chi)], atol=1e-12)
    assert np.allclose(idl.amplitudes, [np.cos(chi), np.sin(chi)], atol=1e-12)
    with pytest.raises(ConfigError):
        linear_analyzer_ket(chi, "pump")


def test_coincidence_table_against_kron_oracle():
    state = bell_state()
    bell = np.zeros(4, dtype=complex)
    bell[0], bell[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    for a, va in POL.items():
        row = coincidence_row(state, SETTINGS[a], [SETTINGS[b] for b in POL])
        for (b, vb), got in zip(POL.items(), row):
            expected = abs(np.vdot(np.kron(va, vb), bell)) ** 2
            assert got == pytest.approx(expected, abs=1e-10), (a, b)


def test_coincidence_spot_values():
    state = bell_state()
    assert coincidence_row(state, SETTINGS["H"], [SETTINGS["H"]]) == [pytest.approx(0.5, abs=1e-12)]
    assert coincidence_row(state, SETTINGS["D"], [SETTINGS["D"], SETTINGS["A"]]) == [
        pytest.approx(0.0, abs=1e-12),
        pytest.approx(0.5, abs=1e-12),
    ]
    assert coincidence_row(state, SETTINGS["H"], []) == []
    with pytest.raises(ConfigError):  # labels are looked up in SETTINGS by the caller
        coincidence_row(state, "H", ["H"])


def test_werner_correlation_visibility_is_one_minus_p():
    for p in (0.0, 0.1, 0.31):
        rho = apply_noise(down_convert(pump_state(3, alphabet=OAM3)), p)
        idler = pol_ket("V", name="idler")
        probs = coincidence_row(
            rho, idler, [linear_analyzer_ket(np.radians(x), "signal") for x in np.arange(0, 180, 7.5)]
        )
        vis = (max(probs) - min(probs)) / (max(probs) + min(probs))
        assert vis == pytest.approx(1.0 - p, abs=1e-10)


def test_no_signaling_idler_marginal():
    rho = apply_noise(down_convert(pump_state(2, alphabet=OAM3)), 0.2)
    base = None
    for chi in np.radians(np.arange(0, 180, 12.5)):
        total = sum(
            coincidence_row(
                rho, SETTINGS["D"], [linear_analyzer_ket(c, "signal") for c in (chi, chi + np.pi / 2)]
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


def test_zero_probability_draws_zero_counts():
    assert sample_counts(0.0, golden_detector(), 0) == 0


def test_golden_poisson_draws():
    # frozen values pin the stream layout; a change here is a compat break
    assert sample_counts(1.0, golden_detector(seed=0), 0, tag=0) == 109
    assert sample_counts(1.0, golden_detector(seed=1), 0, tag=0) == 103


def test_sample_counts_mean_tracks_rate():
    det = DetectorModel(
        pair_rate=1e5, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={0: 1.0}, seed=7,
    )
    n = sample_counts(1.0, det, 0, tag="bulk")
    assert abs(n - 1e6) < 5 * np.sqrt(1e6)


def test_sample_counts_overflow_guard():
    det = DetectorModel(
        pair_rate=1e12, accidental_rate=0.0, integration_time=100.0,
        rate_scale_per_l={0: 1.0}, seed=0,
    )
    with pytest.raises(NumericalError):
        sample_counts(1.0, det, 0)


def test_sample_counts_is_pure_in_its_inputs():
    det = golden_detector(seed=3)
    a = [sample_counts(0.7, det, 0, tag=("sweep", k)) for k in range(6)]
    b = [sample_counts(0.7, det, 0, tag=("sweep", k)) for k in range(6)]
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


def test_derived_seed_flattens_nested_tags():
    assert derived_seed(7, ("a", (1, 2))) == derived_seed(7, "a", 1, 2)
    assert derived_seed(7, ["a", 1, 2]) == derived_seed(7, "a", 1, 2)
    assert derived_seed(7, "a", 1, 2) != derived_seed(7, "a", 1, 3)
    assert derived_seed(7, 1.5) == derived_seed(7, 1.5)
    assert derived_seed(7, 1.5) != derived_seed(7, 2.5)
    assert derived_seed(7, "1") != derived_seed(7, 1)
    assert derived_seed(8, "a") != derived_seed(7, "a")


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
    return heralded_image(
        state, setting, SETTINGS["D"], grid, 1.0, make_detector(seed, sampled), l, tag=tag
    )


def test_heralded_a_image_shows_six_petals():
    img = heralded(3, "A")
    hist = angular_profile(img, 72, default_annulus(1.0, 3))
    assert len(angular_maxima(hist)) == 6


def test_heralded_none_image_is_uniform():
    img = heralded(3, None)
    fit = petal_fit(angular_profile(img, 72, default_annulus(1.0, 3)), 3)
    assert fit.visibility < 1e-9
    # sampled at bright-beam count scales the fitted modulation stays small
    det = DetectorModel(
        pair_rate=1e6, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={1: 0.5}, seed=0,
    )
    state = down_convert(pump_state(1, alphabet=OAM3))
    grid = (256, default_extent(1.0, 1))
    img_s = heralded_image(state, None, SETTINGS["D"], grid, 1.0, det, 1)
    fit_s = petal_fit(angular_profile(img_s, 72, default_annulus(1.0, 1)), 1)
    assert fit_s.visibility < 0.02


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
        state, SETTINGS["H"], SETTINGS["D"], grid, 1.0, make_detector(sampled=False), 1
    )
    assert img.empty
    assert not img.pixels.any()


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


def test_random_streams_follow_the_determinism_contract():
    # sample_counts keys on (seed, "counts", l, float(mean), tag)
    det = make_detector(seed=9)
    for prob, l, tag in ((0.3, 0, 0), (0.7, 2, "sweep"), (1.0, 3, ("chsh", 4))):
        mean = det.mean_counts(prob, l)
        expected = int(rng_stream(9, "counts", l, float(mean), tag).poisson(mean))
        assert sample_counts(prob, det, l, tag=tag) == expected
    # heralded images key on (seed, "heralded_image", l, str(tag)), drawn from
    # the unsampled image's means; repeated renders leave those bits alone
    lams = [heralded(2, "R", sampled=False, seed=9).pixels for _ in range(3)]
    assert all(lam.tobytes() == lams[0].tobytes() for lam in lams)
    drawn = rng_stream(9, "heralded_image", 2, "7").poisson(lams[0]).astype(float)
    for tag in (7, "7"):
        img = heralded(2, "R", sampled=True, seed=9, tag=tag)
        assert img.pixels.tobytes() == drawn.tobytes()
