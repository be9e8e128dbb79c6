"""Fringe fits, CHSH, tomography, witness, bootstrap, and the report schema."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hesim.analysis import (
    AnalysisReport,
    TOMO_SETTINGS,
    _witness_pairs,
    angular_basis_scan,
    bootstrap_errors,
    chsh,
    chsh_table,
    fit_visibility,
    sweep_series,
    tomography_counts,
    tomography_linear,
    witness_expectation,
)
from hesim.detection import SETTINGS, DetectorModel
from hesim.errors import NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import AngularHistogram, Fringe, default_extent, petal_fit
from hesim.pipelines import _write_json
from hesim.quantum import DensityMatrix, Ket, fidelity, oam_subsystem, pol_subsystem, state_fidelity
from hesim.spdc import apply_noise, down_convert

TWO_QUBIT_SUBS = (pol_subsystem("idler"), pol_subsystem("signal_pol"))


def bell_state(l=0):
    if l == 0:
        return down_convert(pump_state(0, alphabet=(0,)))
    return down_convert(pump_state(l, alphabet=tuple(range(-3, 4))))


def expectation_detector():
    return DetectorModel(
        pair_rate=1e4, accidental_rate=0.0, integration_time=10.0,
        rate_scale_per_l={0: 1.0, 1: 0.5, 2: 0.25, 3: 0.12}, seed=0, sampled=False,
    )


# -- visibility fits -------------------------------------------------------------


def test_ideal_sweep_fits_unit_visibility():
    series = sweep_series(bell_state(), SETTINGS["H"], expectation_detector())
    fit = fit_visibility(series)
    assert fit.V == pytest.approx(1.0, abs=1e-9)
    assert not fit.flags


def test_werner_sweep_visibility_matches_noise():
    rho = apply_noise(bell_state(3), 0.003)
    series = sweep_series(rho, SETTINGS["H"], expectation_detector(), l=3)
    fit = fit_visibility(series)
    assert fit.V == pytest.approx(0.997, abs=1e-6)


def test_flat_sweep_is_degenerate():
    series = [(math.radians(a), 5.0) for a in range(0, 360, 20)]
    fit = fit_visibility(series)
    assert "degenerate" in fit.flags
    assert fit.V == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(fit.theta0)


def test_fit_input_guards():
    good = [(math.radians(a), 1.0 + math.cos(2 * math.radians(a))) for a in range(0, 360, 10)]
    with pytest.raises(ValueError):
        fit_visibility(good[:7])
    short_span = [(math.radians(a), 1.0) for a in range(0, 160, 10)]
    with pytest.raises(ValueError):
        fit_visibility(short_span)


def test_overshooting_fringe_is_clipped_and_flagged():
    # baseline slightly below amplitude: raw V > 1 must clip, not pass through
    series = [
        (math.radians(a), max(0.0, 1.0 + 1.02 * math.cos(2 * math.radians(a))))
        for a in range(0, 360, 10)
    ]
    fit = fit_visibility(series)
    assert fit.V == 1.0
    assert "clipped" in fit.flags


# -- CHSH -------------------------------------------------------------------------


def test_ideal_chsh_reaches_tsirelson():
    table = chsh_table(bell_state(), expectation_detector())
    s, sigma = chsh(table)
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_werner_chsh_closed_form():
    # polarization test runs with the vortex plate removed: l = 0 keeps the
    # OAM register from which-path marking the polarization branches
    for p in (0.0, 0.0347, 0.1, 0.3):
        rho = apply_noise(bell_state(), p)
        table = chsh_table(rho, expectation_detector())
        s, _ = chsh(table)
        assert s == pytest.approx(2.0 * math.sqrt(2.0) * (1.0 - p), abs=1e-9)
    rho = apply_noise(bell_state(), 0.0347)
    s, _ = chsh(chsh_table(rho, expectation_detector()))
    assert s == pytest.approx(2.7302807035174976, abs=1e-12)


def test_oam_which_path_marking_kills_polarization_chsh():
    # with the plate in (l = 3) the same analyzer chain sees only sqrt(2)
    s, _ = chsh(chsh_table(bell_state(3), expectation_detector(), l=3))
    assert s == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_product_state_chsh_is_sqrt_two():
    hh = Ket(
        TWO_QUBIT_SUBS + (oam_subsystem((0,), name="signal_oam"),),
        np.array([1.0, 0, 0, 0]),
    )
    table = chsh_table(hh, expectation_detector())
    s, _ = chsh(table)
    # E = cos(2a) cos(2b) for |HH>: only the a=0 terms survive
    expected = abs(
        math.cos(math.radians(45)) - math.cos(math.radians(135))
    )
    assert s == pytest.approx(expected, abs=1e-9)
    assert s == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_chsh_validation():
    with pytest.raises(ValueError):
        chsh(np.ones((3, 3)))
    with pytest.raises(NumericalError):
        chsh(np.zeros((4, 4)))


# -- tomography --------------------------------------------------------------------


def test_tomography_canonical_order():
    assert TOMO_SETTINGS[:4] == (("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"))
    assert len(TOMO_SETTINGS) == 16
    assert TOMO_SETTINGS[15] == ("R", "L")


def test_ideal_tomography_recovers_bell_state():
    counts = tomography_counts(bell_state(), expectation_detector())
    rho = tomography_linear(counts)
    bell = Ket(TWO_QUBIT_SUBS, np.array([1, 0, 0, -1.0]) / math.sqrt(2), fix_phase=False)
    assert fidelity(rho, bell) == pytest.approx(1.0, abs=1e-9)
    assert rho.psd_flag


def test_tomography_recovers_werner_coherence():
    p = 0.12
    rho_in = apply_noise(bell_state(), p)
    counts = tomography_counts(rho_in, expectation_detector())
    rho = tomography_linear(counts)
    assert rho.matrix[0, 3] == pytest.approx(-(1 - p) / 2.0, abs=1e-9)
    assert rho.matrix[0, 0] == pytest.approx((1 - p) / 2.0 + p / 4.0, abs=1e-9)


def test_random_density_matrices_round_trip():
    rng = np.random.default_rng(21)
    det = expectation_detector()
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        full = DensityMatrix(
            TWO_QUBIT_SUBS + (oam_subsystem((0,), name="signal_oam"),), mat
        )
        counts = tomography_counts(full, det)
        rho = tomography_linear(counts)
        target = DensityMatrix(TWO_QUBIT_SUBS, mat)
        assert state_fidelity(rho, target) >= 1.0 - 1e-9


def test_sampled_tomography_fidelity_window():
    rho_in = apply_noise(bell_state(), 0.008)
    det = DetectorModel(
        pair_rate=1e4, accidental_rate=0.0, integration_time=1.0,
        rate_scale_per_l={0: 1.0}, seed=42,
    )
    counts = tomography_counts(rho_in, det)
    rho = tomography_linear(counts).clip_to_physical()
    pol = np.zeros((4, 4), dtype=complex)
    bell = np.array([1, 0, 0, -1.0]) / math.sqrt(2)
    pol = 0.992 * np.outer(bell, bell.conj()) + 0.008 * np.eye(4) / 4
    target = DensityMatrix(TWO_QUBIT_SUBS, pol)
    f = state_fidelity(rho, target)
    assert 0.98 <= f <= 1.0


def test_tomography_validation():
    with pytest.raises(ValueError):
        tomography_linear(np.ones(12))
    with pytest.raises(ValueError):
        tomography_linear(-np.ones(16))
    with pytest.raises(NumericalError):
        tomography_linear(np.concatenate([np.zeros(4), np.ones(12)]))


# -- witness -----------------------------------------------------------------------


def synthetic_fit(l, theta0, vis, base=1.0):
    nbins = 72
    centers = (np.arange(nbins) + 0.5) * 2 * np.pi / nbins
    vals = base * (1 + vis * np.cos(2 * l * (centers - theta0))) / 2
    return petal_fit(AngularHistogram(vals), l)


def test_pair_visibility_of_complementary_petals():
    # petal orientations in units of the period pi/3: A 0, D 1/2, R 1/4, L 3/4
    fits = {
        "A": synthetic_fit(3, 0.0, 1.0),
        "D": synthetic_fit(3, np.pi / 6, 1.0),
        "R": synthetic_fit(3, np.pi / 12, 1.0),
        "L": synthetic_fit(3, np.pi / 4, 1.0),
    }
    pairs = _witness_pairs(fits, 3)
    assert pairs == {
        "DA": pytest.approx(1.0, abs=1e-9),
        "RL": pytest.approx(1.0, abs=1e-9),
    }


def test_pair_visibility_does_not_depend_on_the_pair_rate():
    # the contrast is a ratio: mean images at 1e-300 pairs/s read what they
    # read at the default rate, not 0 under an absolute floor
    l = 3
    grid = (64, default_extent(1.0, l))
    default = expectation_detector()
    tiny = dataclasses.replace(default, pair_rate=1e-300)
    scans = [angular_basis_scan(bell_state(l), l, det, grid, 1.0) for det in (default, tiny)]
    assert scans[0].pair_vis["DA"] > 0.99 and scans[0].pair_vis["RL"] > 0.95
    for pair in ("DA", "RL"):
        assert scans[1].pair_vis[pair] == pytest.approx(scans[0].pair_vis[pair], rel=1e-9)
    assert scans[1].W == pytest.approx(scans[0].W, rel=1e-9)


def test_witness_expectation_ideal_values():
    state = bell_state(3)
    out = witness_expectation(state, 3)
    assert out["W"] == pytest.approx(2.0, abs=1e-9)
    assert out["V_DA"] == pytest.approx(1.0, abs=1e-9)
    assert out["V_RL"] == pytest.approx(1.0, abs=1e-9)
    t0 = {k: math.degrees(v) for k, v in out["theta0"].items()}
    assert t0["A"] == pytest.approx(0.0, abs=1e-9)
    assert t0["D"] == pytest.approx(30.0, abs=1e-9)
    assert t0["R"] == pytest.approx(15.0, abs=1e-9)
    assert t0["L"] == pytest.approx(45.0, abs=1e-9)


def test_witness_expectation_werner_closed_form():
    for p in (0.05, 0.2, 0.368667):
        rho = apply_noise(bell_state(2), p)
        out = witness_expectation(rho, 2)
        assert out["W"] == pytest.approx(2.0 * (1.0 - p), abs=1e-9)


def test_witness_expectation_separable_is_zero():
    subs = TWO_QUBIT_SUBS + (oam_subsystem((-1, 1), name="signal_oam"),)
    amps = np.kron(np.array([1, 1]) / math.sqrt(2), np.kron([1, 1], [0, 1]) / math.sqrt(2))
    state = Ket(subs, amps)
    out = witness_expectation(state, 1)
    assert out["W"] == pytest.approx(0.0, abs=1e-9)


def test_witness_bound_over_random_product_states():
    rng = np.random.default_rng(33)
    subs = TWO_QUBIT_SUBS + (oam_subsystem((-1, 1), name="signal_oam"),)
    for _ in range(25):
        idler = rng.normal(size=2) + 1j * rng.normal(size=2)
        sig = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = Ket(subs, np.kron(idler, sig))
        out = witness_expectation(state, 1)
        assert out["W"] <= 1.0 + 1e-9


def test_witness_expectation_needs_positive_l():
    with pytest.raises(ValueError):
        witness_expectation(bell_state(1), 0)


# -- scan shifts -------------------------------------------------------------------


def test_scan_petal_shifts_follow_quarter_and_half_periods():
    half_bin = 2.5
    det = expectation_detector()
    for l in (1, 2, 3):
        scan = angular_basis_scan(
            bell_state(l), l, det, (256, default_extent(1.0, l)), 1.0
        )
        t0 = {b: math.degrees(f.theta0) for b, f in scan.fits.items()}
        period = 180.0 / l
        for pair, expect in ((("D", "A"), 90.0 / l), (("L", "A"), 45.0 / l)):
            d = (t0[pair[0]] - t0[pair[1]]) % period
            d = min(d, period - d)
            assert abs(d - expect) <= half_bin, (l, pair)
        assert scan.W == pytest.approx(2.0, abs=0.05)


def test_image_route_bound_over_random_product_states():
    # separable idler x (signal pol x OAM) states keep W <= 1 on the image
    # route too, not only on the expectation route
    rng = np.random.default_rng(44)
    det = expectation_detector()
    for l in (1, 2, 3):
        subs = TWO_QUBIT_SUBS + (oam_subsystem((-l, l), name="signal_oam"),)
        grid = (128, default_extent(1.0, l))
        for _ in range(60):
            idler = rng.normal(size=2) + 1j * rng.normal(size=2)
            sig = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = Ket(subs, np.kron(idler, sig))
            scan = angular_basis_scan(state, l, det, grid, 1.0)
            assert scan.W <= 1.0, l


def test_sampled_image_route_bound_over_random_product_states():
    # on Poisson-sampled images a separable state may pass W = 1 by shot
    # noise only, so its W stays within 3 bootstrap sigma of the bound
    rng = np.random.default_rng(45)
    det = dataclasses.replace(expectation_detector(), sampled=True)
    for l in (1, 2, 3):
        subs = TWO_QUBIT_SUBS + (oam_subsystem((-l, l), name="signal_oam"),)
        grid = (128, default_extent(1.0, l))
        for i in range(10):
            idler = rng.normal(size=2) + 1j * rng.normal(size=2)
            sig = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = Ket(subs, np.kron(idler, sig))

            def witness(seed):
                det_i = dataclasses.replace(det, seed=seed)
                return {"W": angular_basis_scan(state, l, det_i, grid, 1.0).W}

            w = witness(det.seed)["W"]
            sigma = bootstrap_errors(witness, n_iter=20, seed=det.seed).sigma("W")
            assert w <= 1.0 + 3.0 * sigma, (l, i, w, sigma)


# -- bootstrap ---------------------------------------------------------------------


def chsh_pipeline(pair_rate):
    state = bell_state()

    def run(seed):
        det = DetectorModel(
            pair_rate=pair_rate, accidental_rate=0.0, integration_time=10.0,
            rate_scale_per_l={0: 1.0}, seed=seed,
        )
        s, _ = chsh(chsh_table(state, det))
        return {"S": s}

    return run


def test_bootstrap_sigma_scales_with_counts():
    sigmas = {}
    for rate in (1e3, 1e4, 1e5):
        boot = bootstrap_errors(chsh_pipeline(rate), n_iter=100, seed=9)
        sigmas[rate] = boot.sigma("S")
    assert sigmas[1e3] / sigmas[1e4] == pytest.approx(math.sqrt(10), rel=0.2)
    assert sigmas[1e4] / sigmas[1e5] == pytest.approx(math.sqrt(10), rel=0.2)


def test_bootstrap_single_iteration_has_no_spread():
    boot = bootstrap_errors(chsh_pipeline(1e4), n_iter=1, seed=0)
    assert math.isnan(boot.sigma("S"))
    assert boot.mean("S") > 0


def test_bootstrap_reproducible_and_thread_invariant():
    a = bootstrap_errors(chsh_pipeline(1e4), n_iter=12, seed=5)
    b = bootstrap_errors(chsh_pipeline(1e4), n_iter=12, seed=5)
    assert np.array_equal(a.samples["S"], b.samples["S"])
    with pytest.raises(ValueError):
        bootstrap_errors(chsh_pipeline(1e4), n_iter=0, seed=5)


# -- report ------------------------------------------------------------------------


def test_report_recomputes_violation_sigmas():
    rep = AnalysisReport(kind="test", S=2.8, S_sigma=0.1, W=1.5, W_sigma=0.05)
    v = rep.violation_sigmas()
    assert v["chsh"] == pytest.approx(8.0)
    assert v["witness"] == pytest.approx(10.0)


def test_report_bell_bound_flag():
    good = Fringe(freq=2, V=0.99, theta0=0.0, base=1.0, stderr=0.001)
    bad = Fringe(freq=2, V=0.6, theta0=0.0, base=1.0, stderr=0.001)
    assert AnalysisReport(kind="t", visibilities={"H": good, "D": good}).bell_bound_flag()
    assert not AnalysisReport(kind="t", visibilities={"H": good, "D": bad}).bell_bound_flag()
    assert AnalysisReport(kind="t").bell_bound_flag() is None


def test_report_json_format(tmp_path):
    rep = AnalysisReport(kind="t", S=1.0 / 3.0, S_sigma=float("nan"))
    doc = rep.to_dict()
    assert doc["chsh"]["S"] == pytest.approx(0.333333333333, abs=1e-15)
    assert doc["chsh"]["sigma"] is None
    _write_json(doc, tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text()
    parsed = json.loads(text)
    assert parsed["schema_version"] == 1
    keys = list(parsed.keys())
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_report_serializes_density_matrix():
    bell = Ket(TWO_QUBIT_SUBS, np.array([1, 0, 0, -1.0]) / math.sqrt(2), fix_phase=False)
    rho = DensityMatrix.from_ket(bell)
    doc = AnalysisReport(kind="t", rho=rho).to_dict()
    assert doc["rho"]["re"][0][3] == pytest.approx(-0.5)
    assert doc["rho"]["im"][0][3] == 0.0
    assert doc["rho"]["psd"] is True
