"""Fringe fits, CHSH, tomography, witness, bootstrap, and the report schema."""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hesim import detection
from hesim.analysis import (
    BELL_VISIBILITY_BOUND,
    SCAN_BASES,
    TOMO_SETTINGS,
    _witness_pairs,
    angular_basis_scan,
    bootstrap_errors,
    bootstrap_seeds,
    chsh,
    chsh_table,
    fit_visibility,
    sweep_series,
    tomography_counts,
    tomography_linear,
    witness_expectation,
    witness_keys,
)
from hesim.detection import SETTINGS, DetectorModel
from hesim.errors import NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import (
    AngularHistogram,
    Fringe,
    annulus_end,
    default_annulus,
    default_extent,
    petal_fit,
)
from hesim.config import RunConfig
from hesim.pipelines import (
    _json_ready,
    _violation,
    build_source,
    run_hybrid_witness,
    run_polarization_bell,
)
from hesim.quantum import DensityMatrix, Ket, fidelity, oam_subsystem, pol_subsystem
from hesim.spdc import apply_noise, down_convert
from fidelity_oracle import state_fidelity

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


def test_count_tables_draw_each_cell_from_its_own_stream():
    # a table draws once over keys from one pass; each count is still the
    # draw of a fresh stream keyed (seed, "counts", l, mean, tag, indices)
    state = apply_noise(bell_state(2), 0.2)
    det = DetectorModel(pair_rate=3.0, integration_time=1.0, seed=2**32 + 9)
    unsampled = dataclasses.replace(det, sampled=False)

    def fresh(mean, *tag):
        key = detection.stream_keys(det.seed, "counts", 2, float(mean), *tag)[0]
        return float(np.random.Generator(np.random.Philox(key=key)).poisson(mean))

    sweep = sweep_series(state, SETTINGS["D"], det, l=2, tag="s")
    means = sweep_series(state, SETTINGS["D"], unsampled, l=2, tag="s")
    assert [n for _, n in sweep] == [fresh(m, "s", k) for k, (_, m) in enumerate(means)]
    table = chsh_table(state, det, l=2, tag=("c", 1))
    means = chsh_table(state, unsampled, l=2)
    assert table.tolist() == [
        [fresh(means[i, j], "c", 1, i, j) for j in range(4)] for i in range(4)
    ]
    counts = tomography_counts(state, det, l=2, tag="t")
    means = tomography_counts(state, unsampled, l=2)
    assert counts.tolist() == [fresh(m, "t", k) for k, m in enumerate(means)]


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
    keys = witness_keys(default.seed, l)[0][0]
    scans = [
        angular_basis_scan(
            bell_state(l), l, det, grid, 1.0, annulus=default_annulus(1.0, l), nbins=72, keys=keys
        )
        for det in (default, tiny)
    ]
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
            bell_state(l), l, det, (256, default_extent(1.0, l)), 1.0,
            annulus=default_annulus(1.0, l), nbins=72, keys=witness_keys(det.seed, l)[0][0],
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
        annulus = default_annulus(1.0, l)
        for _ in range(60):
            idler = rng.normal(size=2) + 1j * rng.normal(size=2)
            sig = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = Ket(subs, np.kron(idler, sig))
            keys = witness_keys(det.seed, l)[0][0]
            scan = angular_basis_scan(
                state, l, det, grid, 1.0, annulus=annulus, nbins=72, keys=keys
            )
            assert scan.W <= 1.0, l


def test_sampled_image_route_bound_over_random_product_states():
    # on Poisson-sampled images a separable state may pass W = 1 by shot
    # noise only, so its W stays within 3 bootstrap sigma of the bound
    rng = np.random.default_rng(45)
    det = dataclasses.replace(expectation_detector(), sampled=True)
    for l in (1, 2, 3):
        subs = TWO_QUBIT_SUBS + (oam_subsystem((-l, l), name="signal_oam"),)
        grid = (128, default_extent(1.0, l))
        annulus = default_annulus(1.0, l)
        for i in range(10):
            idler = rng.normal(size=2) + 1j * rng.normal(size=2)
            sig = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = Ket(subs, np.kron(idler, sig))

            def witness(seed):
                det_i = dataclasses.replace(det, seed=seed)
                keys = witness_keys(seed, l)[0][0]
                scan = angular_basis_scan(
                    state, l, det_i, grid, 1.0, annulus=annulus, nbins=72, keys=keys
                )
                return {"W": scan.W}

            w = witness(det.seed)["W"]
            seeds = bootstrap_seeds(det.seed, 20).tolist()
            sigma = bootstrap_errors(witness, seeds).sigma("W")
            assert w <= 1.0 + 3.0 * sigma, (l, i, w, sigma)


# -- draws cut at the annulus end ------------------------------------------------


def cut_case(l, n, p_white, accidental):
    """(state, detector, grid, annulus, end) of a sampled l row on an n x n grid,
    end the annulus end a cut scan at 72 bins draws up to."""
    cfg = RunConfig.from_dict({"pump": {"l": l}, "noise": {"p_white": p_white}})
    det = DetectorModel(accidental_rate=accidental, seed=3)
    grid = (n, default_extent(1.0, l))
    annulus = default_annulus(1.0, l)
    return build_source(cfg), det, grid, annulus, annulus_end(*grid, annulus, 72)


CUT_CASES = [(3, 256, 0.0, 0.0), (2, 129, 0.3, 50.0), (1, 96, 0.2, 0.0)]


@pytest.mark.parametrize("l, n, p_white, accidental", CUT_CASES)
def test_scan_cut_at_the_annulus_end_is_bit_identical(l, n, p_white, accidental):
    state, det, grid, annulus, end = cut_case(l, n, p_white, accidental)
    assert 0 < end < n * n
    keys = witness_keys(det.seed, l)[0][0]
    full, cut = (
        angular_basis_scan(state, l, det, grid, 1.0, annulus=annulus, nbins=72, keys=keys, whole=w)
        for w in (True, False)
    )
    assert cut.W == full.W
    assert cut.pair_vis == full.pair_vis
    for basis, hist in full.histograms.items():
        assert cut.histograms[basis].bins.tobytes() == hist.bins.tobytes(), basis


def test_a_cut_scan_holds_no_image():
    # a cut image is zeros past the annulus end and nothing reads it, so each
    # is dropped once profiled; a whole scan keeps its four for the PGMs
    state, det, grid, annulus, _ = cut_case(*CUT_CASES[1])
    keys = witness_keys(det.seed, 2)[0][0]
    full, cut = (
        angular_basis_scan(state, 2, det, grid, 1.0, annulus=annulus, nbins=72, keys=keys, whole=w)
        for w in (True, False)
    )
    assert cut.images == {}
    assert list(full.images) == list(SCAN_BASES)
    assert list(cut.histograms) == list(full.histograms) == list(SCAN_BASES)


def test_a_cut_bootstrap_holds_one_image_at_a_time():
    # an image is n^2 doubles. A draw reads its kept mean image, which the
    # memo holds at the same 8 B per pixel before and after, and holds its
    # image buffer and the counts of its drawn pixels, under two images'
    # worth; the four images of a scan, held until the scan ends, would
    # take the peak past three
    n = 256
    state, det, grid, annulus, _ = cut_case(3, n, 0.0, 0.0)

    def one(seed):
        det_i = dataclasses.replace(det, seed=seed)
        keys = witness_keys(seed, 3)[0][0]
        sc = angular_basis_scan(
            state, 3, det_i, grid, 1.0, annulus=annulus, nbins=72, keys=keys, whole=False
        )
        return {"W": sc.W}

    # warm-up: the render factors and kept count means
    bootstrap_errors(one, bootstrap_seeds(det.seed, 2).tolist())
    tracemalloc.start()
    try:
        bootstrap_errors(one, bootstrap_seeds(det.seed, 4).tolist())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


@pytest.mark.parametrize("l, n, p_white, accidental", CUT_CASES[1:])
def test_bootstrap_cut_at_the_annulus_end_keeps_its_samples(l, n, p_white, accidental):
    state, det, grid, annulus, _ = cut_case(l, n, p_white, accidental)

    def pipeline(whole):
        def one(seed):
            det_i = dataclasses.replace(det, seed=seed)
            keys = witness_keys(seed, l)[0][0]
            sc = angular_basis_scan(
                state, l, det_i, grid, 1.0, annulus=annulus, nbins=72, keys=keys, whole=whole
            )
            return {"W": sc.W, "V_DA": sc.pair_vis["DA"], "V_RL": sc.pair_vis["RL"]}

        return one

    seeds = bootstrap_seeds(det.seed, 4).tolist()
    full, cut = (bootstrap_errors(pipeline(w), seeds) for w in (True, False))
    for name, samples in full.samples.items():
        assert cut.samples[name].tobytes() == samples.tobytes(), name


def test_witness_cuts_only_its_bootstrap_draws(tmp_path):
    # the first scan and the unanalyzed image are written, so they are whole
    cfg = RunConfig.from_dict({"grid": {"n": 64}, "analysis": {"n_bootstrap": 3}})
    calls = []
    real = detection.heralded_image

    def spy(*args, through=None, **kwargs):
        calls.append(through)
        return real(*args, through=through, **kwargs)

    with mock.patch.object(detection, "heralded_image", spy):
        run_hybrid_witness(cfg, str(tmp_path), formats=("json",))
    end = annulus_end(64, default_extent(1.0, 3), default_annulus(1.0, 3), 72)
    assert calls == [None] * 5 + [end] * 12


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
        boot = bootstrap_errors(chsh_pipeline(rate), bootstrap_seeds(9, 100).tolist())
        sigmas[rate] = boot.sigma("S")
    assert sigmas[1e3] / sigmas[1e4] == pytest.approx(math.sqrt(10), rel=0.2)
    assert sigmas[1e4] / sigmas[1e5] == pytest.approx(math.sqrt(10), rel=0.2)


def test_bootstrap_single_iteration_has_no_spread():
    boot = bootstrap_errors(chsh_pipeline(1e4), bootstrap_seeds(0, 1).tolist())
    assert math.isnan(boot.sigma("S"))
    assert boot.mean("S") > 0


def test_bootstrap_reproducible():
    a = bootstrap_errors(chsh_pipeline(1e4), bootstrap_seeds(5, 12).tolist())
    b = bootstrap_errors(chsh_pipeline(1e4), bootstrap_seeds(5, 12).tolist())
    assert np.array_equal(a.samples["S"], b.samples["S"])
    assert a.n_iter == 12
    with pytest.raises(ValueError):
        bootstrap_errors(chsh_pipeline(1e4), [])


# -- report ------------------------------------------------------------------------


def bench_report(run, overrides: dict, outdir) -> tuple:
    """(returned, written) report of one bench run that writes only its JSON."""
    returned = run(RunConfig.from_dict(overrides), str(outdir), formats=("json",))
    return returned, json.loads((outdir / "report.json").read_text())


SMALL_WITNESS = {"grid": {"n": 64}, "analysis": {"n_bootstrap": 3}}


def test_report_recomputes_violation_sigmas(tmp_path):
    bell, bell_doc = bench_report(run_polarization_bell, {}, tmp_path / "bell")
    s, s_sigma = bell["chsh"]["S"], bell["chsh"]["sigma"]
    assert bell["violation_sigmas"] == {"chsh": (s - 2.0) / s_sigma}
    assert bell_doc["violation_sigmas"]["chsh"] == pytest.approx((s - 2.0) / s_sigma, rel=1e-11)

    wit, wit_doc = bench_report(run_hybrid_witness, SMALL_WITNESS, tmp_path / "witness")
    w, w_sigma = wit["witness"]["W"], wit["witness"]["sigma"]
    assert w_sigma > 0
    assert wit["violation_sigmas"] == {"witness": (w - 1.0) / w_sigma}
    assert wit_doc["violation_sigmas"]["witness"] == pytest.approx((w - 1.0) / w_sigma, rel=1e-11)

    # an expected-value witness has no bootstrap sigma, so no violation
    _, expected = bench_report(
        run_hybrid_witness, {**SMALL_WITNESS, "detector": {"sampled": False}}, tmp_path / "exp"
    )
    assert expected["witness"]["sigma"] is None
    assert expected["violation_sigmas"] == {}
    for sigma in (None, float("nan"), 0.0, -0.1):
        assert _violation("chsh", 2.8, sigma, 2.0) == {}


def test_report_bell_bound_flag(tmp_path):
    # (p_white, seed): both sweeps over 1/sqrt(2); one over, the other under,
    # either way round; both under (V_H 0.4993 at p_white 0.5, seed 2)
    for p, seed, flag in [(0.0, 0, True), (0.2925, 0, False), (0.2925, 3, False), (0.5, 2, False)]:
        cfg = {"noise": {"p_white": p}, "detector": {"seed": seed}}
        rep, doc = bench_report(run_polarization_bell, cfg, tmp_path / f"{p}-{seed}")
        v_h, v_d = (rep["visibilities"][b]["V"] for b in ("H", "D"))
        assert doc["bell_bound_flag"] is flag
        assert flag == (v_h > BELL_VISIBILITY_BOUND and v_d > BELL_VISIBILITY_BOUND)
        if p == 0.2925:
            assert (v_h > BELL_VISIBILITY_BOUND) == (seed == 0) != (v_d > BELL_VISIBILITY_BOUND)
        if p == 0.5:
            assert round(v_h, 4) == 0.4993


def assert_keys_sorted(doc) -> None:
    if isinstance(doc, dict):
        assert list(doc) == sorted(doc)
        for value in doc.values():
            assert_keys_sorted(value)


def test_report_json_format(tmp_path):
    # a flat fringe (p_white 1, expected counts) has no phase: theta0 is NaN
    cfg = {"noise": {"p_white": 1.0}, "detector": {"sampled": False}}
    rep, doc = bench_report(run_polarization_bell, cfg, tmp_path)
    assert math.isnan(rep["visibilities"]["H"]["theta0_deg"])
    assert doc["visibilities"]["H"]["theta0_deg"] is None
    sigma = rep["chsh"]["sigma"]
    assert doc["chsh"]["sigma"] == float(f"{sigma:.12g}") != sigma  # 12 digits
    assert doc["schema_version"] == 1
    assert_keys_sorted(doc)  # json.loads keeps the order of the file
    assert (tmp_path / "report.json").read_text().endswith("}\n")


def test_report_serializes_density_matrix(tmp_path):
    # noiseless counts invert to a non-PSD estimate, noisy ones here to a PSD one
    for cfg, psd in [({}, False), ({"noise": {"p_white": 0.1}, "detector": {"seed": 4}}, True)]:
        _, doc = bench_report(run_polarization_bell, cfg, tmp_path / str(psd))
        config = RunConfig.from_dict(cfg)
        state = build_source(config, l=0)
        rho = tomography_linear(tomography_counts(state, config.detector, l=0, tag="tomo"))
        assert set(doc["rho"]) == {"re", "im", "psd"}
        assert doc["rho"]["re"] == _json_ready(rho.matrix.real)
        assert doc["rho"]["im"] == _json_ready(rho.matrix.imag)
        assert np.abs(rho.matrix.imag).max() > 1e-3  # re and im differ
        assert doc["rho"]["psd"] is rho.psd_flag is psd
