"""Crystal-pair transfer rules, heralding, and the white-noise model."""

import numpy as np
import pytest

from hesim.errors import ConfigError
from hesim.jones import pump_state
from hesim.quantum import (
    DensityMatrix,
    InvalidCompositionError,
    Ket,
    fidelity,
    oam_subsystem,
    partial_trace,
    pol_ket,
    pol_subsystem,
    project,
)
from hesim.spdc import apply_noise, down_convert

OAM3 = tuple(range(-3, 4))
H = np.array([1.0, 0.0])
V = np.array([0.0, 1.0])


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def pump_basis_ket(pol_amp, oam_labels, oam_index):
    oam = np.zeros(len(oam_labels))
    oam[oam_index] = 1.0
    amps = np.kron(np.asarray(pol_amp, dtype=complex), oam)
    return Ket((pol_subsystem("pol"), oam_subsystem(oam_labels, name="oam")), amps)


def test_gaussian_pump_gives_singlet_like_bell_pair():
    # diagonal pump, no OAM: (|HH> - |VV>)/sqrt(2) on the polarization pair
    full = down_convert(pump_state(0, alphabet=(0,)))
    oam0 = np.array([1.0])
    bell = (kron3(H, H, oam0) - kron3(V, V, oam0)) / np.sqrt(2)
    oracle = Ket(full.subsystems, bell, fix_phase=False)
    assert fidelity(full, oracle) == pytest.approx(1.0, abs=1e-12)


def test_oam_pump_amplitude_table():
    # (|H,+3> + e^{-i phi} |V,-3>)/sqrt(2) -> (-|V V,+3> + e^{-i phi} |H H,-3>)/sqrt(2)
    phi = 0.7
    full = down_convert(pump_state(3, phi, alphabet=OAM3))
    amps = full.amplitudes.reshape(2, 2, 7)
    # labels -3..3: index 0 is -3, index 6 is +3
    assert amps[1, 1, 6] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    assert amps[0, 0, 0] == pytest.approx(np.exp(-1j * phi) / np.sqrt(2), abs=1e-12)
    rest = np.abs(amps).sum() - abs(amps[1, 1, 6]) - abs(amps[0, 0, 0])
    assert rest == pytest.approx(0.0, abs=1e-12)


def test_h_pump_component_converts_to_vv():
    full = down_convert(pump_basis_ket(H, (-1, 0, 1), 2))
    amps = full.amplitudes.reshape(2, 2, 3)
    assert amps[1, 1, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.abs(amps).sum() == pytest.approx(1.0, abs=1e-12)


def test_v_pump_component_converts_to_hh():
    full = down_convert(pump_basis_ket(V, (-1, 0, 1), 0))
    amps = full.amplitudes.reshape(2, 2, 3)
    assert amps[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


def test_custom_crystal_sign():
    # a crystal pair with s = -exp(i chi) gives the state of s = -1 with the
    # pump phase shifted by chi, up to the global phase exp(i chi)
    for chi in (0.4, 1.3, np.pi, 5.0):
        for phi in (0.0, 0.7):
            pump = pump_state(2, phi, alphabet=OAM3)
            amps = down_convert(pump).amplitudes.reshape(2, 2, -1).copy()
            amps[1, 1, :] *= np.exp(1j * chi)  # the H -> VV branch carries s
            shifted = down_convert(pump_state(2, phi + chi, alphabet=OAM3)).amplitudes
            assert np.allclose(amps.reshape(-1), np.exp(1j * chi) * shifted, atol=1e-12)


def test_down_convert_rejects_wrong_register_names():
    bad = Ket((pol_subsystem("idler"), oam_subsystem((0,), name="oam")), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        down_convert(bad)


def test_oam_is_conserved_onto_signal():
    # every pump OAM amplitude lands on the same label of the signal register
    rng = np.random.default_rng(11)
    labels = (-2, -1, 0, 1, 2)
    for _ in range(25):
        amps = rng.normal(size=10) + 1j * rng.normal(size=10)
        pump = Ket((pol_subsystem("pol"), oam_subsystem(labels, name="oam")), amps)
        full = down_convert(pump)
        out = full.amplitudes.reshape(2, 2, 5)
        pin = pump.amplitudes.reshape(2, 5)
        assert np.allclose(out[1, 1, :], -pin[0, :], atol=1e-12)
        assert np.allclose(out[0, 0, :], pin[1, :], atol=1e-12)
        assert np.allclose(out[0, 1, :], 0.0)
        assert np.allclose(out[1, 0, :], 0.0)


def test_down_convert_is_an_isometry():
    rng = np.random.default_rng(12)
    labels = (-1, 0, 1)
    subs = (pol_subsystem("pol"), oam_subsystem(labels, name="oam"))
    for _ in range(20):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        ka, kb = Ket(subs, a), Ket(subs, b)
        inner_in = np.vdot(ka.amplitudes, kb.amplitudes)
        fa, fb = down_convert(ka), down_convert(kb)
        inner_out = np.vdot(fa.amplitudes, fb.amplitudes)
        assert inner_out == pytest.approx(inner_in, abs=1e-12)


# -- heralding ----------------------------------------------------------------------


def test_herald_on_v_selects_the_plus_l_branch():
    full = down_convert(pump_state(3, alphabet=OAM3))
    signal, p = project(full, pol_ket("V"), subsystem="idler")
    assert p == pytest.approx(0.5, abs=1e-12)
    oracle = np.zeros(14)
    oracle[7 + 6] = 1.0  # V signal pol, OAM +3
    assert abs(np.vdot(signal.amplitudes, oracle)) == pytest.approx(1.0, abs=1e-12)


def test_herald_on_d_gives_antisymmetric_oam_after_d_analysis():
    full = down_convert(pump_state(1, alphabet=(-1, 0, 1)))
    signal, p = project(full, pol_ket("D"), subsystem="idler")
    assert p == pytest.approx(0.5, abs=1e-12)
    cond, q = project(signal, pol_ket("D", name="signal_pol"), subsystem="signal_pol")
    # (|+1> - |-1>)/sqrt(2) up to global phase
    target = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    assert abs(np.vdot(cond.amplitudes, target)) == pytest.approx(1.0, abs=1e-12)
    assert q == pytest.approx(0.5, abs=1e-12)


def test_r_and_l_heralds_are_orthogonal_petal_patterns():
    # conditional OAM phases differ by pi, so petals rotate by 90 deg / l
    l = 2
    full = down_convert(pump_state(l, alphabet=(-2, -1, 0, 1, 2)))
    phases = {}
    for name in ("R", "L"):
        signal, _ = project(full, pol_ket(name), subsystem="idler")
        cond, _ = project(signal, pol_ket("D", name="signal_pol"), subsystem="signal_pol")
        amps = cond.amplitudes
        phases[name] = np.angle(amps[-1] / amps[0])
    dphi = (phases["R"] - phases["L"]) % (2 * np.pi)
    assert dphi == pytest.approx(np.pi, abs=1e-12)


def test_herald_completeness_over_bases():
    full = down_convert(pump_state(2, 0.3, alphabet=OAM3))
    for pair in (("H", "V"), ("D", "A"), ("R", "L")):
        total = sum(project(full, pol_ket(n), subsystem="idler")[1] for n in pair)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_herald_requires_single_qubit_projection():
    full = down_convert(pump_state(1, alphabet=OAM3))
    two = Ket((pol_subsystem("a"), pol_subsystem("b")), np.array([1, 0, 0, 0.0]))
    with pytest.raises(InvalidCompositionError):
        project(full, two, subsystem="idler")


# -- white noise ---------------------------------------------------------------------


def test_noise_zero_is_identity():
    full = down_convert(pump_state(1, alphabet=OAM3))
    assert apply_noise(full, 0.0) is full


def test_full_noise_is_maximally_mixed_on_occupied_subspace():
    full = down_convert(pump_state(1, alphabet=(-1, 0, 1)))
    rho = apply_noise(full, 1.0)
    mat = rho.matrix
    # occupied OAM labels are -1 and +1: 8-dim postselected block
    expected = np.kron(np.eye(4), np.diag([1.0, 0.0, 1.0])) / 8.0
    assert np.allclose(mat, expected, atol=1e-12)


def test_gaussian_pump_noise_is_exact_werner():
    p = 0.12
    full = down_convert(pump_state(0, alphabet=(0,)))
    rho = apply_noise(full, p)
    pol = partial_trace(rho, keep=("idler", "signal_pol"))
    bell = (kron3(H, H, [1.0]) - kron3(V, V, [1.0])) / np.sqrt(2)
    werner = (1 - p) * np.outer(bell, bell.conj()) + p * np.eye(4) / 4.0
    assert np.allclose(pol.matrix, werner, atol=1e-12)


def test_noise_strength_sets_sweep_visibility():
    # idler fixed at H, signal polarizer rotated: contrast is exactly 1 - p
    from hesim.detection import coincidence_row, linear_analyzer_ket

    p = 0.031
    rho = apply_noise(down_convert(pump_state(3, alphabet=OAM3)), p)
    idler = pol_ket("V", name="idler")
    angles = np.radians(np.arange(0, 360, 15.0))
    signals = np.array([linear_analyzer_ket(a, "signal").amplitudes for a in angles])
    probs = coincidence_row(rho, idler, signals)
    vis = (max(probs) - min(probs)) / (max(probs) + min(probs))
    assert vis == pytest.approx(1.0 - p, abs=1e-10)


def test_polarization_space_noise_keeps_oam_marginal():
    p = 0.4
    full = down_convert(pump_state(2, alphabet=(-2, -1, 0, 1, 2)))
    rho = apply_noise(full, p, space="polarization")
    pol = partial_trace(rho, keep=("idler", "signal_pol"))
    oam = partial_trace(rho, keep="signal_oam")
    bell_pol = partial_trace(DensityMatrix.from_ket(full), keep=("idler", "signal_pol"))
    assert np.allclose(
        pol.matrix, (1 - p) * bell_pol.matrix + p * np.eye(4) / 4.0, atol=1e-12
    )
    # OAM register untouched: half each on -2 and +2
    assert np.allclose(np.diag(oam.matrix), [0.5, 0, 0, 0, 0.5], atol=1e-12)


def test_noise_validation():
    full = down_convert(pump_state(1, alphabet=OAM3))
    with pytest.raises(ConfigError):
        apply_noise(full, -0.1)
    with pytest.raises(ConfigError):
        apply_noise(full, 1.5)
    with pytest.raises(ConfigError):
        apply_noise(full, 0.3, space="spatial")
    with pytest.raises(TypeError):  # noise is mixed into the source ket only
        apply_noise(DensityMatrix.from_ket(full), 0.3)


def test_noise_preserves_trace_and_hermiticity():
    full = down_convert(pump_state(2, 0.9, alphabet=OAM3))
    for p in (0.05, 0.5, 0.95):
        rho = apply_noise(full, p)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
