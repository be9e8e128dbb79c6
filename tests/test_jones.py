"""Pump-line optics: wave-plate matrix oracles, then the Sagnac chain."""

from dataclasses import dataclass

import numpy as np
import pytest

from hesim.errors import ConfigError
from hesim.jones import half_wave, pump_state, quarter_wave, rotation
from hesim.quantum import (
    DEFAULT_OAM_ALPHABET,
    Ket,
    oam_subsystem,
    partial_trace,
    pol_ket,
    pol_subsystem,
    project,
)

TWO_PI = 2.0 * np.pi
H = np.array([1.0, 0.0], dtype=complex)


def amplitude(ket: Ket, *labels) -> complex:
    """Amplitude of ``ket`` at one label per subsystem, in declaration order."""
    index = tuple(s.index(lab) for s, lab in zip(ket.subsystems, labels))
    return complex(ket.amplitudes.reshape(ket.dims)[index])


# -- Sagnac oracle: the pump line traced element by element ---------------------


def pbs_transmit() -> np.ndarray:
    """Projector onto H (the transmitted port)."""
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def pbs_reflect() -> np.ndarray:
    """Projector onto V (the reflected port)."""
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def apply_jones(matrix: np.ndarray, state: Ket) -> Ket:
    """Apply a 2x2 Jones matrix to a single-subsystem polarization ket."""
    if len(state.subsystems) != 1 or state.dim != 2:
        raise ValueError("apply_jones expects a bare polarization ket")
    out = np.asarray(matrix, dtype=complex) @ state.amplitudes
    if np.linalg.norm(out) < 1e-12:
        raise ValueError("element extinguished the state")
    return Ket(state.subsystems, out)


@dataclass(frozen=True)
class SagnacConfig:
    """Polarizing Sagnac loop around a spiral phase plate.

    spp_order: topological charge the plate adds to the counter-clockwise
        (H-polarized) pass; the clockwise pass sees the conjugate, -spp_order.
    asymmetry_phase: relative phase phi picked up by the clockwise (V) path
        from the off-center placement of the plate, wrapped into [0, 2*pi).
    """

    spp_order: int = 1
    asymmetry_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "spp_order", int(self.spp_order))
        object.__setattr__(
            self, "asymmetry_phase", float(self.asymmetry_phase) % TWO_PI
        )


def prepare_pump(cfg: SagnacConfig, alphabet=DEFAULT_OAM_ALPHABET) -> Ket:
    """Trace the diagonal pump through the Sagnac element by element.

    A diagonally polarized Gaussian enters the loop; the PBS sends H around
    counter-clockwise and V clockwise. Each pass crosses the spiral plate
    once, acquiring charge +l (CCW) or -l (CW), and the CW path additionally
    picks up exp(-i*phi) from the plate offset. The output is the coherent
    sum of the two paths:

        (|H,+l> + exp(-i*phi) |V,-l>) / sqrt(2)

    With the plate removed (spp_order == 0) there is no offset phase either,
    and the pump stays separable: (|H> + |V>)/sqrt(2) x |0>.
    """
    pol = pol_subsystem()
    oam = oam_subsystem(alphabet)
    l = cfg.spp_order
    if l not in oam.labels or -l not in oam.labels or 0 not in oam.labels:
        raise ConfigError(f"charges {{0, +-{l}}} must fit the OAM alphabet {oam.labels}")

    n = oam.dim
    amp = np.zeros((2, n), dtype=complex)
    amp[0, oam.index(0)] = 1.0 / np.sqrt(2.0)  # H component of the input
    amp[1, oam.index(0)] = 1.0 / np.sqrt(2.0)  # V component

    ccw = np.zeros_like(amp)
    cw = np.zeros_like(amp)
    ccw[0] = (pbs_transmit() @ amp)[0]
    cw[1] = (pbs_reflect() @ amp)[1]

    if l != 0:
        shifted = np.zeros_like(ccw)
        shifted[0, oam.index(l)] = ccw[0, oam.index(0)]
        ccw = shifted
        shifted = np.zeros_like(cw)
        shifted[1, oam.index(-l)] = cw[1, oam.index(0)]
        cw = shifted * np.exp(-1j * cfg.asymmetry_phase)

    return Ket((pol, oam), (ccw + cw).reshape(-1))


def hwp_oracle(t):
    c, s = np.cos(2 * t), np.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_oracle(t):
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    return r @ np.diag([1.0, 1.0j]) @ r.T


def test_half_wave_matches_oracle_grid():
    for t in np.linspace(0, np.pi, 13):
        assert np.allclose(half_wave(t), hwp_oracle(t), atol=1e-12)


def test_half_wave_basis_actions():
    assert np.allclose(half_wave(np.pi / 8) @ H, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(half_wave(0.0) @ H, H)
    assert np.allclose(half_wave(np.pi / 4) @ H, np.array([0, 1]))


def test_quarter_wave_makes_circular():
    out = qwp_oracle(np.pi / 4) @ H
    r = np.array([1.0, -1.0j]) / np.sqrt(2)
    assert abs(np.vdot(r, out)) == pytest.approx(1.0, abs=1e-12)
    got = quarter_wave(np.pi / 4) @ H
    assert abs(np.vdot(r, got)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(quarter_wave(0.0) @ H, np.diag([1, 1j]) @ H, atol=1e-12)


def test_qwp_hwp_chain_routes_r_to_transmit_port():
    # R through QWP(pi/4) then HWP(pi/4): transmitted by the PBS with prob 1.
    # An HWP at pi/8 instead can only reach 1/2 from circular input: QWP(pi/4)
    # turns R into V (or H, by handedness), never into the D the pi/8 plate
    # would need.
    r = np.array([1.0, -1.0j]) / np.sqrt(2)
    out = half_wave(np.pi / 4) @ quarter_wave(np.pi / 4) @ r
    assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    halfway = half_wave(np.pi / 8) @ quarter_wave(np.pi / 4) @ r
    assert abs(halfway[0]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_waveplates_unitary_pbs_idempotent():
    for t in np.linspace(0, 2 * np.pi, 17):
        for mat in (half_wave(t), quarter_wave(t), rotation(t)):
            assert np.allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)
    for port in (pbs_transmit(), pbs_reflect()):
        assert np.allclose(port @ port, port, atol=1e-12)


def test_apply_jones_rotates_ket():
    out = apply_jones(half_wave(np.pi / 8), pol_ket("H"))
    assert np.allclose(out.amplitudes, pol_ket("D").amplitudes, atol=1e-12)


# -- Sagnac pump preparation -----------------------------------------------------


def test_prepare_pump_l0_is_separable():
    k = prepare_pump(SagnacConfig(spp_order=0, asymmetry_phase=1.0))
    assert amplitude(k, "H", 0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amplitude(k, "V", 0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    red = partial_trace(k, "pol")
    assert np.trace(red.matrix @ red.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_prepare_pump_l1_amplitudes():
    k = prepare_pump(SagnacConfig(spp_order=1))
    assert amplitude(k, "H", 1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amplitude(k, "V", -1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_prepare_pump_l3_quarter_turn_phase():
    k = prepare_pump(SagnacConfig(spp_order=3, asymmetry_phase=np.pi / 2))
    assert amplitude(k, "H", 3) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amplitude(k, "V", -3) == pytest.approx(-1j / np.sqrt(2), abs=1e-12)


def test_prepare_pump_matches_closed_form_grid():
    for l in (0, 1, 2, 3):
        for phi in (0.0, np.pi / 4, np.pi / 2, np.pi):
            built = prepare_pump(SagnacConfig(spp_order=l, asymmetry_phase=phi))
            closed = pump_state(l, phi if l else 0.0)
            assert np.allclose(built.amplitudes, closed.amplitudes, atol=1e-12)


def test_prepare_pump_rejects_charge_outside_alphabet():
    with pytest.raises(ConfigError):
        prepare_pump(SagnacConfig(spp_order=2), alphabet=(-1, 0, 1))


def test_pump_reduced_polarization_maximally_mixed():
    for l in (1, 2, 3):
        red = partial_trace(pump_state(l), "pol")
        assert np.trace(red.matrix @ red.matrix).real == pytest.approx(0.5, abs=1e-10)


def test_pump_projections_are_pure_vortices():
    k = pump_state(2)
    res_h, p_h = project(k, pol_ket("H"), subsystem="pol")
    res_v, p_v = project(k, pol_ket("V"), subsystem="pol")
    assert p_h == pytest.approx(0.5, abs=1e-12)
    assert p_v == pytest.approx(0.5, abs=1e-12)
    assert amplitude(res_h, 2) == pytest.approx(1.0)
    assert abs(amplitude(res_v, -2)) == pytest.approx(1.0, abs=1e-12)


def test_pump_state_unbalanced_alpha():
    k = pump_state(1, alpha=0.6)
    assert abs(amplitude(k, "H", 1)) == pytest.approx(0.6, abs=1e-12)
    assert abs(amplitude(k, "V", -1)) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ConfigError):
        pump_state(1, alpha=1.2)


def test_sagnac_config_wraps_phase():
    cfg = SagnacConfig(spp_order=1, asymmetry_phase=2 * np.pi + 0.5)
    assert cfg.asymmetry_phase == pytest.approx(0.5, abs=1e-12)
