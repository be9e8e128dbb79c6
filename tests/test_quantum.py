"""State-algebra tests: explicit matrix oracles first, then the API."""

import numpy as np
import pytest

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
from hesim.errors import NumericalError
from fidelity_oracle import state_fidelity

# -- oracles: raw vectors, no package code ------------------------------------

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
D = (H + V) / np.sqrt(2)
A = (H - V) / np.sqrt(2)
BELL_MINUS = (np.kron(H, H) - np.kron(V, V)) / np.sqrt(2)  # (|HH> - |VV>)/sqrt 2

POL = pol_subsystem()
OAM3 = oam_subsystem((-3, -2, -1, 0, 1, 2, 3))


def amplitude(ket: Ket, *labels) -> complex:
    """Amplitude of ``ket`` at one label per subsystem, in declaration order."""
    index = tuple(s.index(lab) for s, lab in zip(ket.subsystems, labels))
    return complex(ket.amplitudes.reshape(ket.dims)[index])


def tensor(a: Ket, b: Ket) -> Ket:
    """Product state; Ket itself rejects subsystem names the factors share."""
    return Ket(a.subsystems + b.subsystems, np.kron(a.amplitudes, b.amplitudes))


def white_noise_mix(psi: Ket, p: float) -> DensityMatrix:
    """(1-p) |psi><psi| + p I/dim over psi's full declared space."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p={p} outside [0, 1]")
    d = psi.dim
    mat = (1.0 - p) * np.outer(psi.amplitudes, psi.amplitudes.conj())
    mat += (p / d) * np.eye(d)
    return DensityMatrix(psi.subsystems, mat)


def bell_minus_ket():
    return Ket.from_terms(
        (pol_subsystem("idler"), pol_subsystem("signal")),
        {("H", "H"): 1 / np.sqrt(2), ("V", "V"): -1 / np.sqrt(2)},
        fix_phase=False,
    )


def pump_ket(l, phi=0.0):
    return Ket.from_terms(
        (POL, OAM3),
        {("H", l): 1 / np.sqrt(2), ("V", -l): np.exp(-1j * phi) / np.sqrt(2)},
        fix_phase=False,
    )


# -- tensor --------------------------------------------------------------------


def test_tensor_product_basis_state():
    k = tensor(Ket((POL,), H), Ket((OAM3,), np.eye(7)[4]))
    assert amplitude(k, "H", 1) == pytest.approx(1.0)
    assert np.count_nonzero(k.amplitudes) == 1


def test_tensor_distributes_amplitudes():
    k = tensor(Ket((POL,), D), Ket((OAM3,), np.eye(7)[3]))
    assert amplitude(k, "H", 0) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(k, "V", 0) == pytest.approx(1 / np.sqrt(2))


def test_tensor_pol_with_oam_superposition():
    oam = Ket.from_terms((OAM3,), {3: 1 / np.sqrt(2), -3: 1 / np.sqrt(2)})
    k = tensor(pol_ket("D"), oam)
    for label in (("H", 3), ("H", -3), ("V", 3), ("V", -3)):
        assert amplitude(k, *label) == pytest.approx(0.5)


def test_tensor_rejects_duplicate_subsystem_names():
    with pytest.raises(InvalidCompositionError):
        tensor(Ket((POL,), H), Ket((POL,), V))


# -- project --------------------------------------------------------------------


def test_project_orthogonal_is_null():
    k = tensor(Ket((POL,), H), Ket((OAM3,), np.eye(7)[4]))
    residual, p = project(k, Ket((POL,), V))
    assert residual is None
    assert p == pytest.approx(0.0, abs=1e-15)


def test_project_pump_on_h_leaves_plus_vortex():
    residual, p = project(pump_ket(1), pol_ket("H"), subsystem="pol")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert amplitude(residual, 1) == pytest.approx(1.0)


def test_project_bell_idler_d_gives_antidiagonal():
    # oracle: <D|_idler (|HH> - |VV>)/sqrt2 = (|H> - |V>)/2, renormalized |A>
    vec = np.kron(D.conj(), np.eye(2)) @ BELL_MINUS
    p_expect = float(np.vdot(vec, vec).real)
    residual, p = project(bell_minus_ket(), Ket((pol_subsystem("idler"),), D))
    assert p == pytest.approx(p_expect, abs=1e-12) == pytest.approx(0.5, abs=1e-12)
    assert abs(np.vdot(residual.amplitudes, A)) == pytest.approx(1.0, abs=1e-12)


def test_project_completeness_over_bases():
    rng = np.random.default_rng(11)
    for _ in range(20):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        k = Ket((pol_subsystem("idler"), pol_subsystem("signal")), amp)
        for basis in (("H", "V"), ("D", "A"), ("R", "L")):
            total = 0.0
            for label in basis:
                proj = Ket((pol_subsystem("idler"),), pol_ket(label).amplitudes)
                total += project(k, proj)[1]
            assert total == pytest.approx(1.0, abs=1e-10)


def test_project_tensor_round_trip():
    rng = np.random.default_rng(5)
    a = Ket((POL,), rng.normal(size=2) + 1j * rng.normal(size=2))
    b = Ket((OAM3,), rng.normal(size=7) + 1j * rng.normal(size=7))
    residual, p = project(tensor(a, b), a)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert residual.subsystems == b.subsystems
    assert np.allclose(residual.amplitudes, b.amplitudes, atol=1e-9)


def test_project_density_matrix_conditional():
    dm = DensityMatrix.from_ket(bell_minus_ket())
    residual, p = project(dm, Ket((pol_subsystem("idler"),), D))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert residual.matrix[0, 1] == pytest.approx(-0.5, abs=1e-12)


# -- fidelity and noise -----------------------------------------------------------


def test_fidelity_pure_self():
    k = bell_minus_ket()
    assert fidelity(DensityMatrix.from_ket(k), k) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_maximally_mixed_vs_bell():
    subs = (pol_subsystem("idler"), pol_subsystem("signal"))
    mixed = DensityMatrix(subs, np.eye(4) / 4)
    assert fidelity(mixed, bell_minus_ket()) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_white_noise_closed_form():
    # (1-p) + p/4 = 0.925 at p = 0.1
    k = bell_minus_ket()
    rho = white_noise_mix(k, 0.1)
    assert fidelity(rho, k) == pytest.approx(0.925, abs=1e-12)


def test_white_noise_limits_and_coherence():
    k = bell_minus_ket()
    assert np.allclose(
        white_noise_mix(k, 0.0).matrix, np.outer(k.amplitudes, k.amplitudes.conj())
    )
    assert np.allclose(white_noise_mix(k, 1.0).matrix, np.eye(4) / 4)
    # HH-VV coherence magnitude (1-p)/2 = 0.48 at p = 0.04
    rho = white_noise_mix(k, 0.04)
    assert abs(rho.matrix[0, 3]) == pytest.approx(0.48, abs=1e-12)


def test_white_noise_stays_hermitian_unit_trace():
    k = bell_minus_ket()
    for p in np.linspace(0, 1, 11):
        rho = white_noise_mix(k, float(p))
        assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert rho.psd_flag


def test_white_noise_rejects_bad_p():
    with pytest.raises(ValueError):
        white_noise_mix(bell_minus_ket(), 1.5)


def test_state_fidelity_matches_commuting_oracle():
    # diagonal states: F = (sum sqrt(p_i q_i))^2
    subs = (pol_subsystem("idler"), pol_subsystem("signal"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        f = state_fidelity(DensityMatrix(subs, np.diag(p)), DensityMatrix(subs, np.diag(q)))
        assert f == pytest.approx(float(np.sum(np.sqrt(p * q)) ** 2), abs=1e-10)


def test_state_fidelity_agrees_with_pure_overlap():
    k = bell_minus_ket()
    rho = white_noise_mix(k, 0.3)
    assert state_fidelity(rho, k) == pytest.approx(fidelity(rho, k), abs=1e-12)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


# -- constructors and validation ----------------------------------------------------


def test_ket_normalizes_and_fixes_phase():
    k = Ket((POL,), np.array([-2.0, 2.0]))
    assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-12)
    first = k.amplitudes[np.flatnonzero(np.abs(k.amplitudes) > 1e-15)[0]]
    assert first.real > 0 and abs(first.imag) < 1e-15


def test_ket_rejects_zero_vector():
    with pytest.raises(ValueError):
        Ket((POL,), np.zeros(2))


def test_random_kets_unit_norm_canonical_phase():
    rng = np.random.default_rng(17)
    for _ in range(50):
        amp = rng.normal(size=7) + 1j * rng.normal(size=7)
        k = Ket((OAM3,), amp)
        assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-12)
        lead = k.amplitudes[np.flatnonzero(np.abs(k.amplitudes) > 1e-15)[0]]
        assert lead.real >= 0 and abs(lead.imag) <= 1e-12 * abs(lead.real) + 1e-15


def test_density_matrix_rejects_non_hermitian():
    subs = (POL,)
    mat = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(subs, mat)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityMatrix((POL,), np.eye(2))


def test_psd_flag_reports_negative_eigenvalue():
    mat = np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex)
    rho = DensityMatrix((POL,), mat)
    assert not rho.psd_flag
    repaired = rho.clip_to_physical()
    assert repaired.psd_flag
    assert np.trace(repaired.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_of_bell_is_maximally_mixed():
    red = partial_trace(bell_minus_ket(), "idler")
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    assert np.trace(red.matrix @ red.matrix).real == pytest.approx(0.5, abs=1e-10)
