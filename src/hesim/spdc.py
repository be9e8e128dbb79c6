"""Two-photon state generation from a pair of crossed type-I crystals.

The first crystal converts the H-polarized pump component into a VV pair,
the second converts V into HH. With the pump carrying orbital angular
momentum l and the idler post-selected into the Gaussian (l = 0) mode by
its single-mode fiber, conservation puts all of the pump charge on the
signal photon:

    |H, l>_pump  ->  s |V>_idler |V, l>_signal
    |V, l>_pump  ->    |H>_idler |H, l>_signal

The relative conversion coefficient s between the two crystals is fixed at
-1, which turns the diagonal Gaussian pump into (|HH> - |VV>)/sqrt(2). A
coefficient -exp(i chi) would only shift the pump phase phi by chi (up to a
global phase), so the pair's relative phase is set through the pump.
"""

import numpy as np

from .errors import ConfigError
from .quantum import (
    DensityMatrix,
    Ket,
    Subsystem,
    partial_trace,
    pol_subsystem,
)

IDLER = "idler"
SIGNAL_POL = "signal_pol"
SIGNAL_OAM = "signal_oam"

H_PUMP_SIGN = complex(-1.0)  # s, the H->VV amplitude relative to V->HH


def down_convert(pump: Ket) -> Ket:
    """Map a pol x OAM pump ket onto the post-selected two-photon ket.

    The output lives on (idler pol) x (signal pol) x (signal OAM) and keeps
    the pump's OAM alphabet. The map is an isometry: amplitudes transfer
    unchanged (up to the s coefficient), so inner products between pump
    states are preserved exactly.
    """
    if pump.names() != ("pol", "oam"):
        raise ConfigError(f"pump must live on (pol, oam), got {pump.names()}")
    oam = pump.subsystem("oam")
    n = oam.dim

    pump_amp = pump.amplitudes.reshape(2, n)  # rows H, V
    out = np.zeros((2, 2, n), dtype=complex)  # (idler, signal_pol, signal_oam)
    out[1, 1, :] = H_PUMP_SIGN * pump_amp[0, :]  # H pump -> s |V V, l>
    out[0, 0, :] = pump_amp[1, :]  # V pump -> |H H, l>

    subsystems = (
        pol_subsystem(IDLER),
        pol_subsystem(SIGNAL_POL),
        Subsystem(SIGNAL_OAM, oam.labels),
    )
    # fix_phase=False: the transfer must stay an isometry, not just agree
    # up to a state-dependent global phase
    return Ket(subsystems, out.reshape(-1), fix_phase=False)


def apply_noise(state: Ket, p: float, space: str = "postselected"):
    """Mix a two-photon ket with white noise of weight p.

    space = "postselected": identity over idler x signal_pol x the occupied
    OAM charges (the subspace the experiment actually post-selects).
    space = "polarization": noise acts on the two polarization qubits only;
    the OAM register keeps its reduced state.
    p = 0 returns the input ket unchanged; any other p a DensityMatrix.
    """
    if not isinstance(state, Ket):
        raise TypeError(f"cannot add noise to a {type(state).__name__}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"noise weight p={p} outside [0, 1]")
    if p == 0.0:
        return state
    names = state.names()
    if names != (IDLER, SIGNAL_POL, SIGNAL_OAM):
        raise ConfigError(f"expected a two-photon state, got subsystems {names}")
    dm = DensityMatrix.from_ket(state)
    n = dm.dims[2]

    if space == "postselected":
        pops = np.sum(np.abs(state.amplitudes.reshape(state.dims)) ** 2, axis=(0, 1))
        occ = [i for i, w in enumerate(pops) if w > 1e-12]
        if not occ:
            raise ConfigError("state has no OAM population")
        diag = np.zeros(n)
        diag[occ] = 1.0
        noise = np.kron(np.eye(4), np.diag(diag)) / (4.0 * len(occ))
    elif space == "polarization":
        rho_oam = partial_trace(dm, keep=SIGNAL_OAM).matrix
        noise = np.kron(np.eye(4) / 4.0, rho_oam)
    else:
        raise ConfigError(f"unknown noise space {space!r}")

    mat = (1.0 - p) * dm.matrix + p * noise
    return DensityMatrix(dm.subsystems, mat)
