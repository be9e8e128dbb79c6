"""Jones calculus for the pump preparation stage.

Wave plates act on (H, V) column vectors. A plate whose axis sits at angle
theta from H is the axis-frame retarder rotated by theta:

    J(theta) = R(theta) @ diag(1, exp(i*delta)) @ R(-theta)

with delta = pi for a half-wave plate and delta = pi/2 for a quarter-wave
plate, i.e. the component along the plate axis is left alone and the
orthogonal component picks up the retardance. ``pump_state`` is the closed
form of the polarizing Sagnac loop; the tests trace the loop element by
element as its oracle.
"""

import numpy as np

from .errors import ConfigError
from .quantum import Ket, oam_subsystem, pol_subsystem

TWO_PI = 2.0 * np.pi


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def half_wave(theta: float) -> np.ndarray:
    """HWP with fast axis at theta: [[cos 2t, sin 2t], [sin 2t, -cos 2t]]."""
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def quarter_wave(theta: float) -> np.ndarray:
    """QWP with fast axis at theta; axis-frame matrix diag(1, i)."""
    r = rotation(theta)
    return (r @ np.diag([1.0, 1.0j]) @ r.T).astype(complex)


def pump_state(
    l: int, phi: float = 0.0, alpha: float = 1.0 / np.sqrt(2.0), *, alphabet
) -> Ket:
    """Closed-form pump ket alpha |H,+l> + beta exp(-i*phi) |V,-l>.

    beta = sqrt(1 - alpha^2). alpha = 1/sqrt(2) is the balanced Sagnac;
    other values model unbalanced splitting. ``alphabet`` lists the OAM
    charges of the register in ascending order and must hold +l and -l.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha={alpha} must sit inside [0, 1]")
    beta = np.sqrt(1.0 - alpha * alpha)
    pol = pol_subsystem()
    oam = oam_subsystem(alphabet)
    return Ket.from_terms(
        (pol, oam),
        {
            ("H", int(l)): alpha,
            ("V", -int(l)): beta * np.exp(-1j * (float(phi) % TWO_PI)),
        },
        fix_phase=False,
    )
