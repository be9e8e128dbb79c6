"""The Uhlmann fidelity of two states, the reference the tomography tests
measure with; the package itself only needs the pure-target ``fidelity``."""

import numpy as np

from hesim.errors import NumericalError
from hesim.quantum import InvalidCompositionError, Ket, fidelity


def state_fidelity(a, b) -> float:
    """Uhlmann fidelity; either argument may be a Ket or a DensityMatrix.

    For a pure argument this reduces to the overlap returned by
    ``fidelity``; for two mixed states it is (tr sqrt(sqrt(a) b sqrt(a)))^2.
    """
    if isinstance(b, Ket):
        return fidelity(a, b)
    if isinstance(a, Ket):
        return fidelity(b, a)
    if a.subsystems != b.subsystems:
        raise InvalidCompositionError("states live on different subsystems")
    w, u = np.linalg.eigh(a.matrix)
    w = np.clip(w, 0.0, None)
    sqrt_a = (u * np.sqrt(w)) @ u.conj().T
    m = sqrt_a @ b.matrix @ sqrt_a
    ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    root = float(np.sqrt(np.clip(ev, 0.0, None)).sum())
    out = root * root
    if out > 1.0 + 1e-9:
        raise NumericalError(f"fidelity {out} outside [0, 1]")
    return min(out, 1.0)
