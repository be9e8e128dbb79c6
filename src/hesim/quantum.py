"""State algebra over named polarization/OAM subsystems.

Conventions, fixed once and used everywhere:

* Basis order is the declaration order of the subsystems. Within a
  subsystem, polarization runs H before V and OAM charges ascend, so a
  pol x OAM ket with alphabet {-1, 0, +1} is laid out
  (H,-1) (H,0) (H,+1) (V,-1) (V,0) (V,+1).
* Circular polarization handedness: R = (H - iV)/sqrt(2), L = (H + iV)/sqrt(2).
* Ket constructors renormalise and rotate the global phase so the first
  nonzero amplitude is a non-negative real. That makes equality of states
  directly testable on the amplitude arrays.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

HERM_TOL = 1e-12
PSD_TOL = 1e-9
NULL_TOL = 1e-15

POL_LABELS = ("H", "V")


class InvalidCompositionError(ValueError):
    """Composition of states whose subsystem names collide or mismatch."""


@dataclass(frozen=True)
class Subsystem:
    """A named tensor factor with a fixed, ordered label alphabet."""

    name: str
    labels: tuple

    def __post_init__(self):
        if not self.name:
            raise ValueError("subsystem needs a name")
        if len(self.labels) < 1 or len(set(self.labels)) != len(self.labels):
            raise ValueError(f"bad label alphabet for {self.name!r}: {self.labels}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in subsystem {self.name!r}") from None


def pol_subsystem(name: str = "pol") -> Subsystem:
    return Subsystem(name, POL_LABELS)


def oam_subsystem(alphabet, name: str = "oam") -> Subsystem:
    alphabet = tuple(int(l) for l in alphabet)
    if tuple(sorted(alphabet)) != alphabet:
        raise ValueError("OAM alphabet must be ascending")
    return Subsystem(name, alphabet)


def _check_subsystems(subsystems):
    subsystems = tuple(subsystems)
    names = [s.name for s in subsystems]
    if len(set(names)) != len(names):
        raise InvalidCompositionError(f"duplicate subsystem names: {names}")
    return subsystems


def _fix_global_phase(amp: np.ndarray) -> np.ndarray:
    # rotate so the first amplitude above threshold is real and >= 0
    for a in amp:
        if abs(a) > 1e-12:
            return amp * np.exp(-1j * np.angle(a))
    return amp


def _flat_index(subsystems, label) -> int:
    """Position of a label tuple in the flat basis; a bare label addresses one subsystem."""
    if not isinstance(label, tuple):
        label = (label,)
    if len(label) != len(subsystems):
        raise ValueError(f"label {label!r} does not address {len(subsystems)} subsystems")
    return np.ravel_multi_index(
        tuple(s.index(l) for s, l in zip(subsystems, label)), [s.dim for s in subsystems]
    )


class _State:
    """Subsystem bookkeeping shared by Ket and DensityMatrix."""

    __slots__ = ("_subsystems",)

    @property
    def subsystems(self) -> tuple:
        return self._subsystems

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self._subsystems)

    def names(self):
        return tuple(s.name for s in self._subsystems)

    def axis(self, name: str) -> int:
        for i, s in enumerate(self._subsystems):
            if s.name == name:
                return i
        raise KeyError(f"no subsystem named {name!r}")


class Ket(_State):
    """Normalised pure state over an ordered tuple of subsystems."""

    __slots__ = ("_amp",)

    def __init__(self, subsystems, amplitudes, fix_phase: bool = True):
        self._subsystems = _check_subsystems(subsystems)
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        dim = math.prod(s.dim for s in self._subsystems)
        if amp.size != dim:
            raise ValueError(f"expected {dim} amplitudes, got {amp.size}")
        norm = np.linalg.norm(amp)
        if norm < 1e-15:
            raise ValueError("zero state has no direction")
        amp = amp / norm
        if fix_phase:
            amp = _fix_global_phase(amp)
        amp.setflags(write=False)
        self._amp = amp

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, subsystems, terms: dict, fix_phase: bool = True) -> "Ket":
        """Build from {label-tuple: amplitude}; labels of single subsystems may be bare."""
        subsystems = _check_subsystems(subsystems)
        amp = np.zeros(math.prod(s.dim for s in subsystems), dtype=complex)
        for label, value in terms.items():
            amp[_flat_index(subsystems, label)] += value
        return cls(subsystems, amp, fix_phase=fix_phase)

    @classmethod
    def basis_state(cls, subsystems, label) -> "Ket":
        return cls.from_terms(subsystems, {label: 1.0})

    # -- structure ---------------------------------------------------------

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    @property
    def dim(self) -> int:
        return self._amp.size

    def subsystem(self, name: str) -> Subsystem:
        return self._subsystems[self.axis(name)]

    def __repr__(self):
        labels = itertools.product(*(s.labels for s in self._subsystems))
        terms = ", ".join(
            f"{lab}: {complex(a):.4g}" for lab, a in zip(labels, self._amp) if abs(a) > 1e-9
        )
        return f"Ket({terms})"


def pol_ket(label: str, name: str = "pol") -> Ket:
    """Standard polarization states on a single 2-dim subsystem."""
    s2 = 1.0 / np.sqrt(2.0)
    table = {
        "H": (1.0, 0.0),
        "V": (0.0, 1.0),
        "D": (s2, s2),
        "A": (s2, -s2),
        "R": (s2, -1j * s2),
        "L": (s2, 1j * s2),
    }
    try:
        amp = table[label]
    except KeyError:
        raise KeyError(f"unknown polarization label {label!r}") from None
    return Ket((pol_subsystem(name),), amp)


class DensityMatrix(_State):
    """Hermitian, unit-trace operator over named subsystems.

    Positivity is diagnosed, not enforced: ``psd_flag`` reports whether the
    spectrum is non-negative to within PSD_TOL. Callers that need a physical
    matrix after noisy reconstruction must opt in via ``clip_to_physical``.
    """

    __slots__ = ("_mat",)

    def __init__(self, subsystems, matrix):
        self._subsystems = _check_subsystems(subsystems)
        mat = np.asarray(matrix, dtype=complex)
        dim = math.prod(s.dim for s in self._subsystems)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        herm_defect = np.max(np.abs(mat - mat.conj().T)) if dim else 0.0
        if herm_defect > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = mat.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {tr}")
        mat = mat / tr.real  # remove residual float drift
        mat.setflags(write=False)
        self._mat = mat

    @classmethod
    def from_ket(cls, psi: Ket) -> "DensityMatrix":
        return cls(psi.subsystems, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def psd_flag(self) -> bool:
        return bool(self.eigenvalues()[0] >= -PSD_TOL)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._mat)

    def clip_to_physical(self) -> "DensityMatrix":
        """Project onto the PSD cone (clip negative eigenvalues, renormalise)."""
        vals, vecs = np.linalg.eigh(self._mat)
        vals = np.clip(vals, 0.0, None)
        total = vals.sum()
        if total < 1e-15:
            raise NumericalError("matrix has no positive weight to keep")
        mat = (vecs * (vals / total)) @ vecs.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        return DensityMatrix(self._subsystems, mat)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, psd={self.psd_flag})"


# -- measurement -----------------------------------------------------------


def project(state, proj: Ket, subsystem: str | None = None):
    """Project one named subsystem onto ``proj``.

    Returns ``(residual, probability)`` where residual is the normalised
    conditional state of the remaining subsystems. A null outcome
    (probability below NULL_TOL) or a projection that consumes every
    subsystem returns residual ``None``.
    """
    if subsystem is None:
        subsystem = proj.subsystems[0].name
    if not isinstance(state, _State):
        raise TypeError(f"cannot project a {type(state).__name__}")
    ax = state.axis(subsystem)
    target = state.subsystems[ax]
    if len(proj.subsystems) != 1:
        raise InvalidCompositionError("projection ket must live on a single subsystem")
    if proj.subsystems[0].labels != target.labels:
        raise InvalidCompositionError(
            f"projection alphabet {proj.subsystems[0].labels} does not match subsystem "
            f"{target.name!r} with {target.labels}"
        )
    v = proj.amplitudes
    remaining = state.subsystems[:ax] + state.subsystems[ax + 1 :]
    if isinstance(state, Ket):
        t = state.amplitudes.reshape(state.dims)
        res = np.tensordot(v.conj(), t, axes=([0], [ax]))
        p = float(np.sum(np.abs(res) ** 2))
        if p < NULL_TOL or not remaining:
            return None, p
        return Ket(remaining, res.reshape(-1) / np.sqrt(p)), p
    k = len(state.subsystems)
    t = state.matrix.reshape(state.dims + state.dims)
    # contract ket index with <proj| and bra index with |proj>
    t = np.tensordot(v.conj(), t, axes=([0], [ax]))
    t = np.tensordot(t, v, axes=([k - 1 + ax], [0]))
    d_rem = math.prod(s.dim for s in remaining)
    mat = t.reshape(d_rem, d_rem)
    p = float(np.real(np.trace(mat)))
    if p < NULL_TOL or not remaining:
        return None, max(p, 0.0)
    mat = mat / p
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(remaining, mat), p


def partial_trace(state, keep) -> DensityMatrix:
    """Reduced density matrix on the named subsystems in ``keep``."""
    dm = state if isinstance(state, DensityMatrix) else DensityMatrix.from_ket(state)
    keep = [keep] if isinstance(keep, str) else list(keep)
    names = list(dm.names())
    if not keep or any(n not in names for n in keep):
        raise KeyError(f"keep={keep} must name a subset of {names}")
    k = len(names)
    ket_ix = [chr(97 + i) for i in range(k)]
    bra_ix = [ket_ix[i] if names[i] not in keep else chr(97 + k + i) for i in range(k)]
    kept = [i for i in range(k) if names[i] in keep]
    out = "".join(ket_ix[i] for i in kept) + "".join(bra_ix[i] for i in kept)
    t = dm.matrix.reshape(dm.dims + dm.dims)
    red = np.einsum("".join(ket_ix) + "".join(bra_ix) + "->" + out, t)
    sub = tuple(dm.subsystems[i] for i in kept)
    d = math.prod(s.dim for s in sub)
    mat = red.reshape(d, d)
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(sub, mat)


def fidelity(rho, target: Ket) -> float:
    """Overlap <target|rho|target>; accepts a Ket in place of rho."""
    if rho.subsystems != target.subsystems:
        raise InvalidCompositionError("states live on different subsystems")
    if isinstance(rho, Ket):
        return float(np.abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
    v = target.amplitudes
    val = np.vdot(v, rho.matrix @ v)
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"fidelity came out complex: {val}")
    out = float(val.real)
    if out < -1e-9 or out > 1.0 + 1e-9:
        raise NumericalError(f"fidelity {out} outside [0, 1]")
    return min(max(out, 0.0), 1.0)

