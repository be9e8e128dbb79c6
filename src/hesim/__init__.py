"""Desk-scale simulator of a polarization-OAM hybrid entangled photon pair.

A classical pump whose polarization and orbital angular momentum are
non-separable is handed to a paired-crystal down-conversion source; the
resulting two-photon state carries the same structure as entanglement
between the idler's polarization and the signal's spatial mode. The
package walks the whole bench: pump preparation, the transfer rules,
analyzers and heralded imaging, fringe and petal fits, CHSH, tomography,
and the two-basis witness, with deterministic Poisson statistics on top.
"""

from .analysis import (
    chsh,
    chsh_table,
    fit_visibility,
    tomography_counts,
    tomography_linear,
    witness_expectation,
)
from .config import RunConfig
from .detection import SETTINGS, AnalyzerSetting, DetectorModel, analyzer_state
from .errors import ConfigError, NumericalError
from .jones import pump_state
from .lgmodes import FieldImage, Fringe, LGMode, lg_amplitude, peak_radius, petal_fit
from .pipelines import run_hybrid_witness, run_polarization_bell, run_pump_gallery
from .quantum import (
    DensityMatrix,
    InvalidCompositionError,
    Ket,
    Subsystem,
    fidelity,
    oam_subsystem,
    partial_trace,
    pol_ket,
    pol_subsystem,
    project,
)
from .spdc import apply_noise, down_convert

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSetting",
    "ConfigError",
    "DensityMatrix",
    "DetectorModel",
    "FieldImage",
    "Fringe",
    "InvalidCompositionError",
    "Ket",
    "LGMode",
    "NumericalError",
    "RunConfig",
    "SETTINGS",
    "Subsystem",
    "analyzer_state",
    "apply_noise",
    "chsh",
    "chsh_table",
    "down_convert",
    "fidelity",
    "fit_visibility",
    "lg_amplitude",
    "oam_subsystem",
    "partial_trace",
    "peak_radius",
    "petal_fit",
    "pol_ket",
    "pol_subsystem",
    "project",
    "pump_state",
    "run_hybrid_witness",
    "run_polarization_bell",
    "run_pump_gallery",
    "tomography_counts",
    "tomography_linear",
    "witness_expectation",
]
