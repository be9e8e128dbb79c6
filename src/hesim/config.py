"""Run configuration: nested dataclasses with strict key checking.

Configs load from JSON. Unknown keys are rejected rather than ignored so a
typo in a run file fails loudly instead of silently running defaults.
"""

import dataclasses
import json
import numbers
from dataclasses import dataclass, field

from .analysis import CHSH_SETTINGS_DEG
from .detection import DetectorModel
from .errors import ConfigError


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        val = data[f.name]
        if dataclasses.is_dataclass(f.type) and isinstance(f.type, type):
            kwargs[f.name] = _build(f.type, val, f"{path}.{f.name}")
        else:
            kwargs[f.name] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class PumpConfig:
    l: int = 3
    phi: float = 0.0
    alpha: float = 0.7071067811865476  # balanced superposition

    def __post_init__(self):
        self.l = int(self.l)
        if self.l < 0:
            raise ConfigError("pump.l must be non-negative")
        self.phi = float(self.phi)
        self.alpha = float(self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("pump.alpha must lie in [0, 1]")


@dataclass
class NoiseConfig:
    p_white: float = 0.0
    space: str = "postselected"

    def __post_init__(self):
        self.p_white = float(self.p_white)
        if not 0.0 <= self.p_white <= 1.0:
            raise ConfigError("noise.p_white must lie in [0, 1]")
        if self.space not in ("postselected", "polarization"):
            raise ConfigError(f"unknown noise space {self.space!r}")


@dataclass
class GridConfig:
    n: int = 256
    extent: float | None = None  # None: sized from waist and max |l|
    waist: float = 1.0

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 16:
            raise ConfigError("grid.n must be at least 16")
        if self.extent is not None:
            self.extent = float(self.extent)
            if self.extent <= 0:
                raise ConfigError("grid.extent must be positive")
        self.waist = float(self.waist)
        if self.waist <= 0:
            raise ConfigError("grid.waist must be positive")


MAX_SWEEP_POINTS = 36_000  # per fringe sweep, so a 0.01 degree step at the finest


@dataclass
class AnalysisConfig:
    nbins: int = 72
    annulus: tuple | None = None  # None: sized from the petal ring radius
    chsh_settings: tuple = CHSH_SETTINGS_DEG
    n_bootstrap: int = 100
    sweep_step_deg: float = 10.0

    def __post_init__(self):
        self.nbins = int(self.nbins)
        if self.nbins < 8:
            raise ConfigError("analysis.nbins must be at least 8")
        if self.annulus is not None:
            lo, hi = (float(x) for x in self.annulus)
            if not 0 <= lo < hi:
                raise ConfigError("analysis.annulus must satisfy 0 <= lo < hi")
            self.annulus = (lo, hi)
        self.chsh_settings = tuple(float(x) for x in self.chsh_settings)
        if len(self.chsh_settings) != 4:
            raise ConfigError("analysis.chsh_settings needs exactly 4 angles")
        self.n_bootstrap = int(self.n_bootstrap)
        if self.n_bootstrap < 1:
            raise ConfigError("analysis.n_bootstrap must be at least 1")
        # 8 to MAX_SWEEP_POINTS sweep points; the value is kept as given, the
        # report echoes it
        step = self.sweep_step_deg
        if isinstance(step, bool) or not isinstance(step, numbers.Real) or not (
            360.0 / MAX_SWEEP_POINTS <= step < 360.0 / 7
        ):
            raise ConfigError(
                f"analysis.sweep_step_deg must be a number in "
                f"[360/{MAX_SWEEP_POINTS}, 360/7), got {step!r}"
            )


@dataclass
class RunConfig:
    pump: PumpConfig = field(default_factory=PumpConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    detector: DetectorModel = field(default_factory=DetectorModel)
    grid: GridConfig = field(default_factory=GridConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _build(cls, data, "config")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["analysis"]["annulus"] = (
            list(self.analysis.annulus) if self.analysis.annulus else None
        )
        return doc
