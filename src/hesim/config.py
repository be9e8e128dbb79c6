"""Run configuration: nested dataclasses with strict key checking.

Configs load from JSON. Unknown keys are rejected rather than ignored so a
typo in a run file fails loudly instead of silently running defaults.
Each numeric setting states only its bounds to errors.number, which takes a
finite real number, never a bool or a string, and a whole one for pump.l,
grid.n, analysis.nbins and n_bootstrap, and detector.seed. Each comes back as
an int or a float, except analysis.sweep_step_deg, which is kept as given.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .analysis import CHSH_SETTINGS_DEG
from .detection import DetectorModel
from .errors import ConfigError, number


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    if unknown := set(data) - set(types):
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    kwargs = dict(data)
    for name, typ in types.items():
        if name in data and dataclasses.is_dataclass(typ):
            kwargs[name] = _build(typ, data[name], f"{path}.{name}")
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
        self.l = number(self.l, "pump.l", 0, integer=True)
        self.phi = number(self.phi, "pump.phi")
        self.alpha = number(self.alpha, "pump.alpha", 0.0, 1.0)


@dataclass
class NoiseConfig:
    p_white: float = 0.0
    space: str = "postselected"

    def __post_init__(self):
        self.p_white = number(self.p_white, "noise.p_white", 0.0, 1.0)
        if self.space not in ("postselected", "polarization"):
            raise ConfigError(f"unknown noise space {self.space!r}")


@dataclass
class GridConfig:
    n: int = 256
    extent: float | None = None  # None: sized from waist and max |l|
    waist: float = 1.0

    def __post_init__(self):
        self.n = number(self.n, "grid.n", 16, integer=True)
        if self.extent is not None:
            self.extent = number(self.extent, "grid.extent", 0.0, open_lo=True)
        self.waist = number(self.waist, "grid.waist", 0.0, open_lo=True)


MAX_SWEEP_POINTS = 36_000  # per fringe sweep or angular histogram: 0.01 degree at the finest
# bootstrap draws: each reruns a four-image scan, about 4.5 ms at the default
# grid on a 2-core Xeon host, so the cap is some 8 minutes of draws. The one
# pass that keys every draw's seed grows with the count; at the cap it peaks
# near 12 MB
MAX_BOOTSTRAP = 100_000


@dataclass
class AnalysisConfig:
    nbins: int = 72
    annulus: tuple | None = None  # None: sized from the petal ring radius
    chsh_settings: tuple = CHSH_SETTINGS_DEG
    n_bootstrap: int = 100
    sweep_step_deg: float = 10.0

    def __post_init__(self):
        self.nbins = number(self.nbins, "analysis.nbins", 8, MAX_SWEEP_POINTS, integer=True)
        if self.annulus is not None:
            lo, hi = self.annulus
            lo = number(lo, "analysis.annulus inner radius", 0.0)
            self.annulus = (lo, number(hi, "analysis.annulus outer radius", lo, open_lo=True))
        self.chsh_settings = tuple(number(x, "analysis.chsh_settings") for x in self.chsh_settings)
        if len(self.chsh_settings) != 4:
            raise ConfigError("analysis.chsh_settings needs exactly 4 angles")
        # one draw has no spread, so a bootstrap takes two or more
        self.n_bootstrap = number(
            self.n_bootstrap, "analysis.n_bootstrap", 2, MAX_BOOTSTRAP, integer=True
        )
        # 8 to MAX_SWEEP_POINTS sweep points; kept as given, the report echoes it
        finest, coarsest = 360.0 / MAX_SWEEP_POINTS, 360.0 / 7
        number(self.sweep_step_deg, "analysis.sweep_step_deg", finest, coarsest, open_hi=True)


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
        except ValueError as exc:  # a JSON syntax error or bytes that are not UTF-8
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["analysis"]["annulus"] = list(self.analysis.annulus) if self.analysis.annulus else None
        return doc
