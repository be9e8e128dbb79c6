"""Every numeric setting on generated junk: RunConfig.from_dict either refuses
the value with ConfigError or holds it as written, a finite int or float
inside the setting's bounds. No other exception gets out."""

import math
import numbers
from collections.abc import Hashable
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from hesim.config import MAX_SWEEP_POINTS, RunConfig
from hesim.errors import ConfigError

INF = math.inf


def setting(section, name):
    """Put a value into one setting, and read the setting back."""
    return lambda v: {section: {name: v}}, lambda cfg: getattr(getattr(cfg, section), name)


# slot: ((patch, read), (integer, lo, hi, open_lo, open_hi))
SLOTS = {
    "pump.l": (setting("pump", "l"), (True, 0, INF, False, False)),
    "pump.phi": (setting("pump", "phi"), (False, -INF, INF, False, False)),
    "pump.alpha": (setting("pump", "alpha"), (False, 0, 1, False, False)),
    "noise.p_white": (setting("noise", "p_white"), (False, 0, 1, False, False)),
    "detector.pair_rate": (setting("detector", "pair_rate"), (False, 0, INF, False, False)),
    "detector.accidental_rate": (
        setting("detector", "accidental_rate"),
        (False, 0, INF, False, False),
    ),
    "detector.integration_time": (
        setting("detector", "integration_time"),
        (False, 0, INF, True, False),
    ),
    "detector.seed": (setting("detector", "seed"), (True, -INF, INF, False, False)),
    "detector.rate_scale_per_l value": (
        (
            lambda v: {"detector": {"rate_scale_per_l": {"3": v}}},
            lambda cfg: cfg.detector.rate_scale_per_l[3],
        ),
        (False, 0, 1, True, False),
    ),
    "detector.rate_scale_per_l key": (
        (
            lambda v: {"detector": {"rate_scale_per_l": {v: 0.5}}},
            lambda cfg: next(iter(cfg.detector.rate_scale_per_l)),
        ),
        (True, 0, INF, False, False),
    ),
    "grid.n": (setting("grid", "n"), (True, 16, INF, False, False)),
    "grid.extent": (setting("grid", "extent"), (False, 0, INF, True, False)),
    "grid.waist": (setting("grid", "waist"), (False, 0, INF, True, False)),
    "analysis.nbins": (setting("analysis", "nbins"), (True, 8, INF, False, False)),
    "analysis.n_bootstrap": (setting("analysis", "n_bootstrap"), (True, 1, INF, False, False)),
    "analysis.annulus inner": (
        (
            lambda v: {"analysis": {"annulus": [v, 50.0]}},
            lambda cfg: cfg.analysis.annulus[0],
        ),
        (False, 0, 50, False, True),
    ),
    "analysis.annulus outer": (
        (
            lambda v: {"analysis": {"annulus": [0.5, v]}},
            lambda cfg: cfg.analysis.annulus[1],
        ),
        (False, 0.5, INF, True, False),
    ),
    "analysis.chsh_settings": (
        (
            lambda v: {"analysis": {"chsh_settings": [0.0, 45.0, 22.5, v]}},
            lambda cfg: cfg.analysis.chsh_settings[3],
        ),
        (False, -INF, INF, False, False),
    ),
    "analysis.sweep_step_deg": (
        setting("analysis", "sweep_step_deg"),
        (False, 360.0 / MAX_SWEEP_POINTS, 360.0 / 7, False, True),
    ),
}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.from_regex(r"\A-?[0-9]{1,3}(\.[0-9]{0,2})?\Z"),
    st.sampled_from(["nan", "inf", "1e999", "0x10"]),
    st.sampled_from([math.nan, INF, -INF, 10**400, -(10**400), Fraction(10**400, 3)]),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100.0, 100.0),
    st.fractions(max_denominator=8),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([np.float64(0.5), np.float32(np.nan), np.int64(20), np.bool_(True)]),
)


@settings(derandomize=True, deadline=None, max_examples=800)
@given(slot=st.sampled_from(sorted(SLOTS)), value=junk)
def test_numeric_setting_refused_or_held_as_written(slot, value):
    (patch, read), (integer, lo, hi, open_lo, open_hi) = SLOTS[slot]
    assume(isinstance(value, Hashable) or not slot.endswith("key"))
    try:
        cfg = RunConfig.from_dict(patch(value))
    except ConfigError:
        return
    held = read(cfg)
    if slot == "grid.extent" and value is None:  # sized from the waist and the charge
        assert held is None
        return
    if slot == "analysis.sweep_step_deg":  # kept as given, for the report's echo
        assert held is value
    if isinstance(value, str):  # only a rate-scale key may be given as a decimal string
        assert slot.endswith("key") and value.isdecimal()
        value = int(value)
    assert not isinstance(value, bool)
    assert isinstance(value, numbers.Integral if integer else numbers.Real)
    if slot != "analysis.sweep_step_deg":
        assert type(held) is (int if integer else float)
    assert held == (value if integer else float(value))
    assert -INF < held < INF
    assert lo < held if open_lo else lo <= held
    assert held < hi if open_hi else held <= hi
