"""coincidence_row against the per-cell projection chain, on generated sources."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from hesim.detection import SETTINGS, analyzer_state, coincidence_row, linear_analyzer_ket
from hesim.jones import pump_state
from hesim.quantum import NULL_TOL, Ket, pol_subsystem, project
from hesim.spdc import IDLER, SIGNAL_POL, apply_noise, down_convert


def proj_ket(setting, name):
    """A setting as a ket on the named arm; a bare ket is re-wrapped and renormalised."""
    if isinstance(setting, Ket):
        return Ket((pol_subsystem(name),), setting.amplitudes, fix_phase=False)
    return analyzer_state(setting, name=name)


def cell_prob(state, idler, signal) -> float:
    """One cell on its own: a pure state contracted from the highest axis
    down, a mixed one projected idler first, then signal."""
    projections = {IDLER: proj_ket(idler, IDLER), SIGNAL_POL: proj_ket(signal, SIGNAL_POL)}
    if isinstance(state, Ket):
        t = state.amplitudes.reshape(state.dims)
        for ax, name in sorted(((state.axis(n), n) for n in projections), reverse=True):
            v = projections[name].amplitudes
            t = np.tensordot(v.conj(), np.moveaxis(t, ax, 0), axes=([0], [0]))
        return float(np.sum(np.abs(t) ** 2))
    p_total = 1.0
    current = state
    for name, ket in projections.items():
        current, p = project(current, ket, subsystem=name)
        p_total *= p
        if p < NULL_TOL:
            return 0.0
    return p_total


angles = st.floats(0.0, 2 * np.pi)


@st.composite
def sources(draw):
    """A configured source: p_white = 0 leaves it a Ket."""
    l = draw(st.integers(0, 3))
    m = max(l, 1)
    pump = pump_state(
        l, draw(angles), draw(st.floats(0.0, 1.0)), alphabet=tuple(range(-m, m + 1))
    )
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    space = draw(st.sampled_from(("postselected", "polarization")))
    return apply_noise(down_convert(pump), p, space=space)


idlers = st.one_of(
    st.sampled_from(sorted(SETTINGS)).map(SETTINGS.get),
    angles.map(lambda a: linear_analyzer_ket(a, "idler")),
)
signals = st.one_of(
    st.sampled_from(sorted(SETTINGS)).map(SETTINGS.get),
    angles.map(lambda a: linear_analyzer_ket(a, "signal")),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(state=sources(), idler=idlers, row=st.lists(signals, min_size=1, max_size=6))
def test_row_matches_cell_by_cell_chain(state, idler, row):
    # counts key on float(mean), so the row must give the very same bits
    assert coincidence_row(state, idler, row) == [cell_prob(state, idler, s) for s in row]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(state=sources(), idler=idlers, chi1=angles, chi2=angles)
def test_idler_marginal_ignores_the_signal_basis(state, idler, chi1, chi2):
    pairs = [(chi1, chi1 + np.pi / 2), (chi2, chi2 + np.pi / 2)]
    row = coincidence_row(
        state, idler, [linear_analyzer_ket(c, "signal") for pair in pairs for c in pair]
        + [SETTINGS["R"], SETTINGS["L"]],
    )
    marginals = [row[0] + row[1], row[2] + row[3], row[4] + row[5]]
    assert max(marginals) - min(marginals) <= 1e-12
