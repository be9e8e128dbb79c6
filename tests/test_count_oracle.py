"""Count tables on generated sources: coincidence_row against the per-cell
projection chain, and tomography of its expected counts."""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import hesim
from hesim.analysis import sweep_dial, tomography_counts, tomography_linear
from hesim.detection import (
    SETTINGS,
    DetectorModel,
    analyzer_state,
    coincidence_row,
    dial_amplitudes,
    linear_analyzer_ket,
)
from hesim.jones import pump_state
from hesim.quantum import NULL_TOL, Ket, partial_trace, project
from hesim.spdc import IDLER, SIGNAL_POL, apply_noise, down_convert


def proj_ket(setting, name):
    """A setting as a ket on the named arm; a ket is used as given, not renormalised."""
    if isinstance(setting, Ket):
        return setting
    return analyzer_state(setting, name=name)


def signal_row(signals) -> np.ndarray:
    """Signal settings or kets as the (N, 2) amplitude array coincidence_row takes."""
    amps = [proj_ket(s, SIGNAL_POL).amplitudes for s in signals]
    return np.array(amps, dtype=complex).reshape(-1, 2)


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
def sources(draw, weights=st.one_of(st.just(0.0), st.floats(0.0, 1.0))):
    """A configured source on every charge up to max(l, 1) or only those the
    pump fills: p_white = 0 leaves it a Ket."""
    l = draw(st.integers(0, 3))
    m = max(l, 1)
    alphabet = draw(st.sampled_from((tuple(range(-m, m + 1)), tuple(sorted({-l, l})))))
    pump = pump_state(l, draw(angles), draw(st.floats(0.0, 1.0)), alphabet=alphabet)
    p = draw(weights)
    space = draw(st.sampled_from(("postselected", "polarization")))
    return apply_noise(down_convert(pump), p, space=space)


pure_sources = sources(weights=st.just(0.0))
mixed_sources = sources(weights=st.floats(0.0, 1.0, exclude_min=True))


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
    cells = [cell_prob(state, idler, s) for s in row]
    assert coincidence_row(state, idler, signal_row(row)) == cells


@settings(derandomize=True, deadline=None, max_examples=100)
@given(state=sources(), idler=idlers, chi1=angles, chi2=angles)
def test_idler_marginal_ignores_the_signal_basis(state, idler, chi1, chi2):
    pairs = [(chi1, chi1 + np.pi / 2), (chi2, chi2 + np.pi / 2)]
    row = coincidence_row(
        state, idler, signal_row([linear_analyzer_ket(c, "signal") for pair in pairs for c in pair]
        + [SETTINGS["R"], SETTINGS["L"]]),
    )
    marginals = [row[0] + row[1], row[2] + row[3], row[4] + row[5]]
    assert max(marginals) - min(marginals) <= 1e-12


@pytest.mark.parametrize("step", [1.0, 2.0, 5.0])
@settings(derandomize=True, deadline=None, max_examples=12)
@given(state=sources(), idler=idlers)
def test_full_dial_rows_match_cell_by_cell_chain(step, state, idler):
    angles, row = sweep_dial(step)
    assert len(row) == round(360 / step)
    assert coincidence_row(state, idler, row) == [
        cell_prob(state, idler, linear_analyzer_ket(a, "signal")) for a in angles
    ]


@pytest.mark.parametrize("source", [pure_sources, mixed_sources], ids=["pure", "mixed"])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data(), idler=idlers, extra=st.lists(signals, max_size=6))
def test_a_cell_does_not_depend_on_how_many_settings_share_its_row(source, data, idler, extra):
    # a row of one and a row of 360 may run through different BLAS kernels
    state = data.draw(source)
    _, dial = sweep_dial(1.0)
    row = np.concatenate([dial, signal_row(extra)])
    assert coincidence_row(state, idler, row) == [
        coincidence_row(state, idler, row[k : k + 1])[0] for k in range(len(row))
    ]


@pytest.mark.parametrize("source", [pure_sources, mixed_sources], ids=["pure", "mixed"])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data(), idler=idlers, dial=st.lists(angles, max_size=12))
def test_a_stacked_dial_row_is_its_ket_row(source, data, idler, dial):
    state = data.draw(source)
    stacked = coincidence_row(state, idler, dial_amplitudes(dial, "signal"))
    ket_row = signal_row([linear_analyzer_ket(a, "signal") for a in dial])
    kets = coincidence_row(state, idler, ket_row)
    assert len(stacked) == len(dial)
    assert np.array(stacked).view(np.uint64).tolist() == np.array(kets).view(np.uint64).tolist()


ROW_HASHES = """
import hashlib
import numpy as np
from hesim.analysis import sweep_dial
from hesim.config import RunConfig
from hesim.detection import SETTINGS, coincidence_row
from hesim.pipelines import build_source
_, row = sweep_dial(1.0)
for l in (0, 3):
    cfg = RunConfig.from_dict({"pump": {"l": l, "phi": 0.4}, "noise": {"p_white": 0.1}})
    probs = np.array(coincidence_row(build_source(cfg, l=l), SETTINGS["D"], row), dtype=np.float64)
    print(l, hashlib.sha256(probs.tobytes()).hexdigest())
"""


def test_blas_thread_count_does_not_move_a_count_row():
    src = str(Path(hesim.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", ROW_HASHES],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        hashes.append(run.stdout.split())
    assert len(hashes[0]) == 4
    assert hashes[0] == hashes[1]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(state=sources(weights=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True))))
def test_tomography_of_expected_counts_inverts_exactly(state):
    counts = tomography_counts(state, DetectorModel(sampled=False))
    rho = tomography_linear(counts)
    assert rho.subsystems == (state.subsystems[0], state.subsystems[1])
    expected = partial_trace(state, [IDLER, SIGNAL_POL]).matrix
    assert np.abs(rho.matrix - expected).max() <= 1e-12
