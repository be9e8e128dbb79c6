"""Source guarantees on generated inputs: the OAM support the pump fills,
the pair rule every rendered block keeps, down-conversion as an isometry,
and white noise as a physical mixture."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hesim.analysis import witness_expectation
from hesim.detection import SETTINGS, conditional_oam, oam_block
from hesim.errors import NumericalError
from hesim.jones import pump_state
from hesim.lgmodes import default_extent, pair_terms, render_from_density
from hesim.pipelines import GALLERY_BASES
from hesim.quantum import DensityMatrix, Ket, oam_subsystem, partial_trace, pol_ket, pol_subsystem
from hesim.spdc import SIGNAL_OAM, apply_noise, down_convert

angles = st.floats(0.0, 2 * np.pi)
charges = st.integers(1, 6)
weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True))
spaces = st.sampled_from(("postselected", "polarization"))


def full_alphabet(l: int) -> tuple:
    return tuple(range(-l, l + 1))


def alphabets(l: int):
    """Every charge from -l to l, or only the two the pump fills."""
    return st.sampled_from((full_alphabet(l), (-l, l)))


def signal_oam_block(state) -> np.ndarray:
    return partial_trace(state, keep=SIGNAL_OAM).matrix


@settings(derandomize=True, deadline=None, max_examples=60)
@given(l=charges, phi=angles, alpha=st.floats(0.0, 1.0), p=weights, space=spaces)
def test_source_fills_only_the_pump_charges(l, phi, alpha, p, space):
    alphabet = full_alphabet(l)
    state = apply_noise(down_convert(pump_state(l, phi, alpha, alphabet=alphabet)), p, space=space)
    block = signal_oam_block(state)
    pair = [alphabet.index(-l), alphabet.index(l)]
    outside = np.ones(block.shape, dtype=bool)
    outside[np.ix_(pair, pair)] = False
    assert not block[outside].any()
    # so the pair alone renders the same picture
    grid = (48, default_extent(1.0, l))
    full = render_from_density(block, alphabet, grid, 1.0)
    cut = render_from_density(block[np.ix_(pair, pair)], (-l, l), grid, 1.0)
    assert np.abs(cut - full).max() <= 1e-14 * full.max()


def bench_blocks(pump: Ket, state) -> list:
    """The blocks the benches render: the gallery's pump behind each analyzer
    and behind none, and the heralded blocks of every idler basis and none."""
    blocks = [oam_block(pump, {"pol": pol_ket(label)})[0] for label in GALLERY_BASES]
    blocks.append(partial_trace(pump, keep="oam").matrix)
    for idler in ("A", "D", "R", "L", None):
        setting = None if idler is None else SETTINGS[idler]
        blocks.append(conditional_oam(state, setting, SETTINGS["D"])[0])
    return [b for b in blocks if b is not None]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    l=st.integers(0, 6),
    data=st.data(),
    phi=angles,
    alpha=st.floats(0.0, 1.0),
    p=weights,
    space=spaces,
)
def test_bench_blocks_keep_the_pair_rule_and_render_non_negative(l, data, phi, alpha, p, space):
    # l = 0 runs on the (-1, 0, 1) register, as pump-gallery --l 0 does
    alphabet = data.draw(alphabets(l)) if l else (-1, 0, 1)
    pump = pump_state(l, phi, alpha, alphabet=alphabet)
    state = apply_noise(down_convert(pump), p, space=space)
    grid = (32, default_extent(1.0, max(l, 1)))
    for block in bench_blocks(pump, state):
        assert all(c == 0 for m, (_, c) in pair_terms(block, alphabet).items() if m != l)
        img = render_from_density(block, alphabet, grid, 1.0)
        assert np.isfinite(img).all() and img.min() >= 0.0


@pytest.mark.parametrize("extra", [0, 2, -2])
@pytest.mark.parametrize("route", ["render", "expectation"])
def test_coherence_outside_a_pair_is_refused(route, extra):
    # the pump fills +1 (H) and -1 (V) as the l = 1 source does, and its H
    # part also fills the charge extra, which is no partner of +-1
    alphabet = (-2, -1, 0, 1, 2)
    amp = np.zeros((2, len(alphabet)), dtype=complex)
    amp[0, [alphabet.index(1), alphabet.index(extra)]] = 0.5
    amp[1, alphabet.index(-1)] = 0.5**0.5
    state = down_convert(Ket((pol_subsystem(), oam_subsystem(alphabet)), amp, fix_phase=False))
    with pytest.raises(NumericalError, match="outside"):
        if route == "render":
            block, _ = conditional_oam(state, SETTINGS["D"], SETTINGS["D"])
            render_from_density(block, alphabet, (32, default_extent(1.0, 2)), 1.0)
        else:
            witness_expectation(state, 1)


def random_pump(rng, alphabet) -> Ket:
    shape = (2, len(alphabet))
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return Ket((pol_subsystem(), oam_subsystem(alphabet)), amp, fix_phase=False)


@st.composite
def pump_pairs(draw):
    """Two pump kets on one alphabet: the configured pump or a random ket."""
    l = draw(charges)
    alphabet = draw(alphabets(l))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one():
        if draw(st.booleans()):
            return pump_state(l, draw(angles), draw(st.floats(0.0, 1.0)), alphabet=alphabet)
        return random_pump(rng, alphabet)

    return one(), one()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(pair=pump_pairs())
def test_down_conversion_preserves_inner_products(pair):
    a, b = pair
    before = np.vdot(a.amplitudes, b.amplitudes)
    after = np.vdot(down_convert(a).amplitudes, down_convert(b).amplitudes)
    assert abs(after - before) <= 1e-14
    assert down_convert(a).subsystem(SIGNAL_OAM).labels == a.subsystem("oam").labels


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    l=charges,
    data=st.data(),
    phi=angles,
    alpha=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0, exclude_min=True),
    space=spaces,
)
def test_noise_keeps_a_unit_trace_hermitian_state(l, data, phi, alpha, p, space):
    alphabet = data.draw(alphabets(l))
    pure = down_convert(pump_state(l, phi, alpha, alphabet=alphabet))
    rho = apply_noise(pure, p, space=space)
    assert isinstance(rho, DensityMatrix) and rho.subsystems == pure.subsystems
    m = rho.matrix
    assert abs(m.trace() - 1.0) <= 1e-14
    assert np.abs(m - m.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(m)[0] >= -1e-14
    if space == "polarization":  # the OAM register keeps its reduced state
        assert np.abs(signal_oam_block(rho) - signal_oam_block(pure)).max() <= 1e-15
