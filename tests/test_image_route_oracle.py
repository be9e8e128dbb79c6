"""The image route against its closed form: the sinc law of angular binning.

Summing a cos(2l theta) fringe into nbins angular bins of width 2 pi/nbins
multiplies its amplitude by sinc(x) = sin(x)/x, x = 2 l pi/nbins, and leaves
its phase. So on expected-mean images (sampled=False) each petal fringe,
both pair visibilities and W read the Born values of witness_expectation
times sinc(x), and each theta0 reads the Born theta0, up to pixelisation.

Pixelisation has two parts. The square grid is anisotropic: it moves a
fringe's V and theta0 at first order in the pixel size, by an amount that
depends on the fringe's orientation, so V_DA and V_RL move by about equal
and opposite amounts (up to 1.9e-2 at n = 128). That cancels in W, which
is left with a residual that shrinks faster with n. For the balanced pump
at p_white 0.2 (l 1-3, nbins 72 and 360) W sits within 4.0e-4 at n = 128,
1.1e-4 at 256 and 3.6e-5 at 512. Over the whole drawn domain, where a weak
fringe's theta0 also moves the shared anchor, every residual stays within a
few units of 1/n.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hesim.analysis import angular_basis_scan, witness_expectation, witness_keys
from hesim.config import RunConfig
from hesim.detection import DetectorModel
from hesim.lgmodes import default_annulus, default_extent
from hesim.pipelines import build_source

W_TOL = {128: 4.0e-4, 256: 1.1e-4, 512: 3.6e-5}  # the balanced pump at p_white 0.2
PAIR_TOL_PX = 3.0  # |V_pair - law| * n, anywhere in the drawn domain
W_TOL_PX = 2.0  # |W - law| * n, anywhere in the drawn domain
PHASE_TOL_PX = 10.0  # |2l (theta0 - Born theta0)| * V * n: a weak fringe orients loosely


def image_route_residuals(l, phi, alpha, p_white, space, nbins, n):
    """The expected-mean scan and its gaps from the sinc law."""
    cfg = RunConfig.from_dict(
        {"pump": {"l": l, "phi": phi, "alpha": alpha}, "noise": {"p_white": p_white, "space": space}}
    )
    state = build_source(cfg)
    grid = (n, default_extent(1.0, l))
    scan = angular_basis_scan(
        state, l, DetectorModel(sampled=False), grid, 1.0,
        annulus=default_annulus(1.0, l), nbins=nbins, keys=witness_keys(0, l)[0][0],
    )
    born = witness_expectation(state, l)
    x = 2.0 * l * math.pi / nbins
    factor = math.sin(x) / x
    period = math.pi / l
    phase = {}
    for basis, fit in scan.fits.items():
        d = (fit.theta0 - born["theta0"][basis] + period / 2) % period - period / 2
        phase[basis] = abs(2 * l * d) * fit.V  # the fringe's phase error, weighted by its V
    return {
        "W": scan.W - born["W"] * factor,
        "DA": scan.pair_vis["DA"] - born["V_DA"] * factor,
        "RL": scan.pair_vis["RL"] - born["V_RL"] * factor,
        "phase": phase,
        "fits": scan.fits,
    }


@pytest.mark.parametrize("n", sorted(W_TOL))
@pytest.mark.parametrize("nbins", [72, 360])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_balanced_pump_follows_the_sinc_law(l, nbins, n):
    gap = image_route_residuals(l, 0.0, 1 / math.sqrt(2), 0.2, "postselected", nbins, n)
    assert abs(gap["W"]) <= W_TOL[n]
    assert max(abs(gap["DA"]), abs(gap["RL"])) * n <= PAIR_TOL_PX
    assert max(gap["phase"].values()) * n <= PHASE_TOL_PX


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    l=st.integers(1, 3),
    phi=st.floats(0.0, 2.0 * math.pi),
    alpha=st.floats(0.05, 0.95),
    p_white=st.floats(0.05, 0.9),
    space=st.sampled_from(["postselected", "polarization"]),
    nbins=st.integers(8, 360),
    n=st.integers(128, 512),
)
def test_expected_images_follow_the_sinc_law(l, phi, alpha, p_white, space, nbins, n):
    nbins = max(nbins, 4 * l + 1)  # a 2l-petal fit needs more than 4l bins
    gap = image_route_residuals(l, phi, alpha, p_white, space, nbins, n)
    assert abs(gap["W"]) * n <= W_TOL_PX
    assert max(abs(gap["DA"]), abs(gap["RL"])) * n <= PAIR_TOL_PX
    assert max(gap["phase"].values()) * n <= PHASE_TOL_PX


def test_noiseless_l1_clip_reads_below_the_sinc_law():
    # the one named exception, kept out of the drawn domain: at p_white 0 the
    # grid's anisotropy pushes the R and L fringes over V = 1, where they are
    # clipped, while A and D read low. Unclipped, the two would cancel in W;
    # clipped, W reads about 2.8e-3 under the law (1.6e-6 at n = 1024)
    gap = image_route_residuals(1, 0.0, 1 / math.sqrt(2), 0.0, "postselected", 72, 256)
    fits = gap["fits"]
    assert [b for b in "ADRL" if "clipped" in fits[b].flags] == ["R", "L"]
    assert fits["R"].V == fits["L"].V == 1.0
    assert fits["A"].V == pytest.approx(0.9946, abs=1e-4)
    assert -3.0e-3 < gap["W"] < -2.6e-3
