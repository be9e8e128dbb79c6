"""End-to-end benches: gallery, polarization tests, hybrid witness, artifacts."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from hesim import lgmodes
from hesim.analysis import SCAN_BASES
from hesim.config import RunConfig
from hesim.detection import SETTINGS, heralded_image
from hesim.errors import ConfigError
from hesim.pipelines import (
    _json_ready,
    build_source,
    run_hybrid_witness,
    run_polarization_bell,
    run_pump_gallery,
)
from hesim.analysis import witness_expectation


def circular_distance_deg(a, b, period):
    d = (a - b) % period
    return min(d, period - d)


# -- pump gallery ------------------------------------------------------------------


def test_gallery_flat_pump_images_collapse_to_one_gaussian(tmp_path):
    cfg = RunConfig.from_dict({"pump": {"l": 0}})
    manifest = run_pump_gallery(cfg, str(tmp_path))
    images = manifest["images"]
    # the l=0 balanced pump is polarized along D, so the A arm sees nothing
    assert images["A"]["empty"] is True
    assert images["D"]["projection_probability"] == pytest.approx(1.0, abs=1e-12)
    assert images["H"]["projection_probability"] == pytest.approx(0.5, abs=1e-12)
    # every transmitted image is the same Gaussian after peak normalisation
    ref = (tmp_path / "pump_H.pgm").read_bytes()
    for label in ("V", "D", "R", "L"):
        assert (tmp_path / f"pump_{label}.pgm").read_bytes() == ref
    assert (tmp_path / "pump_none.pgm").exists()
    assert "petals" not in images["D"]


@pytest.mark.parametrize("l", [1, 3])
def test_gallery_petal_structure(tmp_path, l):
    cfg = RunConfig.from_dict({"pump": {"l": l}})
    manifest = run_pump_gallery(cfg, str(tmp_path / str(l)))
    images = manifest["images"]
    for label in ("H", "V"):
        # single-charge branch: a uniform ring, no petal modulation
        assert images[label]["petals"]["visibility"] < 0.01
    for label in ("D", "A", "R", "L"):
        petals = images[label]["petals"]
        assert petals["n_maxima"] == 2 * l
        assert petals["visibility"] > 0.9
    d = circular_distance_deg(
        images["D"]["petals"]["theta0_deg"],
        images["A"]["petals"]["theta0_deg"],
        180.0 / l,
    )
    assert d == pytest.approx(90.0 / l, abs=2.5)


def test_gallery_rejects_unknown_format(tmp_path):
    cfg = RunConfig.from_dict({"pump": {"l": 1}})
    with pytest.raises(ConfigError):
        run_pump_gallery(cfg, str(tmp_path), formats=("tiff",))


# -- polarization bench --------------------------------------------------------


def test_polarization_bell_sampled_run(tmp_path):
    cfg = RunConfig.from_dict({})
    report = run_polarization_bell(cfg, str(tmp_path / "a"))
    assert report["chsh"]["S"] > 2.7
    assert report["chsh"]["S"] < 2 * math.sqrt(2) + 0.05
    assert report["fidelity"] > 0.99
    assert report["bell_bound_flag"] is True
    assert report["visibilities"]["H"]["V"] > 0.97

    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert doc["kind"] == "polarization_bell"
    assert doc["bell_bound_flag"] is True
    assert set(doc["rho"]) == {"re", "im", "psd"}

    # same config, fresh directory: the artifact must be byte-identical
    run_polarization_bell(cfg, str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    for name in ("sweep_H.csv", "sweep_D.csv", "chsh_counts.csv"):
        assert (tmp_path / "a" / name).exists()


def test_polarization_bench_ignores_pump_charge(tmp_path):
    base = run_polarization_bell(RunConfig.from_dict({}), str(tmp_path / "l0"))
    high = run_polarization_bell(
        RunConfig.from_dict({"pump": {"l": 3}}), str(tmp_path / "l3")
    )
    # the bench models the mode plate being removed, so the charge is moot
    assert high["chsh"]["S"] == base["chsh"]["S"]
    assert high["fidelity"] == base["fidelity"]


# -- hybrid witness bench --------------------------------------------------------


def test_hybrid_witness_expected_route(tmp_path):
    cfg = RunConfig.from_dict({"detector": {"sampled": False}})
    report = run_hybrid_witness(cfg, str(tmp_path))
    assert report["witness"]["W"] == pytest.approx(1.9771280779824245, rel=1e-9)
    assert report["witness"]["sigma"] is None
    petals = report["petals"]
    assert petals["expectation"]["W"] == pytest.approx(2.0, abs=1e-9)
    for basis in ("A", "D", "R", "L"):
        assert petals[basis]["n_maxima"] == 6
        assert petals[basis]["visibility"] > 0.95
        assert (tmp_path / f"heralded_{basis}.pgm").exists()
        assert (tmp_path / f"profile_{basis}.csv").exists()
    assert (tmp_path / "heralded_none.pgm").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["witness"]["sigma"] is None
    assert doc["petals"]["pair_visibility"]["DA"] > 0.95


def test_hybrid_witness_sampled_bootstrap(tmp_path):
    cfg = RunConfig.from_dict({"analysis": {"n_bootstrap": 2}, "pump": {"l": 1}})
    report = run_hybrid_witness(cfg, str(tmp_path))
    assert report["witness"]["sigma"] is not None and report["witness"]["sigma"] > 0
    assert report["petals"]["bootstrap"]["n"] == 2
    assert report["witness"]["W"] == pytest.approx(2.0, abs=0.1)


def test_hybrid_witness_json_only(tmp_path):
    cfg = RunConfig.from_dict(
        {"detector": {"sampled": False}, "grid": {"n": 96}, "pump": {"l": 1}}
    )
    run_hybrid_witness(cfg, str(tmp_path), formats=("json",))
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"report.json"}


def test_hybrid_witness_rejects_flat_pump(tmp_path):
    cfg = RunConfig.from_dict({"pump": {"l": 0}})
    with pytest.raises(ConfigError):
        run_hybrid_witness(cfg, str(tmp_path))


def test_witness_weakens_with_charge_at_calibrated_noise():
    """Higher charge rows carry more calibrated noise, echoing the lab trend."""
    tuned = {1: 0.220605, 2: 0.297405, 3: 0.368667}
    w = {}
    for l, p in tuned.items():
        cfg = RunConfig.from_dict({"pump": {"l": l}, "noise": {"p_white": p}})
        state = build_source(cfg)
        out = witness_expectation(state, l)
        assert out["W"] == pytest.approx(2.0 * (1.0 - p), abs=1e-9)
        w[l] = out["W"]
    assert w[1] > w[2] > w[3] > 1.0


# -- what a bench keeps ------------------------------------------------------------


def read_tree(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_a_gallery_keeps_no_render(tmp_path):
    # a gallery render has no count and is never repeated: one command
    # leaves the memo empty, and a second run in the process, on the same
    # held factors, writes the same bytes
    cfg = RunConfig.from_dict({"pump": {"l": 2, "alpha": 0.6, "phi": 0.3}, "grid": {"n": 64}})
    lgmodes.mode_stack((0,), 16, 1.0, 1.0)  # start from factors with nothing kept
    run_pump_gallery(cfg, str(tmp_path / "a"))
    held = lgmodes._held_stack
    assert held.means == {}
    run_pump_gallery(cfg, str(tmp_path / "b"))
    assert lgmodes._held_stack is held and held.means == {}
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_a_witness_keeps_only_its_repeated_count_means(tmp_path):
    # the A, D, R and L means repeat in every bootstrap scan and are kept;
    # the unanalyzed image's is made once, tracked and not kept
    cfg = RunConfig.from_dict({"grid": {"n": 64}, "analysis": {"n_bootstrap": 2}})
    lgmodes.mode_stack((0,), 16, 1.0, 1.0)
    run_hybrid_witness(cfg, str(tmp_path), formats=("json",))
    held = lgmodes._held_stack
    kept = [m for m in held.means.values() if m is not None]
    assert len(held.means) == 5 and len(kept) == 4
    state = build_source(cfg)
    det = dataclasses.replace(cfg.detector, sampled=False)
    grid = (64, lgmodes.default_extent(cfg.grid.waist, 3))

    def fresh_mean(idler):
        with mock.patch.object(lgmodes, "_held_stack", None):
            img = heralded_image(state, idler, SETTINGS["D"], grid, cfg.grid.waist, det, 3, None)
        return img.pixels.tobytes()

    assert sorted(m.pixels.tobytes() for m in kept) == sorted(
        fresh_mean(SETTINGS[b]) for b in SCAN_BASES
    )
    assert fresh_mean(None) not in {m.pixels.tobytes() for m in kept}


@pytest.mark.parametrize(
    "run, overrides",
    [
        pytest.param(run_pump_gallery, {"pump": {"l": 3}, "grid": {"n": 64}}, id="gallery"),
        pytest.param(
            run_hybrid_witness, {"grid": {"n": 64}, "analysis": {"n_bootstrap": 2}}, id="witness"
        ),
    ],
)
def test_an_image_bench_masks_its_annulus_once(tmp_path, run, overrides):
    # _render_plan's annulus check, every profile and a cut scan's annulus
    # end all read the one held flat index
    with mock.patch.object(lgmodes, "_held_bins", None), mock.patch.object(
        lgmodes, "_annulus_mask", wraps=lgmodes._annulus_mask
    ) as mask:
        run(RunConfig.from_dict(overrides), str(tmp_path), formats=("json",))
    assert mask.call_count == 1


# -- documents -------------------------------------------------------------------


@pytest.mark.parametrize(
    "run, overrides, name, keys",
    [
        pytest.param(
            run_pump_gallery, {"pump": {"l": 1}, "grid": {"n": 64}}, "manifest.json",
            {"grid", "images", "kind", "l"},
            id="gallery",
        ),
        pytest.param(
            run_polarization_bell, {}, "report.json",
            {
                "bell_bound_flag", "chsh", "config", "fidelity", "kind", "rho",
                "schema_version", "violation_sigmas", "visibilities",
            },
            id="bell",
        ),
        pytest.param(
            run_hybrid_witness, {"grid": {"n": 64}, "analysis": {"n_bootstrap": 3}},
            "report.json",
            {"config", "kind", "petals", "schema_version", "violation_sigmas", "witness"},
            id="witness",
        ),
    ],
)
def test_runner_returns_the_document_it_wrote(tmp_path, run, overrides, name, keys):
    returned = run(RunConfig.from_dict(overrides), str(tmp_path), formats=("json",))
    written = json.loads((tmp_path / name).read_text())
    assert written == _json_ready(returned)
    assert _json_ready(written) == written  # a written document is already ready
    assert set(written) == keys
