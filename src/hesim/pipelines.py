"""End-to-end experiment drivers: source, measurement chain, files, report.

Three benches share one configured source:

* pump_gallery images the structured pump itself through a polarization
  analyzer, the classical check that the non-separable beam is prepared.
* polarization_bell runs with the mode-transfer plate removed (the pump
  carries no OAM) and tests the two-photon polarization state: fringe
  sweeps, CHSH, and tomography.
* hybrid_witness keeps the plate in, heralds the signal photon on idler
  polarization choices, and reads the petal rotation out of the heralded
  images into the witness W.
"""

import dataclasses
import json
import math
import os

import numpy as np

from . import analysis, detection, lgmodes
from .analysis import (
    AnalysisReport,
    angular_basis_scan,
    bootstrap_errors,
    chsh,
    chsh_table,
    fit_visibility,
    sweep_dial,
    sweep_series,
    tomography_counts,
    tomography_linear,
    witness_expectation,
)
from .config import RunConfig
from .detection import SETTINGS
from .errors import ConfigError
from .jones import pump_state
from .quantum import Ket, fidelity, oam_subsystem, pol_ket, project
from .spdc import apply_noise, down_convert


def _grid(cfg: RunConfig, l: int):
    extent = cfg.grid.extent
    if extent is None:
        extent = lgmodes.default_extent(cfg.grid.waist, max(abs(l), 1))
    return (cfg.grid.n, extent)


def _annulus(cfg: RunConfig, l: int) -> tuple:
    """Petal-analysis annulus for charge l, checked against the bins and the grid."""
    if cfg.analysis.nbins <= 4 * l:
        raise ConfigError(
            f"analysis.nbins={cfg.analysis.nbins} must exceed 4*l={4 * l} "
            f"to resolve {2 * l} petals"
        )
    annulus = cfg.analysis.annulus or lgmodes.default_annulus(cfg.grid.waist, l)
    n, extent = _grid(cfg, l)
    if not lgmodes.annulus_on_grid(n, extent, annulus):
        raise ConfigError(
            f"analysis annulus {annulus} holds no pixel center of the "
            f"{n}x{n} grid of extent {extent:g}"
        )
    return annulus


def _alphabet(l: int) -> tuple:
    """Signal OAM charges of the source: the +l and -l that the pump fills.

    l = 0 keeps (-1, 0, 1): polarization-bell counts key on float(mean), and
    a smaller register would move the last bits of every mean.
    """
    m = abs(int(l))
    return (-m, m) if m else (-1, 0, 1)


def _pump(cfg: RunConfig, l: int):
    return pump_state(l, cfg.pump.phi, cfg.pump.alpha, alphabet=_alphabet(l))


MODE_STACK_BUDGET = 2 * 1024**3  # bytes one render may hold
# the largest |l| whose LG normalisation sqrt(2 / (pi |l|!)) a float holds
MAX_CHARGE = next(l for l in range(1 << 16) if math.factorial(l + 1) > math.nextafter(math.inf, 0))


def _check_stack_memory(cfg: RunConfig, l: int) -> None:
    """Refuse a charge over MAX_CHARGE, or a render over MODE_STACK_BUDGET.

    A render holds the mode stack (one complex n x n field per mode of the
    source alphabet), the stack mixed by the density block (as many complex
    fields), its real n x n result, and up to lgmodes.MAX_KEPT_RENDERS kept
    real n x n intensities: (32 m + 72) bytes per pixel for m modes. That is
    136 B at m = 2 (l != 0), so n <= 3,973, and 168 B at m = 3 (l = 0), so
    n <= 3,575.
    """
    if abs(l) > MAX_CHARGE:
        raise ConfigError(f"pump.l={l} is over {MAX_CHARGE}: its LG normalisation overflows a float")
    modes = len(_alphabet(l))
    per_pixel = 2 * modes * 16 + 8 + lgmodes.MAX_KEPT_RENDERS * 8
    need = per_pixel * cfg.grid.n**2
    if need > MODE_STACK_BUDGET:
        raise ConfigError(
            f"grid.n={cfg.grid.n} needs {need:,} bytes to render ({modes} modes: "
            f"{per_pixel} bytes per pixel), over the cap of {MODE_STACK_BUDGET:,}"
        )


def build_source(cfg: RunConfig, l: int | None = None):
    """Pump -> paired crystals -> optional white noise, as one state."""
    if l is None:
        l = cfg.pump.l
    psi = down_convert(_pump(cfg, l))
    return apply_noise(psi, cfg.noise.p_white, space=cfg.noise.space)


ALL_FORMATS = frozenset({"pgm", "csv", "json"})


def _formats(formats) -> frozenset:
    chosen = ALL_FORMATS if formats is None else frozenset(formats)
    unknown = chosen - ALL_FORMATS
    if unknown:
        raise ConfigError(f"unknown output formats {sorted(unknown)}")
    return chosen


def _petal_summary(fit, hist) -> dict:
    return {
        "theta0_deg": None if fit.degenerate else math.degrees(fit.theta0),
        "visibility": fit.visibility,
        "n_maxima": int(len(lgmodes.angular_maxima(hist))),
        "degenerate": fit.degenerate,
    }


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- bench 1: classical pump gallery -----------------------------------------

GALLERY_BASES = ("H", "A", "R", "V", "D", "L")


def run_pump_gallery(cfg: RunConfig, outdir: str, formats=None) -> dict:
    """Image the pump behind each analyzer setting and with none at all.

    Writes one PGM per projection plus a manifest with the projection
    probabilities and, for l >= 1, the fitted petal orientation of each
    structured image. ``formats`` filters which artifact kinds are written
    (any of "pgm", "csv", "json"; default all).
    """
    fmt = _formats(formats)
    l = cfg.pump.l
    _check_stack_memory(cfg, l)
    annulus = _annulus(cfg, l) if l >= 1 else None
    os.makedirs(outdir, exist_ok=True)
    pump = _pump(cfg, l)
    grid = _grid(cfg, l)
    waist = cfg.grid.waist

    manifest = {
        "kind": "pump_gallery",
        "l": l,
        "grid": {"n": grid[0], "extent": grid[1], "waist": waist},
        "images": {},
    }
    for label in GALLERY_BASES:
        img = lgmodes.render_projection(pump, pol_ket(label), grid, waist)
        fname = f"pump_{label}.pgm"
        if "pgm" in fmt:
            lgmodes.write_pgm(img, os.path.join(outdir, fname))
        entry = {
            "file": fname,
            "projection_probability": img.meta.get("projection_probability"),
            "empty": img.empty,
        }
        if l >= 1 and not img.empty:
            hist = lgmodes.angular_profile(img, cfg.analysis.nbins, annulus)
            entry["petals"] = _petal_summary(lgmodes.petal_fit(hist, l), hist)
        manifest["images"][label] = entry

    img = lgmodes.render_unprojected(pump, grid, waist)
    if "pgm" in fmt:
        lgmodes.write_pgm(img, os.path.join(outdir, "pump_none.pgm"))
    manifest["images"]["none"] = {"file": "pump_none.pgm", "empty": img.empty}

    if "json" in fmt:
        _write_json(
            analysis._json_ready(manifest), os.path.join(outdir, "manifest.json")
        )
    return manifest


# -- bench 2: two-photon polarization tests -----------------------------------


def run_polarization_bell(cfg: RunConfig, outdir: str, formats=None) -> AnalysisReport:
    """Fringe sweeps, CHSH, and tomography on the polarization pair.

    The mode-transfer plate is out for this bench, so the source is built
    at l = 0 regardless of the configured pump charge; phi, alpha, and the
    noise settings still apply.
    """
    fmt = _formats(formats)
    cfg.detector.scale(0)  # a missing rate scale fails here, before any file
    os.makedirs(outdir, exist_ok=True)
    state = build_source(cfg, l=0)
    det = cfg.detector

    dial = sweep_dial(cfg.analysis.sweep_step_deg)
    visibilities = {}
    for basis in ("H", "D"):
        series = sweep_series(
            state, SETTINGS[basis], det, l=0, dial=dial, tag=f"sweep_{basis}"
        )
        if "csv" in fmt:
            lgmodes.write_angle_csv(
                "angle_deg,counts", *zip(*series), os.path.join(outdir, f"sweep_{basis}.csv")
            )
        visibilities[basis] = fit_visibility(series)

    table = chsh_table(state, det, cfg.analysis.chsh_settings, l=0, tag="chsh")
    if "csv" in fmt:
        np.savetxt(
            os.path.join(outdir, "chsh_counts.csv"), table, fmt="%.12g", delimiter=","
        )
    s_val, s_sigma = chsh(table)

    counts = tomography_counts(state, det, l=0, tag="tomo")
    rho = tomography_linear(counts)
    # noiseless reference: same source, OAM register projected off (it is
    # trivially |0> here, so this is exact, not a post-selection)
    ideal_full = down_convert(pump_state(0, cfg.pump.phi, cfg.pump.alpha, alphabet=(0,)))
    oam0 = Ket.basis_state((oam_subsystem((0,), name="signal_oam"),), 0)
    ideal, _ = project(ideal_full, oam0, subsystem="signal_oam")
    # linear inversion of noiseless counts is often slightly non-physical;
    # the reported fidelity is read off the clipped estimate then
    fid = fidelity(rho if rho.psd_flag else rho.clip_to_physical(), ideal)

    report = AnalysisReport(
        kind="polarization_bell",
        S=s_val,
        S_sigma=s_sigma,
        fidelity=fid,
        rho=rho,
        visibilities=visibilities,
        config=cfg.to_dict(),
    )
    if "json" in fmt:
        _write_json(report.to_dict(), os.path.join(outdir, "report.json"))
    return report


# -- bench 3: hybrid witness ----------------------------------------------------


def run_hybrid_witness(cfg: RunConfig, outdir: str, formats=None) -> AnalysisReport:
    """Heralded petal images in four idler bases, witness W with bootstrap.

    Alongside the image route the Born-level expectation of the same
    witness is recorded, so discretisation and shot noise stay visible as
    the difference between the two.
    """
    fmt = _formats(formats)
    l = cfg.pump.l
    if l < 1:
        raise ConfigError("hybrid witness needs a pump charge l >= 1")
    _check_stack_memory(cfg, l)
    annulus = _annulus(cfg, l)
    cfg.detector.scale(l)  # a missing rate scale fails here, before any file
    os.makedirs(outdir, exist_ok=True)
    state = build_source(cfg)
    det = cfg.detector
    grid = _grid(cfg, l)
    waist = cfg.grid.waist

    scan = angular_basis_scan(
        state, l, det, grid, waist,
        annulus=annulus, nbins=cfg.analysis.nbins, tag="scan",
    )
    img_none = detection.heralded_image(
        state, None, SETTINGS["D"], grid, waist, det, l, tag=("scan", "none")
    )
    if "pgm" in fmt:
        for basis, img in {**scan.images, "none": img_none}.items():
            lgmodes.write_pgm(img, os.path.join(outdir, f"heralded_{basis}.pgm"))
    if "csv" in fmt:
        for basis, hist in scan.histograms.items():
            lgmodes.write_histogram_csv(
                hist, os.path.join(outdir, f"profile_{basis}.csv")
            )

    expected = witness_expectation(state, l)

    w_sigma = None
    boot = None
    if det.sampled and cfg.analysis.n_bootstrap >= 2:

        def one(seed: int) -> dict:
            det_i = dataclasses.replace(det, seed=seed)
            sc = angular_basis_scan(
                state, l, det_i, grid, waist,
                annulus=annulus, nbins=cfg.analysis.nbins, tag="scan",
            )
            return {"W": sc.W, "V_DA": sc.pair_vis["DA"], "V_RL": sc.pair_vis["RL"]}

        boot = bootstrap_errors(one, cfg.analysis.n_bootstrap, det.seed)
        w_sigma = boot.sigma("W")

    petals = {
        basis: _petal_summary(fit, scan.histograms[basis])
        for basis, fit in scan.fits.items()
    }
    petals["pair_visibility"] = dict(scan.pair_vis)
    petals["expectation"] = {k: expected[k] for k in ("W", "V_DA", "V_RL")}
    if boot is not None:
        petals["bootstrap"] = {
            "n": boot.n_iter,
            "W_mean": boot.mean("W"),
            "V_DA_sigma": boot.sigma("V_DA"),
            "V_RL_sigma": boot.sigma("V_RL"),
        }

    report = AnalysisReport(
        kind="hybrid_witness",
        W=scan.W,
        W_sigma=w_sigma,
        petals=petals,
        config=cfg.to_dict(),
    )
    if "json" in fmt:
        _write_json(report.to_dict(), os.path.join(outdir, "report.json"))
    return report
