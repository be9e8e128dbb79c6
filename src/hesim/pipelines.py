"""End-to-end experiment drivers: source, measurement chain, files, report.

Three benches share one configured source. Each builds one JSON document
(a gallery manifest or a report), writes it, and returns it with its raw
floats; this module alone owns the JSON format (``_write_json``).

* pump_gallery images the structured pump itself through a polarization
  analyzer, the classical check that the non-separable beam is prepared.
* polarization_bell runs with the mode-transfer plate removed (the pump
  carries no OAM) and tests the two-photon polarization state: fringe
  sweeps, CHSH, and tomography.
* hybrid_witness keeps the plate in, heralds the signal photon on idler
  polarization choices, and reads the petal rotation out of the heralded
  images into the witness W.
"""

import json
import math
import os

import numpy as np

from . import detection, lgmodes
from .analysis import (
    BELL_VISIBILITY_BOUND,
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
    witness_keys,
)
from .config import RunConfig
from .detection import SETTINGS, oam_block
from .errors import ConfigError
from .jones import pump_state
from .lgmodes import MAX_CHARGE, RENDER_BYTES_PER_PIXEL
from .quantum import Ket, fidelity, oam_subsystem, partial_trace, pol_ket, project
from .spdc import apply_noise, down_convert


def _alphabet(l: int) -> tuple:
    """Signal OAM charges of the source: the +l and -l that the pump fills.

    l = 0 keeps (-1, 0, 1): polarization-bell counts key on float(mean), and
    a smaller register would move the last bits of every mean.
    """
    m = abs(int(l))
    return (-m, m) if m else (-1, 0, 1)


def _pump(cfg: RunConfig, l: int):
    return pump_state(l, cfg.pump.phi, cfg.pump.alpha, alphabet=_alphabet(l))


RENDER_BUDGET = 2 * 1024**3  # bytes one render may hold: n <= 4,096 at 128 B per pixel


def _render_plan(cfg: RunConfig, l: int) -> tuple:
    """(grid, annulus, end) of an image bench at charge l, or a ConfigError.

    Rules, in order: a charge over MAX_CHARGE, a render over RENDER_BUDGET, an
    LG field that overflows at the grid's corners, and at l >= 1 too few bins
    for 2l petals, then an annulus with no pixel center. grid is (n, extent),
    end the annulus's lgmodes.annulus_end on it; None and 0 at l = 0.
    """
    if abs(l) > MAX_CHARGE:
        raise ConfigError(f"pump.l={l} is over {MAX_CHARGE}: its LG normalisation overflows a float")
    n, extent = cfg.grid.n, cfg.grid.extent
    need = RENDER_BYTES_PER_PIXEL * n**2
    if need > RENDER_BUDGET:
        raise ConfigError(
            f"grid.n={n} needs {need:,} bytes to render "
            f"({RENDER_BYTES_PER_PIXEL} bytes per pixel), over the cap of {RENDER_BUDGET:,}"
        )
    if extent is None:
        extent = lgmodes.default_extent(cfg.grid.waist, max(abs(l), 1))
    if not lgmodes.finite_on_grid(l, n, extent, cfg.grid.waist):
        raise ConfigError(f"pump.l={l} overflows the LG amplitude at the corners of the {n}x{n} grid")
    if l < 1:
        return (n, extent), None, 0
    if cfg.analysis.nbins <= 4 * l:
        raise ConfigError(
            f"analysis.nbins={cfg.analysis.nbins} must exceed 4*l={4 * l} to resolve {2 * l} petals"
        )
    annulus = cfg.analysis.annulus or lgmodes.default_annulus(cfg.grid.waist, l)
    end = lgmodes.annulus_end(n, extent, annulus)
    if not end:
        raise ConfigError(
            f"analysis annulus {annulus} holds no pixel center of the "
            f"{n}x{n} grid of extent {extent:g}"
        )
    return (n, extent), annulus, end


def build_source(cfg: RunConfig, l: int | None = None):
    """Pump -> paired crystals -> optional white noise, as one state."""
    if l is None:
        l = cfg.pump.l
    psi = down_convert(_pump(cfg, l))
    return apply_noise(psi, cfg.noise.p_white, space=cfg.noise.space)


ALL_FORMATS = frozenset({"pgm", "csv", "json"})


def output_formats(formats, kinds=ALL_FORMATS) -> frozenset:
    """The artifact kinds a run writes: ``formats``, or all of ``kinds`` for None.

    A format outside ``kinds``, the kinds the bench can write, is refused.
    """
    chosen = frozenset(kinds if formats is None else formats)
    unwritable = chosen - kinds
    if unwritable:
        raise ConfigError(
            f"output formats {sorted(unwritable)} are not among this bench's {sorted(kinds)}"
        )
    return chosen


def _petal_summary(fit, hist) -> dict:
    return {
        "theta0_deg": None if fit.degenerate else math.degrees(fit.theta0),
        "visibility": fit.V,
        "n_maxima": int(len(lgmodes.angular_maxima(hist))),
        "degenerate": fit.degenerate,
    }


SCHEMA_VERSION = 1


def _json_ready(obj):
    """``obj`` as plain JSON values: floats at 12 significant digits, NaN and
    infinities as None. Idempotent, so a ready document may pass again."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    return obj


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _violation(name: str, value: float, sigma, bound: float) -> dict:
    """{name: sigmas by which value clears bound}; {} unless sigma > 0 (None, NaN)."""
    return {name: (value - bound) / sigma} if sigma and sigma > 0 else {}


# -- bench 1: classical pump gallery -----------------------------------------

GALLERY_BASES = ("H", "A", "R", "V", "D", "L")


def run_pump_gallery(cfg: RunConfig, outdir: str, formats=None) -> dict:
    """Image the pump behind each analyzer setting and with none at all.

    Writes one PGM per projection, peak-normalised as camera frames are
    shown (all zero for a null projection), plus a manifest with the
    projection probabilities and, for l >= 1, the fitted petal orientation
    of each structured image. ``formats`` filters which artifact kinds are
    written ("pgm", "json" or both; default both).
    """
    fmt = output_formats(formats, {"pgm", "json"})
    l = cfg.pump.l
    grid, annulus, _ = _render_plan(cfg, l)
    os.makedirs(outdir, exist_ok=True)
    pump = _pump(cfg, l)
    waist = cfg.grid.waist

    manifest = {
        "kind": "pump_gallery",
        "l": l,
        "grid": {"n": grid[0], "extent": grid[1], "waist": waist},
        "images": {},
    }
    n, extent = grid

    def peak_normalised(block):
        if block is None:
            return lgmodes.FieldImage(np.zeros((n, n)), extent)
        intensity = lgmodes.render_from_density(block, _alphabet(l), grid, waist)
        peak = intensity.max()
        return lgmodes.FieldImage(intensity / peak if peak > 0 else intensity, extent)

    for label in GALLERY_BASES:
        block, weight = oam_block(pump, {"pol": pol_ket(label)})
        img = peak_normalised(block)
        fname = f"pump_{label}.pgm"
        if "pgm" in fmt:
            lgmodes.write_pgm(img, os.path.join(outdir, fname))
        entry = {"file": fname, "projection_probability": weight, "empty": block is None}
        if l >= 1 and block is not None:
            hist = lgmodes.angular_profile(img, cfg.analysis.nbins, annulus)
            entry["petals"] = _petal_summary(lgmodes.petal_fit(hist, l), hist)
        manifest["images"][label] = entry

    img = peak_normalised(partial_trace(pump, keep="oam").matrix)
    if "pgm" in fmt:
        lgmodes.write_pgm(img, os.path.join(outdir, "pump_none.pgm"))
    manifest["images"]["none"] = {"file": "pump_none.pgm", "empty": False}

    if "json" in fmt:
        _write_json(manifest, os.path.join(outdir, "manifest.json"))
    return manifest


# -- bench 2: two-photon polarization tests -----------------------------------


def run_polarization_bell(cfg: RunConfig, outdir: str, formats=None) -> dict:
    """Fringe sweeps, CHSH, and tomography on the polarization pair.

    The mode-transfer plate is out for this bench, so the source is built
    at l = 0 regardless of the configured pump charge; phi, alpha, and the
    noise settings still apply. Returns the report it writes.
    """
    fmt = output_formats(formats, {"csv", "json"})
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

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "polarization_bell",
        "config": cfg.to_dict(),
        "chsh": {"S": s_val, "sigma": s_sigma},
        "violation_sigmas": _violation("chsh", s_val, s_sigma, 2.0),
        "fidelity": fid,
        "rho": {"re": rho.matrix.real, "im": rho.matrix.imag, "psd": rho.psd_flag},
        # a NaN theta0 (degenerate fit) is written as null
        "visibilities": {
            basis: {
                "V": fit.V,
                "theta0_deg": math.degrees(fit.theta0),
                "stderr": fit.stderr,
                "flags": fit.flags,
            }
            for basis, fit in visibilities.items()
        },
        "bell_bound_flag": all(fit.V > BELL_VISIBILITY_BOUND for fit in visibilities.values()),
    }
    if "json" in fmt:
        _write_json(report, os.path.join(outdir, "report.json"))
    return report


# -- bench 3: hybrid witness ----------------------------------------------------


def run_hybrid_witness(cfg: RunConfig, outdir: str, formats=None) -> dict:
    """Heralded petal images in four idler bases, witness W with bootstrap.

    Alongside the image route the Born-level expectation of the same
    witness is recorded, so discretisation and shot noise stay visible as
    the difference between the two. Returns the report it writes.
    """
    fmt = output_formats(formats)
    l = cfg.pump.l
    if l < 1:
        raise ConfigError("hybrid witness needs a pump charge l >= 1")
    grid, annulus, end = _render_plan(cfg, l)
    cfg.detector.scale(l)  # a missing rate scale fails here, before any file
    os.makedirs(outdir, exist_ok=True)
    state = build_source(cfg)
    det = cfg.detector
    waist = cfg.grid.waist
    n_boot = cfg.analysis.n_bootstrap if det.sampled else 0
    scans, key_none = witness_keys(det.seed, l, n_boot)

    scan = angular_basis_scan(
        state, l, det, grid, waist,
        annulus=annulus, nbins=cfg.analysis.nbins, keys=scans[0],
    )
    img_none = detection.heralded_image(state, None, SETTINGS["D"], grid, waist, det, l, key_none)
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
    if n_boot:

        def one(keys) -> dict:
            sc = angular_basis_scan(
                state, l, det, grid, waist,
                annulus=annulus, nbins=cfg.analysis.nbins, through=end, keys=keys,
            )
            return {"W": sc.W, "V_DA": sc.pair_vis["DA"], "V_RL": sc.pair_vis["RL"]}

        boot = bootstrap_errors(one, scans[1:])
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

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "hybrid_witness",
        "config": cfg.to_dict(),
        "witness": {"W": scan.W, "sigma": w_sigma},
        "violation_sigmas": _violation("witness", scan.W, w_sigma, 1.0),
        "petals": petals,
    }
    if "json" in fmt:
        _write_json(report, os.path.join(outdir, "report.json"))
    return report
