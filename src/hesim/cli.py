"""Command line entry point.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure
inside the simulation, 4 I/O failure (unwritable output, unreadable
input). Anything else crashing out of a run exits 1.
"""

import argparse
import dataclasses
import json
import sys

from .config import RunConfig
from .errors import ConfigError, NumericalError
from .pipelines import (
    output_formats,
    run_hybrid_witness,
    run_polarization_bell,
    run_pump_gallery,
)

# subcommand names and their help lines; main() dispatches on the name
COMMANDS = (
    ("pump-gallery", "image the classical pump behind each analyzer"),
    ("polarization-bell", "fringe sweeps, CHSH, and tomography of the polarization pair"),
    ("hybrid-witness", "heralded petal images and the hybrid entanglement witness"),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", help="output directory (default out/<command>)")
    p.add_argument("--seed", type=int, help="override the detector RNG seed")
    p.add_argument("--l", type=int, dest="charge", help="override the pump OAM charge")
    p.add_argument(
        "--noise", type=float, help="override the white-noise weight p in [0, 1]"
    )
    p.add_argument(
        "--expected",
        action="store_true",
        help="record expected means instead of Poisson-sampled counts",
    )
    p.add_argument(
        "--format",
        action="append",
        choices=("pgm", "csv", "json"),
        dest="formats",
        help="write only these artifact kinds (repeatable; default all)",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved configuration and exit without running",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesim",
        allow_abbrev=False,  # "--n 1" must not run as "--noise 1"
        description=(
            "Simulate transferring a structured classical pump into a hybrid "
            "entangled photon pair and run the measurement chain on it."
        ),
    )
    # the options every subcommand takes, added once and shared as a parent
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS:
        sub.add_parser(name, help=text, allow_abbrev=False, parents=[common])
    return parser


def _resolve(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict({})
    if args.seed is not None:
        cfg.detector = dataclasses.replace(cfg.detector, seed=args.seed)
    if args.charge is not None:
        cfg.pump = dataclasses.replace(cfg.pump, l=args.charge)
    if args.noise is not None:
        cfg.noise = dataclasses.replace(cfg.noise, p_white=args.noise)
    if args.expected:
        cfg.detector = dataclasses.replace(cfg.detector, sampled=False)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        outdir = args.out or f"out/{args.command}"
        if args.dry_run:
            print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
            return 0
        # the success lines name only the artifact kinds --format kept
        fmt = output_formats(args.formats)
        if args.command == "pump-gallery":
            manifest = run_pump_gallery(cfg, outdir, formats=args.formats)
            if "pgm" in fmt:
                print(f"wrote {len(manifest['images'])} pump images to {outdir}")
            written = "manifest"
        elif args.command == "polarization-bell":
            report = run_polarization_bell(cfg, outdir, formats=args.formats)
            vis, chsh = report["visibilities"], report["chsh"]
            print(
                f"V_H={vis['H']['V']:.4f} V_D={vis['D']['V']:.4f} "
                f"S={chsh['S']:.4f}+-{chsh['sigma']:.4f} F={report['fidelity']:.4f}"
            )
            written = "report"
        else:
            w = run_hybrid_witness(cfg, outdir, formats=args.formats)["witness"]
            if w["sigma"] is None:
                print(f"W={w['W']:.4f} (expected-value run, no bootstrap)")
            else:
                print(f"W={w['W']:.4f}+-{w['sigma']:.4f}")
            written = "report"
        if "json" in fmt:
            print(f"{written} written to {outdir}/{written}.json")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
