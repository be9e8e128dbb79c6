"""Config loading and the command line wrapper."""

import argparse
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hesim import lgmodes, pipelines
from hesim.cli import COMMANDS, build_parser, main
from hesim.config import MAX_BOOTSTRAP, MAX_SWEEP_POINTS, RunConfig
from hesim.errors import ConfigError
from hesim.pipelines import _render_plan


# -- config ------------------------------------------------------------------------


def test_defaults():
    cfg = RunConfig.from_dict({})
    assert cfg.pump.l == 3
    assert cfg.pump.phi == 0.0
    assert cfg.pump.alpha == pytest.approx(1 / math.sqrt(2))
    assert cfg.noise.p_white == 0.0
    assert cfg.noise.space == "postselected"
    assert cfg.detector.pair_rate == 1e4
    assert cfg.detector.integration_time == 10.0
    assert cfg.detector.seed == 0
    assert cfg.detector.sampled is True
    assert cfg.grid.n == 256
    assert cfg.grid.extent is None
    assert cfg.grid.waist == 1.0
    assert cfg.analysis.nbins == 72
    assert cfg.analysis.chsh_settings == (0.0, 45.0, 22.5, 67.5)
    assert cfg.analysis.n_bootstrap == 100


def test_unknown_keys_rejected_at_both_levels():
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"pmup": {}})
    with pytest.raises(ConfigError, match="config.pump"):
        RunConfig.from_dict({"pump": {"charge": 3}})


@pytest.mark.parametrize(
    "patch",
    [
        {"pump": {"l": -1}},
        {"pump": {"alpha": 1.5}},
        {"noise": {"p_white": -0.1}},
        {"noise": {"p_white": 1.1}},
        {"noise": {"space": "thermal"}},
        {"detector": {"pair_rate": -1.0}},
        {"detector": {"integration_time": 0.0}},
        {"grid": {"n": 8}},
        {"grid": {"extent": -2.0}},
        {"grid": {"waist": 0.0}},
        {"analysis": {"nbins": 4}},
        {"analysis": {"annulus": [1.5, 0.5]}},
        {"analysis": {"chsh_settings": [0.0, 45.0, 22.5]}},
        {"analysis": {"n_bootstrap": 0}},
        {"detector": {"rate_scale_per_l": {"3": 1.5}}},
        {"analysis": {"sweep_step_deg": 0}},
        {"analysis": {"sweep_step_deg": -5}},
        {"analysis": {"sweep_step_deg": 60}},
        {"analysis": {"sweep_step_deg": "10"}},
        {"analysis": {"sweep_step_deg": True}},
        # a sweep of 360/step points, refused before anything is allocated
        {"analysis": {"sweep_step_deg": 0.999 * 360.0 / MAX_SWEEP_POINTS}},
        {"analysis": {"sweep_step_deg": 5e-324}},
        # not finite, not a number, or not a whole number where one is counted
        {"pump": {"phi": 1e999, "l": 1}},
        {"pump": {"phi": math.nan}},
        {"detector": {"pair_rate": math.nan}},
        {"pump": {"l": 2.7}},
        {"pump": {"l": True}},
        {"pump": {"l": "3"}},
        {"detector": {"sampled": "false"}},
        {"grid": {"n": 64.9}},
        {"grid": {"waist": math.nan}},
        {"grid": {"waist": math.inf}},
        {"analysis": {"annulus": [0.5, math.inf]}},
        {"analysis": {"annulus": [math.nan, 1.0]}},
        {"analysis": {"chsh_settings": [0.0, 45.0, 22.5, math.nan]}},
        {"analysis": {"chsh_settings": [0.0, 45.0, -math.inf, 67.5]}},
        {"detector": {"rate_scale_per_l": {"3": "0.12"}}},
        {"detector": {"rate_scale_per_l": {"-1": 0.5}}},
        # angular bins past the finest sweep resolution; 10**10 would ask for 80 GB
        {"analysis": {"nbins": MAX_SWEEP_POINTS + 1}},
        {"analysis": {"nbins": 10**10}},
        # bootstrap draws past the cap: their seeds are keyed in one pass
        {"analysis": {"n_bootstrap": MAX_BOOTSTRAP + 1}},
        # one bootstrap draw has no spread
        {"analysis": {"n_bootstrap": 1}},
    ],
)
def test_bad_values_rejected(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(patch)


def test_sweep_step_echoed_as_given():
    for step in (10, 2.5, 360.0 / MAX_SWEEP_POINTS):
        echoed = RunConfig.from_dict({"analysis": {"sweep_step_deg": step}}).to_dict()
        assert repr(echoed["analysis"]["sweep_step_deg"]) == repr(step)


def test_rate_scale_keys_coerced_from_json_strings():
    cfg = RunConfig.from_dict(
        {"detector": {"rate_scale_per_l": {"0": 1.0, "3": 0.12}}}
    )
    assert cfg.detector.rate_scale_per_l == {0: 1.0, 3: 0.12}


def test_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"pump": {"l": 1}, "detector": {"seed": 9}}))
    cfg = RunConfig.from_file(path)
    assert cfg.pump.l == 1
    assert cfg.detector.seed == 9

    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_file(bad)


def test_from_file_refuses_bytes_that_are_not_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"noise": {"space": "café"}}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_file(bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("section, key", [("pump", "phi"), ("detector", "pair_rate")])
def test_from_file_refuses_non_finite_literals(tmp_path, literal, section, key):
    path = tmp_path / "run.json"
    path.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    with pytest.raises(ConfigError, match="finite number"):
        RunConfig.from_file(path)


def test_to_dict_round_trip():
    cfg = RunConfig.from_dict(
        {
            "pump": {"l": 2, "phi": 0.3},
            "analysis": {"annulus": [0.5, 1.2]},
            "detector": {"rate_scale_per_l": {"2": 0.25}},
        }
    )
    doc = cfg.to_dict()
    again = RunConfig.from_dict(doc)
    assert again.to_dict() == doc
    assert doc["analysis"]["annulus"] == [0.5, 1.2]


# -- cli ---------------------------------------------------------------------------


def test_cli_dry_run_prints_resolved_config(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(
        [
            "hybrid-witness",
            "--dry-run",
            "--seed", "7",
            "--l", "2",
            "--noise", "0.25",
            "--expected",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detector"]["seed"] == 7
    assert doc["pump"]["l"] == 2
    assert doc["noise"]["p_white"] == 0.25
    assert doc["detector"]["sampled"] is False
    assert not out.exists()  # dry run must not touch the filesystem


def test_cli_pump_gallery_writes_files(tmp_path, capsys):
    out = tmp_path / "gallery"
    rc = main(["pump-gallery", "--l", "1", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    expected = {f"pump_{b}.pgm" for b in ("H", "V", "D", "A", "R", "L")}
    assert expected | {"pump_none.pgm", "manifest.json"} <= names
    assert "wrote 7 pump images" in capsys.readouterr().out


def test_cli_format_filter_keeps_only_json(tmp_path):
    out = tmp_path / "jsononly"
    rc = main(["pump-gallery", "--l", "1", "--out", str(out), "--format", "json"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.json"}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["pump-gallery", "--l", "1"], id="gallery-all"),
        pytest.param(["pump-gallery", "--l", "1", "--format", "json"], id="gallery-json"),
        pytest.param(["pump-gallery", "--l", "1", "--format", "pgm"], id="gallery-pgm"),
        pytest.param(["polarization-bell"], id="bell-all"),
        pytest.param(["polarization-bell", "--format", "csv"], id="bell-csv"),
        pytest.param(["hybrid-witness", "--expected"], id="witness-all"),
        pytest.param(["hybrid-witness", "--expected", "--format", "csv"], id="witness-csv"),
    ],
)
def test_cli_success_lines_name_only_written_files(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    names = {p.name for p in out.iterdir()}
    named = set(re.findall(re.escape(str(out)) + r"/(\S+)", text))
    assert named <= names
    pgm = sorted(name for name in names if name.endswith(".pgm"))
    wrote = re.search(r"wrote (\d+) pump images", text)
    if argv[0] == "pump-gallery":
        assert (int(wrote.group(1)) if wrote else 0) == len(pgm)
    else:
        assert wrote is None
    if "--format" not in argv:  # a full run names its report or manifest
        assert {"report.json", "manifest.json"} & named


def test_cli_polarization_bell_runs(tmp_path, capsys):
    out = tmp_path / "bell"
    rc = main(["polarization-bell", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "S=" in text and "V_H=" in text
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "polarization_bell"
    assert report["chsh"]["S"] > 2.6


def test_cli_polarization_bell_noiseless_fidelity_in_range(tmp_path):
    # linear tomography of noiseless counts is not PSD for these seeds
    for seed in (2, 4, 8, 10):
        out = tmp_path / str(seed)
        assert main(["polarization-bell", "--seed", str(seed), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rho"]["psd"] is False
        assert 0.0 <= report["fidelity"] <= 1.0


def test_cli_dry_run_takes_the_bootstrap_cap(tmp_path, capsys):
    # the cap itself is a valid config; a dry run checks it without drawing
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"analysis": {"n_bootstrap": MAX_BOOTSTRAP}}))
    out = tmp_path / "never"
    assert main(["hybrid-witness", "--dry-run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["analysis"]["n_bootstrap"] == MAX_BOOTSTRAP
    assert not out.exists()


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pump": {"l": -3}}))
    assert main(["pump-gallery", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["pump-gallery", "--config", str(missing), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize(
    "config, argv",
    [
        pytest.param(
            {"analysis": {"nbins": 8}}, ["pump-gallery", "--l", "2"], id="bins-gallery"
        ),
        pytest.param(
            {"analysis": {"nbins": 8}}, ["hybrid-witness", "--expected"], id="bins-witness"
        ),
        pytest.param(
            {"analysis": {"annulus": [50, 60]}}, ["pump-gallery"], id="annulus-gallery"
        ),
        pytest.param(
            {"analysis": {"annulus": [50, 60]}}, ["hybrid-witness"], id="annulus-witness"
        ),
        pytest.param({"grid": {"extent": 0.5}}, ["pump-gallery"], id="extent-gallery"),
        pytest.param({}, ["hybrid-witness", "--l", "4"], id="scale-witness"),
        pytest.param(
            {"detector": {"rate_scale_per_l": {"3": 0.12}}},
            ["polarization-bell"],
            id="scale-bell",
        ),
        pytest.param(
            {"analysis": {"sweep_step_deg": 60}}, ["polarization-bell"], id="step-bell"
        ),
        pytest.param(
            {"analysis": {"sweep_step_deg": "10"}},
            ["polarization-bell", "--noise", "0.1"],
            id="step-string-bell",
        ),
        # 128 B x 20000^2 = 47.7 GiB for a gallery render
        pytest.param({"grid": {"n": 20000}}, ["pump-gallery"], id="memory-gallery"),
        # 128 B x 4300^2 = 2.20 GiB for a witness render
        pytest.param(
            {"grid": {"n": 4300}}, ["hybrid-witness", "--l", "3"], id="memory-witness"
        ),
        # a non-finite phase once ran to W = 0 on all-zero images
        pytest.param(
            {"pump": {"phi": 1e999, "l": 1}}, ["hybrid-witness"], id="phi-inf-witness"
        ),
        # a quoted false once ran sampled
        pytest.param(
            {"detector": {"sampled": "false"}}, ["polarization-bell"], id="sampled-string-bell"
        ),
        # 171! overflows a float in the LG normalisation
        pytest.param(
            {"analysis": {"nbins": 1000}}, ["pump-gallery", "--l", "171"], id="charge-gallery"
        ),
        pytest.param(
            {"analysis": {"nbins": 1000}, "detector": {"rate_scale_per_l": {"171": 0.1}}},
            ["hybrid-witness", "--l", "171", "--expected"],
            id="charge-witness",
        ),
        # (sqrt(2) r / w)^166 overflows at the frame's corner pixels
        pytest.param(
            {"analysis": {"nbins": 1000}, "grid": {"n": 64}},
            ["pump-gallery", "--l", "166"],
            id="corner-gallery",
        ),
        pytest.param(
            {"analysis": {"nbins": 1000}, "detector": {"rate_scale_per_l": {"166": 0.1}}},
            ["hybrid-witness", "--l", "166", "--expected"],
            id="corner-witness",
        ),
        # a format the bench has no artifact of once ran to an empty --out
        pytest.param({}, ["pump-gallery", "--l", "1", "--format", "csv"], id="format-gallery"),
        pytest.param({}, ["polarization-bell", "--format", "pgm"], id="format-bell"),
        pytest.param(
            {"analysis": {"n_bootstrap": MAX_BOOTSTRAP + 1}},
            ["hybrid-witness"],
            id="bootstrap-witness",
        ),
        # a one-draw bootstrap once ran to sigma null and no bootstrap block
        pytest.param(
            {"analysis": {"n_bootstrap": 1}}, ["hybrid-witness"], id="bootstrap-one-witness"
        ),
    ],
)
def test_cli_rejects_before_writing(tmp_path, config, argv):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


# the rules of pipelines._render_plan, in the order it applies them
PLAN_RULES = (
    "LG normalisation overflows",
    "bytes to render",
    "at the corners",
    "must exceed 4*l",
    "holds no pixel center",
)


@pytest.mark.parametrize("bench", ["pump-gallery", "hybrid-witness"])
@pytest.mark.parametrize(
    "rule, both, mended",
    [
        # 171! overflows; 128 B x 5000^2 is over 2 GiB
        pytest.param(
            0, ({"grid": {"n": 5000}}, 171), ({"grid": {"n": 5000}}, 170), id="charge-memory"
        ),
        # 128 B x 4097^2 is over 2 GiB; l = 166 overflows at the frame's corners
        pytest.param(
            1, ({"grid": {"n": 4097}}, 166), ({"grid": {"n": 4096}}, 166), id="memory-corners"
        ),
        # a frame whose corners sit closer in holds l = 166, but 72 bins
        # cannot resolve its 332 petals
        pytest.param(
            2,
            ({"grid": {"n": 64}, "analysis": {"nbins": 72}}, 166),
            ({"grid": {"n": 64, "extent": 20.0}, "analysis": {"nbins": 72}}, 166),
            id="corners-bins",
        ),
        pytest.param(
            3,
            ({"analysis": {"nbins": 8, "annulus": [50, 60]}}, 3),
            ({"analysis": {"nbins": 72, "annulus": [50, 60]}}, 3),
            id="bins-annulus",
        ),
    ],
)
def test_render_plan_names_the_earlier_of_two_broken_rules(
    tmp_path, capsys, bench, rule, both, mended
):
    # each config breaks two neighbouring rules; with the earlier one mended,
    # the later one is named
    for (config, l), named in ((both, rule), (mended, rule + 1)):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "never"
        assert main([bench, "--l", str(l), "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert [text in err for text in PLAN_RULES] == [k == named for k in range(5)], err


# every stream keys on the seed modulo 2**64, so a seed outside 64 bits once
# wrote another seed's counts under its own name in the report
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_cli_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    out = tmp_path / "never"
    assert main(["polarization-bell", "--seed", seed, "--out", str(out)]) == 2
    assert not out.exists()
    assert "detector.seed" in capsys.readouterr().err


# argparse's prefix matching once ran "--n 1" as "--noise 1", to W = 0
@pytest.mark.parametrize("argv", [["--n", "1"], ["--exp"], ["--noi", "0.1"]])
def test_cli_rejects_abbreviated_options(tmp_path, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        main(["hybrid-witness", *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# every subcommand's options: (option strings, dest, choices, help)
SUBCOMMAND_OPTIONS = [
    (["-h", "--help"], "help", None, "show this help message and exit"),
    (["--config"], "config", None, "JSON run configuration"),
    (["--out"], "out", None, "output directory (default out/<command>)"),
    (["--seed"], "seed", None, "override the detector RNG seed"),
    (["--l"], "charge", None, "override the pump OAM charge"),
    (["--noise"], "noise", None, "override the white-noise weight p in [0, 1]"),
    (["--expected"], "expected", None, "record expected means instead of Poisson-sampled counts"),
    (
        ["--format"],
        "formats",
        ("pgm", "csv", "json"),
        "write only these artifact kinds (repeatable; default all)",
    ),
    (["--dry-run"], "dry_run", None, "print the resolved configuration and exit without running"),
]


def test_every_subcommand_takes_the_common_options(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # the help text wraps at the terminal width
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [name for name, _ in COMMANDS]
    assert [a.help for a in sub._choices_actions] == [text for _, text in COMMANDS]
    for name, command in sub.choices.items():
        got = [(a.option_strings, a.dest, a.choices, a.help) for a in command._actions]
        assert got == SUBCOMMAND_OPTIONS, name
        text = command.format_help()
        assert text.startswith(f"usage: hesim {name} [-h] [--config CONFIG]"), name
        for *_, help_text in SUBCOMMAND_OPTIONS:
            assert help_text in text, (name, help_text)


def needed_bytes(error: ConfigError) -> int:
    return int(re.search(r"needs ([\d,]+) bytes", str(error)).group(1).replace(",", ""))


def test_render_memory_budget_boundary():
    # an upper bound, at 8 B per row: the factors of the l = 0 register (two
    # rings, one cos/sin pair), four rows for the result, a fringe and the sin
    # row's product it adds (three used), and the kept intensities: 128 B per
    # pixel at any l, so 2 GiB allows n = 4096
    per_pixel = 4 * 8 + 4 * 8 + 8 * lgmodes.MAX_KEPT_RENDERS
    assert per_pixel == lgmodes.RENDER_BYTES_PER_PIXEL == 128
    for l in (0, 3):
        _render_plan(RunConfig.from_dict({"grid": {"n": 4096}}), l)
        with pytest.raises(ConfigError) as exc:
            _render_plan(RunConfig.from_dict({"grid": {"n": 4097}}), l)
        assert needed_bytes(exc.value) == per_pixel * 4097**2


def test_charge_bound_is_where_the_lg_normalisation_overflows():
    top = lgmodes.MAX_CHARGE
    assert np.isfinite(lgmodes.lg_amplitude(1.0, 0.0, lgmodes.LGMode(top)))
    with pytest.raises(OverflowError):
        lgmodes.lg_amplitude(1.0, 0.0, lgmodes.LGMode(top + 1))
    # a frame whose corners sit close enough in, with bins for 2 * top petals
    cfg = RunConfig.from_dict({"grid": {"n": 64, "extent": 20.0}, "analysis": {"nbins": 1000}})
    _render_plan(cfg, top)
    with pytest.raises(ConfigError, match="normalisation"):
        _render_plan(cfg, top + 1)


def test_charge_bound_at_the_frame_corner():
    # 1000 bins resolve the petals of every charge up to MAX_CHARGE
    for n in (64, 256):
        cfg = RunConfig.from_dict({"grid": {"n": n}, "analysis": {"nbins": 1000}})
        assert _render_plan(cfg, 165)[0][0] == n
        for l in range(166, lgmodes.MAX_CHARGE + 1):
            with pytest.raises(ConfigError, match="corners"):
                _render_plan(cfg, l)
    # a frame whose corners sit closer in holds the highest charge
    small = RunConfig.from_dict({"grid": {"n": 64, "extent": 20.0}, "analysis": {"nbins": 1000}})
    assert _render_plan(small, lgmodes.MAX_CHARGE)[0] == (64, 20.0)


def render_peaks(l: int, n: int = 256) -> tuple:
    """tracemalloc peaks of the first render on the source alphabet of l,
    which builds the factors, and of a render with every kept intensity held."""
    alphabet = pipelines._alphabet(l)
    grid = (n, lgmodes.default_extent(1.0, max(l, 1)))
    rng = np.random.default_rng(17)
    blocks = []
    for _ in range(lgmodes.MAX_KEPT_RENDERS + 1):
        # coherent on the outer +-m pair; at l = 0 charge 0 adds its own ring
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        block = np.zeros((len(alphabet),) * 2, dtype=complex)
        block[np.ix_([0, -1], [0, -1])] = np.outer(a, a.conj())
        block[len(alphabet) // 2, len(alphabet) // 2] += rng.random()
        blocks.append(block)
    lgmodes.mode_stack(alphabet, 32, 6.0, 1.0)  # drop any held factors of this key
    tracemalloc.start()
    try:
        lgmodes.render_from_density(blocks[0], alphabet, grid, 1.0)
        fresh = tracemalloc.get_traced_memory()[1]
        for rho in blocks[:-1] * 2:
            lgmodes.render_from_density(rho, alphabet, grid, 1.0)
        assert len(lgmodes._held_stack.kept) == lgmodes.MAX_KEPT_RENDERS
        tracemalloc.reset_peak()
        lgmodes.render_from_density(blocks[-1], alphabet, grid, 1.0)
        full = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fresh, full


def test_render_peak_within_memory_budget(monkeypatch):
    n = 256
    monkeypatch.setattr(pipelines, "RENDER_BUDGET", 0)
    for l in (3, 0):
        with pytest.raises(ConfigError) as exc:
            _render_plan(RunConfig.from_dict({"grid": {"n": n}}), l)
        # the memo's Python objects add a few kB at any n
        assert max(render_peaks(l, n)) <= needed_bytes(exc.value) + 64 * 1024


def test_cli_hybrid_witness_rejects_zero_charge(tmp_path):
    rc = main(["hybrid-witness", "--l", "0", "--expected", "--out", str(tmp_path / "w")])
    assert rc == 2


def test_cli_numerical_failure_exits_3(tmp_path):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"detector": {"pair_rate": 1e13}}))
    rc = main(["polarization-bell", "--config", str(cfg), "--out", str(tmp_path / "z")])
    assert rc == 3


def test_cli_unwritable_out_exits_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = main(["pump-gallery", "--l", "1", "--out", str(blocker / "sub")])
    assert rc == 4
