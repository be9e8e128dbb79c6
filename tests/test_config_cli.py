"""Config loading and the command line wrapper."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hesim import lgmodes, pipelines
from hesim.cli import main
from hesim.config import MAX_SWEEP_POINTS, RunConfig
from hesim.errors import ConfigError
from hesim.pipelines import _check_stack_memory


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
        # 2 modes at 20000^2 px: 136 B x 20000^2 = 50.7 GiB for a gallery render
        pytest.param({"grid": {"n": 20000}}, ["pump-gallery"], id="memory-gallery"),
        # 2 modes at 4096^2 px: 136 B x 4096^2 = 2.13 GiB for a witness render
        pytest.param(
            {"grid": {"n": 4096}}, ["hybrid-witness", "--l", "3"], id="memory-witness"
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
    ],
)
def test_cli_rejects_before_writing(tmp_path, config, argv):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def needed_bytes(error: ConfigError) -> int:
    return int(re.search(r"needs ([\d,]+) bytes", str(error)).group(1).replace(",", ""))


def test_render_memory_budget_boundary():
    # l=3: the mode stack and its mixed copy at 16 B a mode, the real result
    # and the kept intensities at 8 B: 136 B per pixel on the two charges
    # the source fills, so 2 GiB allows n = 3973
    per_pixel = 32 * len(pipelines._alphabet(3)) + 8 + 8 * lgmodes.MAX_KEPT_RENDERS
    assert per_pixel == 136
    _check_stack_memory(RunConfig.from_dict({"grid": {"n": 3973}}), 3)
    with pytest.raises(ConfigError) as exc:
        _check_stack_memory(RunConfig.from_dict({"grid": {"n": 3974}}), 3)
    assert needed_bytes(exc.value) == per_pixel * 3974**2


def test_charge_bound_is_where_the_lg_normalisation_overflows():
    top = pipelines.MAX_CHARGE
    assert np.isfinite(lgmodes.lg_amplitude(1.0, 0.0, lgmodes.LGMode(top)))
    with pytest.raises(OverflowError):
        lgmodes.lg_amplitude(1.0, 0.0, lgmodes.LGMode(top + 1))
    cfg = RunConfig.from_dict({})
    _check_stack_memory(cfg, top)
    with pytest.raises(ConfigError, match="normalisation"):
        _check_stack_memory(cfg, top + 1)


def test_render_peak_within_memory_budget(monkeypatch):
    n, l = 256, 3
    monkeypatch.setattr(pipelines, "MODE_STACK_BUDGET", 0)
    with pytest.raises(ConfigError) as exc:
        _check_stack_memory(RunConfig.from_dict({"grid": {"n": n}}), l)
    budget = needed_bytes(exc.value)
    alphabet = pipelines._alphabet(l)
    grid = (n, lgmodes.default_extent(1.0, l))
    rng = np.random.default_rng(17)
    blocks = []
    for _ in range(lgmodes.MAX_KEPT_RENDERS + 1):
        a = rng.normal(size=len(alphabet)) + 1j * rng.normal(size=len(alphabet))
        blocks.append(np.outer(a, a.conj()))
    lgmodes.mode_stack(alphabet, 32, 6.0, 1.0)  # drop any held stack of this key
    tracemalloc.start()
    try:
        # the first render builds the stack; the last one runs with every
        # kept intensity held
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
    # the memo's Python objects and einsum's buffers add a few kB at any n
    assert max(fresh, full) <= budget + 64 * 1024


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
