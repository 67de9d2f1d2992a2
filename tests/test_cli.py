import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fluxlattice import (ConsistencyError, CouplingParams, RationalFlux, assembler, cli,
                         discriminant, harper_spectrum, make_potential, validation)
from fluxlattice.cli import main
from fluxlattice.edge_solver import dirichlet_eigenvalues
from fluxlattice.harper import _harper_bands

L = np.pi


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FREE_CFG = {
    "l": L,
    "potential": {"kind": "zero"},
    "alpha": 0.0,
    "beta": 1.0,
    "theta": 0,
    "z_min": 0.0,
    "z_max": 10.0,
}


def test_spectrum_free_case(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CFG)
    assert main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gaps"] == []
    assert len(doc["point_spectrum"]) == 3
    for pt in doc["point_spectrum"]:
        assert pt["classification"] == "BandEdge"
    assert doc["metadata"] == {"convergent_used": None}
    assert doc["parameters"]["theta_resolved"] == "0/1"


def test_spectrum_half_flux_string_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/2", "z_max": 4.0})
    assert main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point_spectrum"][0]["classification"] == "Isolated"
    zlos = [iv["z_lo"] for iv in doc["continuous"]]
    assert min(zlos) == pytest.approx(1 / 16, abs=1e-8)
    his = [iv["z_hi"] for iv in doc["continuous"]]
    assert max(his) == pytest.approx(49 / 16, abs=1e-8)


def test_spectrum_rejects_zero_denominator(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/0"})
    assert main(["spectrum", "--config", cfg]) == 2
    assert "denominator" in capsys.readouterr().err


def test_spectrum_rejects_negative_beta(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "beta": -1.0})
    assert main(["spectrum", "--config", cfg]) == 2


def test_spectrum_requires_z_max(tmp_path, capsys):
    doc = dict(FREE_CFG)
    del doc["z_max"]
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg]) == 2
    assert "z_max" in capsys.readouterr().err


def test_spectrum_csv_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CFG)
    assert main(["spectrum", "--config", cfg, "--format", "csv"]) == 2


def test_spectrum_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/3"})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["spectrum", "--config", cfg, "--out", out1]) == 0
    assert main(["spectrum", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_spectrum_stamp_adds_timestamp(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CFG)
    assert main(["spectrum", "--config", cfg, "--stamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["metadata"]) == ["convergent_used", "generated_at"]


def test_spectrum_default_floor_above_z_max(tmp_path, capsys):
    doc = {**FREE_CFG, "z_max": -5.0}
    del doc["z_min"]
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "below the lowest band window" in err
    assert "invalid scan range" not in err


def test_spectrum_from_field_sample(tmp_path, capsys):
    # uniform b = 2 pi / l^2 over the cell carries one flux quantum
    grid = list(np.linspace(0.0, L, 21))
    doc = dict(FREE_CFG)
    del doc["theta"]
    doc["field"] = {"grid_x": grid, "grid_y": grid,
                    "values": [[2 * np.pi / L**2] * 21 for _ in range(21)]}
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parameters"]["theta_resolved"] == "1/1"


FIELD_GRID = list(np.linspace(0.0, L, 11))


def _run(tmp_path, capsys, command, doc):
    """(exit code, stdout) of one run on the config doc."""
    rc = main([command, "--config", write_config(tmp_path, doc, f"{command}.json")])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("given", [
    {"theta": 0.4142},
    # uniform b over the cell carries 0.4142 flux quanta, up to rounding
    {"field": {"grid_x": FIELD_GRID, "grid_y": FIELD_GRID,
               "values": [[0.4142 * 2 * np.pi / L**2] * 11] * 11}},
], ids=["decimal", "field"])
def test_theta_is_resolved_once_for_every_command(tmp_path, capsys, given):
    # the config resolves 0.4142 to 12/29 at q_max 50; spectrum, harper and
    # validate read that flux and match the config that gives "12/29"
    base = {k: v for k, v in FREE_CFG.items() if k not in ("theta", "z_min")}
    docs = ({**base, "alpha": 1.0, "beta": 1.3, "theta": "12/29"},
            {**base, "alpha": 1.0, "beta": 1.3, **given})
    exact, resolved = (json.loads(_run(tmp_path, capsys, "spectrum", d)[1]) for d in docs)
    assert exact["parameters"]["theta_resolved"] == "12/29"
    assert resolved["parameters"]["theta_resolved"] == "12/29"
    assert exact["metadata"] == {"convergent_used": None}
    assert resolved["metadata"] == {"convergent_used": "12/29"}
    for key in ("point_spectrum", "continuous", "gaps"):
        assert resolved[key] == exact[key]
    exact, resolved = (json.loads(_run(tmp_path, capsys, "harper", d)[1]) for d in docs)
    assert (exact["theta"], exact["convergent_used"]) == ("12/29", None)
    assert (resolved["theta"], resolved["convergent_used"]) == ("12/29", "12/29")
    assert resolved["bands"] == exact["bands"]
    exact, resolved = (_run(tmp_path, capsys, "validate", d) for d in docs)
    assert resolved == exact and exact[1].count("\n") == 6


@pytest.mark.parametrize("command", ["spectrum", "butterfly", "dirichlet"])
def test_field_of_infinite_flux_refused_by_every_command(tmp_path, capsys, command):
    # finite values whose flux integral overflows: the config resolves its
    # flux, so every command refuses it, naming the field, with no numpy
    # overflow warning (an error under this suite's warning filter)
    doc = {k: v for k, v in FREE_CFG.items() if k != "theta"}
    doc["field"] = {"grid_x": [0, L], "grid_y": [0, L], "values": [[1e308] * 2] * 2}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "config error: field.values integrate to a flux beyond the double range\n")


def test_field_overflow_prints_no_warning(tmp_path):
    # a fresh interpreter keeps Python's default warning filters, under
    # which numpy's overflow warning would reach stderr with a source line
    doc = {k: v for k, v in FREE_CFG.items() if k != "theta"}
    doc["field"] = {"grid_x": [0, L], "grid_y": [0, L], "values": [[1e308] * 2] * 2}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-m", "fluxlattice.cli", "spectrum", "--config",
                          write_config(tmp_path, doc)], capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr == "config error: field.values integrate to a flux beyond the double range\n"


def test_butterfly_counts_and_header(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 5, "z_max": 4.0})
    out = str(tmp_path / "b.csv")
    assert main(["butterfly", "--config", cfg, "--out", out]) == 0
    raw = open(out, "rb").read()
    assert raw.startswith("θ_num,θ_den,band_index,z_lo,z_hi,truncated\n".encode())
    assert b"\r" not in raw
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    fluxes = {(r["θ_num"], r["θ_den"]) for r in rows}
    assert len(fluxes) == 11


def test_butterfly_qmax1_two_identical_groups(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 1, "z_max": 6.0})
    out = str(tmp_path / "b.csv")
    assert main(["butterfly", "--config", cfg, "--out", out]) == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    g0 = [(r["z_lo"], r["z_hi"]) for r in rows if r["θ_num"] == "0"]
    g1 = [(r["z_lo"], r["z_hi"]) for r in rows if r["θ_num"] == "1"]
    assert g0 == g1 and g0


def test_butterfly_half_flux_gap(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 2, "z_max": 2.0})
    out = str(tmp_path / "b.csv")
    assert main(["butterfly", "--config", cfg, "--out", out]) == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    half = sorted((float(r["z_lo"]), float(r["z_hi"])) for r in rows
                  if r["θ_den"] == "2")
    assert half[-1][0] - half[0][1] > 0.5  # the gap straddling mu_0 = 1


def test_butterfly_deterministic(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 3, "z_max": 4.0})
    out1, out2 = str(tmp_path / "1.csv"), str(tmp_path / "2.csv")
    assert main(["butterfly", "--config", cfg, "--out", out1]) == 0
    assert main(["butterfly", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_butterfly_counts_failed_fluxes(tmp_path, capsys, monkeypatch):
    real = assembler.harper_spectrum

    def flaky(flux, beta):
        if flux == RationalFlux(1, 2):
            raise ConsistencyError("band pairing failed")
        return real(flux, beta)

    monkeypatch.setattr(assembler, "harper_spectrum", flaky)
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 3, "z_max": 4.0})
    out = str(tmp_path / "b.csv")
    assert main(["butterfly", "--config", cfg, "--out", out]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["butterfly diagnostic: theta=1/2: band pairing failed",
                   "butterfly: 1 of 5 fluxes failed"]
    fluxes = {tuple(row[:2]) for row in csv.reader(open(out, encoding="utf-8"))}
    assert ("1", "2") not in fluxes and ("1", "3") in fluxes


def test_butterfly_builds_one_farey_list(tmp_path, capsys, monkeypatch):
    # the CLI builds the list, the sweep takes it, and the failure count
    # reads the same list
    calls = []
    for module in (cli, assembler):
        real = module.farey_fluxes
        monkeypatch.setattr(module, "farey_fluxes",
                            lambda q, real=real: calls.append(q) or real(q))
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 3, "z_max": 4.0})
    assert main(["butterfly", "--config", cfg]) == 0
    assert calls == [3]
    assert capsys.readouterr().err == "butterfly: 0 of 5 fluxes failed\n"


def test_butterfly_unresolvable_window_fails_per_flux(tmp_path, capsys):
    # window 0 at alpha = -200 is narrower than one ulp: the fluxes with a
    # Harper band edge inside (-4, 4) fail there, while 0/1 and 1/1, whose one
    # band maps onto the window's edges, keep their rows
    doc = {k: v for k, v in FREE_CFG.items() if k not in ("z_min", "theta")}
    cfg = write_config(tmp_path, {**doc, "alpha": -200.0, "q_max": 3})
    assert main(["butterfly", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    rows = ["-2500.0,-2500.0", "1.0,1.0259559033595889", "4.0,4.1037802286062055",
            "9.0,9.23334314879011"]
    assert out.splitlines() == ["θ_num,θ_den,band_index,z_lo,z_hi,truncated"] + [
        f"{p},1,{i},{row},false" for p in (0, 1) for i, row in enumerate(rows)]
    window = "since no double lies strictly inside [-2500.0, -2500.0]"
    assert err.splitlines() == [
        f"butterfly diagnostic: theta=1/2: eta inversion on window 0 missed target "
        f"-2.8284271247461903: relative residual 7.388e-01, {window}",
        f"butterfly diagnostic: theta=1/3: eta inversion on window 0 missed target "
        f"-2.732050807568877: relative residual 7.321e-01, {window}",
        f"butterfly diagnostic: theta=2/3: eta inversion on window 0 missed target "
        f"-2.732050807568877: relative residual 7.321e-01, {window}",
        "butterfly: 3 of 5 fluxes failed"]


@pytest.mark.parametrize("command", ["butterfly", "dirichlet", "harper", "validate"])
def test_stamp_is_refused_off_spectrum(tmp_path, capsys, command):
    cfg = write_config(tmp_path, FREE_CFG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--stamp"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["butterfly", "dirichlet"])
def test_commands_without_theta_need_none(tmp_path, capsys, command):
    doc = {k: v for k, v in FREE_CFG.items() if k != "theta"}
    cfg = write_config(tmp_path, {**doc, "q_max": 2, "z_max": 4.0, "k_max": 2})
    assert main([command, "--config", cfg]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "harper", "validate"])
def test_commands_reading_theta_require_it(tmp_path, capsys, command):
    doc = {k: v for k, v in FREE_CFG.items() if k != "theta"}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: missing field: theta (or a field sample)\n")


def test_butterfly_still_checks_a_given_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/0", "q_max": 2})
    assert main(["butterfly", "--config", cfg]) == 2
    assert "denominator" in capsys.readouterr().err


def test_dirichlet_json(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "k_max": 2})
    assert main(["dirichlet", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == pytest.approx([1.0, 4.0, 9.0], abs=1e-9)


def test_dirichlet_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "k_max": 1})
    assert main(["dirichlet", "--config", cfg, "--format", "csv"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["k"] for r in rows] == ["0", "1"]
    assert float(rows[1]["mu"]) == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("override, field", [
    ({"l": True}, "field l "),
    ({"q_max": True}, "q_max"),
    ({"k_max": False}, "k_max"),
    ({"potential": {"kind": "constant", "c": True}}, "potential.c"),
], ids=["l", "q_max", "k_max", "c"])
def test_boolean_where_number_expected_rejected(tmp_path, capsys, override, field):
    # JSON true/false are ints to Python; each must fail as a config error
    cfg = write_config(tmp_path, {**FREE_CFG, **override})
    assert main(["dirichlet", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("field, name", [
    ({"grid_x": [0, L], "grid_y": [0, L], "values": [[True, True], [True, True]]},
     "field.values"),
    ({"grid_x": "abc", "grid_y": [0, L], "values": [[0, 0], [0, 0]]}, "field.grid_x"),
    ({"grid_x": [0, L], "grid_y": [0, L], "values": [0, 0, 0]}, "field.values"),
], ids=["bool_values", "string_grid", "flat_values_wrong_size"])
def test_malformed_field_sample_rejected(tmp_path, capsys, field, name):
    doc = {**FREE_CFG, "field": field}
    del doc["theta"]
    cfg = write_config(tmp_path, doc)
    assert main(["harper", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err


@pytest.mark.parametrize("override, field", [
    ({"l": str(L)}, "field l "),
    ({"potential": {"kind": "constant", "c": "5.0"}}, "potential.c"),
    ({"potential": {"kind": "piecewise_constant", "breakpoints": ["0", str(L / 2), str(L)],
                    "values": [0.0, 10.0]}}, "potential.breakpoints"),
    ({"potential": {"kind": "piecewise_constant", "breakpoints": [0.0, L / 2, L],
                    "values": ["0", "10"]}}, "potential.values"),
    ({"potential": {"kind": "sampled", "grid": ["0", str(L)], "values": [0.0, 1.0]}},
     "potential.grid"),
    ({"field": {"grid_x": ["0", str(L)], "grid_y": [0, L], "values": [[0, 0], [0, 0]]},
      "theta": None}, "field.grid_x"),
], ids=["l", "c", "breakpoints", "values", "grid", "field"])
def test_string_where_number_expected_rejected(tmp_path, capsys, override, field):
    # float() parses "3.14"; a JSON string is never a config number, as
    # "alpha": "1.0" is not
    doc = {k: v for k, v in {**FREE_CFG, **override}.items() if v is not None}
    cfg = write_config(tmp_path, doc)
    assert main(["dirichlet", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


BEYOND_DOUBLE = 10**400  # a JSON integer that float() cannot hold


@pytest.mark.parametrize("override, field", [
    ({"l": BEYOND_DOUBLE}, "field l "),
    ({"alpha": BEYOND_DOUBLE}, "field alpha "),
    ({"beta": BEYOND_DOUBLE}, "field beta "),
    ({"theta": BEYOND_DOUBLE}, "theta "),
    ({"z_max": BEYOND_DOUBLE}, "field z_max "),
    ({"potential": {"kind": "piecewise_constant", "breakpoints": [0.0, L / 2, L],
                    "values": [0.0, BEYOND_DOUBLE]}}, "potential.values"),
    ({"field": {"grid_x": [0, L], "grid_y": [0, L],
                "values": [[0, BEYOND_DOUBLE], [0, 0]]}, "theta": None}, "field.values"),
], ids=["l", "alpha", "beta", "theta", "z_max", "potential_values", "field_values"])
def test_number_beyond_double_range_rejected(tmp_path, capsys, override, field):
    # float() raises OverflowError on such an integer; it is a config error
    doc = {k: v for k, v in {**FREE_CFG, **override}.items() if v is not None}
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("key, flag", [("out", "--out"), ("format", "--format")],
                         ids=["out", "format"])
def test_config_out_and_format_refused(tmp_path, capsys, key, flag):
    # output settings live on the command line only; a config that still sets
    # one would otherwise be ignored, and output go to stdout instead
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/2", key: "csv"})
    assert main(["harper", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "csv").exists()
    assert captured.err == (
        f"config error: {key} is set by the {flag} flag, not in the config\n")


@pytest.mark.parametrize("out", [True, 7, ["x"]], ids=["bool", "int", "list"])
def test_non_string_out_rejected(tmp_path, capsys, out):
    # open() would take true or 7 as a file descriptor, and fail on a list;
    # a config out of any type is refused before it could reach open()
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/2", "out": out})
    assert main(["harper", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: out is set by the --out flag, not in the config\n"


def test_q_max_flag_refused(tmp_path, capsys):
    # q_max lives in the config only
    cfg = write_config(tmp_path, {**FREE_CFG, "q_max": 2})
    with pytest.raises(SystemExit) as exc:
        main(["butterfly", "--config", cfg, "--q-max", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --q-max 3" in captured.err


def test_harper_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/2"})
    assert main(["harper", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == "1/2"
    assert doc["bands"][0][0] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)


def test_validate_rejects_corrupted_beta(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "beta": -2.0})
    assert main(["validate", "--config", cfg]) == 2


def test_validate_z_max_below_spectrum_exits_2(tmp_path, capsys):
    doc = {k: v for k, v in FREE_CFG.items() if k != "z_min"}
    cfg = write_config(tmp_path, {**doc, "alpha": 1.0, "z_max": -50.0})
    assert main(["validate", "--config", cfg]) == 2
    assert "lies below the lowest band window" in capsys.readouterr().err


def test_spectrum_unresolvable_window_exits_3(tmp_path, capsys):
    # window 0 at alpha = -200 is narrower than one ulp: no inversion there
    # meets its residual, which is reported instead of a wrong interval
    doc = {k: v for k, v in FREE_CFG.items() if k != "z_min"}
    cfg = write_config(tmp_path, {**doc, "alpha": -200.0, "theta": "1/3"})
    assert main(["spectrum", "--config", cfg]) == 3
    assert "eta inversion on window 0 missed target" in capsys.readouterr().err


STEP = {"kind": "piecewise_constant", "breakpoints": [0.0, L / 2, L], "values": [0.0, 10.0]}
# window 0 of these couplings holds doubles but is 2.6e-13 to 9.5e-12 wide,
# within EDGE_TOL_Z, so every root the solver finds in it is one of its edges
NARROW = [("zero", -25.0, 0.5), ("zero", -40.0, 1.0), ("zero", -60.0, 1.3),
          ("step", -25.0, 0.5), ("step", -40.0, 1.0), ("step", -60.0, 1.3)]


def _edge_cfg(tmp_path, edge, alpha, beta, theta):
    potential = STEP if edge == "step" else {"kind": edge}
    return write_config(tmp_path, {"l": L, "potential": potential, "alpha": alpha,
                                   "beta": beta, "theta": theta, "z_max": 10.0})


@pytest.mark.parametrize("edge, alpha, beta", NARROW)
def test_spectrum_narrow_window_exits_3(tmp_path, capsys, edge, alpha, beta):
    # an interior target there would come back as an edge, collapsing its
    # band; a flux whose targets are the window's edges still returns it
    cfg = _edge_cfg(tmp_path, edge, alpha, beta, "1/3")
    assert main(["spectrum", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: eta inversion on window 0 cannot resolve "
                        r"target \S+: the window \[\S+, \S+\] is \S+e-1[23] wide, "
                        r"within EDGE_TOL_Z = 1e-10\n", err), err
    cfg = _edge_cfg(tmp_path, edge, alpha, beta, "0/1")
    assert main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["continuous"][0]["window"] == 0


# the report line the benchmark's validate gate parses, in run_all's order
VALIDATE_LINE = re.compile(r"^(PASS|FAIL) (\w+): defect=(\S+) tol=(\S+)$")
VALIDATE_ORDER = ["wronskian", "sign_alternation", "chambers_independence",
                  "kp_trace_identity", "torus_containment", "flux_periodicity"]


def _validate_lines(tmp_path, capsys, expected_exit):
    cfg = write_config(tmp_path, {**FREE_CFG, "k_max": 6})
    assert main(["validate", "--config", cfg]) == expected_exit
    matches = [VALIDATE_LINE.match(line) for line in capsys.readouterr().out.splitlines()]
    assert all(matches)
    assert [m.group(2) for m in matches] == VALIDATE_ORDER
    return [(m.group(1), float(m.group(3)), float(m.group(4))) for m in matches]


@pytest.mark.parametrize("flip", [None, 5])
def test_validate_ignores_k_max(tmp_path, capsys, monkeypatch, flip):
    # k_max is the dirichlet command's setting: validate checks the record of
    # its range's top, whatever k_max says, so eta(mu_5) flipped in the
    # Dirichlet solve fails sign alternation at k_max 0 as at 10
    solve = discriminant.dirichlet_eigenvalues

    def flipped(p, k_max):
        spec = solve(p, k_max)
        nus = list(spec.nus)
        nus[flip] = -nus[flip]
        return dataclasses.replace(spec, nus=tuple(nus))

    if flip is not None:
        monkeypatch.setattr(discriminant, "dirichlet_eigenvalues", flipped)
    reports = []
    for extra in ({}, {"k_max": 0}, {"k_max": 6}, {"k_max": 10}):
        cfg = write_config(tmp_path, {**FREE_CFG, "z_max": 400.0, **extra})
        assert main(["validate", "--config", cfg]) == (0 if flip is None else 1)
        reports.append(capsys.readouterr().out)
    assert len(reports[0].splitlines()) == 6 and reports == reports[:1] * 4
    assert ("FAIL sign_alternation" in reports[0]) == (flip is not None)


def test_spectrum_then_validate_make_one_dirichlet_solve(tmp_path, capsys):
    doc = {k: v for k, v in FREE_CFG.items() if k != "z_min"}
    cfg = write_config(tmp_path, {**doc, "potential": STEP, "alpha": 1.0, "theta": "1/3",
                                  "z_max": 40.0})
    for cached in (dirichlet_eigenvalues, discriminant._bucket_through):
        cached.cache_clear()
    assert main(["spectrum", "--config", cfg]) == 0
    assert main(["validate", "--config", cfg]) == 0
    assert dirichlet_eigenvalues.cache_info().misses == 1
    assert discriminant._bucket_through.cache_info().misses == 1


def test_validate_free_defaults(tmp_path, capsys):
    lines = _validate_lines(tmp_path, capsys, 0)
    assert all(status == "PASS" and defect <= tol for status, defect, tol in lines)


def test_validate_failed_property_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(validation, "check_torus_containment", lambda bands:
                        validation.PropertyResult("torus_containment", 1.0, 1e-9))
    lines = _validate_lines(tmp_path, capsys, 1)
    assert [status for status, _, _ in lines] == ["PASS"] * 4 + ["FAIL", "PASS"]
    assert lines[4][1:] == (1.0, 1e-9)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validate_refuses_format(tmp_path, capsys, fmt):
    # validate prints a text report; a --format it cannot honour is refused,
    # as spectrum refuses csv and butterfly json
    cfg = write_config(tmp_path, FREE_CFG)
    assert main(["validate", "--config", cfg, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


def test_validate_out_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "k_max": 6})
    out = tmp_path / "report.txt"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = [VALIDATE_LINE.match(line) for line in out.read_text().splitlines()]
    assert all(lines) and [m.group(2) for m in lines] == VALIDATE_ORDER


def _validate_step_edge_passes(tmp_path, capsys, theta):
    step = {"kind": "piecewise_constant", "breakpoints": [0.0, L / 2, L],
            "values": [0.0, 10.0]}
    cfg = write_config(tmp_path, {"l": L, "potential": step, "alpha": 1.0,
                                  "beta": 1.0, "theta": theta, "z_max": 40.0})
    assert main(["validate", "--config", cfg]) == 0
    matches = [VALIDATE_LINE.match(line) for line in capsys.readouterr().out.splitlines()]
    assert all(matches)
    assert [(m.group(1), m.group(2)) for m in matches] == \
        [("PASS", name) for name in VALIDATE_ORDER]


def test_validate_step_edge_at_formerly_mispaired_flux(tmp_path, capsys):
    # 1/31 at beta = 1 is one of the default-range fluxes whose Harper bands
    # were once paired as sorted neighbours and came out misordered
    _validate_step_edge_passes(tmp_path, capsys, "1/31")


def test_validate_step_edge_at_formerly_failing_chambers_flux(tmp_path, capsys):
    # 24/49 at beta = 1 had the largest Chambers defect of the default range,
    # 8.3e-7 against 1e-12, when it was taken from longdouble transfer traces
    _validate_step_edge_passes(tmp_path, capsys, "24/49")


def test_validate_computes_harper_bands_once_per_flux(monkeypatch):
    # run_all needs the bands at flux and at flux + 1 (flux_periodicity); the
    # torus check reuses the first
    seen = []

    def counted(f, beta):
        seen.append(str(f))
        return harper_spectrum(f, beta)

    monkeypatch.setattr(assembler, "harper_spectrum", counted)
    monkeypatch.setattr(validation, "harper_spectrum", counted, raising=False)
    p = make_potential({"l": L, "potential": {"kind": "zero"}})
    c = CouplingParams(alpha=0.0, beta=1.0, potential=p)
    results = validation.run_all(c, RationalFlux(2, 5), 0.0, 10.0)
    assert all(r.passed for r in results)
    assert seen == ["2/5", "7/5"]


def test_validate_computes_each_residue_once(free_coupling):
    # 7/5 shares 2/5's fiber, so flux_periodicity reads the cached bands
    _harper_bands.cache_clear()
    validation.run_all(free_coupling, RationalFlux(2, 5), 0.0, 10.0)
    info = _harper_bands.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_validate_assembles_no_spectrum(step_pot, monkeypatch):
    # the checks read Harper bands, never an assembled spectrum, and the
    # default floor is one edge solve, so neither the assembly, an eta
    # inversion nor a window scan may run; validate-fib's 8/21 config
    def refuse(*args, **kwargs):
        raise AssertionError("validate assembled a spectrum or scanned windows")

    for module in (assembler, discriminant, validation):
        for name in ("_assemble", "invert_eta_many", "band_windows", "_scan"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    for z_min in (None, -5.0):
        results = validation.run_all(c, RationalFlux(8, 21), z_min, 40.0)
        assert [r.name for r in results] == VALIDATE_ORDER
        assert all(r.passed for r in results), results


def test_flux_periodicity_sees_shifted_band_edge(monkeypatch):
    # the assembled form of this check is test_flux_periodicity_spectral_sets
    def shifted(f, beta):
        bands = harper_spectrum(f, beta)
        if f.p >= f.q:  # the shifted flux (p+q)/q
            (lo, hi), *rest = bands.bands
            bands = dataclasses.replace(bands, bands=((lo, hi + 1e-6), *rest))
        return bands

    bands = harper_spectrum(RationalFlux(2, 5), 1.0)
    assert validation.check_flux_periodicity(bands).defect == 0.0
    monkeypatch.setattr(validation, "harper_spectrum", shifted)
    r = validation.check_flux_periodicity(bands)
    assert not r.passed and r.defect == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("beta", [-2.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["spectrum", "butterfly", "dirichlet",
                                     "harper", "validate"])
def test_invalid_beta_rejected_by_every_subcommand(tmp_path, capsys, command, beta):
    # json writes NaN / Infinity, which Python's json reads back
    cfg = write_config(tmp_path, {**FREE_CFG, "beta": beta})
    assert main([command, "--config", cfg]) == 2
    assert "beta must be positive" in capsys.readouterr().err


def test_nonfinite_alpha_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "alpha": float("nan")})
    assert main(["harper", "--config", cfg]) == 2
    assert "alpha must be finite" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path)]) == 2


def test_theta_and_field_conflict(tmp_path):
    doc = dict(FREE_CFG)
    doc["field"] = {"grid_x": [0, L], "grid_y": [0, L], "values": [[0, 0], [0, 0]]}
    cfg = write_config(tmp_path, doc)
    assert main(["spectrum", "--config", cfg]) == 2
