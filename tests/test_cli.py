import csv
import json

import numpy as np
import pytest

from fluxlattice import ConsistencyError, RationalFlux, assembler
from fluxlattice.cli import main

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
        assert pt["classification"] in ("BandEdge", "Embedded")
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
    assert main(["butterfly", "--config", cfg, "--q-max", "2", "--out", out]) == 0
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


def test_harper_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "theta": "1/2"})
    assert main(["harper", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == "1/2"
    assert doc["bands"][0][0] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)


def test_validate_free_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FREE_CFG, "k_max": 6})
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 6


def test_validate_rejects_corrupted_beta(tmp_path):
    cfg = write_config(tmp_path, {**FREE_CFG, "beta": -2.0})
    assert main(["validate", "--config", cfg]) == 2


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
