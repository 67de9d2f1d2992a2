"""`validation.run_all`: the floor of its default range, its one Dirichlet
solve, and the names the benchmark's tracer and gate read."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fluxlattice import (ConfigError, CouplingParams, RationalFlux, graph_spectrum,
                         harper_spectrum, make_potential, validation)
from fluxlattice.discriminant import EDGE_TOL_Z, _bucket_through, pole_record
from fluxlattice.edge_solver import dirichlet_eigenvalues, round_up_index

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _clear_edge_caches():
    for cached in (dirichlet_eigenvalues, _bucket_through):
        cached.cache_clear()


def _floor_of_run(c, z_max, monkeypatch):
    """The z_min that run_all hands to its Wronskian check."""
    seen = []
    wronskian = validation.check_wronskian

    def recorded(c, z_min, z_max):
        seen.append(z_min)
        return wronskian(c, z_min, z_max)

    monkeypatch.setattr(validation, "check_wronskian", recorded)
    validation.run_all(c, RationalFlux(1, 3), None, z_max)
    return seen[0]


@pytest.mark.parametrize("edge, alpha, beta", [("step", 1.0, 1.0), ("free", 1.0, 1.0),
                                               ("linear", -1.0, 0.5)])
def test_default_floor_is_spectrum_floor(request, monkeypatch, edge, alpha, beta):
    p = request.getfixturevalue(f"{edge}_pot")
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    floor = _floor_of_run(c, 6.0, monkeypatch)
    assert abs(floor - graph_spectrum(c, RationalFlux(1, 3), None, 6.0).z_min) \
        <= EDGE_TOL_Z


@pytest.mark.parametrize("z_min", [None, -5.0])
def test_run_all_makes_one_dirichlet_solve(step_pot, monkeypatch, z_min):
    # the floor reads mu_0 from the solve sign alternation reads; a given
    # z_min needs no floor at all
    if z_min is not None:
        def refuse(*args, **kwargs):
            raise AssertionError("floor computed although z_min was given")
        monkeypatch.setattr(validation, "lowest_window_edge", refuse)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    _clear_edge_caches()
    validation.run_all(c, RationalFlux(8, 21), z_min, 40.0)
    assert dirichlet_eigenvalues.cache_info().misses == 1


@pytest.mark.parametrize("edge", ["step", "free"])
def test_sign_alternation_reads_one_solve(request, edge):
    # z_max 400 reads the record of bucket 31, mu_0..mu_31, which spans the
    # Dirichlet solves of the three buckets 7, 15 and 31; the check reads
    # every value of it
    p = request.getfixturevalue(f"{edge}_pot")
    c = CouplingParams(alpha=0.0, beta=1.3, potential=p)
    _, one, _ = pole_record(c, 400.0)
    per_k = np.array([(1.0 + c.beta**2) * dirichlet_eigenvalues(p, round_up_index(k)).nus[k]
                      for k in range(32)])
    assert one.shape == (32,)
    assert np.all(np.abs(one - per_k) <= 1e-9 * np.abs(per_k))
    margin = (-1.0) ** np.arange(32) * per_k + c.threshold
    r = validation.check_sign_alternation(c, 400.0)
    assert r.passed
    assert r.defect == pytest.approx(float(np.max(margin)) / c.threshold, abs=1e-9)


def test_sign_alternation_reports_the_signed_margin(step_pot):
    # the defect is max_k (-1)^k eta(mu_k) + 2(1+beta^2) over the record,
    # relative to 2(1+beta^2) = 4, negative where the bound holds with room,
    # so it tells records apart: on the step edge the worst is at k = 7 up
    # to z_max 40 and at k = 31 up to 400
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    defects = []
    for z_max in (40.0, 400.0):
        _, etas, _ = pole_record(c, z_max)
        margin = (-1.0) ** np.arange(etas.size) * etas + c.threshold
        r = validation.check_sign_alternation(c, z_max)
        assert r.passed and r.defect == float(np.max(margin)) / c.threshold < 0.0
        defects.append(r.defect)
    assert defects[0] == pytest.approx(-5.972e-4 / 4.0, rel=1e-3)
    assert defects[1] == pytest.approx(-1.071e-8 / 4.0, rel=1e-3)


def _flipped_check(c, k, monkeypatch):
    """sign_alternation at z_max 400 with eta(mu_k) flipped in the record."""
    def flipped(c, z):
        mus, etas, du2s = pole_record(c, z)
        etas = etas.copy()
        etas[k] = -etas[k]
        return mus, etas, du2s

    monkeypatch.setattr(validation, "pole_record", flipped)
    r = validation.check_sign_alternation(c, 400.0)
    assert not r.passed
    # (-1)^k (-eta(mu_k)) + threshold = (-1)^(k+1) eta(mu_k) + threshold
    assert r.defect == ((-1) ** (k + 1) * pole_record(c, 400.0)[1][k]
                        + c.threshold) / c.threshold
    return r


def test_sign_alternation_sees_a_late_violation(step_pot, monkeypatch):
    _flipped_check(CouplingParams(alpha=0.0, beta=1.0, potential=step_pot), 13, monkeypatch)


def test_sign_alternation_reads_the_whole_record(free_pot, monkeypatch):
    # at z_max 400 the scan reads mu_0..mu_19 and the record holds mu_0..mu_31;
    # a flipped eta(mu_15), past mu_10 where a k_max of 10 stopped, must fail,
    # in validate's run as in the check alone
    c = CouplingParams(alpha=0.0, beta=1.0, potential=free_pot)
    r = _flipped_check(c, 15, monkeypatch)
    assert r in validation.run_all(c, RationalFlux(1, 3), None, 400.0)


def test_sign_alternation_relative_at_large_beta():
    # V = 0, 10, 0 on thirds of [0, pi] is mirror-symmetric, so every mu_k
    # sits on the threshold and the margin is eta(mu_k)'s rounding, which
    # scales with 2(1+beta^2): 3.4e-5 at beta = 1e5 failed the absolute
    # 1e-6, and is 1.7e-15 of the threshold
    p = make_potential({"l": np.pi, "potential": {
        "kind": "piecewise_constant", "values": [0.0, 10.0, 0.0],
        "breakpoints": [0.0, np.pi / 3, 2 * np.pi / 3, np.pi]}})
    r = validation.check_sign_alternation(
        CouplingParams(alpha=1.0, beta=1e5, potential=p), 40.0)
    assert r.passed and abs(r.defect) < 1e-14


@pytest.mark.parametrize("flux,beta", [(RationalFlux(13, 34), 1e3), (RationalFlux(1, 3), 1e4)])
def test_torus_containment_relative_at_large_beta(flux, beta):
    # the distance of a torus eigenvalue from the bands is rounding of the
    # order of 2(1+beta^2): 5.4e-9 at 13/34, beta = 1e3 and 1.6e-7 at 1/3,
    # beta = 1e4 failed the absolute 1e-9, and are 2.7e-15 and 8.2e-16 of it
    r = validation.check_torus_containment(harper_spectrum(flux, beta))
    assert r.passed and r.defect < 1e-14


def _kp_result(c):
    (r,) = [r for r in validation.run_all(c, RationalFlux(1, 3), None, 40.0)
            if r.name == "kp_trace_identity"]
    return r


def test_kp_identity_relative_to_its_terms(free_pot, monkeypatch):
    # from the default floor at alpha = -15, beta = 0.5 eta's terms reach
    # 2e8, where their rounding alone read 2.2e-8 against the absolute 1e-8;
    # measured against the terms it is rounding, and a trace off by 1e-7
    # relative still fails
    c = CouplingParams(alpha=-15.0, beta=0.5, potential=free_pot)
    r = _kp_result(c)
    assert r.passed and r.defect < 1e-14
    trace = validation.kp_trace_many
    monkeypatch.setattr(validation, "kp_trace_many",
                        lambda *args: trace(*args) * (1.0 + 1e-7))
    assert not _kp_result(c).passed


def test_run_all_rejects_z_max_below_spectrum(free_pot):
    c = CouplingParams(alpha=1.0, beta=1.0, potential=free_pot)
    with pytest.raises(ConfigError, match="below the lowest band window"):
        validation.run_all(c, RationalFlux(1, 3), None, -50.0)
    with pytest.raises(ConfigError, match="invalid scan range"):
        validation.run_all(c, RationalFlux(1, 3), 5.0, 1.0)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(step_pot):
    # a rename in the package would leave the benchmark tracing nothing there,
    # and a changed property list would break the validate-fib gate
    tracer = _tracer()
    missing = [f"{m}.{name}" for m, name, _ in tracer.layer_targets()
               if not hasattr(importlib.import_module(f"fluxlattice.{m}"), name)]
    assert missing == []
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    names = tuple(r.name for r in validation.run_all(c, RationalFlux(1, 3), None, 40.0))
    assert names == tracer.VALIDATION_PROPERTIES
