"""Self-tests of the benchmark harness: python3 -m pytest bench/tests -q"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fluxlattice  # noqa: E402
from fluxlattice import CouplingParams, make_potential  # noqa: E402
# cli and validation load here so that every namespace the tracer patches exists
from fluxlattice import cli, discriminant, edge_solver, harper, validation  # noqa: E402,F401
from fluxlattice.errors import ConsistencyError  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import VALIDATION_PROPERTIES, Tracer, layer_metrics, layer_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _package_functions():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name.startswith("fluxlattice") and mod is not None
            for attr, val in vars(mod).items() if callable(val)}


def _step(height=10.0):
    return make_potential({"l": np.pi, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0.0, np.pi / 2, np.pi],
        "values": [0.0, height]}})


def test_wrappers_restored_after_run_and_after_error():
    before = _package_functions()
    with Tracer() as tr:
        assert discriminant._basis_many is not before[("fluxlattice.edge_solver", "_basis_many")]
        assert discriminant._basis_many is edge_solver._basis_many
        assert fluxlattice.harper_spectrum is harper.harper_spectrum
        harper.harper_spectrum(harper.make_rational(1, 3), 1.0)
    assert not tr.missing
    assert _package_functions() == before
    with pytest.raises(ConsistencyError):
        with Tracer():
            harper.harper_spectrum(harper.make_rational(1, 31), 1.0)
    assert _package_functions() == before


def test_tiny_workload_counts_match_hand_count():
    c = CouplingParams(alpha=1.0, beta=1.0, potential=_step())
    with Tracer() as tr:
        discriminant.eta_many(c, np.array([1.0, 2.0, 3.0]))
        edge_solver._basis_many(c.potential, np.array([5.0, 6.0]))
        harper.harper_spectrum(harper.make_rational(1, 3), 1.0)
        with pytest.raises(ConsistencyError):
            harper.harper_spectrum(harper.make_rational(1, 31), 1.0)
    m = layer_metrics(tr.spans)
    # eta_many -> _basis_many (3 points), _basis_many (2 points), 2 x harper
    assert m["trace.spans"] == 5
    assert m["discriminant.eta_calls"] == 1
    assert m["discriminant.eta_points"] == 3
    assert m["edge_solver.basis_calls"] == 2
    assert m["edge_solver.basis_points"] == 5
    assert m["edge_solver.basis_batch_mean"] == 2.5
    assert m["edge_solver.steps"] == 2 * 5          # two segments per point
    assert m["harper.spectrum_calls"] == 2
    assert m["harper.failures"] == 1
    assert m["harper.spectrum_q01_10_s"] > 0 and m["harper.spectrum_q31_50_s"] > 0
    assert m["harper.spectrum_q11_30_s"] == 0
    assert m["harper.spectrum_beta_le1_s"] == pytest.approx(m["harper.spectrum_s"])
    assert m["harper.spectrum_beta_gt1_s"] == 0
    eta, basis = tr.spans[0], tr.spans[1]
    assert basis[3] == 0 and eta[3] == -1            # parent links
    # the parent is charged the child's whole wrapper, inside its own span
    assert basis[2] - basis[1] <= eta[4] <= eta[2] - eta[1]
    assert m["discriminant.self_s"] == pytest.approx((eta[2] - eta[1]) - eta[4])


def test_sampled_steps_follow_the_rk4_rule():
    grid = np.linspace(0.0, np.pi, 9)
    p = make_potential({"l": np.pi, "potential": {
        "kind": "sampled", "grid": list(grid), "values": list(np.cos(grid))}})
    with Tracer() as tr:
        edge_solver._basis_many(p, np.array([1.0, 2.0]), 16)
    assert layer_metrics(tr.spans)["edge_solver.steps"] == 32


def test_metric_names_are_plain_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(layer_metrics([])) | {"trace.wall_s", "trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "setup_s", "peak_rss_mb", "pass_frac"}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in per_layer | e2e | set(WORKLOADS):
        assert NAME_RE.match(name), name


def test_every_traced_function_exists():
    import importlib
    for mod, fn, _ in layer_targets():
        assert callable(getattr(importlib.import_module(f"fluxlattice.{mod}"), fn)), (mod, fn)


def test_seed_zero_is_the_reference_input_and_seeds_are_deterministic():
    for wl in WORKLOADS.values():
        assert wl.inputs(7) == wl.inputs(7)
        assert wl.inputs(7) != wl.inputs(0)
        ref = run.load_reference(wl.name)
        assert (ref is not None) == (wl.compare is not None), wl.name
        if ref is not None:
            assert ref["inputs"] == run._round(json.loads(json.dumps(wl.inputs(0))))


def test_known_failures_are_in_their_workloads():
    wl = WORKLOADS["harper-weak"]
    names = {name for name, _, _ in wl.prepare(wl.inputs(0), None)["calls"]}
    assert len(names) == 158 and set(wl.known_failures) <= names
    wl = WORKLOADS["validate-fib"]
    props = {f"{theta}:{prop}" for theta in wl.inputs(0)["fluxes"]
             for prop in VALIDATION_PROPERTIES}
    assert set(wl.known_failures) <= props


def test_gate_rejects_a_wrong_harper_band():
    wl = WORKLOADS["harper-weak"]
    bands = [list(b) for b in harper.harper_spectrum(harper.make_rational(1, 3), 1.0).bands]
    assert wl._check(1, 3, 1.0, bands)[0] == "ok"
    bands[1][0] += 1e-6
    assert wl._check(1, 3, 1.0, bands)[0] == "wrong"


def test_gate_rejects_a_shifted_butterfly_endpoint():
    wl = WORKLOADS["butterfly-step"]
    inputs = wl.inputs(0)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=_step())
    w = discriminant.band_windows(c, -1.0, 10.0)[0]
    bands = harper.harper_spectrum(harper.make_rational(1, 2), 1.0).bands
    z = discriminant.invert_eta_many(w, np.asarray(bands[0]))
    row = [[float(min(z)), float(max(z)), False]]
    assert wl._check(1, 2, row, inputs, -2.0, 40.0)[0] == "ok"
    row[0][1] += 1e-4
    assert wl._check(1, 2, row, inputs, -2.0, 40.0)[0] == "wrong"


def test_step_eta_matches_the_package():
    c = CouplingParams(alpha=1.0, beta=1.0, potential=_step(7.0))
    z = np.array([-3.0, 0.5, 7.0, 12.0, 39.0])
    np.testing.assert_allclose(oracles.step_eta(z, 7.0, 1.0, 1.0),
                               discriminant.eta_many(c, z), rtol=1e-10, atol=1e-10)
