import numpy as np
import pytest

from fluxlattice import (ConfigError, CouplingParams, FieldSample, Potential, RationalFlux,
                         dirichlet_eigenvalues, flux_from_field, graph_spectrum,
                         make_potential)
from fluxlattice.discriminant import eta_many

L = np.pi


def value_at(p, t):
    """V(t) at one point, through the array evaluator the pipeline uses."""
    return float(p.values_on(np.asarray([t]))[0])


def test_make_zero():
    p = make_potential({"l": L, "potential": {"kind": "zero"}})
    assert p.kind == "zero" and p.l == L
    assert (p.breakpoints, p.values) == ((0.0, L), (0.0,))


def test_make_constant():
    p = make_potential({"l": L, "potential": {"kind": "constant", "c": 5}})
    assert value_at(p, 0.3) == 5.0
    assert (p.breakpoints, p.values) == ((0.0, L), (5.0,))


def test_make_step():
    p = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0, L / 2, L], "values": [0, 10]}})
    assert p.breakpoints == (0.0, L / 2, L)


@pytest.mark.parametrize("spelling, c", [({"kind": "zero"}, 0.0),
                                         ({"kind": "constant", "c": 5.0}, 5.0)],
                         ids=["zero", "const5"])
def test_one_segment_spellings_agree_bit_for_bit(spelling, c):
    # zero and constant are stored as the one-segment piecewise potential, so
    # the two spellings differ in kind only, and every result is bit-identical
    own = make_potential({"l": L, "potential": spelling})
    one = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0.0, L], "values": [c]}})
    assert own.kind != one.kind
    assert dirichlet_eigenvalues(own, 8) == dirichlet_eigenvalues(one, 8)
    z = np.linspace(c - 10.0, c + 60.0, 71)
    ca, cb = (CouplingParams(alpha=1.0, beta=1.3, potential=p) for p in (own, one))
    assert np.array_equal(eta_many(ca, z), eta_many(cb, z))
    for flux in (RationalFlux(0, 1), RationalFlux(2, 5)):
        sa, sb = (graph_spectrum(x, flux, None, c + 30.0) for x in (ca, cb))
        assert (sa.z_min, sa.point_spectrum, sa.continuous) == \
            (sb.z_min, sb.point_spectrum, sb.continuous)


def test_missing_l():
    with pytest.raises(ConfigError, match="l"):
        make_potential({"potential": {"kind": "zero"}})


def test_missing_constant_value():
    with pytest.raises(ConfigError, match="potential.c"):
        make_potential({"l": 1.0, "potential": {"kind": "constant"}})


def test_nonfinite_constant_value():
    # the one segment's value is checked as potential.values, but the config
    # spells it c, so the error names c
    with pytest.raises(ConfigError, match=r"^potential\.c must be finite$"):
        make_potential({"l": 1.0, "potential": {"kind": "constant", "c": float("inf")}})


def test_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        make_potential({"l": 1.0, "potential": {"kind": "quartic"}})


def test_nonincreasing_breakpoints():
    with pytest.raises(ConfigError, match="increasing"):
        make_potential({"l": 1.0, "potential": {
            "kind": "piecewise_constant", "breakpoints": [0, 0.8, 0.5, 1.0],
            "values": [1, 2, 3]}})


def test_breakpoints_must_span():
    with pytest.raises(ConfigError):
        make_potential({"l": 1.0, "potential": {
            "kind": "piecewise_constant", "breakpoints": [0.1, 1.0], "values": [2]}})


def test_sampled_needs_two_nodes():
    with pytest.raises(ConfigError):
        make_potential({"l": 1.0, "potential": {
            "kind": "sampled", "grid": [0.0], "values": [1.0]}})


def test_negative_length():
    with pytest.raises(ConfigError):
        Potential(l=-1.0, kind="zero")


def test_evaluate_zero():
    p = make_potential({"l": L, "potential": {"kind": "zero"}})
    assert value_at(p, 1.0) == 0.0


def test_evaluate_step_right_continuous():
    p = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0, L / 2, L], "values": [0, 10]}})
    assert value_at(p, L / 2) == 10.0
    assert value_at(p, np.nextafter(L / 2, 0)) == 0.0
    assert value_at(p, L) == 10.0


def test_evaluate_matches_nodes_exactly():
    grid = np.linspace(0.0, L, 33)
    vals = np.sin(grid) + 0.25 * grid
    p = make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": list(grid), "values": list(vals)}})
    for t, v in zip(grid, vals):
        assert value_at(p, t) == pytest.approx(v, abs=0.0, rel=1e-15)


def test_infimum_and_supremum():
    # exact for both kinds: a piecewise V takes its values, a sampled V
    # interpolates linearly between its nodes
    p = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0, 1, L / 2, L], "values": [3, -2, 10]}})
    assert (p.infimum(), p.supremum()) == (-2.0, 10.0)
    grid = np.linspace(0.0, L, 33)
    p = make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": list(grid), "values": list(np.cos(3.0 * grid))}})
    between = p.values_on(np.linspace(0.0, L, 4001))
    assert p.infimum() == min(np.cos(3.0 * grid)) <= between.min()
    assert p.supremum() == max(np.cos(3.0 * grid)) >= between.max()


def _uniform_field(fn, n=101):
    g = np.linspace(0.0, L, n)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return FieldSample(grid_x=g, grid_y=g, values=fn(xx, yy))


def test_flux_constant_field():
    theta = flux_from_field(_uniform_field(lambda x, y: np.full_like(x, 2 * np.pi / L**2)), L)
    assert theta == pytest.approx(1.0, abs=1e-12)


def test_flux_zero_field():
    assert flux_from_field(_uniform_field(lambda x, y: np.zeros_like(x)), L) == 0.0


def test_flux_zero_mean_sine():
    theta = flux_from_field(_uniform_field(lambda x, y: np.sin(2 * np.pi * x / L)), L)
    assert abs(theta) < 1e-10


def test_flux_linear_in_field():
    rng = np.random.default_rng(7)
    g = np.linspace(0.0, L, 21)
    b1 = rng.normal(size=(21, 21))
    b2 = rng.normal(size=(21, 21))
    f = lambda v: flux_from_field(FieldSample(grid_x=g, grid_y=g, values=v), L)
    assert f(b1 + b2) == pytest.approx(f(b1) + f(b2), abs=1e-12)


def test_field_validation():
    g = np.linspace(0.0, L, 5)
    with pytest.raises(ConfigError):
        FieldSample(grid_x=g[:1], grid_y=g, values=np.zeros((1, 5)))
    with pytest.raises(ConfigError):
        FieldSample(grid_x=g, grid_y=g, values=np.zeros((4, 5)))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ConfigError):
        FieldSample(grid_x=g, grid_y=g, values=bad)
    nonuniform = np.array([0.0, 0.1, 0.5, 2.0, L])
    with pytest.raises(ConfigError, match="uniform"):
        FieldSample(grid_x=nonuniform, grid_y=g, values=np.zeros((5, 5)))


def test_field_must_span_cell():
    g_short = np.linspace(0.0, L / 2, 11)
    g = np.linspace(0.0, L, 11)
    with pytest.raises(ConfigError, match="span"):
        flux_from_field(FieldSample(grid_x=g_short, grid_y=g, values=np.zeros((11, 11))), L)


def test_potential_hashable_and_frozen():
    p = make_potential({"l": L, "potential": {"kind": "constant", "c": 2.0}})
    q = make_potential({"l": L, "potential": {"kind": "constant", "c": 2.0}})
    assert hash(p) == hash(q) and p == q
    with pytest.raises(AttributeError):
        p.l = 2.0
