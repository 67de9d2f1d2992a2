from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (ConsistencyError, IntegrationOverflowError, dirichlet_eigenvalues,
                         edge_solver, make_potential)
from fluxlattice.edge_solver import _basis_many, _count_below_many
from oracles import fd_dirichlet, free_basis, linear_basis

L = np.pi

# Mathieu reference eigenvalues (high-order shooting, rtol 1e-13) for
# V = 10 cos(2t) on [0, pi]; representation error of the 4096-cell sampled
# fixture is ~2e-6.
MATHIEU_MU = [-5.7900805986377115, 2.0994604454867347, 9.236327713694054,
              16.648219937169863, 25.51081604630306, 36.35886684802971]


def basis_at(p, z):
    """(u1, du1, u2, du2) at t = l for one z, through the batched kernel."""
    return tuple(float(v[0]) for v in _basis_many(p, np.asarray([z])))


def wronskian_defect(p, z):
    """|u1' u2 - u1 u2' - 1| at t = l, and the solution scale max(1, |u1' u2|)."""
    u1, du1, u2, du2 = basis_at(p, z)
    return abs(du1 * u2 - u1 * du2 - 1.0), max(1.0, abs(du1 * u2))


def test_free_basis_z1(free_pot):
    u1, du1, u2, du2 = basis_at(free_pot, 1.0)
    assert u1 == pytest.approx(0.0, abs=1e-12)
    assert du1 == pytest.approx(-1.0, rel=1e-9)
    assert u2 == pytest.approx(-1.0, rel=1e-9)
    assert du2 == pytest.approx(0.0, abs=1e-12)


def test_free_basis_quarter(free_pot):
    u1, du1, u2, du2 = basis_at(free_pot, 0.25)
    assert u1 == pytest.approx(2.0, rel=1e-9)
    assert du1 == pytest.approx(0.0, abs=1e-12)
    assert u2 == pytest.approx(0.0, abs=1e-12)
    assert du2 == pytest.approx(-0.5, rel=1e-9)


def test_free_basis_hyperbolic(free_pot):
    u1, _, u2, _ = basis_at(free_pot, -1.0)
    assert u1 == pytest.approx(np.sinh(np.pi), rel=1e-9)
    assert u2 == pytest.approx(np.cosh(np.pi), rel=1e-9)


def test_free_basis_z0(free_pot):
    u1, du1, u2, _ = basis_at(free_pot, 0.0)
    assert u1 == pytest.approx(np.pi, rel=1e-12)
    assert du1 == pytest.approx(1.0, rel=1e-12)
    assert u2 == pytest.approx(1.0, rel=1e-12)


def test_free_closed_forms_over_range(free_pot):
    for z in np.linspace(-5.0, 110.0, 47):
        got = basis_at(free_pot, float(z))
        for g, ref in zip(got, free_basis(float(z))):
            assert g == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_linear_cells_against_airy(linear_pot):
    # the sampled path against an exact answer: V = t is represented exactly
    # by two-node interpolation, so only the error of the Magnus cells shows
    zs = np.linspace(-10.0, 120.0, 53)
    got = _basis_many(linear_pot, zs)
    for i, z in enumerate(zs):
        for g, ref in zip((x[i] for x in got), linear_basis(float(z))):
            assert abs(g - ref) <= 1e-11 * max(1.0, abs(ref)), (z, g, ref)


def test_sampled_basis_does_not_depend_on_batch(mathieu_pot):
    # the cells are fixed by the potential, not by the batch's z
    zs = np.linspace(-5.0, 1e4, 66)
    batch = _basis_many(mathieu_pot, zs)
    for i in range(len(zs)):
        assert [x[i] for x in batch] == [x[0] for x in _basis_many(mathieu_pot, zs[i:i + 1])]


def test_blocked_product_matches_a_walk_over_the_cells():
    # 3001 sample cells fill 46 blocks of 64 and part of a 47th; the blocked
    # product against the walk over the same cells, one at a time
    grid = np.linspace(0.0, L, 3002)
    p = make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": list(grid), "values": list(5.0 * np.sin(3.0 * grid))}})
    zs = np.array([-20.0, 0.5, 7.0, 300.0])
    u, du = np.stack([np.zeros_like(zs), np.ones_like(zs)]), np.stack([np.ones_like(zs), np.zeros_like(zs)])
    for vbar, e, h in zip(*edge_solver._cells(p)):
        w = np.sqrt(zs - vbar - e * e + 0j)
        C, S = np.cos(w * h).real, (np.sin(w * h) / w).real
        u, du = (C + e * S) * u + S * du, (C - e * S) * du - (zs - vbar) * S * u
    for got, ref in zip(_basis_many(p, zs), (u[0], du[0], u[1], du[1])):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("fixture", ["free_pot", "const5_pot", "step_pot", "linear_pot",
                                     "linear65_pot", "mathieu_pot"])
def test_dirichlet_prefix_does_not_depend_on_k_max(fixture, request):
    # the whole record of mu_0 .. mu_7, tolerances included, whatever the
    # other brackets need
    p = request.getfixturevalue(fixture)
    fields = ("eigenvalues", "tolerances", "nus", "du2s")
    head = dirichlet_eigenvalues(p, 7)
    for k_max in (15, 63):
        spec = dirichlet_eigenvalues(p, k_max)
        assert [getattr(spec, f)[:8] for f in fields] == [getattr(head, f) for f in fields]


@settings(max_examples=40)
@given(l=st.sampled_from([0.7, L, 5.0]), sampled=st.booleans(),
       cuts=st.lists(st.floats(0.02, 0.98), min_size=0, max_size=6, unique=True),
       values=st.lists(st.floats(-60.0, 60.0), min_size=8, max_size=8),
       k_max=st.integers(0, 31))
def test_dirichlet_within_the_min_max_bounds(l, sampled, cuts, values, k_max):
    # (k+1)^2 s + inf V <= mu_k <= (k+1)^2 s + sup V with s = (pi / l)^2, and
    # the count confirms the brackets moved out by one s that the solve takes
    nodes = [0.0, *(l * c for c in sorted(cuts)), l]
    if sampled:
        spec = {"kind": "sampled", "grid": nodes, "values": values[:len(nodes)]}
    else:
        spec = {"kind": "piecewise_constant", "breakpoints": nodes,
                "values": values[:len(nodes) - 1]}
    p = make_potential({"l": l, "potential": spec})
    ks = np.arange(k_max + 1)
    s = (np.pi / l) ** 2
    mus = np.asarray(dirichlet_eigenvalues.__wrapped__(p, k_max).eigenvalues)
    slack = 1e-12 * np.maximum(1.0, np.abs(mus))
    assert np.all(mus >= (ks + 1) ** 2 * s + p.infimum() - slack)
    assert np.all(mus <= (ks + 1) ** 2 * s + p.supremum() + slack)
    lo, hi = s * ks * (ks + 2) + p.infimum(), s * ((ks + 1) ** 2 + 1) + p.supremum()
    c_lo, c_hi = _count_below_many(p, np.stack([lo, hi]))
    assert np.all(c_lo <= ks) and np.all(c_hi >= ks + 1)


def test_dirichlet_count_against_the_min_max_bracket_is_a_consistency_error(step_pot, monkeypatch):
    # a count of 0 at every upper bracket end contradicts the theorem
    monkeypatch.setattr(edge_solver, "_count_below_many",
                        lambda p, z: np.zeros(np.shape(z), dtype=int))
    with pytest.raises(ConsistencyError, match="mu_0"):
        dirichlet_eigenvalues.__wrapped__(step_pot, 3)


@pytest.mark.parametrize("fixture", ["free_pot", "step_pot", "linear65_pot", "mathieu_pot",
                                     "deep_well_pot"])
def test_dirichlet_counts_only_to_isolate(fixture, request, monkeypatch):
    # the count brackets and isolates each mu_k; the root itself is the
    # solver's, so the count sees a few points per mu_k, not a bisection's 26
    p = request.getfixturevalue(fixture)
    points = []

    def counted(p, z):
        points.append(np.size(z))
        return _count_below_many(p, z)

    monkeypatch.setattr(edge_solver, "_count_below_many", counted)
    dirichlet_eigenvalues.__wrapped__(p, 15)
    assert sum(points) <= 16 * 16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dirichlet_deep_well_stays_above_the_infimum(deep_well_pot):
    # every mu_k lies in the well, where a bracket reaching below inf V
    # would propagate far below the spectrum
    mus = dirichlet_eigenvalues.__wrapped__(deep_well_pot, 3).eigenvalues
    # the well's levels, (k+1)^2 pi^2 above its floor but for the barrier's leak
    assert np.allclose(mus, [-49990.21808619983, -49960.87237889544,
                             -49911.96298046487, -49843.49006183757], rtol=0, atol=1e-8)



@pytest.mark.parametrize("fixture", ["free_pot", "const5_pot", "step_pot",
                                     "mathieu_pot", "linear_pot"])
def test_wronskian_defect_all_kinds(fixture, request):
    # absolute bound from one below min(0, inf V) upward; relative bound
    # further down where the solutions grow beyond float64's absolute
    # resolution of the 1e-8 target
    p = request.getfixturevalue(fixture)
    floor = min(0.0, p.infimum()) - 1.0
    for z in np.linspace(floor, 120.0, 40):
        defect, scale = wronskian_defect(p, float(z))
        if scale < 1e6:
            assert defect < 1e-8
        assert defect / scale < 1e-12
    for z in np.linspace(floor - 20.0, floor, 9):
        defect, scale = wronskian_defect(p, float(z))
        assert defect / scale < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard(free_pot):
    with pytest.raises(IntegrationOverflowError, match="rescale"):
        _basis_many(free_pot, np.asarray([-1e7]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_overflow_guard(free_pot):
    with pytest.raises(IntegrationOverflowError, match="rescale"):
        _count_below_many(free_pot, np.asarray([-1e7]))


def test_dirichlet_free(free_pot):
    spec = dirichlet_eigenvalues(free_pot, 2)
    assert np.allclose(spec.eigenvalues, [1.0, 4.0, 9.0], atol=1e-10)


def test_dirichlet_constant_shift(const5_pot):
    spec = dirichlet_eigenvalues(const5_pot, 1)
    assert np.allclose(spec.eigenvalues, [6.0, 9.0], atol=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("c, l", [(0.0, L), (5.0, L), (-2.7, 0.7)],
                         ids=["free", "const5", "short"])
def test_dirichlet_one_segment_correctly_rounded(c, l):
    # mu_k = c + ((k+1) pi / l)^2, with pi = fl(pi) + (pi - fl(pi)) exact as a
    # fraction.  In double, u1(l; .) hides a few ulps of z, so Newton alone
    # read mu_0 on the free edge as 1.0 or 1.0000000000000002 by the side the
    # count bisection came from; the long double step ends on the nearest double
    pi = Fraction(L) + Fraction(1.2246467991473532e-16)
    exact = [float(Fraction(c) + ((k + 1) * pi / Fraction(l)) ** 2) for k in range(13)]
    p = make_potential({"l": l, "potential": {"kind": "constant", "c": c}})
    assert dirichlet_eigenvalues(p, 12).eigenvalues == tuple(exact)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than double on this platform")
@settings(max_examples=40)
@given(l=st.sampled_from([0.7, L, 5.0]),
       cuts=st.lists(st.floats(0.02, 0.98), min_size=0, max_size=4, unique=True),
       values=st.lists(st.floats(-60.0, 60.0), min_size=5, max_size=5),
       k_max=st.integers(0, 31))
def test_dirichlet_piecewise_on_a_long_double_sign_change(l, cuts, values, k_max):
    # every mu_k lies within 2 eps max(1, |mu_k|) of a sign change of u1(l; .)
    # computed in long double, on edges of up to five segments
    bp = [0.0, *(l * c for c in sorted(cuts)), l]
    p = make_potential({"l": l, "potential": {
        "kind": "piecewise_constant", "breakpoints": bp, "values": values[:len(bp) - 1]}})
    mus = np.asarray(dirichlet_eigenvalues.__wrapped__(p, k_max).eigenvalues, dtype=np.longdouble)
    reach = 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(mus))
    below, above = _basis_many(p, np.stack([mus - reach, mus + reach]))[0]
    assert np.all(np.sign(below) * np.sign(above) <= 0)


def test_dirichlet_mathieu_vs_fd_oracle(mathieu_pot):
    fd = fd_dirichlet(lambda t: 10.0 * np.cos(2.0 * t), L, 2000, 4)
    spec = dirichlet_eigenvalues(mathieu_pot, 3)
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - fd)) < 1e-4


def test_dirichlet_mathieu_vs_shooting_reference(mathieu_pot):
    spec = dirichlet_eigenvalues(mathieu_pot, 5)
    # dominated by the 4096-cell linear-interpolation representation error
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - MATHIEU_MU)) < 5e-6


def test_dirichlet_increasing_with_tolerances(mathieu_pot):
    spec = dirichlet_eigenvalues(mathieu_pot, 5)
    assert all(b > a for a, b in zip(spec.eigenvalues, spec.eigenvalues[1:]))
    assert len(spec.tolerances) == 6
    assert all(t < 1e-8 for t in spec.tolerances)


@pytest.mark.parametrize("fixture", ["free_pot", "step_pot", "mathieu_pot", "linear_pot"])
def test_prufer_count_at_midpoints(fixture, request):
    p = request.getfixturevalue(fixture)
    spec = dirichlet_eigenvalues(p, 6)
    mus = spec.eigenvalues
    for k in range(5):
        mid = 0.5 * (mus[k] + mus[k + 1])
        assert _count_below_many(p, np.asarray([mid]))[0] == k + 1


@settings(max_examples=60)
@given(cuts=st.lists(st.floats(0.05, L - 0.05), min_size=0, max_size=4, unique=True),
       values=st.lists(st.floats(-30.0, 30.0), min_size=5, max_size=5))
def test_prufer_count_piecewise_vs_fd(cuts, values):
    # up to five segments, so the count mixes phase-advance cells (z above V)
    # and sign-change cells (z below V) along one edge
    bp = [0.0, *sorted(cuts), L]
    p = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": bp, "values": values[:len(bp) - 1]}})
    # V averaged over each finite-difference cell: sampled at the nodes, an
    # off-grid jump J would shift the reference by O(J h), up to ~1e-2 here
    h = L / 4001
    offsets = ((np.arange(64) + 0.5) / 64 - 0.5) * h
    fd = fd_dirichlet(lambda t: p.values_on(t[:, None] + offsets).mean(axis=1), L, 4000, 8)
    probes = np.concatenate([[fd[0] - 1.0], 0.5 * (fd[:-1] + fd[1:])])
    assert list(_count_below_many(p, probes)) == list(range(8))
    spec = dirichlet_eigenvalues(p, 7)
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - fd)) < 1e-2


def test_prufer_count_below_ground(free_pot):
    assert list(_count_below_many(free_pot, np.asarray([0.5, -3.0]))) == [0, 0]


@pytest.mark.parametrize("breakpoints, values, zs", [
    ([0.0, L / 2, L], [0.0, 10.0], [(2.0 * m) ** 2 for m in range(1, 21)]),
    ([0.0, 1.0, 2.0, L], [-2.0, 3.0, 7.0], [-2.0 + (m * np.pi) ** 2 for m in range(1, 15)]),
], ids=["step", "three_segments"])
def test_prufer_count_with_a_zero_on_a_breakpoint(breakpoints, values, zs):
    # at these z the first segment holds a whole number of half-waves, so u1
    # vanishes on its right end up to rounding; that zero must be counted in
    # one cell only, not once by the exact phase advance of the first cell
    # and again by the state the second cell starts from
    p = make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": breakpoints, "values": values}})
    mus = dirichlet_eigenvalues(p, 50).eigenvalues
    assert mus[-1] > max(zs)
    expected = [int(np.searchsorted(mus, z)) for z in zs]
    assert list(_count_below_many(p, np.asarray(zs))) == expected
