import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (ConsistencyError, CouplingParams, DomainError, RationalFlux,
                         band_windows, discriminant, dirichlet_eigenvalues, gap_report, graph_spectrum, invert_eta_many, make_potential)
from fluxlattice.discriminant import (EDGE_TOL_Z, _solve_batch, eta_many,
                                      lowest_window_edge, pole_record)
from oracles import free_basis, free_eta, linear_basis, step_basis

L = np.pi
INVERT_RESIDUAL = 1e-9  # relative residual |eta - y| / (1 + |y|) an inversion meets

# closed-form bisection on free_eta (dev oracle): first window edges
ALPHA_PLUS2_WINDOW0 = (0.25, 1.0)                    # alpha=+2: eta(1/4)=+4, touches mu_0
ALPHA_MINUS2_WINDOW0 = (-0.4217519166920148, 0.25)   # alpha=-2: hyperbolic lower edge


def test_eta_free_at_zero(free_coupling):
    assert eta_many(free_coupling, [0.0])[0] == pytest.approx(4.0, rel=1e-12)


def test_eta_free_quarter(free_coupling):
    assert eta_many(free_coupling, [0.25])[0] == pytest.approx(0.0, abs=1e-12)


def test_eta_with_alpha(free_pot):
    c = CouplingParams(alpha=3.0, beta=1.0, potential=free_pot)
    assert eta_many(c, [0.0])[0] == pytest.approx(4.0 + 3.0 * np.pi, rel=1e-12)


def test_eta_on_pole_free(free_coupling):
    _, etas, _ = pole_record(free_coupling, 4.0)
    assert etas[0] == pytest.approx(-4.0, abs=1e-10)
    assert etas[1] == pytest.approx(4.0, abs=1e-10)


def test_eta_on_pole_mathieu(mathieu_pot):
    # V = 10 cos(2t) is even about l/2, so u1'(l; mu_k) = +-1 and eta(mu_k)
    # equals -+4 exactly; the band touches mu_0 instead of leaving a gap
    c = CouplingParams(alpha=0.0, beta=1.0, potential=mathieu_pot)
    _, etas, _ = pole_record(c, 0.0)
    assert etas[0] == pytest.approx(-4.0, abs=1e-8)
    assert etas[0] <= -4.0 + 1e-8


def test_eta_on_pole_independent_of_alpha(step_pot):
    c0 = CouplingParams(alpha=0.0, beta=1.3, potential=step_pot)
    c7 = CouplingParams(alpha=7.0, beta=1.3, potential=step_pot)
    assert np.array_equal(pole_record(c0, 20.0)[1][:4], pole_record(c7, 20.0)[1][:4])


def test_coupling_validation(free_pot):
    with pytest.raises(Exception, match="beta"):
        CouplingParams(alpha=0.0, beta=-1.0, potential=free_pot)
    with pytest.raises(Exception, match="beta"):
        CouplingParams(alpha=0.0, beta=0.0, potential=free_pot)
    with pytest.raises(Exception, match="alpha"):
        CouplingParams(alpha=np.nan, beta=1.0, potential=free_pot)


def test_windows_free_case(free_coupling):
    ws = band_windows(free_coupling, -1.0, 10.0)
    assert [w.index for w in ws] == [0, 1, 2, 3]
    assert ws[0].a_full == pytest.approx(0.0, abs=1e-9)
    assert ws[0].b_full == 1.0 and ws[1].a_full == 1.0   # clamped exactly at mu_0
    assert ws[1].b_full == 4.0 and ws[2].a_full == 4.0
    assert ws[2].b_full == pytest.approx(9.0, abs=1e-9)
    assert ws[3].b_full > 10.0  # reaches past z_max, whole
    assert [w.increasing for w in ws] == [False, True, False, True]


def test_windows_alpha_plus2(free_pot):
    c = CouplingParams(alpha=2.0, beta=1.0, potential=free_pot)
    ws = band_windows(c, -1.0, 2.0)
    assert ws[0].a_full == pytest.approx(ALPHA_PLUS2_WINDOW0[0], abs=1e-9)
    assert ws[0].b_full == pytest.approx(ALPHA_PLUS2_WINDOW0[1], abs=1e-9)
    # eta stays above +4 on the hyperbolic branch for alpha > 0
    assert free_eta(-0.5, alpha=2.0) > 4.0


def test_windows_alpha_minus2_hyperbolic(free_pot):
    c = CouplingParams(alpha=-2.0, beta=1.0, potential=free_pot)
    ws = band_windows(c, -1.0, 2.0)
    assert ws[0].a_full == pytest.approx(ALPHA_MINUS2_WINDOW0[0], abs=1e-9)
    assert ws[0].a_full < 0.0
    assert ws[0].b_full == pytest.approx(ALPHA_MINUS2_WINDOW0[1], abs=1e-9)
    assert ws[0].b_full < 1.0


def test_windows_empty_inside_gap(linear_pot):
    c = CouplingParams(alpha=0.0, beta=1.0, potential=linear_pot)
    ws = band_windows(c, -1.0, 15.0)
    gap_lo, gap_hi = ws[0].b_full, ws[1].a_full
    assert gap_hi - gap_lo > 0.1  # convex V opens the gap
    pad = 0.25 * (gap_hi - gap_lo)
    assert band_windows(c, gap_lo + pad, gap_hi - pad) == []


def test_window_between_each_eigenvalue_pair(request, step_pot):
    c = CouplingParams(alpha=1.0, beta=1.5, potential=step_pot)
    ws = band_windows(c, -2.0, 60.0)
    mus = dirichlet_eigenvalues(step_pot, 8).eigenvalues
    for w in ws:
        if w.index >= 1:
            assert mus[w.index - 1] <= w.a_full and w.b_full <= mus[w.index]
    # eta rises on window n iff eta(mu_{n-1}) < 0, and falls on window 0,
    # where eta -> +inf below: the parity of n, on every potential kind
    for fixture in ("free_pot", "const5_pot", "step_pot", "linear_pot"):
        c = CouplingParams(alpha=1.0, beta=1.5, potential=request.getfixturevalue(fixture))
        _, etas, _ = pole_record(c, 60.0)
        ws = band_windows(c, None, 60.0)
        assert len(ws) > 5 and not ws[0].increasing
        assert all(w.increasing == (etas[w.index - 1] < 0) for w in ws[1:])


def test_invert_free_window(free_coupling):
    w = band_windows(free_coupling, -1.0, 2.0)[0]
    zs = invert_eta_many(w, [0.0, 4.0, 2.0 * np.sqrt(2.0)])
    assert zs.tolist() == pytest.approx([0.25, 0.0, 1.0 / 16.0], abs=1e-9)


def test_invert_out_of_range(free_coupling):
    w = band_windows(free_coupling, -1.0, 2.0)[0]
    with pytest.raises(DomainError):
        invert_eta_many(w, [4.5])


def test_invert_round_trip(free_pot):
    c = CouplingParams(alpha=1.0, beta=1.2, potential=free_pot)
    rng = np.random.default_rng(11)
    for w in band_windows(c, -2.0, 20.0):
        ys = rng.uniform(-c.threshold, c.threshold, size=50)
        zs = invert_eta_many(w, ys)
        res = np.abs(eta_many(c, zs) - ys)
        assert np.all(res < 1e-9 * (1.0 + np.abs(ys)))


@lru_cache(maxsize=None)
def _step_windows(p, alpha):
    return band_windows(CouplingParams(alpha=alpha, beta=1.0, potential=p), -2.0, 40.0)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.floats(-1.0, 1.0)),
                min_size=1, max_size=40))
def test_batched_inversion_across_windows(step_pot, picks):
    # every target on every window in one call; each pick's window and target
    # against a one-target call, every lane against INVERT_RESIDUAL
    ws = _step_windows(step_pot, 1.0)
    c = ws[0].coupling
    rows = [i % len(ws) for i, _ in picks]
    ys = np.asarray([f * c.threshold for _, f in picks])
    zs = invert_eta_many(ws, ys)
    picked = zs[rows, np.arange(len(ys))]
    alone = np.asarray([invert_eta_many(ws[i], [y])[0] for i, y in zip(rows, ys)])
    assert np.all(np.abs(picked - alone) <= 1e-12 * np.maximum(1.0, np.abs(alone)))
    batch = [ws[i] for i in rows]
    assert np.all(np.abs(eta_many(c, zs) - ys) <= INVERT_RESIDUAL * (1.0 + np.abs(ys)))
    other = _step_windows(step_pot, 2.0)[0]
    with pytest.raises(DomainError, match="coupling"):
        invert_eta_many(batch + [other], np.append(ys, 0.0))


@pytest.mark.parametrize("edge", ["step", "mathieu"])
def test_inversion_is_a_product_of_windows_and_targets(request, edge):
    # z[i, j] solves ys[j] on windows[i], bit for bit the one-target solve:
    # edges of the threshold, interior targets and one within rounding of it
    c = CouplingParams(alpha=1.0, beta=1.0, potential=request.getfixturevalue(f"{edge}_pot"))
    ws = band_windows(c, None, 12.0)
    ys = np.array([-1.0, -0.7, 0.0, 0.3, 1.0 - 1e-15, 1.0]) * c.threshold
    zs = invert_eta_many(ws, ys)
    assert len(ws) >= 2 and zs.shape == (len(ws), len(ys))
    alone = [[invert_eta_many(w, [y])[0] for y in ys] for w in ws]
    assert zs.tolist() == alone


def test_inversion_shape_rule(step_pot):
    # W windows give (W,) + ys.shape, one BandWindow ys.shape, and no
    # windows, as when the range lies inside a gap, (0,) + ys.shape
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    ws = band_windows(c, None, 12.0)
    ys = np.linspace(-0.9, 0.9, 6).reshape(2, 3) * c.threshold
    zs = invert_eta_many(ws, ys)
    assert zs.shape == (len(ws), 2, 3)
    assert invert_eta_many(ws[1], ys).shape == (2, 3)
    assert np.array_equal(invert_eta_many(ws[1], ys), zs[1])
    assert invert_eta_many([ws[1]], ys[0]).shape == (1, 3)
    assert invert_eta_many([], ys[0]).shape == (0, 3)
    assert band_windows(c, 2.2, 5.1) == []  # inside the gap above window 0
    assert invert_eta_many(band_windows(c, 2.2, 5.1), ys[0]).shape == (0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_rejects_nonfinite_target(free_coupling, bad):
    # NaN fails every comparison: a check |y| > threshold and the clip both
    # let it through, and the solve would return a window edge for it
    w = band_windows(free_coupling, None, 10.0)[1]
    with pytest.raises(DomainError, match=f"eta target {bad} outside"):
        invert_eta_many(w, [bad, 0.0])
    with pytest.raises(DomainError, match=f"eta target {bad} outside"):
        invert_eta_many([w], [0.0, bad])


def test_inversion_raises_on_unresolvable_window(free_pot):
    # window 0 at alpha = -200 holds no double strictly inside, so every
    # interior target would come back as an edge; the inversion must say so
    c = CouplingParams(alpha=-200.0, beta=1.0, potential=free_pot)
    w = band_windows(c, None, 10.0)[0]
    assert w.index == 0 and w.b_full - w.a_full <= np.spacing(2500.0)
    with pytest.raises(ConsistencyError, match=r"window 0 missed target -3\.9: "
                       r"relative residual 7\.959e-01, since no double lies"):
        invert_eta_many(w, np.linspace(-3.9, 3.9, 12))


def _oracle_eta(kind, alpha, beta):
    """eta from the closed-form basis of the free, step or linear edge."""
    basis = {"free": free_basis, "step": step_basis, "linear": linear_basis}[kind]

    def eta_at(zs):
        u1, du1, u2, _ = np.array([basis(float(z)) for z in np.ravel(zs)]).T
        return (1.0 + beta**2) * (du1 + u2) + alpha * u1
    return eta_at


def _sign_change_near(f, z, tol):
    return f(np.array([z - tol]))[0] * f(np.array([z + tol]))[0] <= 0.0


@pytest.mark.parametrize("kind, alpha, beta", [("free", -15.0, 0.5), ("free", -25.0, 1.0),
                                               ("step", -15.0, 0.5), ("linear", -15.0, 0.5)])
def test_steep_window_still_inverts(request, kind, alpha, beta):
    # window 0 near z = -36 is about 1e-6 wide and eta is about 1e6 steep
    # there, so no double z meets INVERT_RESIDUAL; each root is still within
    # EDGE_TOL_Z of the answer, where the closed-form eta changes by ~1e-4
    p = request.getfixturevalue(f"{kind}_pot")
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    w, = band_windows(c, None, -30.0)
    assert w.index == 0 and w.b_full - w.a_full < 2e-6
    ys = np.linspace(-0.9, 0.9, 5) * c.threshold
    zs = invert_eta_many(w, ys)
    assert np.all(np.diff(zs) <= 0.0) if not w.increasing else np.all(np.diff(zs) >= 0.0)
    oracle = _oracle_eta(kind, alpha, beta)
    for z, y in zip(zs, ys):
        assert _sign_change_near(lambda zz: oracle(zz) - y, z, EDGE_TOL_Z)


@settings(max_examples=25)
@given(kind=st.sampled_from(["free", "step"]), alpha=st.floats(-5.0, 5.0),
       beta=st.floats(0.5, 2.0),
       picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=12))
def test_solver_certificates_against_closed_forms(free_pot, step_pot, kind, alpha,
                                                  beta, picks):
    # window edges, inversions and bare brackets: each root has a sign change
    # of the closed-form function within EDGE_TOL_Z, each inversion meets
    # INVERT_RESIDUAL in the closed-form eta
    p = free_pot if kind == "free" else step_pot
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    oracle = _oracle_eta(kind, alpha, beta)
    ws = band_windows(c, None, 30.0)
    mus = set(dirichlet_eigenvalues(p, 15).eigenvalues)
    for w in ws:
        for edge in (w.a_full, w.b_full):
            if edge not in mus:  # an edge clamped to mu_k is no root
                assert _sign_change_near(lambda z: np.abs(oracle(z)) - c.threshold,
                                         edge, EDGE_TOL_Z)
    rows = [i % len(ws) for i, _, _, _ in picks]
    batch = [ws[i] for i in rows]
    ys = np.asarray([f * c.threshold for _, _, _, f in picks])
    zs = invert_eta_many(ws, ys)[rows, np.arange(len(ys))]  # each pick's window
    assert np.all(np.abs(oracle(zs) - ys) <= INVERT_RESIDUAL * (1.0 + np.abs(ys)))
    for z, y in zip(zs, ys):
        if abs(y) < c.threshold:  # +-threshold maps to an edge, maybe a touching one
            assert _sign_change_near(lambda zz: oracle(zz) - y, z, EDGE_TOL_Z)
    # bare brackets inside the windows, targets between their end values
    lo = np.array([w.a_full + u * (w.b_full - w.a_full) * 0.999
                   for w, (_, u, _, _) in zip(batch, picks)])
    hi = np.array([l + (w.b_full - l) * max(v, 1e-3)
                   for l, w, (_, _, v, _) in zip(lo, batch, picks)])
    e_lo, e_hi = oracle(lo), oracle(hi)
    t = np.array([0.5 + 0.49 * t for _, _, _, t in picks])
    targets = e_lo + t * (e_hi - e_lo)
    roots = _solve_batch(lambda zz, lanes: oracle(zz) - targets[lanes], lo, hi,
                         e_lo - targets, e_hi - targets)
    for z, y in zip(roots, targets):
        assert _sign_change_near(lambda zz: oracle(zz) - y, z, EDGE_TOL_Z)


def test_linear_window_edges_against_airy(linear_pot):
    from scipy.optimize import brentq
    c = CouplingParams(alpha=1.0, beta=1.0, potential=linear_pot)
    oracle = _oracle_eta("linear", 1.0, 1.0)
    mus = set(dirichlet_eigenvalues(linear_pot, 7).eigenvalues)
    edges = [e for w in band_windows(c, None, 12.0) for e in (w.a_full, w.b_full)
             if e not in mus]
    assert len(edges) >= 6
    for e in edges:
        f = lambda z: abs(oracle(np.array([z]))[0]) - c.threshold
        root = brentq(f, e - 1e-6, e + 1e-6, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert abs(e - root) <= 1e-9


def test_eta_call_budget_step_edge(step_pot, monkeypatch):
    # one window scan at z_max 40 and one inversion of targets across all of
    # its windows; bisection to EDGE_TOL_Z alone needs about 37 calls a stage
    calls = []

    def counted(c, z):
        calls.append(np.size(z))
        return eta_many(c, z)

    monkeypatch.setattr(discriminant, "eta_many", counted)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    ws = band_windows(c, None, 40.0)
    n_scan = len(calls)
    invert_eta_many(ws, np.linspace(-0.95, 0.95, 9) * c.threshold)
    assert n_scan <= 31 and len(calls) - n_scan <= 15, (n_scan, len(calls) - n_scan)


@pytest.mark.parametrize("edge, alpha", [("free", 0.0), ("free", -15.0), ("step", 1.0),
                                         ("linear", -1.5)])
def test_band_windows_read_eta_on_poles_from_the_solve(request, monkeypatch, edge, alpha):
    # eta(mu_k) has one producer, the Dirichlet solve: no mu_k reaches
    # eta_many, inside the bracketed solver or outside it, neither in the
    # window scan nor in the default floor's solve, and the values the scan
    # and the floor judge are the record's own
    p = request.getfixturevalue(f"{edge}_pot")
    c = CouplingParams(alpha=alpha, beta=1.3, potential=p)
    escapes = discriminant.escapes_threshold
    points, judged = [], []

    def counted(c, z):
        points.append(np.ravel(z))
        return eta_many(c, z)

    def recorded(c, y):
        judged.append(np.array(y))
        return escapes(c, y)

    monkeypatch.setattr(discriminant, "eta_many", counted)
    monkeypatch.setattr(discriminant, "escapes_threshold", recorded)
    band_windows(c, None, 30.0)
    lowest_window_edge(c, 30.0)
    mus, etas, _ = pole_record(c, 30.0)
    top = int(np.searchsorted(mus, 30.0)) + 1  # the scan reads mu_0 up to the first >= 30
    assert points and not np.any(np.isin(np.concatenate(points), mus))
    scan_etas, floor_etas = judged
    assert np.array_equal(scan_etas, etas[:top]) and np.array_equal(floor_etas, etas[:1])


@st.composite
def piecewise_edges(draw):
    """Piecewise-constant edges on [0, pi]: 1 to 4 segments, V in [-30, 30]."""
    n = draw(st.integers(1, 4))
    cuts = draw(st.lists(st.floats(0.05, L - 0.05), min_size=n - 1, max_size=n - 1,
                         unique=True))
    values = draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
    return make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0.0, *sorted(cuts), L],
        "values": values}})


@settings(max_examples=30)
@given(pot=piecewise_edges(), alpha=st.floats(-15.0, 15.0), beta=st.floats(0.5, 2.0),
       z_min=st.none() | st.floats(-80.0, -10.0), z_max=st.floats(-10.0, 80.0),
       cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_window_edges_do_not_depend_on_the_range(pot, alpha, beta, z_min, z_max, cut):
    # window n is solved from mu_{n-1} and mu_n alone, window 0 from the
    # anchor below mu_0, so a range nested in another gives every window the
    # two share as one and the same BandWindow, and validate's floor is
    # spectrum's window 0, bit for bit, whatever record it reads
    c = CouplingParams(alpha=alpha, beta=beta, potential=pot)
    outer = {w.index: w for w in band_windows(c, z_min, z_max)}
    lo = -80.0 if z_min is None else z_min
    a, b = sorted(lo + np.asarray(cut) * (z_max - lo))
    inner = band_windows(c, a, b) if a < b else []
    assert all(outer.get(w.index) == w for w in inner)
    top = max(z_max, float(pole_record(c, z_max)[0][0]))
    floor = lowest_window_edge(c, top)
    assert floor == band_windows(c, None, top)[0].a_full
    assert floor == lowest_window_edge(c, 400.0)  # bucket 31, not that of z_max


def _free_gap_top(alpha, n, threshold):
    """Upper edge r of the gap above mu = n^2 on the free edge (l = pi, alpha
    > 0): |eta(r)| = threshold gives tan(phi/2) = alpha / (threshold sqrt r)
    with sqrt r = n + phi/pi, a contraction in phi."""
    phi = 0.0
    for _ in range(50):
        phi = 2.0 * np.arctan(alpha / (threshold * (n + phi / np.pi)))
    return (n + phi / np.pi) ** 2


@pytest.mark.parametrize("alpha", [1e-6, 1e-4, 0.1])
def test_free_edge_gap_beside_every_mu(free_pot, alpha):
    # alpha > 0 opens a gap (mu_k, r_k) above each mu_k = n^2 of the free
    # edge, where |eta(mu_k)| sits on the threshold and eta'(mu_k) = alpha pi /
    # (2 mu_k) is small; the window below mu_k ends on it.  Near r_k |eta'| is
    # alpha pi / (2 n^2), so eta's rounding (an ulp of the threshold) places
    # the root no closer than 2 ulp / |eta'|: 1e-9 at alpha = 0.1, up to 4.5e-9
    # at 1e-4 and 4.5e-7 at 1e-6 (n = 20)
    c = CouplingParams(alpha=alpha, beta=1.0, potential=free_pot)
    t = c.threshold
    ns = np.arange(1, 21)
    tops = np.array([_free_gap_top(alpha, n, t) for n in ns])
    tol = np.maximum(1e-9, 2.0 * np.spacing(t) * 2.0 * ns**2 / (alpha * np.pi))
    mus = pole_record(c, 410.0)[0][:20]
    ws = band_windows(c, None, 410.0)
    assert [w.index for w in ws] == list(range(21))
    assert [w.b_full for w in ws[:20]] == mus.tolist()
    assert np.all(np.abs([w.a_full for w in ws[1:]] - tops) <= tol)
    gaps = gap_report(graph_spectrum(c, RationalFlux(0, 1), None, 410.0))
    assert [g.lo for g in gaps] == mus.tolist()
    assert np.all(np.abs([g.hi for g in gaps] - tops) <= tol)


@pytest.mark.parametrize("edge", ["three_segment", "mathieu"])
def test_window_side_from_the_monodromy(request, edge):
    # on a mirror-symmetric edge every mu_k is on the threshold (u1'(l; mu_k)
    # = +-1), and there eta'(mu_k) = [(1+beta^2) u2' + alpha u2] int u1^2 with
    # u2 = sign eta(mu_k): the sign of a central difference of eta matches
    # the bracket read from the Dirichlet record, and their ratio does not
    # depend on alpha or beta
    p = request.getfixturevalue("mathieu_pot") if edge == "mathieu" else make_potential(
        {"l": L, "potential": {"kind": "piecewise_constant", "values": [0.0, 10.0, 0.0],
                               "breakpoints": [0.0, L / 3, 2 * L / 3, L]}})
    spec = dirichlet_eigenvalues(p, 7)
    mus, du2 = np.asarray(spec.eigenvalues), np.asarray(spec.du2s)
    dz = 1e-6 * np.maximum(1.0, np.abs(mus))
    ratios = []
    for alpha, beta in itertools.product([-2.0, 0.0, 0.5], [0.7, 1.0, 1.3]):
        c = CouplingParams(alpha=alpha, beta=beta, potential=p)
        etas = (1.0 + beta**2) * np.asarray(spec.nus)
        assert not np.any(discriminant.escapes_threshold(c, etas))
        up, down = np.split(eta_many(c, np.concatenate([mus + dz, mus - dz])), 2)
        slope = (up - down) / (2.0 * dz)
        m = (1.0 + beta**2) * du2 + alpha * np.sign(etas)
        assert np.array_equal(np.sign(slope), np.sign(m)), (alpha, beta, slope, m)
        ratios.append(slope / m)
    # m spans 5e-6 (Mathieu, k = 7, alpha = 0, where M is near +-I) to about
    # 10; the ratio int u1^2 agrees to 7.5e-4 there, the difference's noise
    assert np.allclose(ratios, ratios[0], rtol=1e-2)


def test_mathieu_instability_intervals(mathieu_pot):
    # at alpha = 0 the windows are the bands of Hill's equation y'' + (z -
    # 2q cos 2t) y = 0, q = 5, and the gap beside mu_k = b_n (n = k + 1) is
    # Mathieu's instability interval (b_n, a_n), 2.0e-3 and 7.2e-5 wide at
    # n = 6 and 7, where |eta'(mu_k)| is 2.8e-4 and 7.3e-6 and a slope test
    # read the windows as touching.  The 4097-node linear interpolation of V
    # moves the edges by up to 2e-6
    from scipy.special import mathieu_a, mathieu_b
    c = CouplingParams(alpha=0.0, beta=1.0, potential=mathieu_pot)
    ws = band_windows(c, None, 55.0)
    assert [w.index for w in ws] == list(range(8))
    for below, above in zip(ws, ws[1:]):
        n = above.index
        assert abs(below.b_full - mathieu_b(n, 5.0)) <= 5e-6
        assert abs(above.a_full - mathieu_a(n, 5.0)) <= 5e-6


def test_monotone_inside_windows(step_pot):
    c = CouplingParams(alpha=0.5, beta=0.8, potential=step_pot)
    for w in band_windows(c, -2.0, 40.0):
        zz = np.linspace(w.a_full, w.b_full, 41)[1:-1]
        dz = 1e-6 * np.maximum(1.0, np.abs(zz))
        deriv = (eta_many(c, zz + dz) - eta_many(c, zz - dz)) / (2 * dz)
        sign = 1.0 if w.increasing else -1.0
        assert np.all(sign * deriv > 0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (2.0, 1.5), (-3.0, 0.7)])
@pytest.mark.parametrize("fixture", ["free_pot", "step_pot"])
def test_eta_matches_krein_route(fixture, alpha, beta, request):
    # Prop entire-extension check: away from the poles the Dirichlet-to-Neumann
    # combination alpha/s12 - (1+beta^2)(s11+s22)/s12, with
    # s(z) = (1/u1) [[-u2, 1], [1, -u1']] from the closed-form basis,
    # reproduces the entire form
    p = request.getfixturevalue(fixture)
    basis = {"free_pot": free_basis, "step_pot": step_basis}[fixture]
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    mus = np.asarray(dirichlet_eigenvalues(p, 12).eigenvalues)
    zs = [z for z in np.linspace(-3.0, 70.0, 150)
          if np.min(np.abs(mus - z)) > 0.1]
    for z, y in zip(zs, eta_many(c, zs)):
        u1, du1, u2, _ = basis(float(z))
        s11, s12, s22 = -u2 / u1, 1.0 / u1, -du1 / u1
        via_s = alpha / s12 - (1 + beta**2) * (s11 + s22) / s12
        assert abs(y - via_s) < 1e-8


@pytest.mark.parametrize("fixture,alpha,beta", [
    ("free_pot", 0.0, 1.0),
    ("step_pot", 2.0, 1.5),
    ("mathieu_pot", -3.0, 0.7),
    ("linear_pot", 1.0, 1.0),
])
def test_sign_alternation(fixture, alpha, beta, request):
    # equality is attained for the free and midpoint-even cases, hence the slack
    p = request.getfixturevalue(fixture)
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    etas = (1.0 + beta**2) * np.asarray(dirichlet_eigenvalues(p, 15).nus)
    for k in range(11):
        assert (-1) ** k * etas[k] <= -c.threshold + 1e-6


def test_eta_against_closed_form(free_pot):
    c = CouplingParams(alpha=1.7, beta=1.1, potential=free_pot)
    zs = np.linspace(-4.0, 50.0, 93)
    for z, y in zip(zs, eta_many(c, zs)):
        assert y == pytest.approx(
            free_eta(float(z), alpha=1.7, beta=1.1), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [700, 725, 1000, 3000])
def test_solver_ends_at_adjacent_doubles(n):
    # from |z| = 2^19 on one ulp of z exceeds EDGE_TOL_Z: a lane must end
    # when its bracket ends are adjacent doubles, not at the iteration cap
    calls = []

    def f(z):
        return np.sin(np.pi * np.sqrt(z))

    def g(z, lanes):
        calls.append(np.size(z))
        return f(z)

    lo, hi = float(n * n - n), float(n * n + n)  # the root n^2 alone inside
    x = _solve_batch(g, [lo], [hi], f(np.array([lo])), f(np.array([hi])))[0]
    near = f(np.array([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]))
    assert len(calls) <= 12, len(calls)
    assert near[1] == 0.0 or near[0] * near[1] < 0.0 or near[1] * near[2] < 0.0
    assert abs(x - n * n) <= 4.0 * np.spacing(float(n * n))


def test_eta_call_budget_above_ulp_tolerance(step_pot, monkeypatch):
    # a window scan beyond 2^19, where no bracket narrows to EDGE_TOL_Z: each
    # lane must end at adjacent doubles, not at the 300-step cap
    calls = []

    def counted(c, z):
        calls.append(np.size(z))
        return eta_many(c, z)

    monkeypatch.setattr(discriminant, "eta_many", counted)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    ws = band_windows(c, 1e6, 1e6 + 3000.0)
    assert len(ws) == 3
    assert len(calls) <= 30, len(calls)
    # |eta(mu_k)| is on the threshold there, and a gap about 0.318 wide opens
    # above each mu_k: every window's lower edge is a root of the closed-form
    # |eta| - threshold, not mu_k.  |eta'| is about 1.6e-6 at the root, so
    # eta's rounding (1e-15) hides it within about 1e-9; 1e-8 lies beyond that
    oracle = _oracle_eta("step", 1.0, 1.0)
    mus = pole_record(c, 1e6 + 3000.0)[0]
    for w in ws:
        mu = mus[w.index - 1]
        assert 0.3 < w.a_full - mu < 0.33 and w.b_full == mus[w.index]
        assert abs(oracle([0.5 * (mu + w.a_full)])[0]) > c.threshold
        assert _sign_change_near(lambda z: np.abs(oracle(z)) - c.threshold, w.a_full,
                                 1e-8)
