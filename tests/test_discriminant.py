from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (CouplingParams, DomainError, band_windows,
                         dirichlet_eigenvalues, eta, eta_on_pole, invert_eta,
                         invert_eta_many, krein_matrix)
from fluxlattice.discriminant import INVERT_RESIDUAL, eta_many
from oracles import free_eta

L = np.pi

# closed-form bisection on free_eta (dev oracle): first window edges
ALPHA_PLUS2_WINDOW0 = (0.25, 1.0)                    # alpha=+2: eta(1/4)=+4, touches mu_0
ALPHA_MINUS2_WINDOW0 = (-0.4217519166920148, 0.25)   # alpha=-2: hyperbolic lower edge


def test_eta_free_at_zero(free_coupling):
    assert eta(free_coupling, 0.0) == pytest.approx(4.0, rel=1e-12)


def test_eta_free_quarter(free_coupling):
    assert eta(free_coupling, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_eta_with_alpha(free_pot):
    c = CouplingParams(alpha=3.0, beta=1.0, potential=free_pot)
    assert eta(c, 0.0) == pytest.approx(4.0 + 3.0 * np.pi, rel=1e-12)


def test_eta_on_pole_free(free_coupling):
    assert eta_on_pole(free_coupling, 0) == pytest.approx(-4.0, abs=1e-10)
    assert eta_on_pole(free_coupling, 1) == pytest.approx(4.0, abs=1e-10)


def test_eta_on_pole_mathieu(mathieu_pot):
    # V = 10 cos(2t) is even about l/2, so u1'(l; mu_k) = +-1 and eta(mu_k)
    # equals -+4 exactly; the band touches mu_0 instead of leaving a gap
    c = CouplingParams(alpha=0.0, beta=1.0, potential=mathieu_pot)
    assert eta_on_pole(c, 0) == pytest.approx(-4.0, abs=1e-8)
    assert eta_on_pole(c, 0) <= -4.0 + 1e-8


def test_eta_on_pole_independent_of_alpha(step_pot):
    c0 = CouplingParams(alpha=0.0, beta=1.3, potential=step_pot)
    c7 = CouplingParams(alpha=7.0, beta=1.3, potential=step_pot)
    for k in range(4):
        assert eta_on_pole(c0, k) == eta_on_pole(c7, k)


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
    assert ws[0].a == pytest.approx(0.0, abs=1e-9)
    assert ws[0].b == 1.0 and ws[1].a == 1.0   # clamped exactly at mu_0
    assert ws[1].b == 4.0 and ws[2].a == 4.0
    assert ws[2].b == pytest.approx(9.0, abs=1e-9)
    assert ws[3].b == 10.0 and ws[3].truncated_hi and ws[3].truncated
    assert [w.increasing for w in ws] == [False, True, False, True]


def test_windows_alpha_plus2(free_pot):
    c = CouplingParams(alpha=2.0, beta=1.0, potential=free_pot)
    ws = band_windows(c, -1.0, 2.0)
    assert ws[0].a == pytest.approx(ALPHA_PLUS2_WINDOW0[0], abs=1e-9)
    assert ws[0].b == pytest.approx(ALPHA_PLUS2_WINDOW0[1], abs=1e-9)
    # eta stays above +4 on the hyperbolic branch for alpha > 0
    assert free_eta(-0.5, alpha=2.0) > 4.0


def test_windows_alpha_minus2_hyperbolic(free_pot):
    c = CouplingParams(alpha=-2.0, beta=1.0, potential=free_pot)
    ws = band_windows(c, -1.0, 2.0)
    assert ws[0].a == pytest.approx(ALPHA_MINUS2_WINDOW0[0], abs=1e-9)
    assert ws[0].a < 0.0
    assert ws[0].b == pytest.approx(ALPHA_MINUS2_WINDOW0[1], abs=1e-9)
    assert ws[0].b < 1.0


def test_windows_empty_inside_gap(linear_pot):
    c = CouplingParams(alpha=0.0, beta=1.0, potential=linear_pot)
    ws = band_windows(c, -1.0, 15.0)
    gap_lo, gap_hi = ws[0].b, ws[1].a
    assert gap_hi - gap_lo > 0.1  # convex V opens the gap
    pad = 0.25 * (gap_hi - gap_lo)
    assert band_windows(c, gap_lo + pad, gap_hi - pad) == []


def test_window_between_each_eigenvalue_pair(step_pot):
    c = CouplingParams(alpha=1.0, beta=1.5, potential=step_pot)
    ws = band_windows(c, -2.0, 60.0)
    mus = dirichlet_eigenvalues(step_pot, 8).eigenvalues
    for w in ws:
        if w.index >= 1:
            assert mus[w.index - 1] <= w.a_full and w.b_full <= mus[w.index]


def test_invert_free_window(free_coupling):
    w = band_windows(free_coupling, -1.0, 2.0)[0]
    assert invert_eta(w, 0.0) == pytest.approx(0.25, abs=1e-9)
    assert invert_eta(w, 4.0) == pytest.approx(0.0, abs=1e-9)
    assert invert_eta(w, 2.0 * np.sqrt(2.0)) == pytest.approx(1.0 / 16.0, abs=1e-9)


def test_invert_out_of_range(free_coupling):
    w = band_windows(free_coupling, -1.0, 2.0)[0]
    with pytest.raises(DomainError):
        invert_eta(w, 4.5)


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.floats(-1.0, 1.0)),
                min_size=1, max_size=40))
def test_batched_inversion_across_windows(step_pot, picks):
    ws = _step_windows(step_pot, 1.0)
    c = ws[0].coupling
    batch = [ws[i % len(ws)] for i, _ in picks]
    ys = np.asarray([f * c.threshold for _, f in picks])
    zs = invert_eta_many(batch, ys)
    alone = np.asarray([invert_eta(w, y) for w, y in zip(batch, ys)])
    assert np.all(np.abs(zs - alone) <= 1e-12 * np.maximum(1.0, np.abs(alone)))
    assert np.all(np.abs(eta_many(c, zs) - ys) <= INVERT_RESIDUAL * (1.0 + np.abs(ys)))
    other = _step_windows(step_pot, 2.0)[0]
    with pytest.raises(DomainError, match="coupling"):
        invert_eta_many(batch + [other], np.append(ys, 0.0))


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
    # Prop entire-extension check: away from the poles the s(z) combination
    # alpha/s12 - (1+beta^2)(s11+s22)/s12 reproduces the entire form
    p = request.getfixturevalue(fixture)
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    mus = np.asarray(dirichlet_eigenvalues(p, 12).eigenvalues)
    zs = [z for z in np.linspace(-3.0, 70.0, 150)
          if np.min(np.abs(mus - z)) > 0.1]
    for z in zs:
        s = krein_matrix(p, float(z))
        via_s = alpha / s.s12 - (1 + beta**2) * (s.s11 + s.s22) / s.s12
        assert abs(eta(c, float(z)) - via_s) < 1e-8


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
    for k in range(11):
        assert (-1) ** k * eta_on_pole(c, k) <= -c.threshold + 1e-6


def test_eta_against_closed_form(free_pot):
    c = CouplingParams(alpha=1.7, beta=1.1, potential=free_pot)
    for z in np.linspace(-4.0, 50.0, 93):
        assert eta(c, float(z)) == pytest.approx(
            free_eta(float(z), alpha=1.7, beta=1.1), rel=1e-10, abs=1e-10)
