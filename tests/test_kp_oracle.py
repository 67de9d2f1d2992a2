"""The Kronig-Penney side of the paper: the monodromy trace, and the integer-flux
corollary that the graph spectrum at theta = 0 is {z : |trace M(z)| <= 2}."""

import numpy as np
import pytest

from fluxlattice import CouplingParams, RationalFlux, band_windows, graph_spectrum
from fluxlattice.discriminant import eta_many
from fluxlattice.kp_oracle import kp_trace_many
from oracles import merged_intervals

L = np.pi

# scalar-bisection oracle on |2 cos(w pi) + 2 sin(w pi)/w| = 2 (dev-time):
# classical Kronig-Penney bands for V=0, l=pi, alpha_eff=2 within [-4, 26]
KP_ALPHA2_BANDS = [
    (0.407455310591572, 1.0),
    (1.948184623026225, 4.0),
    (5.1289260685645175, 9.0),
    (10.196576918778547, 16.0),
    (17.226772082515765, 25.0),
]


def _integer_flux_bands(p, alpha_eff, beta, z_min, z_max):
    # alpha_eff = alpha / (1 + beta^2): the graph at theta = 0 has the
    # Kronig-Penney spectrum of that delta strength, for every beta
    c = CouplingParams(alpha=alpha_eff * (1.0 + beta**2), beta=beta, potential=p)
    s = graph_spectrum(c, RationalFlux(0, 1), z_min=z_min, z_max=z_max)
    return merged_intervals([(iv.z_lo, iv.z_hi) for iv in s.continuous], eps=1e-9)


def test_monodromy_free_z1(free_pot):
    # M(1) = -I on the free edge: u1(pi) = 0, u1'(pi) = u2(pi) = -1
    assert kp_trace_many(free_pot, 0.0, [1.0])[0] == pytest.approx(-2.0, rel=1e-9)


def test_monodromy_jump_z0(free_pot):
    # M(0) = [[1 + pi, 1], [pi, 1]] for alpha_eff = 1
    assert kp_trace_many(free_pot, 1.0, [0.0])[0] == pytest.approx(2.0 + np.pi, rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (2.0, 1.5), (-3.0, 0.7)])
@pytest.mark.parametrize("fixture", ["free_pot", "step_pot"])
def test_trace_identity(fixture, alpha, beta, request):
    # (1 + beta^2) tr M(z) = eta(z) with alpha_eff = alpha / (1 + beta^2)
    p = request.getfixturevalue(fixture)
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    zs = np.linspace(-4.0, 80.0, 100)
    traces = kp_trace_many(p, alpha / (1.0 + beta**2), zs)
    defect = np.max(np.abs((1.0 + beta**2) * traces - eta_many(c, zs)))
    assert defect < 1e-8


def test_kp_free_line(free_pot):
    bands = _integer_flux_bands(free_pot, 0.0, 1.0, -1.0, 30.0)
    assert len(bands) == 1
    assert bands[0][0] == pytest.approx(0.0, abs=1e-9)
    assert bands[0][1] == 30.0


def test_kp_alpha2_classical_bands(free_pot):
    for beta in (1.0, 1.5):
        bands = _integer_flux_bands(free_pot, 2.0, beta, -4.0, 26.0)
        assert len(bands) == len(KP_ALPHA2_BANDS)
        for (lo, hi), (elo, ehi) in zip(bands, KP_ALPHA2_BANDS):
            assert lo == pytest.approx(elo, abs=1e-9)
            assert hi == pytest.approx(ehi, abs=1e-9)


def test_kp_empty_inside_gap(free_pot):
    assert _integer_flux_bands(free_pot, 2.0, 1.0, 1.2, 1.8) == []


def test_kp_matches_integer_flux_spectrum(step_pot):
    # Corollary at integer theta: Sigma is the union of the eta windows,
    # |eta| <= 2 (1 + beta^2), which is |tr M| <= 2
    alpha, beta = 2.0, 1.5
    c = CouplingParams(alpha=alpha, beta=beta, potential=step_pot)
    sigma = _integer_flux_bands(step_pot, alpha / (1.0 + beta**2), beta, -2.0, 60.0)
    windows = merged_intervals([(w.a, w.b) for w in band_windows(c, -2.0, 60.0)],
                               eps=1e-9)
    assert len(sigma) == len(windows)
    for (a, b), (wa, wb) in zip(sigma, windows):
        assert a == pytest.approx(wa, abs=1e-8)
        assert b == pytest.approx(wb, abs=1e-8)
