import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (Classification, ConfigError, CouplingParams, RationalFlux,
                         butterfly_sweep, classify_eigenvalue,
                         dirichlet_eigenvalues, farey_fluxes, gap_report,
                         graph_spectrum, resolve_flux)
from fluxlattice.discriminant import eta_many
from oracles import merged_intervals

L = np.pi


def test_free_integer_flux_full_line(free_pot, free_coupling):
    s = graph_spectrum(free_pot, free_coupling, RationalFlux(0, 1),
                       z_min=-1.0, z_max=10.0)
    union = merged_intervals([(iv.z_lo, iv.z_hi) for iv in s.continuous])
    assert len(union) == 1
    assert union[0][0] == pytest.approx(0.0, abs=1e-9)
    assert union[0][1] == 10.0
    assert [pt.mu for pt in s.point_spectrum] == pytest.approx([1.0, 4.0, 9.0],
                                                               abs=1e-10)
    for pt in s.point_spectrum:
        assert pt.classification in (Classification.BAND_EDGE,
                                     Classification.EMBEDDED)
    assert gap_report(s).gaps == () or all(g.hi <= 0.0 for g in gap_report(s).gaps)


def test_half_flux_bands_and_isolated_mu(free_pot, free_coupling):
    s = graph_spectrum(free_pot, free_coupling, RationalFlux(1, 2),
                       z_min=0.0, z_max=2.0)
    union = merged_intervals([(iv.z_lo, iv.z_hi) for iv in s.continuous])
    assert union[0][0] == pytest.approx(1.0 / 16.0, abs=1e-8)
    assert union[0][1] == pytest.approx(9.0 / 16.0, abs=1e-8)
    assert union[1][0] == pytest.approx(25.0 / 16.0, abs=1e-8)
    assert union[1][1] == 2.0  # truncated at z_max
    assert any(iv.truncated for iv in s.continuous)
    assert s.point_spectrum[0].classification is Classification.ISOLATED
    gaps = gap_report(s).gaps
    mu_gap = [g for g in gaps if g.contains_mu]
    assert len(mu_gap) == 1
    assert mu_gap[0].lo == pytest.approx(9.0 / 16.0, abs=1e-8)
    assert mu_gap[0].hi == pytest.approx(25.0 / 16.0, abs=1e-8)
    assert mu_gap[0].contains_mu[0] == pytest.approx(1.0, abs=1e-10)


def test_integer_flux_periodicity_exact(free_pot, free_coupling):
    s0 = graph_spectrum(free_pot, free_coupling, RationalFlux(0, 1),
                        z_min=0.0, z_max=10.0)
    s1 = graph_spectrum(free_pot, free_coupling, RationalFlux(1, 1),
                        z_min=0.0, z_max=10.0)
    a = [(iv.z_lo, iv.z_hi) for iv in s0.continuous]
    b = [(iv.z_lo, iv.z_hi) for iv in s1.continuous]
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-9


@pytest.mark.parametrize("theta", [0.0, 1.0 / 3.0, 0.4142])
def test_flux_periodicity_spectral_sets(free_pot, free_coupling, theta):
    s0 = graph_spectrum(free_pot, free_coupling, theta, z_min=0.0, z_max=10.0)
    s1 = graph_spectrum(free_pot, free_coupling, theta + 1.0, z_min=0.0, z_max=10.0)
    a = np.asarray([(iv.z_lo, iv.z_hi) for iv in s0.continuous])
    b = np.asarray([(iv.z_lo, iv.z_hi) for iv in s1.continuous])
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) < 1e-9


def test_resolve_flux_decimal_convergent():
    flux, used = resolve_flux(0.4142, 50)
    assert flux == RationalFlux(12, 29)
    assert used == "12/29"
    flux, used = resolve_flux(0.5, 50)
    assert flux == RationalFlux(1, 2) and used is None
    flux, used = resolve_flux(RationalFlux(3, 7), 50)
    assert flux == RationalFlux(3, 7) and used is None


def test_classify_free_band_edge(free_coupling):
    assert classify_eigenvalue(free_coupling, RationalFlux(0, 1), 0) is \
        Classification.BAND_EDGE


def test_classify_half_flux_isolated(free_coupling):
    assert classify_eigenvalue(free_coupling, RationalFlux(1, 2), 0) is \
        Classification.ISOLATED


def test_classify_convex_potential_isolated(linear_pot):
    # convex V with nonvanishing slope opens every gap at integer flux
    c = CouplingParams(alpha=2.0, beta=1.0, potential=linear_pot)
    for k in range(6):
        assert classify_eigenvalue(c, RationalFlux(0, 1), k) is \
            Classification.ISOLATED


def test_every_mu_interval_meets_sigma(step_pot):
    # Theorem (B): [mu_k, mu_k+1] always intersects the continuous part
    c = CouplingParams(alpha=1.0, beta=1.5, potential=step_pot)
    for flux in (RationalFlux(0, 1), RationalFlux(1, 2), RationalFlux(2, 5)):
        s = graph_spectrum(step_pot, c, flux, z_min=-2.0, z_max=60.0)
        mus = [pt.mu for pt in s.point_spectrum]
        for mu_a, mu_b in zip(mus, mus[1:]):
            hit = any(iv.z_lo <= mu_b and iv.z_hi >= mu_a for iv in s.continuous)
            assert hit


def test_band_count_per_window_bounded_by_q(free_pot, free_coupling):
    for flux in (RationalFlux(1, 2), RationalFlux(1, 3), RationalFlux(2, 5)):
        s = graph_spectrum(free_pot, free_coupling, flux, z_min=0.0, z_max=10.0)
        per_window = {}
        for iv in s.continuous:
            per_window.setdefault(iv.window, 0)
            per_window[iv.window] += 1
        assert all(nbands <= flux.q for nbands in per_window.values())


def test_pullback_endpoints_hit_band_edges(free_pot):
    c = CouplingParams(alpha=1.0, beta=1.2, potential=free_pot)
    flux = RationalFlux(1, 3)
    s = graph_spectrum(free_pot, c, flux, z_min=-1.0, z_max=12.0)
    edges = s.harper.edges
    for iv in s.continuous:
        for z_star in (iv.z_lo, iv.z_hi):
            if abs(z_star - s.z_min) < 1e-12 or abs(z_star - s.z_max) < 1e-12:
                continue
            val = float(eta_many(c, np.asarray([z_star]))[0])
            assert np.min(np.abs(edges - val)) < 1e-8


def _ends(s):
    return np.asarray([(iv.z_lo, iv.z_hi, iv.window, iv.band) for iv in s.continuous])


@pytest.mark.parametrize("alpha", [0.0, -10.0])
def test_default_floor_is_lowest_window_edge(free_pot, alpha):
    # attractive coupling pushes window 0 far below zero (near z = -6.26 at
    # alpha = -10); the default floor must still start the scan there
    c = CouplingParams(alpha=alpha, beta=1.0, potential=free_pot)
    s = graph_spectrum(free_pot, c, RationalFlux(1, 3), z_max=5.0)
    assert s.z_min == pytest.approx(s.windows[0].a_full, abs=1e-9)
    assert s.windows[0].index == 0
    assert not any(w.truncated_lo for w in s.windows)
    far = graph_spectrum(free_pot, c, RationalFlux(1, 3), z_min=-100.0, z_max=5.0)
    assert _ends(s).shape == _ends(far).shape
    assert np.max(np.abs(_ends(s) - _ends(far))) < 1e-9
    assert s.point_spectrum == far.point_spectrum


def test_default_floor_rejects_z_max_below_spectrum(free_pot, free_coupling):
    with pytest.raises(ConfigError, match="below the lowest band window"):
        graph_spectrum(free_pot, free_coupling, RationalFlux(0, 1), z_max=-5.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(-15.0, 5.0), beta=st.floats(0.5, 2.0),
       edge=st.sampled_from(["free", "step"]),
       flux=st.sampled_from([RationalFlux(0, 1), RationalFlux(1, 3),
                             RationalFlux(2, 5)]))
def test_default_floor_loses_nothing(free_pot, step_pot, alpha, beta, edge, flux):
    p = free_pot if edge == "free" else step_pot
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    s = graph_spectrum(p, c, flux, z_max=12.0)
    far = graph_spectrum(p, c, flux, z_min=s.z_min - 50.0, z_max=12.0)
    assert _ends(s).shape == _ends(far).shape
    assert np.max(np.abs(_ends(s) - _ends(far))) < 1e-9
    assert s.point_spectrum == far.point_spectrum


def test_farey_enumeration():
    fluxes = farey_fluxes(5)
    assert len(fluxes) == 11
    assert fluxes[0] == RationalFlux(0, 1) and fluxes[1] == RationalFlux(1, 1)
    qs = [f.q for f in fluxes]
    assert qs == sorted(qs)
    assert farey_fluxes(1) == [RationalFlux(0, 1), RationalFlux(1, 1)]


def test_butterfly_qmax1_identical_rows(free_pot, free_coupling):
    rows, diags = butterfly_sweep(free_pot, free_coupling, 1, z_min=0.0, z_max=10.0)
    assert diags == []
    r0 = [(r.band_index, r.z_lo, r.z_hi) for r in rows if r.flux == RationalFlux(0, 1)]
    r1 = [(r.band_index, r.z_lo, r.z_hi) for r in rows if r.flux == RationalFlux(1, 1)]
    assert r0 == r1 and len(r0) > 0


def test_butterfly_halfflux_gap_vs_integer(free_pot, free_coupling):
    rows, _ = butterfly_sweep(free_pot, free_coupling, 2, z_min=0.0, z_max=2.0)
    by_flux = {}
    for r in rows:
        by_flux.setdefault(r.flux, []).append((r.z_lo, r.z_hi))
    full = merged_intervals(by_flux[RationalFlux(0, 1)])
    half = merged_intervals(by_flux[RationalFlux(1, 2)])
    assert len(full) == 1            # no gap at integer flux
    assert len(half) == 2            # gap around mu_0 at half flux
    assert half[0][1] < 1.0 < half[1][0]


def test_butterfly_row_ordering(free_pot, free_coupling):
    rows, _ = butterfly_sweep(free_pot, free_coupling, 3, z_min=0.0, z_max=4.0)
    keys = [(r.flux.q, r.flux.p, r.band_index) for r in rows]
    assert keys == sorted(keys)
