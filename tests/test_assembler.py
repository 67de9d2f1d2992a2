import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (Classification, ConfigError, ConsistencyError,
                         CouplingParams, RationalFlux, approximate_irrational, assembler,
                         butterfly_sweep, classify_eigenvalue,
                         dirichlet_eigenvalues, farey_fluxes, gap_report,
                         graph_spectrum, harper, make_potential, resolve_flux)
from fluxlattice.discriminant import (EDGE_TOL_Z, THRESHOLD_RTOL, _bucket_through,
                                      band_windows, eta_many)
from oracles import merged_intervals

L = np.pi


def _eta_mus(c):
    """eta(mu_0..mu_7) = (1+beta^2) nu_k, read from the Dirichlet record."""
    return (1.0 + c.beta**2) * np.asarray(dirichlet_eigenvalues(c.potential, 7).nus)


def test_free_integer_flux_full_line(free_coupling):
    s = graph_spectrum(free_coupling, RationalFlux(0, 1), z_min=-1.0, z_max=10.0)
    union = merged_intervals([(iv.z_lo, iv.z_hi) for iv in s.continuous])
    assert len(union) == 1
    assert union[0][0] == pytest.approx(0.0, abs=1e-9)
    assert union[0][1] == 10.0
    assert [pt.mu for pt in s.point_spectrum] == pytest.approx([1.0, 4.0, 9.0],
                                                               abs=1e-10)
    for pt in s.point_spectrum:
        assert pt.classification is Classification.BAND_EDGE
    assert all(g.hi <= 0.0 for g in gap_report(s))


def test_half_flux_bands_and_isolated_mu(free_coupling):
    s = graph_spectrum(free_coupling, RationalFlux(1, 2), z_min=0.0, z_max=2.0)
    union = merged_intervals([(iv.z_lo, iv.z_hi) for iv in s.continuous])
    assert union[0][0] == pytest.approx(1.0 / 16.0, abs=1e-8)
    assert union[0][1] == pytest.approx(9.0 / 16.0, abs=1e-8)
    assert union[1][0] == pytest.approx(25.0 / 16.0, abs=1e-8)
    assert union[1][1] == 2.0  # truncated at z_max
    assert any(iv.truncated for iv in s.continuous)
    assert s.point_spectrum[0].classification is Classification.ISOLATED
    gaps = gap_report(s)
    mu_gap = [g for g in gaps if g.contains_mu]
    assert len(mu_gap) == 1
    assert mu_gap[0].lo == pytest.approx(9.0 / 16.0, abs=1e-8)
    assert mu_gap[0].hi == pytest.approx(25.0 / 16.0, abs=1e-8)
    assert mu_gap[0].contains_mu[0] == pytest.approx(1.0, abs=1e-10)


def test_integer_flux_periodicity_exact(free_coupling):
    s0 = graph_spectrum(free_coupling, RationalFlux(0, 1), z_min=0.0, z_max=10.0)
    s1 = graph_spectrum(free_coupling, RationalFlux(1, 1), z_min=0.0, z_max=10.0)
    a = [(iv.z_lo, iv.z_hi) for iv in s0.continuous]
    b = [(iv.z_lo, iv.z_hi) for iv in s1.continuous]
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-9


@pytest.mark.parametrize("theta", [0.0, 1.0 / 3.0, 0.4142])
def test_flux_periodicity_spectral_sets(free_coupling, theta):
    s0, s1 = (graph_spectrum(free_coupling, resolve_flux(t, 50)[0], z_min=0.0, z_max=10.0)
              for t in (theta, theta + 1.0))
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
    eta_0 = _eta_mus(free_coupling)[0]
    assert classify_eigenvalue(free_coupling, RationalFlux(0, 1), eta_0) is \
        Classification.BAND_EDGE


def test_classify_half_flux_isolated(free_coupling):
    eta_0 = _eta_mus(free_coupling)[0]
    assert classify_eigenvalue(free_coupling, RationalFlux(1, 2), eta_0) is \
        Classification.ISOLATED


def test_classify_convex_potential_isolated(linear_pot):
    # convex V with nonvanishing slope opens every gap at integer flux
    c = CouplingParams(alpha=2.0, beta=1.0, potential=linear_pot)
    for k in range(6):
        assert classify_eigenvalue(c, RationalFlux(0, 1), _eta_mus(c)[k]) is \
            Classification.ISOLATED


@st.composite
def mirror_steps(draw):
    """A piecewise-constant edge symmetric about l/2, so |u1'(l; mu_k)| = 1."""
    cuts = sorted(draw(st.lists(st.floats(0.1, L / 2 - 0.1), min_size=1,
                                max_size=3, unique=True)))
    if any(b - a < 0.05 for a, b in zip(cuts, cuts[1:])):
        cuts = cuts[:1]
    vals = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    return make_potential({"l": L, "potential": {
        "kind": "piecewise_constant",
        "breakpoints": [0.0, *cuts, *(L - x for x in reversed(cuts)), L],
        "values": vals + vals[-2::-1]}})


@settings(max_examples=30)
@given(pot=mirror_steps(), alpha=st.floats(-3.0, 3.0),
       beta=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
       q=st.integers(2, 50), p_seed=st.integers(1, 49))
def test_classify_mirror_symmetric_edges(pot, alpha, beta, q, p_seed):
    # |eta(mu_k)| = 2(1+beta^2) on a mirror-symmetric edge: mu_k sits on the
    # edge of the one Harper band at integer flux, and outside every band,
    # whose edges stay below the threshold, at any other flux
    c = CouplingParams(alpha=alpha, beta=beta, potential=pot)
    p = next(p for p in range(p_seed % q, p_seed % q + q) if np.gcd(p, q) == 1)
    one_31 = CouplingParams(alpha=alpha, beta=1.0, potential=pot)
    f = RationalFlux(p, q)
    norm = max(np.max(np.abs(np.linalg.eigvalsh(harper._fiber(p, q, beta, k, k))))
               for k in (0.0, np.pi / q))
    for k in range(6):
        y = abs(_eta_mus(c)[k])
        assert abs(y - c.threshold) <= THRESHOLD_RTOL * c.threshold
        for theta in (RationalFlux(0, 1), RationalFlux(1, 1)):
            assert classify_eigenvalue(c, theta, _eta_mus(c)[k]) is \
                Classification.BAND_EDGE
        assert norm < y
        assert classify_eigenvalue(c, f, _eta_mus(c)[k]) is Classification.ISOLATED
        assert classify_eigenvalue(one_31, RationalFlux(1, 31),
                                   _eta_mus(one_31)[k]) is Classification.ISOLATED


def test_classify_reads_no_harper_bands(free_coupling, monkeypatch):
    # with harper_spectrum failing the assembly fails, while the
    # classification, which must not need the bands, still answers
    c = CouplingParams(alpha=0.5, beta=1.0, potential=free_coupling.potential)

    def refuse(*args, **kwargs):
        raise ConsistencyError("harper_spectrum called")
    monkeypatch.setattr(assembler, "harper_spectrum", refuse)
    monkeypatch.setattr(harper, "harper_spectrum", refuse)
    with pytest.raises(ConsistencyError, match="harper_spectrum called"):
        graph_spectrum(c, RationalFlux(1, 31), z_min=0.0, z_max=10.0)
    for k in range(4):
        assert classify_eigenvalue(c, RationalFlux(1, 31), _eta_mus(c)[k]) is \
            Classification.ISOLATED
        assert classify_eigenvalue(c, RationalFlux(0, 1), _eta_mus(c)[k]) is \
            Classification.BAND_EDGE


@pytest.mark.parametrize("alpha,ends", [(1.0, 1), (0.0, 2)])
def test_band_edge_windows_need_not_touch(free_pot, alpha, ends):
    # BandEdge says eta(mu_k) is on the threshold, not that the windows on
    # both sides of mu_k meet there: with alpha != 0 (Kronig-Penney) eta
    # crosses the threshold at mu_k, so one window ends at mu_k and a gap
    # opens on the other side; with alpha = 0 eta touches it and both end there
    c = CouplingParams(alpha=alpha, beta=1.0, potential=free_pot)
    windows = band_windows(c, None, 30.0)
    mus = [mu for mu in dirichlet_eigenvalues(free_pot, 6).eigenvalues if mu < 30.0]
    assert len(mus) == 5
    for k, mu in enumerate(mus):
        assert classify_eigenvalue(c, RationalFlux(0, 1), _eta_mus(c)[k]) is \
            Classification.BAND_EDGE
        edges = [e for w in windows for e in (w.a_full, w.b_full)]
        assert edges.count(mu) == ends
        if ends == 1:
            assert min(abs(e - mu) for e in edges if e != mu) > 0.1


@pytest.mark.parametrize("theta", [RationalFlux(0, 1), RationalFlux(1, 3)])
def test_integer_flux_classifies_from_the_scan_solve(step_pot, theta):
    # eta(mu_k) at every pole comes from the solve that found the poles, so
    # integer flux costs no Dirichlet solve beyond it
    for cached in (dirichlet_eigenvalues, _bucket_through):
        cached.cache_clear()
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    s = graph_spectrum(c, theta, None, 200.0)
    assert len(s.point_spectrum) == 13
    assert dirichlet_eigenvalues.cache_info().misses == 1


def test_every_mu_interval_meets_sigma(step_pot):
    # Theorem (B): [mu_k, mu_k+1] always intersects the continuous part
    c = CouplingParams(alpha=1.0, beta=1.5, potential=step_pot)
    for flux in (RationalFlux(0, 1), RationalFlux(1, 2), RationalFlux(2, 5)):
        s = graph_spectrum(c, flux, z_min=-2.0, z_max=60.0)
        mus = [pt.mu for pt in s.point_spectrum]
        for mu_a, mu_b in zip(mus, mus[1:]):
            hit = any(iv.z_lo <= mu_b and iv.z_hi >= mu_a for iv in s.continuous)
            assert hit


def test_band_count_per_window_bounded_by_q(free_coupling):
    for flux in (RationalFlux(1, 2), RationalFlux(1, 3), RationalFlux(2, 5)):
        s = graph_spectrum(free_coupling, flux, z_min=0.0, z_max=10.0)
        per_window = {}
        for iv in s.continuous:
            per_window.setdefault(iv.window, 0)
            per_window[iv.window] += 1
        assert all(nbands <= flux.q for nbands in per_window.values())


def test_pullback_endpoints_hit_band_edges(free_pot):
    c = CouplingParams(alpha=1.0, beta=1.2, potential=free_pot)
    flux = RationalFlux(1, 3)
    s = graph_spectrum(c, flux, z_min=-1.0, z_max=12.0)
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
    s = graph_spectrum(c, RationalFlux(1, 3), None, 5.0)
    assert s.z_min == pytest.approx(s.windows[0].a_full, abs=1e-9)
    assert s.windows[0].index == 0
    assert all(w.a_full >= s.z_min for w in s.windows)
    far = graph_spectrum(c, RationalFlux(1, 3), z_min=-100.0, z_max=5.0)
    assert _ends(s).shape == _ends(far).shape
    assert np.max(np.abs(_ends(s) - _ends(far))) < 1e-9
    assert s.point_spectrum == far.point_spectrum


def test_default_floor_rejects_z_max_below_spectrum(free_coupling):
    with pytest.raises(ConfigError, match="below the lowest band window"):
        graph_spectrum(free_coupling, RationalFlux(0, 1), None, -5.0)


@settings(max_examples=25)
@given(alpha=st.floats(-15.0, 5.0), beta=st.floats(0.5, 2.0),
       edge=st.sampled_from(["free", "step"]),
       flux=st.sampled_from([RationalFlux(0, 1), RationalFlux(1, 3),
                             RationalFlux(2, 5)]))
def test_default_floor_loses_nothing(free_pot, step_pot, alpha, beta, edge, flux):
    p = free_pot if edge == "free" else step_pot
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    s = graph_spectrum(c, flux, None, 12.0)
    far = graph_spectrum(c, flux, z_min=s.z_min - 50.0, z_max=12.0)
    assert _ends(s).shape == _ends(far).shape
    assert np.max(np.abs(_ends(s) - _ends(far))) < 1e-9
    assert s.point_spectrum == far.point_spectrum


@settings(max_examples=40)
@given(alpha=st.floats(-15.0, 15.0), beta=st.floats(0.5, 2.0),
       edge=st.sampled_from(["free", "step"]), flux=st.sampled_from(farey_fluxes(8)),
       z_max=st.floats(5.0, 30.0))
def test_pullbacks_in_band_order_and_mu_in_gaps(free_pot, step_pot, alpha, beta, edge,
                                                flux, z_max):
    # every interval lies in its window, and on each window the pullbacks of
    # the q Harper bands follow band order, reversed where eta decreases.
    # Touching bands may overlap by rounding (8.9e-16 on the step edge at
    # alpha = 1, beta = 0.5, theta = 1/2), so order holds within EDGE_TOL_Z.
    # Off the integers ||M|| < 2(1+beta^2) <= |eta(mu_k)|, so every mu_k in
    # range lies in a gap
    p = free_pot if edge == "free" else step_pot
    c = CouplingParams(alpha=alpha, beta=beta, potential=p)
    s = graph_spectrum(c, flux, None, z_max)
    assert {iv.window for iv in s.continuous} <= {w.index for w in s.windows}
    for w in s.windows:
        ivs = sorted((iv for iv in s.continuous if iv.window == w.index),
                     key=lambda iv: iv.band, reverse=not w.increasing)
        assert all(max(w.a_full, s.z_min) <= iv.z_lo <= iv.z_hi <= min(w.b_full, s.z_max)
                   for iv in ivs)
        assert all(a.z_hi <= b.z_lo + EDGE_TOL_Z for a, b in zip(ivs, ivs[1:]))
    if flux.q > 1:
        in_gaps = {mu for g in gap_report(s) for mu in g.contains_mu}
        assert all(pt.mu in in_gaps for pt in s.point_spectrum)


def test_farey_enumeration():
    fluxes = farey_fluxes(5)
    assert len(fluxes) == 11
    assert fluxes[0] == RationalFlux(0, 1) and fluxes[1] == RationalFlux(1, 1)
    qs = [f.q for f in fluxes]
    assert qs == sorted(qs)
    assert farey_fluxes(1) == [RationalFlux(0, 1), RationalFlux(1, 1)]


def _rows(sweep):
    """(flux, band_index, z_lo, z_hi, truncated) per interval of a sweep, in
    the order of the butterfly CSV."""
    return [(f, i, iv.z_lo, iv.z_hi, iv.truncated)
            for f, intervals in sweep for i, iv in enumerate(intervals)]


def test_butterfly_qmax1_identical_rows(free_coupling):
    sweep, diags = butterfly_sweep(free_coupling, farey_fluxes(1), z_min=0.0, z_max=10.0)
    assert diags == []
    rows = _rows(sweep)
    r0 = [(i, lo, hi) for f, i, lo, hi, _ in rows if f == RationalFlux(0, 1)]
    r1 = [(i, lo, hi) for f, i, lo, hi, _ in rows if f == RationalFlux(1, 1)]
    assert r0 == r1 and len(r0) > 0


def test_butterfly_halfflux_gap_vs_integer(free_coupling):
    sweep, _ = butterfly_sweep(free_coupling, farey_fluxes(2), z_min=0.0, z_max=2.0)
    by_flux = {}
    for f, _, lo, hi, _ in _rows(sweep):
        by_flux.setdefault(f, []).append((lo, hi))
    full = merged_intervals(by_flux[RationalFlux(0, 1)])
    half = merged_intervals(by_flux[RationalFlux(1, 2)])
    assert len(full) == 1            # no gap at integer flux
    assert len(half) == 2            # gap around mu_0 at half flux
    assert half[0][1] < 1.0 < half[1][0]


def test_butterfly_row_ordering(free_coupling):
    sweep, _ = butterfly_sweep(free_coupling, farey_fluxes(3), z_min=0.0, z_max=4.0)
    keys = [(f.q, f.p, i) for f, i, _, _, _ in _rows(sweep)]
    assert keys == sorted(keys)


def test_one_inversion_per_request(step_pot, monkeypatch):
    calls = []
    real = assembler.invert_eta_many

    def counted(ws, ys):
        calls.append(len(ys))
        return real(ws, ys)

    monkeypatch.setattr(assembler, "invert_eta_many", counted)
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    graph_spectrum(c, RationalFlux(2, 5), z_min=0.3, z_max=7.7)
    assert len(calls) == 1
    calls.clear()
    butterfly_sweep(c, farey_fluxes(5), z_min=0.3, z_max=7.7)
    assert len(calls) == 1


@pytest.mark.parametrize("z_min,z_max", [(0.3, 7.7), (2.07, 12.0)])
def test_butterfly_rows_are_graph_spectra(step_pot, z_min, z_max):
    # 7.7 cuts window 1 = [7.29, 7.84], 2.07 window 0 = [2.048, 2.092] and 12
    # window 2 = [11.6, 14.5], so some pullbacks are clipped and truncated
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    sweep, diags = butterfly_sweep(c, farey_fluxes(5), z_min=z_min, z_max=z_max)
    assert diags == []
    rows = _rows(sweep)
    assert any(t for _, _, _, _, t in rows)
    for flux in farey_fluxes(5):
        s = graph_spectrum(c, flux, z_min=z_min, z_max=z_max)
        assert [(lo, hi, t) for f, _, lo, hi, t in rows if f == flux] == [
            (iv.z_lo, iv.z_hi, iv.truncated) for iv in s.continuous]


def test_butterfly_over_convergents_is_graph_spectra(step_pot):
    # a walk towards the golden mean is a sweep over its convergents: rows
    # come back in their order, each equal to graph_spectrum at its flux
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    fluxes = approximate_irrational((np.sqrt(5.0) - 1.0) / 2.0, 34)
    assert [f.q for f in fluxes] == [1, 2, 3, 5, 8, 13, 21, 34]
    sweep, diags = butterfly_sweep(c, fluxes, 0.3, 7.7)
    assert diags == []
    rows = _rows(sweep)
    assert [f for f, _ in itertools.groupby(r[0] for r in rows)] == fluxes
    for flux in fluxes:
        s = graph_spectrum(c, flux, 0.3, 7.7)
        assert [r[1:] for r in rows if r[0] == flux] == [
            (i, iv.z_lo, iv.z_hi, iv.truncated) for i, iv in enumerate(s.continuous)]


def test_mirror_fluxes_share_one_pullback(step_pot, monkeypatch):
    # spec M(p/q) = spec M((q - p)/q), since M(-theta) = conj M(theta): the
    # sweep inverts 2q targets on every window once per distinct band set,
    # and mirror fluxes get one interval tuple.  On the piecewise step edge no
    # inversion answer depends on its batch, so every row still equals
    # graph_spectrum at its own flux, which inverts that flux's targets alone
    c = CouplingParams(alpha=1.0, beta=1.0, potential=step_pot)
    batches = []
    real = assembler.invert_eta_many

    def recorded(ws, ys):
        z = real(ws, ys)
        batches.append(z)
        return z

    monkeypatch.setattr(assembler, "invert_eta_many", recorded)
    sweep, diags = butterfly_sweep(c, farey_fluxes(8), z_min=0.3, z_max=7.7)
    assert diags == [] and len(batches) == 1
    n_windows = len(band_windows(c, 0.3, 7.7))
    classes = {(min(f.p, f.q - f.p), f.q) for f in farey_fluxes(8)}
    assert len(classes) < len(farey_fluxes(8))
    assert batches[0].size == sum(2 * q * n_windows for _, q in classes)
    by_flux = {}
    for f, *row in _rows(sweep):
        by_flux.setdefault(f, []).append(tuple(row))
    shared = dict(sweep)
    for flux in farey_fluxes(8):
        mirror = RationalFlux(flux.q - flux.p, flux.q)
        assert by_flux[flux] == by_flux[mirror]
        assert shared[flux] is shared[mirror]
        s = graph_spectrum(c, flux, z_min=0.3, z_max=7.7)
        assert by_flux[flux] == [(i, iv.z_lo, iv.z_hi, iv.truncated)
                                 for i, iv in enumerate(s.continuous)]
