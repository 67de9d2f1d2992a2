import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (DomainError, RationalFlux, TorusSizeError,
                         approximate_irrational, best_convergent,
                         bloch_matrix, chambers_defect, chambers_polynomial,
                         harper_spectrum, make_rational, torus_oracle)
from fluxlattice import harper
from fluxlattice.harper import (_CLD, _LD, _PI_LD, _chambers_ld, _det_cyclic,
                                _det_transfer, _fiber_bands, _gauss_solve_ld,
                                _harper_bands)
from fluxlattice.validation import check_chambers, check_torus_containment
from oracles import (dense_det_ld, dense_fiber, dense_fiber_ld, dense_kgrid_bands,
                     landau_torus, symmetric_gauge_torus)

SQ3 = np.sqrt(3.0)
THIRD_FLUX_BANDS = [(-1.0 - SQ3, -2.0), (1.0 - SQ3, SQ3 - 1.0), (2.0, 1.0 + SQ3)]


def test_rational_flux_validation():
    with pytest.raises(DomainError):
        RationalFlux(2, 4)
    with pytest.raises(DomainError):
        RationalFlux(1, 0)
    assert make_rational(2, 4) == RationalFlux(1, 2)
    assert make_rational(3, -6) == RationalFlux(-1, 2)
    assert RationalFlux(4, 3).theta == pytest.approx(4 / 3)


def test_bloch_integer_flux_peak():
    h = bloch_matrix(RationalFlux(0, 1), 1.0, 0.0, 0.0)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(4.0)


def test_bloch_half_flux():
    h = bloch_matrix(RationalFlux(1, 2), 1.0, 0.0, 0.0)
    assert np.allclose(h, [[2.0, 2.0], [2.0, -2.0]], atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(h), [-2 * np.sqrt(2), 2 * np.sqrt(2)],
                       atol=1e-12)


def test_bloch_hermitian_exactly():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = int(rng.integers(1, 9))
        p = int(rng.integers(0, q))
        if np.gcd(p, q) != 1:
            continue
        beta = float(rng.uniform(0.3, 2.5))
        k1, k2 = rng.uniform(0.0, 2 * np.pi, size=2)
        h = bloch_matrix(RationalFlux(p, q), beta, float(k1), float(k2))
        assert np.array_equal(h, h.conj().T)


def test_chambers_half_flux():
    poly = chambers_polynomial(RationalFlux(1, 2), 1.0)
    assert np.allclose(poly.coef, [-4.0, 0.0, 1.0], atol=1e-12)


def test_chambers_integer_flux():
    poly = chambers_polynomial(RationalFlux(0, 1), 1.0)
    assert np.allclose(poly.coef, [0.0, 1.0], atol=1e-12)


def test_chambers_third_flux():
    poly = chambers_polynomial(RationalFlux(1, 3), 1.0)
    assert np.allclose(poly.coef, [0.0, -6.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_chambers_independence(beta):
    for q in range(1, 9):
        for p in range(q):
            if np.gcd(p, q) == 1:
                assert chambers_defect(RationalFlux(p, q), beta) < 1e-9


@pytest.mark.parametrize("p,q", [(1, 3), (2, 5), (3, 8), (8, 21), (13, 34)])
def test_chambers_defect_sees_planted_fiber_error(p, q, monkeypatch):
    # 1e-6 cos(k1) added to one diagonal entry makes det(E I - H(k)) depend
    # on momentum beyond the Chambers terms; validate's check must fail.  The
    # entry's cofactor is of the size of the relation's terms over |E - H_00|,
    # so the relative defect reads about 1e-6: 1.05e-6 to 1.15e-5 here, at
    # least 5e5 times the tolerance, against clean defects below 4e-17
    f = RationalFlux(p, q)
    betas = (0.5, 1.0, 2.0)
    clean = [check_chambers(f, beta) for beta in betas]
    bands = harper._fiber_bands

    def planted(p, q, beta, k1, k2):
        diag, upper, lower = bands(p, q, beta, k1, k2)
        error = _LD(1e-6) * np.cos(np.asarray(k1, dtype=_LD))[..., None]
        return diag + np.where(np.arange(q) == 0, error, 0), upper, lower

    monkeypatch.setattr(harper, "_fiber_bands", planted)  # P(E) is planted too
    for beta, clean_check in zip(betas, clean):
        planted_check = check_chambers(f, beta)
        assert clean_check.passed and clean_check.defect < 1e-14
        assert not planted_check.passed and planted_check.defect > 5e-7


FAREY_26 = [(p, q) for q in range(1, 27) for p in range(q + 1) if math.gcd(p, q) == 1]
FAREY_50 = [(p, q) for q in range(1, 51) for p in range(q + 1) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 2.0])
def test_chambers_passes_default_range(beta):
    # every Farey flux with q <= 26: the relation's terms reach 2 beta^{2q}
    # = 9e15 at q = 26, beta = 2, where an absolute 1e-9 could not be met
    failing = [(p, q, r.defect) for p, q in FAREY_26
               if not (r := check_chambers(RationalFlux(p, q), beta)).passed]
    assert failing == []


def _dense_band_matrix(e, diag, upper, lower):
    """E I - H from the bands `_det_cyclic` reads, built entry by entry."""
    q = len(diag)
    a = np.zeros((q, q), dtype=_CLD)
    if q == 2:  # wrap and direct hop share each off-diagonal entry
        a[0, 1], a[1, 0] = -upper, -lower
    elif q > 2:
        for j in range(q):
            a[j, (j + 1) % q], a[(j + 1) % q, j] = -upper, -lower
    a[np.arange(q), np.arange(q)] = _LD(e) - diag
    return a


# small integers make exact cancellations, hence zero pivots at any column
_ENTRY = st.one_of(
    st.sampled_from([0, 1, -1, 1j]),
    st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=80)
@given(q=st.one_of(st.integers(1, 4), st.integers(1, 50)), data=st.data())
def test_cyclic_det_kernel_matches_dense_lu(q, data):
    # random complex band data, not only Hermitian fibers; small q is drawn
    # often: hops add up (q <= 2) or fill the whole matrix (q = 3)
    m = data.draw(st.integers(1, 6))
    energy = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]),
                                         min_size=m, max_size=m)), dtype=_LD)
    diag = np.array(data.draw(st.lists(st.lists(_ENTRY, min_size=q, max_size=q),
                                       min_size=m, max_size=m)), dtype=_CLD)
    hop = st.one_of(st.just(0), _ENTRY)  # zero hops: pivots vanish anywhere
    upper, lower = (np.array(data.draw(st.lists(hop, min_size=m, max_size=m)),
                             dtype=_CLD) for _ in range(2))
    dense = [dense_det_ld(_dense_band_matrix(*band))
             for band in zip(energy, diag, upper, lower)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero pivot must not be divided by
        dets = _det_cyclic(energy, diag, upper, lower)
    assert np.array_equal(dets, dense)


def test_cyclic_det_kernel_zero_pivot():
    cases = [  # energy, diag, upper, lower, singular
        (0.0, [0, 1, 2, 3], 0, 0, True),          # column 0 vanishes at once
        (0.0, [1, 2, 0, 3, 4, 5], 0, 0, True),    # a later diagonal pivot is zero
        (0.0, [-1, -1, 5], -1, -1, True),         # column 1 vanishes after elimination
        (2.0, [1, 1, 7, 1j], 1 + 1j, 0, False),   # regular, non-Hermitian
    ]
    for energy, diag, upper, lower, singular in cases:
        band = (_LD(energy), np.array(diag, dtype=_CLD), _CLD(upper), _CLD(lower))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det = _det_cyclic(*band)
        assert det == dense_det_ld(_dense_band_matrix(*band))
        assert (det == 0) == singular


def _permanent(energy, diag, upper, lower):
    """The permanent of |E I - H| for the bands `_det_transfer` reads: the
    sum of the moduli of the terms of det(E I - H), in float64."""
    a = np.abs((energy - diag).astype(complex))
    u, l = abs(complex(upper)), abs(complex(lower))
    q = len(a)
    if q <= 2:
        return a[0] if q == 1 else a[0] * a[1] + u * l
    m = np.eye(2)
    for aj in a:
        m = np.array([[aj, u * l], [1.0, 0.0]]) @ m
    return np.trace(m) + u**q + l**q


@settings(max_examples=80)
@given(q=st.one_of(st.integers(1, 4), st.integers(1, 50)), data=st.data())
def test_transfer_det_kernel_matches_dense_lu(q, data):
    # random complex band data, non-Hermitian hops, q <= 2 folded.  Each of the
    # q steps of the transfer product rounds its entries within 2 ulps of the
    # product of their moduli, so the trace is off by a few q ulps of the
    # permanent of |E I - H|; the dense LU is off by about as much (up to
    # 1.9 q ulps of it together, measured on 3000 random cases)
    m = data.draw(st.integers(1, 6))
    energy = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]),
                                         min_size=m, max_size=m)), dtype=_LD)
    diag = np.array(data.draw(st.lists(st.lists(_ENTRY, min_size=q, max_size=q),
                                       min_size=m, max_size=m)), dtype=_CLD)
    hop = st.one_of(st.just(0), _ENTRY)
    upper, lower = (np.array(data.draw(st.lists(hop, min_size=m, max_size=m)),
                             dtype=_CLD) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = _det_transfer(energy, diag, upper, lower)
    eps = float(np.finfo(_LD).eps)
    for det, band in zip(dets, zip(energy, diag, upper, lower)):
        dense = dense_det_ld(_dense_band_matrix(*band))
        assert abs(complex(det - dense)) <= 4 * q * eps * _permanent(*band)


def _mp_chambers_p(p, q, beta, e):
    """det(E I - H) at the exact reference momentum (pi/2q, pi/2q), where both
    cosine terms vanish, by mpmath's LU at the working precision."""
    ref = mp.pi / (2 * q)
    a = mp.matrix(q, q)
    for j in range(q):
        a[j, j] = mp.mpf(e) - 2 * mp.mpf(beta) ** 2 * mp.cos(2 * mp.pi * ((p * j) % q) / q + ref)
        a[j, (j + 1) % q], a[(j + 1) % q, j] = -mp.expj(ref), -mp.expj(-ref)
    return mp.re(mp.det(a))


def test_chambers_p_against_mpmath():
    # P(E) at 13/34 to 40 digits.  Its terms reach 9e12 (beta = 1) and 6e20
    # (beta = 2); the transfer trace is within 1.5e-17 of the largest, a few
    # q ulps of longdouble
    p, q = 13, 34
    ref = _PI_LD / (2 * q)
    for beta in (1.0, 2.0):
        energies = (np.linspace(-0.8, 0.8, 5) * float(2 + 2 * _LD(beta) ** 2)).astype(_LD)
        poly = np.real(_det_transfer(energies, *_fiber_bands(p, q, beta, ref, ref)))
        with mp.workdps(40):
            for e, got in zip(energies, poly):
                exact = _mp_chambers_p(p, q, beta, float(e))
                hi = float(got)  # the longdouble value exactly, as two doubles
                value = mp.mpf(hi) + mp.mpf(float(got - _LD(hi)))
                scale = 2 + 2 * mp.mpf(beta) ** (2 * q) + abs(exact)
                assert abs(value - exact) / scale < 1e-16


def _dense_chambers_defect(f, beta, n_k=10, n_e=5):
    """chambers_defect with one dense LU per momentum and energy, P(E) too."""
    p, q = f.p, f.q
    level = _LD(2.0) * _LD(beta) ** (2 * q)
    energies = np.linspace(-0.8, 0.8, n_e) * float(2 + 2 * _LD(beta) ** 2)
    kgrid = np.linspace(0.0, 2.0 * float(_PI_LD), n_k, endpoint=False).astype(_LD)
    eye = np.eye(q, dtype=_CLD)
    href = dense_fiber_ld(p, q, beta, _PI_LD / (2 * q), _PI_LD / (2 * q))
    poly = [np.real(dense_det_ld(_LD(e) * eye - href)) for e in energies]
    worst = 0.0
    for k1 in kgrid:
        for k2 in kgrid:
            h = dense_fiber_ld(p, q, beta, k1, k2)
            for e, pe in zip(energies, poly):
                det = np.real(dense_det_ld(_LD(e) * eye - h))
                val = det + 2 * np.cos(q * k1) + level * np.cos(q * k2)
                worst = max(worst, float(abs(val - pe) / (2 + level + abs(pe))))
    return worst


@pytest.mark.parametrize("p,q", [(5, 13), (8, 21), (0, 1), (1, 2), (2, 3), (13, 34),
                                 (1, 50)])
def test_chambers_defect_matches_dense_loop(p, q):
    # both defects are rounding, each below 6.1e-17 here; they differ by at
    # most 4.8e-18, so 1e-16 holds with margin and is 1e4 below the tolerance
    f = RationalFlux(p, q)
    for beta in (0.5, 1.0, 2.0):
        assert abs(chambers_defect(f, beta) - _dense_chambers_defect(f, beta)) < 1e-16


@pytest.mark.parametrize("p,q,beta", [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (5, 13, 1.0),
                                      (13, 34, 0.5), (1, 50, 2.0)])
def test_chambers_fit_matches_dense_fit(p, q, beta):
    # the fit of P with one dense LU per node, then the same solve
    ref = _PI_LD / (2 * q)
    href = dense_fiber_ld(p, q, beta, ref, ref)
    bound = _LD(2.0) + _LD(2.0) * _LD(beta) ** 2
    jj = np.arange(q + 1)
    nodes = bound * np.cos(_PI_LD * (2 * jj.astype(_LD) + 1) / (2 * (q + 1)))
    eye = np.eye(q, dtype=_CLD)
    vals = np.array([np.real(dense_det_ld(node * eye - href)) for node in nodes], dtype=_LD)
    dense = _gauss_solve_ld(np.vander(nodes, q + 1).astype(_LD), vals)
    assert np.array_equal(_chambers_ld(p, q, beta), dense)


def test_chambers_defect_peak_memory():
    # one kernel call over all 500 matrices of q = 50; a dense (500, q, q)
    # stack alone would take 40 MB
    _chambers_ld.cache_clear()
    tracemalloc.start()
    try:
        chambers_defect(RationalFlux(1, 50), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(-120, 120), st.floats(0.3, 2.5),
       st.sampled_from([0, 3, 7]), st.booleans())
def test_fiber_row_matches_fiber(q, p, beta, k1_index, negate):
    # the bands of the k-grid row chambers_defect uses; q <= 2 (hops add), p < 0
    # and p >= q all occur, and -k1 covers negative momenta and a -0.0 at index 0
    kgrid = np.linspace(0.0, 2.0 * float(_PI_LD), 10, endpoint=False).astype(_LD)
    k1 = -kgrid[k1_index] if negate else kgrid[k1_index]
    diag, upper, lower = _fiber_bands(p, q, beta, k1, kgrid)
    loop = np.stack([dense_fiber_ld(p, q, beta, k1, k2) for k2 in kgrid])
    j, nxt = np.arange(q), (np.arange(q) + 1) % q
    pairs = [(diag, loop[:, j, j])]
    if q > 1:
        pairs += [(np.broadcast_to(upper, (10, q)), loop[:, j, nxt]),
                  (np.broadcast_to(lower, (10, q)), loop[:, nxt, j])]
    for band, entries in pairs:
        assert np.array_equal(band, entries)
        for part in (np.real, np.imag):  # the signs of zeros too: bit for bit
            assert np.array_equal(np.signbit(part(band)), np.signbit(part(entries)))


def test_chambers_fit_shared_across_flux_period():
    poly = chambers_polynomial(RationalFlux(3, 8), 1.0)
    before = _chambers_ld.cache_info()
    shifted = chambers_polynomial(RationalFlux(11, 8), 1.0)
    after = _chambers_ld.cache_info()
    assert np.array_equal(shifted.coef, poly.coef)
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_harper_integer_flux():
    bands = harper_spectrum(RationalFlux(0, 1), 1.0).bands
    assert len(bands) == 1
    assert bands[0][0] == pytest.approx(-4.0, abs=1e-12)
    assert bands[0][1] == pytest.approx(4.0, abs=1e-12)


def test_harper_half_flux_touching():
    bands = harper_spectrum(RationalFlux(1, 2), 1.0).bands
    assert len(bands) == 2
    assert bands[0][0] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)
    assert bands[0][1] == pytest.approx(0.0, abs=1e-9)
    assert bands[1][0] == pytest.approx(0.0, abs=1e-9)
    assert bands[1][1] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_harper_third_flux_edges():
    bands = harper_spectrum(RationalFlux(1, 3), 1.0).bands
    for (lo, hi), (elo, ehi) in zip(bands, THIRD_FLUX_BANDS):
        assert lo == pytest.approx(elo, abs=1e-9)
        assert hi == pytest.approx(ehi, abs=1e-9)


@pytest.mark.parametrize("p,q,beta", [(1, 3, 1.0), (2, 5, 1.0), (1, 4, 1.7)])
def test_harper_vs_dense_kgrid(p, q, beta):
    bands = harper_spectrum(RationalFlux(p, q), beta).bands
    grid = dense_kgrid_bands(p, q, beta, nk=200)
    for (lo, hi), (glo, ghi) in zip(bands, grid):
        # the grid underestimates band reach by O(grid step^2)
        assert glo >= lo - 1e-9 and ghi <= hi + 1e-9
        assert abs(glo - lo) < 1e-3 and abs(ghi - hi) < 1e-3


def test_harper_third_flux_vs_fine_grid():
    # spec-pinned cross-check: 200x200 momentum grid, deviation < 1e-6
    bands = harper_spectrum(RationalFlux(1, 3), 1.0).bands
    grid = dense_kgrid_bands(1, 3, 1.0, nk=200)
    worst = max(max(abs(lo - glo), abs(hi - ghi))
                for (lo, hi), (glo, ghi) in zip(bands, grid))
    assert worst < 1e-6


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 2.0])
def test_norm_bound_strict_for_noninteger(beta):
    # ||M(theta)|| < 2(1+beta^2) off the integers, which makes every Dirichlet
    # eigenvalue isolated there; the band edges are the eigenvalues of the
    # fiber at (0, 0) and (pi/q, pi/q), taken densely so that no flux fails.
    # The smallest relative margin, 2.46e-2, is at 1/50 or 49/50
    bound = 2.0 * (1.0 + beta**2)
    for q in range(2, 51):
        for p in range(1, q):
            if np.gcd(p, q) == 1:
                f = RationalFlux(p, q)
                edges = np.concatenate([
                    np.linalg.eigvalsh(bloch_matrix(f, beta, k, k))
                    for k in (0.0, np.pi / q)])
                assert np.max(np.abs(edges)) <= (1.0 - 1e-3) * bound


def test_band_count_at_most_q():
    for q in range(1, 13):
        for p in range(q):
            if np.gcd(p, q) == 1:
                assert len(harper_spectrum(RationalFlux(p, q), 1.0).bands) <= q


def test_flux_periodicity_bands():
    for (p, q) in [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7)]:
        a = harper_spectrum(RationalFlux(p, q), 1.3).edges
        _harper_bands.cache_clear()  # compute p + q afresh, not from p's entry
        b = harper_spectrum(RationalFlux(p + q, q), 1.3).edges
        assert np.max(np.abs(a - b)) < 1e-9


def test_harper_cache_returns_requested_flux():
    base = harper_spectrum(RationalFlux(2, 5), 1.3)
    before = _harper_bands.cache_info()
    shifted = harper_spectrum(RationalFlux(7, 5), 1.3)
    after = _harper_bands.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert shifted.flux == RationalFlux(7, 5) and shifted.bands == base.bands


# every default-range (p/q, beta) (Farey q <= 50, beta in {0.5, 1, 1.3, 2})
# whose edges, sorted together and paired as neighbours, misordered a band
FORMERLY_MISPAIRED = [(p, q, beta) for beta, fluxes in {
    0.5: [(45, 46), (46, 47), (1, 49), (48, 49), (1, 50), (49, 50)],
    1.0: [(1, 31), (30, 31), (31, 32), (1, 33), (33, 34), (1, 35), (34, 35),
          (1, 36), (35, 36), (1, 37), (36, 37), (1, 38), (37, 38), (1, 39),
          (1, 40), (39, 40), (1, 41), (40, 41), (1, 42), (41, 42), (1, 43),
          (2, 43), (41, 43), (42, 43), (1, 44), (43, 44), (1, 45), (2, 45),
          (43, 45), (44, 45), (1, 46), (45, 46), (1, 47), (45, 47), (46, 47),
          (1, 48), (47, 48), (1, 49), (47, 49), (48, 49), (1, 50), (49, 50)],
    1.3: [(1, 37), (37, 38), (1, 39), (39, 40), (1, 41), (40, 41), (1, 42),
          (41, 42), (1, 43), (42, 43), (1, 44), (43, 44), (1, 45), (44, 45),
          (1, 46), (45, 46), (1, 47), (46, 47), (1, 48), (47, 48), (1, 49),
          (48, 49), (1, 50), (49, 50)],
}.items() for p, q in fluxes]


@pytest.mark.parametrize("p,q,beta", FORMERLY_MISPAIRED)
def test_bands_paired_by_index(p, q, beta):
    f = RationalFlux(p, q)
    bands = harper_spectrum(f, beta).bands
    assert len(bands) == q
    tol = lambda e: 2e-10 * max(1.0, abs(e))
    edges = [e for band in bands for e in band]
    assert all(b >= a - tol(a) for a, b in zip(edges, edges[1:]))
    e_plus, e_minus = (np.linalg.eigvalsh(dense_fiber(p, q, beta, k, k))
                       for k in (0.0, np.pi / q))
    for (lo, hi), a, b in zip(bands, e_plus, e_minus):
        assert abs(lo - min(a, b)) <= tol(lo) and abs(hi - max(a, b)) <= tol(hi)
    for e in torus_oracle(f, beta, 1):
        assert any(lo - 1e-9 <= e <= hi + 1e-9 for lo, hi in bands)


@pytest.mark.parametrize("p,q", [(55, 89), (89, 144)])
def test_measure_at_golden_mean_convergents(p, q):
    # Thouless, J. Phys. C 16 (1983) L929: q |sigma(p/q)| -> 9.3299 at beta = 1;
    # Avila-Krikorian, Ann. Math. 164 (2006): |sigma| -> |4 - 4 beta^2| otherwise
    def measure(beta):
        return sum(hi - lo for lo, hi in harper_spectrum(RationalFlux(p, q), beta).bands)
    assert abs(q * measure(1.0) - 9.3299) < 5e-3
    for beta in (0.5, 2.0):
        assert abs(measure(beta) - abs(4.0 - 4.0 * beta ** 2)) < 1e-6


def test_flux_reflection():
    # harper_spectrum((q - p)/q) is the cache entry of p/q, so it is checked
    # against the fiber built at (q - p)/q itself: the conjugate of the fiber
    # at p/q, at negated momenta, so a different matrix with the same spectrum
    # at the extremal momenta (0, 0) and (pi/q, pi/q)
    tol = lambda e: 2e-10 * max(1.0, abs(e))
    lower_half = [(p, q) for p, q in FAREY_50 if 2 * p < q]
    for beta, (p, q) in itertools.product((0.5, 1.0, 1.3, 2.0), lower_half):
        f = RationalFlux(q - p, q)
        bands = harper_spectrum(f, beta).bands
        assert len(bands) == q
        e_plus, e_minus = (np.linalg.eigvalsh(dense_fiber(q - p, q, beta, k, k))
                           for k in (0.0, np.pi / q))
        for (lo, hi), a, b in zip(bands, e_plus, e_minus):
            assert abs(lo - min(a, b)) <= tol(lo) and abs(hi - max(a, b)) <= tol(hi)
        lo, hi = np.array(bands).T
        e = torus_oracle(f, beta, 1)[:, None]
        assert np.all(((lo - 1e-9 <= e) & (e <= hi + 1e-9)).any(axis=1))


def test_harper_cache_shares_mirror_flux():
    base = harper_spectrum(RationalFlux(2, 5), 1.3)
    before = _harper_bands.cache_info()
    mirror = harper_spectrum(RationalFlux(3, 5), 1.3)
    after = _harper_bands.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert mirror.flux == RationalFlux(3, 5) and mirror.bands == base.bands


def test_band_reflection_symmetry():
    for (p, q, beta) in [(1, 2, 1.0), (1, 3, 1.4), (2, 5, 0.6), (3, 8, 2.0)]:
        bands = harper_spectrum(RationalFlux(p, q), beta).bands
        flipped = sorted((-hi, -lo) for lo, hi in bands)
        for (lo, hi), (flo, fhi) in zip(bands, flipped):
            assert lo == pytest.approx(flo, abs=1e-9)
            assert hi == pytest.approx(fhi, abs=1e-9)


def test_torus_integer_flux_exact():
    evals = torus_oracle(RationalFlux(0, 1), 1.0, 4)
    expected = np.sort([2 * np.cos(2 * np.pi * a / 4) + 2 * np.cos(2 * np.pi * b / 4)
                        for a in range(4) for b in range(4)])
    assert np.allclose(evals, expected, atol=1e-12)


def test_torus_half_flux_range():
    evals = torus_oracle(RationalFlux(1, 2), 1.0, 3)  # N = 6, N*theta odd
    assert len(evals) == 36
    assert evals[0] >= -2 * np.sqrt(2) - 1e-9
    assert evals[-1] <= 2 * np.sqrt(2) + 1e-9


@pytest.mark.parametrize("p,q,beta,reps", [(1, 2, 1.0, 5), (1, 3, 2.0, 2),
                                           (2, 5, 1.0, 3)])
def test_torus_containment(p, q, beta, reps):
    bands = harper_spectrum(RationalFlux(p, q), beta)
    for e in torus_oracle(RationalFlux(p, q), beta, reps):
        assert any(lo - 1e-9 <= e <= hi + 1e-9 for lo, hi in bands.bands)


def test_torus_matches_symmetric_gauge():
    # the paper's symmetric-gauge phases wrap consistently when N theta is
    # even; there both gauges must have identical spectra
    for (p, q, reps) in [(1, 2, 4), (1, 3, 2), (2, 5, 1)]:
        n = reps * q
        if (n * p) % (2 * q) != 0:
            continue
        landau = torus_oracle(RationalFlux(p, q), 1.0, reps)
        sym = symmetric_gauge_torus(p, q, 1.0, n)
        assert np.max(np.abs(landau - sym)) < 1e-10


@pytest.mark.parametrize("p,q,beta,reps", [
    (0, 1, 1.0, 1),    # N = 1: both hop pairs land on the diagonal
    (0, 1, 0.7, 3),
    (1, 2, 1.0, 1),    # N = 2: wrap and direct hop add up
    (1, 2, 1.3, 3),
    (2, 5, 1.0, 1),    # odd N
    (1, 3, 2.0, 3),    # odd N, L > 1
    (7, 3, 0.6, 2),    # p >= q
    (-2, 5, 1.5, 2),   # p < 0
])
def test_torus_blocks_match_real_space(p, q, beta, reps):
    blocks = torus_oracle(RationalFlux(p, q), beta, reps)
    dense = landau_torus(p, q, beta, reps * q)
    assert np.max(np.abs(blocks - dense)) < 1e-12


@pytest.mark.parametrize("p,q,beta", [(13, 34, 1.0), (1, 31, 2.0)])
def test_check_torus_containment_large_q(p, q, beta):
    # q > 12: the torus side is q itself
    r = check_torus_containment(harper_spectrum(RationalFlux(p, q), beta))
    assert r.passed, r


def test_torus_size_guard():
    with pytest.raises(TorusSizeError):
        torus_oracle(RationalFlux(0, 1), 1.0, 65)


def test_convergents_golden_mean():
    theta = (np.sqrt(5.0) - 1.0) / 2.0
    got = [(f.p, f.q) for f in approximate_irrational(theta, 13)]
    assert got == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13)]


def test_convergents_half():
    got = [(f.p, f.q) for f in approximate_irrational(0.5, 10)]
    assert got == [(1, 2)]


def test_convergents_pi_minus_3():
    got = [(f.p, f.q) for f in approximate_irrational(np.pi - 3.0, 120)]
    assert got == [(1, 7), (15, 106), (16, 113)]


def test_convergents_integer():
    assert [(f.p, f.q) for f in approximate_irrational(3.0, 10)] == [(3, 1)]


def test_convergents_nonfinite():
    with pytest.raises(DomainError):
        approximate_irrational(float("nan"), 10)


def test_best_convergent_decimal():
    assert best_convergent(0.4142, 50) == RationalFlux(12, 29)
