import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (DomainError, RationalFlux, TorusSizeError,
                         approximate_irrational, best_convergent, chambers_defect,
                         harper_spectrum, make_rational, torus_oracle)
from fluxlattice import harper
from fluxlattice.harper import (_CLD, _LD, _PI_LD, _chambers_ld, _det_cyclic, _fiber,
                                _gauss_solve_ld, _harper_bands)
from fluxlattice.validation import check_chambers, check_torus_containment
from oracles import (dense_det_ld, dense_fiber, dense_kgrid_bands, landau_torus,
                     ordered_fiber, symmetric_gauge_torus)

SQ3 = np.sqrt(3.0)
THIRD_FLUX_BANDS = [(-1.0 - SQ3, -2.0), (1.0 - SQ3, SQ3 - 1.0), (2.0, 1.0 + SQ3)]


def chambers_coef(p, q, beta):
    """The fit of P that polishes the band edges, ascending and in float64."""
    return np.asarray(_chambers_ld(p, q, beta), dtype=float)[::-1]


def test_rational_flux_validation():
    with pytest.raises(DomainError):
        RationalFlux(2, 4)
    with pytest.raises(DomainError):
        RationalFlux(1, 0)
    assert make_rational(2, 4) == RationalFlux(1, 2)
    assert make_rational(3, -6) == RationalFlux(-1, 2)
    assert RationalFlux(4, 3).theta == pytest.approx(4 / 3)


def test_bloch_integer_flux_peak():
    h = _fiber(0, 1, 1.0, 0.0, 0.0)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(4.0)


def test_bloch_half_flux():
    h = _fiber(1, 2, 1.0, 0.0, 0.0)
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
        h = _fiber(p, q, beta, float(k1), float(k2))
        assert np.array_equal(h, h.conj().T)


def test_chambers_half_flux():
    assert np.allclose(chambers_coef(1, 2, 1.0), [-4.0, 0.0, 1.0], atol=1e-12)


def test_chambers_integer_flux():
    assert np.allclose(chambers_coef(0, 1, 1.0), [0.0, 1.0], atol=1e-12)


def test_chambers_third_flux():
    assert np.allclose(chambers_coef(1, 3, 1.0), [0.0, -6.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_chambers_independence(beta):
    for q in range(1, 9):
        for p in range(q):
            if np.gcd(p, q) == 1:
                assert chambers_defect(RationalFlux(p, q), beta) < 1e-9


@pytest.mark.parametrize("p,q", [(1, 3), (2, 5), (3, 8), (8, 21), (13, 34), (24, 49),
                                 (1, 31)])
def test_chambers_defect_sees_planted_fiber_error(p, q, monkeypatch):
    # 1e-6 cos(k1) added to one diagonal entry of the float64 fiber moves each
    # eigenvalue by about 1e-6 |v_0|^2 cos(k1), which c(k) does not fix, so
    # validate's check must fail.  Planted defects read 3.8e-8 (1/31, beta =
    # 2) to 3.3e-7 here, clean ones at most 3.8e-15
    f = RationalFlux(p, q)
    betas = (0.5, 1.0, 2.0)
    clean = [check_chambers(f, beta) for beta in betas]
    fiber = harper._fiber

    def planted(p, q, beta, k1, k2):
        h = fiber(p, q, beta, k1, k2)
        h[..., 0, 0] += 1e-6 * np.cos(k1)
        return h

    monkeypatch.setattr(harper, "_fiber", planted)
    for beta, clean_check in zip(betas, clean):
        planted_check = check_chambers(f, beta)
        assert clean_check.passed and clean_check.defect < 1e-14
        assert not planted_check.passed and planted_check.defect >= 1e-8


FAREY_50 = [(p, q) for q in range(1, 51) for p in range(q + 1) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 2.0])
def test_chambers_passes_default_range(beta):
    failing = [(p, q, r.defect) for p, q in FAREY_50
               if not (r := check_chambers(RationalFlux(p, q), beta)).passed]
    assert failing == []


# every default-range (p/q, beta) whose Chambers defect, then taken from
# longdouble transfer traces of det(E I - H), exceeded the tolerance 1e-12
# (up to 8.3e-7 at 24/49, beta = 1): the products outgrew the relation's
# terms near theta = 1/2
FORMERLY_FAILING_CHAMBERS = [(p, q, beta) for beta, fluxes in {
    1.0: [(13, 27), (14, 27), (14, 29), (15, 29), (15, 31), (16, 31), (16, 33),
          (17, 33), (17, 35), (18, 35), (17, 36), (19, 36), (18, 37), (19, 37),
          (19, 39), (20, 39), (19, 40), (21, 40), (20, 41), (21, 41), (21, 43),
          (22, 43), (21, 44), (23, 44), (22, 45), (23, 45), (22, 47), (23, 47),
          (24, 47), (23, 48), (25, 48), (23, 49), (24, 49), (25, 49), (26, 49)],
    1.3: [(20, 41), (21, 41), (21, 43), (22, 43), (22, 45), (23, 45), (23, 47),
          (24, 47), (24, 49), (25, 49)],
}.items() for p, q in fluxes]


@pytest.mark.parametrize("p,q,beta", FORMERLY_FAILING_CHAMBERS)
def test_chambers_passes_where_transfer_trace_failed(p, q, beta):
    r = check_chambers(RationalFlux(p, q), beta)
    assert r.passed and r.defect <= 1e-14, r


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


@pytest.mark.parametrize("p,q,beta", [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (5, 13, 1.0),
                                      (13, 34, 0.5), (1, 50, 2.0)])
def test_chambers_fit_matches_dense_fit(p, q, beta):
    # the fit of P with one dense LU per node, then the same solve
    ref = _PI_LD / (2 * q)
    href = ordered_fiber(p, q, beta, ref, ref)
    bound = _LD(2.0) + _LD(2.0) * _LD(beta) ** 2
    jj = np.arange(q + 1)
    nodes = bound * np.cos(_PI_LD * (2 * jj.astype(_LD) + 1) / (2 * (q + 1)))
    eye = np.eye(q, dtype=_CLD)
    vals = np.array([np.real(dense_det_ld(node * eye - href)) for node in nodes], dtype=_LD)
    dense = _gauss_solve_ld(np.vander(nodes, q + 1).astype(_LD), vals)
    assert np.array_equal(_chambers_ld(p, q, beta), dense)


def test_chambers_defect_peak_memory():
    # one stack of the 24 fibers of q = 50, 0.96 MB, and one batched eigvalsh
    # on it: 1.05 MB measured, so a second copy of the stack would show
    tracemalloc.start()
    try:
        chambers_defect(RationalFlux(1, 50), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(-120, 120), st.floats(0.3, 2.5),
       st.sampled_from([0, 3, 7]), st.booleans())
def test_fiber_row_matches_fiber(q, p, beta, k1_index, negate):
    # a stack of fibers along k2 at one k1, broadcast like the momenta
    # chambers_defect passes, against fibers built one entry at a time in
    # float64; q <= 2 (hops add), p < 0 and p >= q all occur, and -k1 covers
    # negative momenta and a -0.0 at index 0
    kgrid = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    k1 = -kgrid[k1_index] if negate else kgrid[k1_index]
    stack = _fiber(p, q, beta, k1, kgrid)
    loop = np.stack([ordered_fiber(p, q, beta, k1, k2, real=np.float64) for k2 in kgrid])
    assert stack.shape == (10, q, q)
    assert np.array_equal(stack, loop)
    for part in (np.real, np.imag):  # the signs of zeros too: bit for bit
        assert np.array_equal(np.signbit(part(stack)), np.signbit(part(loop)))


def test_chambers_fit_shared_across_flux_period():
    # H depends on p mod q only, so the fit at p + q is the fit at p bit for
    # bit; the band edges key it on min(p mod q, -p mod q), so 3/8, 11/8 and
    # its mirror 5/8 read one fit
    assert np.array_equal(_chambers_ld(11, 8, 1.0), _chambers_ld(3, 8, 1.0))
    _chambers_ld.cache_clear()
    for p in (3, 11, 5):
        _harper_bands.cache_clear()
        harper_spectrum(RationalFlux(p, 8), 1.0)
    assert _chambers_ld.cache_info().misses == 1


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
                edges = np.concatenate([
                    np.linalg.eigvalsh(_fiber(p, q, beta, k, k))
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
    # the guard bounds the side N, not N^2: N = 257 is refused before any
    # block is built
    with pytest.raises(TorusSizeError, match="N = 257"):
        torus_oracle(RationalFlux(0, 1), 1.0, 257)


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
