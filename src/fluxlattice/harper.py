"""Spectrum of the discrete magnetic Laplacian M(theta, beta) on Z^2.

M acts as

    (M g)_{m,n} = e^{i pi n theta} g_{m+1,n} + e^{-i pi n theta} g_{m-1,n}
                  + beta^2 (e^{-i pi m theta} g_{m,n+1} + e^{i pi m theta} g_{m,n-1}),

a Harper-type operator with flux 2*pi*theta per plaquette (the phase sum
around one cell is -2*pi*theta).  For rational theta = p/q the Landau-gauge
Bloch reduction gives the q x q fiber

    H(k1,k2)_{jj}    = 2 beta^2 cos(2 pi theta j + k2)
    H(k1,k2)_{j,j+1} = e^{i k1},  H(k1,k2)_{j+1,j} = e^{-i k1}   (indices mod q),

and the Chambers relation states that

    P(E) = det(E I - H(k1,k2)) + 2 cos(q k1) + 2 beta^{2q} cos(q k2)

is independent of momentum.  The spectrum is P^{-1}([-L, L]) with
L = 2 + 2 beta^{2q}: exactly q closed bands (touching allowed) whose edges
are the eigenvalues of H at the extremal momenta (0,0) (P = +L) and
(pi/q, pi/q) (P = -L).  P is monotone on each band, so band i holds the i-th
eigenvalue of each fiber and nothing else: pairing the two sorted spectra by
index cannot misorder a band.  Each edge is then polished on a longdouble
fit of P (`_chambers_ld`, `_polish_edge`), which moves it by up to 2e-10
and is kept only until that fit is deleted: the unpolished eigenvalues are
the more accurate edges.

The Chambers determinants run in extended precision (numpy longdouble), from
the bands of H (diagonal, e^{i k1} and its conjugate) and never from a q x q
matrix.  `_det_transfer` takes det(E I - H) as the trace of q 2 x 2 transfer
matrices plus the wrap term -2 cos(q k1).  `chambers_defect` measures the
momentum independence with it alone, P(E) at the reference momentum included,
and divides by the largest term of the relation, 2 + 2 beta^{2q} + |P(E)|:
the terms reach 6e20 at q = 34, beta = 2, so only a relative defect can be
held to a fixed tolerance (1e-12 in `validate`).  Near theta = 1/2 the
transfer products outgrow P by orders of magnitude, and longdouble's 11 bits
beyond float64 are what keeps their rounding below that tolerance up to
q = 26.  `_det_cyclic` is a dense LU with partial pivoting on band data that
keeps only the three rows pivoting can touch at each step; the fit of P that
polishes the band edges takes its q+1 node determinants from it in one call.
H depends on p mod q only, and the spectrum is even in theta: the fiber at
-p/q is the complex conjugate of the fiber at p/q at momentum (-k1, -k2),
since M(-theta) = conj M(theta), and conjugation keeps a Hermitian spectrum
and the real polynomial P.  So p/q, (p + q)/q and (q - p)/q have one P and
one set of Harper bands, and both are cached once per
(min(p mod q, -p mod q), q, beta).

`torus_oracle` restricts M to an N x N torus and diagonalizes it through its N
momentum blocks (N x N each, N^4 work instead of N^6 for the dense matrix),
built without `_fiber`, so its eigenvalues check the bands independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TorusSizeError

_LD = np.longdouble
_CLD = np.clongdouble
_PI_LD = np.arccos(_LD(-1.0))  # pi beyond float64 precision
TORUS_DIM_GUARD = 4096         # refuse N^2 above this (N blocks of N x N)


@dataclass(frozen=True)
class RationalFlux:
    """Reduced fraction theta = p/q with q >= 1; p is not reduced mod q."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DomainError(f"flux denominator must be >= 1, got {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"flux {self.p}/{self.q} is not a reduced fraction")

    @property
    def theta(self) -> float:
        return self.p / self.q

    def __str__(self):
        return f"{self.p}/{self.q}"


def make_rational(p: int, q: int) -> RationalFlux:
    """Reduce p/q and normalize the denominator sign."""
    if q == 0:
        raise DomainError("flux denominator must be nonzero")
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return RationalFlux(p // g, q // g)


@dataclass(frozen=True)
class HarperBands:
    """Ordered band intervals of M(theta, beta) for rational flux."""

    flux: RationalFlux
    beta: float
    bands: tuple[tuple[float, float], ...]

    @property
    def edges(self) -> np.ndarray:
        return np.asarray([e for band in self.bands for e in band])

    def max_abs_edge(self) -> float:
        return float(np.max(np.abs(self.edges)))


def _fiber(p: int, q: int, beta, k1, k2) -> np.ndarray:
    h = np.zeros((q, q), dtype=complex)
    diag_amp = 2.0 * np.float64(beta) ** 2
    e = np.exp(1j * np.float64(k1))
    for j in range(q):
        # (p*j) mod q keeps angles in [0, 2 pi) and makes flux 1-periodicity exact
        h[j, j] += diag_amp * np.cos(2.0 * np.pi * np.float64((p * j) % q) / q
                                     + np.float64(k2))
        h[j, (j + 1) % q] += e
        h[(j + 1) % q, j] += e.conjugate()
    return h


def _fiber_bands(p: int, q: int, beta, k1, k2):
    """The bands of the Bloch fiber H(k1, k2) in complex longdouble, broadcast
    over arrays of momenta k1 and k2: (diag, upper, lower) with diag[..., j] =
    H[j, j], upper = H[j, j+1] and lower = H[j+1, j], indices mod q.  Each is
    summed from zero in `_fiber`'s order, so a dense longdouble fiber built
    that way holds the same entries bit for bit: for q = 1 both hops land on
    the diagonal, for q = 2 wrap and direct hop add up in upper and in lower."""
    j = np.arange(q)
    angle = 2.0 * _PI_LD * ((p % q) * j % q).astype(_LD) / _LD(q)
    k2 = np.asarray(k2, dtype=_LD)[..., None]
    diag = _CLD(0.0) + _LD(2.0) * _LD(beta) ** 2 * np.cos(angle + k2)
    e = np.exp(1j * np.asarray(k1, dtype=_LD))
    upper, lower = _CLD(0.0) + e, _CLD(0.0) + e.conjugate()
    if q == 1:
        diag = diag + e[..., None] + e.conjugate()[..., None]
    elif q == 2:
        upper, lower = upper + e.conjugate(), lower + e
    return diag, upper, lower


def bloch_matrix(f: RationalFlux, beta: float, k1: float, k2: float) -> np.ndarray:
    """The q x q Hermitian Bloch fiber H(k1, k2); for q = 1 the single entry is
    2 cos(k1) + 2 beta^2 cos(k2), for q = 2 wrap and direct hop add to 2 cos(k1)."""
    return _fiber(f.p, f.q, beta, k1, k2)


def _det_cyclic(energy, diag, upper, lower) -> np.ndarray:
    """det(E I - H) in complex longdouble for cyclic-tridiagonal H given by
    the bands of `_fiber_bands`; energy, diag[..., j], upper and lower
    broadcast together, and so does the result.

    Dense LU with partial pivoting on band data: pivoting keeps column c
    nonzero only in rows c, c+1 and q-1 (the wrap row gathers all fill-in),
    and those rows are zero outside columns {c, c+1, c+2, q-2, q-1}.  So the
    kernel holds just that window of every matrix, O(1) entries each, and
    loads row c+2 from the bands when it enters.  Pivots (the first row of
    largest modulus), row swaps and the arithmetic on nonzeros are those of
    the dense LU, so each determinant equals its result bit for bit.  A zero
    pivot gives det = 0 without dividing by it.
    """
    energy = np.asarray(energy, dtype=_LD)
    q = diag.shape[-1]
    shape = np.broadcast_shapes(energy.shape, diag.shape[:-1], np.shape(upper),
                                np.shape(lower))
    m = math.prod(shape)
    up = np.broadcast_to(-upper, shape).reshape(m)
    lo = np.broadcast_to(-lower, shape).reshape(m)

    def row(r):  # row r of E I - H as {column: entries}, before elimination
        d = np.broadcast_to(energy - diag[..., r], shape).reshape(m)
        if q == 1:
            return {0: d}
        if q == 2:
            return {r: d, 1 - r: lo if r else up}
        return {(r - 1) % q: lo, r: d, (r + 1) % q: up}

    def window(c):
        return sorted({c, c + 1, c + 2, q - 2, q - 1} & set(range(c, q)))

    det = np.ones(m, dtype=_CLD)
    if q == 1:
        return (det * row(0)[0]).reshape(shape)
    rows, cols = sorted({0, 1, q - 1}), window(0)
    a = np.zeros((m, len(rows), len(cols)), dtype=_CLD)
    for i, r in enumerate(rows):
        for col, val in row(r).items():
            a[:, i, cols.index(col)] = val
    stack = np.arange(m)
    singular = np.zeros(m, dtype=bool)
    for c in range(q - 1):
        piv = np.argmax(np.abs(a[:, :, 0]), axis=1)  # rows ascend: ties go to the first
        top = a[stack, piv]
        a[stack, piv] = a[:, 0]
        a[:, 0] = top
        det = np.where(piv != 0, -det, det)
        d = a[:, 0, 0]
        zero = d == 0
        singular |= zero
        d = np.where(zero, _CLD(1.0), d)  # a zero pivot's column is zero: no update
        det = det * d
        factors = a[:, 1:, 0] / d[:, None]
        a[:, 1:, 1:] -= factors[:, :, None] * a[:, None, 0, 1:]
        if c == q - 2:
            break
        # slide the window: rows c+1 and q-1 stay, row c+2 enters (unless it is q-1)
        nxt, ncols = sorted({c + 1, c + 2, q - 1}), window(c + 1)
        b = np.zeros((m, len(nxt), len(ncols)), dtype=_CLD)
        kept = [k for k, col in enumerate(ncols) if col in cols]
        src = [cols.index(ncols[k]) for k in kept]
        for new, old in ((0, 1), (-1, 2)):
            b[:, new, kept] = a[:, old, src]
        if c + 2 < q - 1:
            for col, val in row(c + 2).items():
                b[:, 1, ncols.index(col)] = val
        a, cols = b, ncols
    det = det * a[:, -1, -1]
    det[singular] = 0
    return det.reshape(shape)


def _det_transfer(energy, diag, upper, lower) -> np.ndarray:
    """det(E I - H) in complex longdouble from the bands of `_fiber_bands`,
    broadcast like `_det_cyclic`, as the trace of q transfer matrices:

        det(E I - H) = tr prod_j [[E - d_j, -u l], [1, 0]]
                       + (-1)^{q+1} ((-u)^q + (-l)^q)      (q >= 3),

    the continuant recursion of E I - H closed around its wrap hops.  For the
    fiber u l = 1 and the second term is -2 cos(q k1).  For q <= 2 the hops are
    folded into the bands, and the 1 x 1 or 2 x 2 determinant is taken as is.
    Its rounding error is a few q ulps of the permanent of |E I - H|, the sum
    of the moduli of the terms the trace adds up.
    """
    a = np.asarray(energy, dtype=_LD)[..., None] - diag
    q = a.shape[-1]
    if q == 1:
        return a[..., 0]
    if q == 2:
        return a[..., 0] * a[..., 1] - upper * lower
    w = -upper * lower
    # columns (x, y) of the running product, started at the identity
    x0, y0, x1, y1 = a[..., 0], _CLD(1.0), w, _CLD(0.0)
    for j in range(1, q):
        x0, y0 = a[..., j] * x0 + w * y0, x0
        x1, y1 = a[..., j] * x1 + w * y1, x1
    return x0 + y1 + (-1) ** (q + 1) * ((-upper) ** q + (-lower) ** q)


def _polyval_ld(coeffs_desc: np.ndarray, x):
    out = x * _LD(0.0)
    for c in coeffs_desc:
        out = out * x + c
    return out


@lru_cache(maxsize=256)
def _chambers_ld(p: int, q: int, beta: float) -> np.ndarray:
    """Descending longdouble coefficients of P(E) = det(E I - H(ref)) at the
    reference momentum (pi/2q, pi/2q), where both cosine terms vanish."""
    ref = _PI_LD / (2 * q)
    bound = _LD(2.0) + _LD(2.0) * _LD(beta) ** 2
    jj = np.arange(q + 1)
    nodes = bound * np.cos(_PI_LD * (2 * jj.astype(_LD) + 1) / (2 * (q + 1)))
    vals = np.real(_det_cyclic(nodes, *_fiber_bands(p, q, beta, ref, ref)))
    # Vandermonde solve, descending powers
    vander = np.vander(nodes, q + 1).astype(_LD)
    return _gauss_solve_ld(vander, vals)


def _gauss_solve_ld(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.astype(_LD, copy=True)
    b = b.astype(_LD, copy=True)
    n = a.shape[0]
    for col in range(n):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        d = a[col, col]
        factors = a[col + 1:, col] / d
        a[col + 1:, col:] -= np.outer(factors, a[col, col:])
        b[col + 1:] -= factors * b[col]
    x = np.zeros(n, dtype=_LD)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - np.dot(a[row, row + 1:], x[row + 1:])) / a[row, row]
    return x


def _mirror_class(f: RationalFlux) -> int:
    """The one numerator of theta = +-p/q mod 1 that the cached fit of P and
    the cached bands are keyed on: min(p mod q, -p mod q)."""
    return min(f.p % f.q, -f.p % f.q)


def chambers_polynomial(f: RationalFlux, beta: float) -> np.polynomial.Polynomial:
    """The degree-q Chambers polynomial P(E), momentum independent.

    Coefficients are fit from det(E I - H) at q+1 Chebyshev-spaced energies at
    the reference momentum (pi/2q, pi/2q), all q+1 determinants from one
    `_det_cyclic` call.  P is one real polynomial for p/q, (p + q)/q and
    (q - p)/q (M(-theta) = conj M(theta)), so the fit is cached, like the
    bands it polishes, per (min(p mod q, -p mod q), q, beta).
    `_harper_bands` reads the cached fit `_chambers_ld` directly for its
    band-edge polish, and `chambers_defect` takes P(E) from a transfer trace,
    so nothing in the package calls this wrapper; the tests check the fit
    through it.
    """
    coeffs_desc = _chambers_ld(_mirror_class(f), f.q, float(beta))
    return np.polynomial.Polynomial(np.asarray(coeffs_desc, dtype=float)[::-1])


def chambers_defect(f: RationalFlux, beta: float) -> float:
    """Max over a k-grid and in-band test energies of the relative defect

        |det(E I - H(k)) + 2 cos(q k1) + 2 beta^{2q} cos(q k2) - P(E)|
        / (2 + 2 beta^{2q} + |P(E)|),

    the measured momentum independence of the Chambers relation.  Every
    determinant, P(E) = det(E I - H) at the reference momentum (pi/2q, pi/2q)
    included, is one transfer trace of `_det_transfer` on the bands of the
    fibers, so no q x q matrix is built.  The denominator is the largest term
    of the relation, so longdouble rounding reads 1e-19 to 1e-16 wherever the
    transfer products stay near that size; near theta = 1/2 at q >= 27 they
    outgrow it, and so does the defect.
    """
    p, q = f.p, f.q
    n_k, n_e = 10, 5  # k-grid points per axis, test energies
    level = _LD(2.0) * _LD(beta) ** (2 * q)
    energies = (np.linspace(-0.8, 0.8, n_e) * float(2 + 2 * _LD(beta) ** 2)).astype(_LD)
    ref = _PI_LD / (2 * q)  # where both cosine terms vanish, so det = P
    poly = np.real(_det_transfer(energies, *_fiber_bands(p, q, beta, ref, ref)))
    kgrid = np.linspace(0.0, 2.0 * float(_PI_LD), n_k, endpoint=False).astype(_LD)
    k1, k2 = kgrid[:, None, None], kgrid[None, :, None]  # axes (k1, k2, energy)
    det = np.real(_det_transfer(energies, *_fiber_bands(p, q, beta, k1, k2)))
    val = det + 2 * np.cos(q * k1) + level * np.cos(q * k2)
    return float(np.max(np.abs(val - poly) / (2 + level + np.abs(poly))))


def harper_spectrum(f: RationalFlux, beta: float) -> HarperBands:
    """Band intervals {E : P(E) in [-L, L]}, L = 2 + 2 beta^{2q}.

    Band i is [min(e+_i, e-_i), max(e+_i, e-_i)], where e+ are the sorted
    eigenvalues of H(0,0) (roots of P = +L) and e- those of H(pi/q, pi/q)
    (roots of P = -L), paired by index.  P is monotone on each band, so every
    band holds exactly one root of each kind, and the i-th band holds the i-th
    of each: the pairing cannot misorder.  Each edge is then polished by
    bisection on the longdouble P when a sign change survives in a tight
    bracket (touching bands have double roots and keep the eigenvalue value).
    Touching bands stay separate intervals.  H depends on p mod q only, and
    M(-theta) = conj M(theta) has the same spectrum, so p/q, (p + q)/q and
    (q - p)/q share one cache entry, keyed (min(p mod q, -p mod q), q, beta),
    and each gets the bands with the flux asked for.
    """
    bands = _harper_bands(_mirror_class(f), f.q, float(beta))
    return HarperBands(flux=f, beta=float(beta), bands=bands)


@lru_cache(maxsize=256)
def _harper_bands(p: int, q: int, beta: float) -> tuple[tuple[float, float], ...]:
    e_plus, e_minus = (np.linalg.eigvalsh(_fiber(p, q, beta, k, k)).tolist()
                       for k in (0.0, np.pi / q))
    level = _LD(2.0) + _LD(2.0) * _LD(beta) ** (2 * q)
    if float(level) < 1e12:  # beyond that the polynomial scale swamps the edge scale
        coeffs = _chambers_ld(p, q, beta)
        e_plus = [_polish_edge(coeffs, e, level) for e in e_plus]
        e_minus = [_polish_edge(coeffs, e, -level) for e in e_minus]
    bound = 2.0 * (1.0 + beta ** 2)
    return tuple((max(min(a, b), -bound), min(max(a, b), bound))
                 for a, b in zip(e_plus, e_minus))


def _polish_edge(coeffs: np.ndarray, e: float, target) -> float:
    g = lambda x: _polyval_ld(coeffs, _LD(x)) - target
    delta = 1e-10 * max(1.0, abs(e))
    lo, hi = _LD(e - delta), _LD(e + delta)
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return float(lo)
    if ghi == 0 or glo * ghi > 0:
        return e  # double root (touching) or already at roundoff floor
    for _ in range(60):
        mid = (lo + hi) / 2
        gm = g(mid)
        if gm == 0:
            return float(mid)
        if gm * glo > 0:
            lo, glo = mid, gm
        else:
            hi = mid
    return float((lo + hi) / 2)


def torus_oracle(f: RationalFlux, beta: float, L: int) -> np.ndarray:
    """All N^2 eigenvalues of M restricted to an N x N torus, N = L q.

    Built in the Landau gauge (hops along m free, hops along n carry
    e^{-+ 2 pi i m theta}), unitarily equivalent to the paper gauge on the
    infinite lattice and wrap-consistent whenever q | N.  Nothing depends on
    n, so plane waves e^{-i k n}, k = 2 pi j / N, split the torus into N
    blocks: the N x N cyclic-tridiagonal matrices with unit hops along m and
    diagonal 2 beta^2 cos(2 pi ((p m) mod q) / q + k).  They are built here,
    not through `_fiber`, and diagonalized in one batched call.  Every
    eigenvalue must land inside a band of harper_spectrum.
    """
    if L < 1:
        raise DomainError(f"torus repetition count must be >= 1, got {L}")
    n = L * f.q
    if n * n > TORUS_DIM_GUARD:
        raise TorusSizeError(
            f"torus dimension N^2 = {n * n} exceeds the guard {TORUS_DIM_GUARD}")
    m = np.arange(n)
    hop = np.roll(np.eye(n), 1, axis=1)
    hop = hop + hop.T  # for N <= 2 the wrap and direct hops add up
    angle = 2.0 * np.pi * ((f.p * m) % f.q) / f.q
    k = 2.0 * np.pi * np.arange(n) / n
    blocks = np.broadcast_to(hop, (n, n, n)).copy()
    blocks[:, m, m] += 2.0 * float(beta) ** 2 * np.cos(angle[None, :] + k[:, None])
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def approximate_irrational(theta: float, q_max: int) -> list[RationalFlux]:
    """Continued-fraction convergents p_k/q_k of theta with q_k <= q_max.

    Returns the proper convergents (index >= 1) in increasing q order; an
    integer theta returns itself over 1.  Terminates early when the residual
    drops below float noise, so decimal inputs do not grow junk terms.
    """
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    if not np.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    a0 = math.floor(theta)
    frac = theta - a0
    if frac < 1e-12:
        return [RationalFlux(int(a0), 1)]
    out: list[RationalFlux] = []
    h, hp = a0, 1
    k, kp = 1, 0
    for _ in range(64):
        x = 1.0 / frac
        a = math.floor(x)
        frac = x - a
        h, hp = a * h + hp, h
        k, kp = a * k + kp, k
        if k > q_max:
            break
        out.append(RationalFlux(int(h), int(k)))
        if frac < 1e-12:
            break
    return out if out else [RationalFlux(int(a0), 1)]


def best_convergent(theta: float, q_max: int) -> RationalFlux:
    """The last continued-fraction convergent with denominator <= q_max."""
    return approximate_irrational(theta, q_max)[-1]
