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

Because of the Chambers relation, spec H(k) depends on c(k) = 2 cos(q k1) +
2 beta^{2q} cos(q k2) alone.  `chambers_defect` checks that: it takes fixed
momentum pairs (k, k') with c(k') = c(k) and k' != k, builds all their
fibers in one `_fiber` call, and compares the sorted spectra from one
batched `eigvalsh`.  Both sides are backward-stable float64 eigenvalues, so
no product of transfer matrices enters and the defect stays at rounding
level at every q.  It shows only that spec H(k) depends on c(k); it does
not show that det(E I - H(k)) is linear in c.  The band edges and the check
read the one fiber builder.  The fit of P that polishes the band edges runs
in extended precision (numpy longdouble) on the bands of H at the reference
momentum (`_fiber_bands`); `_det_cyclic`, a dense LU with partial pivoting
on band data that keeps only the three rows pivoting can touch at each
step, gives its q+1 node determinants in one call.

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
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
TORUS_SIDE_GUARD = 256         # refuse N above this: N blocks of N x N, 8 N^3 bytes


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


def _fiber(p: int, q: int, beta, k1, k2) -> np.ndarray:
    """The Bloch fibers H(k1, k2), stacked over the broadcast shape of the
    momenta: shape (..., q, q).  Each entry is summed from zero, the diagonal
    first and then each hop, so for q = 1 both hops land on the diagonal and
    for q = 2 wrap and direct hop add up."""
    k1, k2 = np.broadcast_arrays(np.asarray(k1, dtype=float), np.asarray(k2, dtype=float))
    j = np.arange(q)
    nxt = (j + 1) % q
    h = np.zeros(k1.shape + (q, q), dtype=complex)
    # (p*j) mod q keeps angles in [0, 2 pi) and makes flux 1-periodicity exact
    angle = 2.0 * np.pi * ((p * j) % q).astype(float) / q
    h[..., j, j] += 2.0 * np.float64(beta) ** 2 * np.cos(angle + k2[..., None])
    e = np.exp(1j * k1)[..., None]
    h[..., j, nxt] += e
    h[..., nxt, j] += e.conjugate()
    return h


def _fiber_bands(p: int, q: int, beta, k):
    """The bands of the Bloch fiber H(k, k) in complex longdouble: (diag,
    upper, lower) with diag[j] = H[j, j], upper = H[j, j+1] and lower =
    H[j+1, j], indices mod q, each summed in `_fiber`'s order: for q = 1 both
    hops land on the diagonal, for q = 2 wrap and direct hop add up in upper
    and in lower."""
    j = np.arange(q)
    angle = 2.0 * _PI_LD * ((p % q) * j % q).astype(_LD) / _LD(q)
    diag = _CLD(0.0) + _LD(2.0) * _LD(beta) ** 2 * np.cos(angle + k)
    e = np.exp(1j * _LD(k))
    upper, lower = _CLD(0.0) + e, _CLD(0.0) + e.conjugate()
    if q == 1:
        diag = diag + e + e.conjugate()
    elif q == 2:
        upper, lower = upper + e.conjugate(), lower + e
    return diag, upper, lower


def _det_cyclic(energy, diag, upper, lower) -> np.ndarray:
    """det(E I - H) in complex longdouble for cyclic-tridiagonal H given by
    bands like those of `_fiber_bands`; energy, diag[..., j], upper and lower
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


def _polyval_ld(coeffs_desc: np.ndarray, x):
    out = x * _LD(0.0)
    for c in coeffs_desc:
        out = out * x + c
    return out


@lru_cache(maxsize=256)
def _chambers_ld(p: int, q: int, beta: float) -> np.ndarray:
    """Descending longdouble coefficients of the degree-q Chambers polynomial
    P(E) = det(E I - H(ref)) at the reference momentum (pi/2q, pi/2q), where
    both cosine terms vanish.

    Fit from det(E I - H) at q+1 Chebyshev-spaced energies, all q+1
    determinants from one `_det_cyclic` call.  `_harper_bands` polishes its
    edges on this fit and keys it, like the bands, on min(p mod q, -p mod q),
    so p/q, (p + q)/q and (q - p)/q share one fit.
    """
    ref = _PI_LD / (2 * q)
    bound = _LD(2.0) + _LD(2.0) * _LD(beta) ** 2
    jj = np.arange(q + 1)
    nodes = bound * np.cos(_PI_LD * (2 * jj.astype(_LD) + 1) / (2 * (q + 1)))
    vals = np.real(_det_cyclic(nodes, *_fiber_bands(p, q, beta, ref)))
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


def chambers_defect(f: RationalFlux, beta: float) -> float:
    """The measured momentum independence of the Chambers relation: max over
    12 fixed momentum pairs (k, k'), k' != k, with c(k') = c(k), of

        max_i |lambda_i(H(k)) - lambda_i(H(k'))| / 2(1 + beta^2),

    the sorted spectra compared index by index, relative to the bound
    2(1 + beta^2) on ||H||.  k runs over two Kronecker sequences, so q k1 and
    q k2 spread over the torus at every q.  Divided by its larger weight, c
    is r cos(q u) + cos(q v): u is the momentum of the smaller weight (k1 for
    beta >= 1, k2 otherwise), v the other, and r = beta^{-2q} for beta >= 1,
    beta^{2q} otherwise, so r <= 1.  k' has v as its u-component and, as its
    v-component, the s in [0, pi/q] with cos(q s) = r cos(q u) + (1 - r)
    cos(q v), which exists since the right side is a convex combination of
    cosines.  All 24 fibers come from one `_fiber` call and their eigenvalues
    from one batched `eigvalsh`, so the defect is float64 rounding, about
    eps ||H||, at every q.  Equal spectra show that spec H(k) depends on c(k)
    only, not that det(E I - H(k)) is linear in c.
    """
    n, q = 12, f.q
    m = np.arange(1, n + 1)
    a = 2.0 * np.pi * (m / _GOLDEN % 1.0)
    b = 2.0 * np.pi * (m / math.sqrt(2.0) % 1.0)
    r = float(beta) ** (-2 * q if beta >= 1.0 else 2 * q)
    u, v = (a, b) if beta >= 1.0 else (b, a)
    s = np.arccos(np.clip(r * np.cos(q * u) + (1.0 - r) * np.cos(q * v), -1.0, 1.0)) / q
    k1, k2 = (v, s) if beta >= 1.0 else (s, v)
    fibers = _fiber(f.p, q, beta, np.concatenate([a, k1]), np.concatenate([b, k2]))
    lam = np.linalg.eigvalsh(fibers)
    return float(np.max(np.abs(lam[:n] - lam[n:]))) / (2.0 * (1.0 + beta ** 2))


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
    k = np.array([0.0, np.pi / q])
    e_plus, e_minus = np.linalg.eigvalsh(_fiber(p, q, beta, k, k)).tolist()
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
    if n > TORUS_SIDE_GUARD:
        raise TorusSizeError(f"torus side N = {n} exceeds the guard {TORUS_SIDE_GUARD}")
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


def resolve_flux(theta, q_max: int) -> tuple[RationalFlux, str | None]:
    """theta (a RationalFlux or a float) as an exact flux: a float becomes its
    best convergent with q <= q_max, reported as "p/q" unless equal to it."""
    if isinstance(theta, RationalFlux):
        return theta, None
    flux = best_convergent(theta, q_max)
    exact = abs(flux.theta - theta) < 1e-12 * max(1.0, abs(theta))
    return flux, (None if exact else str(flux))
