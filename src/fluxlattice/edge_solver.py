"""Edge Sturm-Liouville solver: basis solutions and Dirichlet spectrum.

For a spectral parameter z the two canonical solutions of -u'' + (V - z) u = 0
on [0,l] are

    u1(0)=0, u1'(0)=1        u2(0)=1, u2'(0)=0,

with Wronskian u1'*u2 - u1*u2' identically 1.  Everything downstream (the
discriminant eta, the Kronig-Penney trace) is a combination of the four
endpoint values (u1(l), u1'(l), u2(l), u2'(l)).

Propagation: one formula crosses every cell of the edge, the fourth-order
Magnus exponential (Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009) 151).
On a cell [t, t+h] on which V is linear, with Gauss nodes t-/+ = t + h (1/2
-/+ sqrt(3)/6), it is exp [[d, h], [h (vbar - z), -d]], where vbar is the
mean of V at t-/+ and d = (sqrt(3)/12) h^2 (V(t-) - V(t+)) the commutator
term, diagonal and free of z.  The exponent is traceless, so with e = d / h
and w^2 = z - vbar - e^2

    [u ]  ->  [ C + e S           S      ] [u ]     C = cos(w h)
    [u']      [ -(z - vbar) S     C - e S ] [u']     S = sin(w h) / w

(trigonometric for w^2 > 0, hyperbolic below; one code path via complex
sqrt), with determinant 1.  A constant segment is the exact cell d = 0, so a
piecewise-constant potential is one cell per segment; a sampled potential is
max(sample cells, 2048) cells, fixed by the potential, never by z, so no
number depends on the batch.  The basis and the Pruefer count both read the
cell products of `_propagate`, vectorized over a batch of z values.

The Dirichlet eigenvalues here and every root of eta in `discriminant`
(window centres, window edges, inversions) come from one bracketed solver,
`_solve_batch`: Anderson-Bjorck regula falsi (BIT 13 (1973) 253),
superlinear without a derivative, with bisection as the safeguard, ending
each root with a sign change inside a bracket at most EDGE_TOL_Z wide.  The
solver never evaluates its bracket ends: the caller passes their values,
which it already holds, or NaN where only their sign would be needed and
rounding decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketingError, ConsistencyError, IntegrationOverflowError
from .potential import Potential

_MIN_CELLS = 2048   # cells of a sampled potential with fewer sample cells
_BLOCK = 64         # cells per block of the product in `_propagate`
_CHUNK = 1 << 18    # cells x z values per chunk of a batch
EDGE_TOL_Z = 1e-10  # width of the bracket certifying each root, absolute in z


@dataclass(frozen=True)
class DirichletSpectrum:
    """First eigenvalues of the Dirichlet edge operator, strictly increasing,
    and two endpoint values at each: nu_k = u1'(l; mu_k) + u2(l; mu_k), so
    that eta(mu_k) = (1+beta^2) nu_k (the alpha term drops since u1(l; mu_k)
    = 0), and u2'(l; mu_k).  Where |nu_k| = 2, u1' = u2 = nu_k / 2 by the
    Wronskian, so with u1 = 0 they fix the edge's transfer matrix at mu_k.
    tolerances holds each mu_k's error estimate: the size of the final
    long-double Newton step, floored at eps * max(1, |mu_k|)."""

    eigenvalues: tuple[float, ...]
    tolerances: tuple[float, ...]
    nus: tuple[float, ...]
    du2s: tuple[float, ...]


@lru_cache(maxsize=64)
def _cells(p: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vbar, e, h) of every cell: the mean of V at its Gauss nodes, d / h
    and its width.  A segment is one cell with e = 0; a sample interval is
    ceil(2048 / sample cells) equal cells, on which V is linear."""
    if p.is_piecewise:
        vbar, h = (np.asarray(x, dtype=float) for x in zip(*p.segments()))
        return vbar, np.zeros_like(vbar), h
    g = np.asarray(p.grid, dtype=float)
    parts = -(-_MIN_CELLS // (len(g) - 1))
    t = np.append(g[:-1, None] + np.diff(g)[:, None] * (np.arange(parts) / parts), g[-1])
    h = np.diff(t)
    r = np.sqrt(3.0) / 6.0
    v_minus, v_plus = p.values_on(t[:-1] + h * (0.5 - r)), p.values_on(t[:-1] + h * (0.5 + r))
    return 0.5 * (v_minus + v_plus), (r / 2.0) * h * (v_minus - v_plus), h


def _propagate(p: Potential, z: np.ndarray):
    """Transfer matrices [[a, b], [c, d]] from t=0 to the right end of every
    cell, as (a, b, c, d) of shape (cells, z.size) for a flat z in double or
    long double, and the cells' (w^2, e, h) for the Pruefer count.

    A left fold inside every block of `_BLOCK` cells (all blocks at once),
    then one across the blocks.  Applied to (0, 1) or (1, 0), a left fold is
    the cell-by-cell walk bit for bit, and on at most `_BLOCK` cells the
    whole product is one left fold.
    """
    vbar, e, h = (x[:, None] for x in _cells(p))
    zv = z - vbar
    w2 = zv - e * e
    arg = np.sqrt(w2 + 0j) * h
    C = np.cos(arg).real
    S = (h * np.sinc(arg / np.pi)).real  # sin(w h)/w with exact w->0 limit
    eS = e * S
    n = len(h)
    blocks = -(-n // _BLOCK)
    size = -(-n // blocks)
    m = [np.concatenate([x, np.full((blocks * size - n, len(z)), fill, dtype=x.dtype)])
         .reshape(blocks, size, len(z))  # identity cells pad the last block
         for x, fill in ((C + eS, 1.0), (S, 0.0), (-(zv * S), 0.0), (C - eS, 1.0))]
    folds = [(np.s_[:, i], np.s_[:, i - 1]) for i in range(1, size)]
    folds += [(np.s_[j], np.s_[j - 1, -1]) for j in range(1, blocks)]
    for cell, before in folds:
        a, b, c, d = (x[cell] for x in m)
        pa, pb, pc, pd = (x[before] for x in m)
        for x, y in zip(m, (a * pa + b * pc, a * pb + b * pd, c * pa + d * pc, c * pb + d * pd)):
            x[cell] = y
    return tuple(x.reshape(-1, len(z))[:n] for x in m), (w2, e, h)


def _chunked(kernel, p: Potential, z: np.ndarray) -> np.ndarray:
    """kernel(p, part) over parts of the flattened z of about `_CHUNK` cells x
    values each, joined along the last axis, which takes the shape of z."""
    flat = z.reshape(-1)
    size = max(1, _CHUNK // len(_cells(p)[2]))
    out = np.concatenate([kernel(p, flat[i:i + size])
                          for i in range(0, max(flat.size, 1), size)], axis=-1)
    return out.reshape(out.shape[:-1] + z.shape)


# overflow far below the spectrum is reported by `_finite`, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _basis_many(p: Potential, z: np.ndarray):
    """Vectorized endpoint values: (u1, du1, u2, du2) arrays of z.shape, in
    double, or in long double for a long double z."""
    z = np.asarray(z)
    z = z.astype(np.promote_types(z.dtype, float), copy=False)
    a, b, c, d = _chunked(
        lambda p, part: _finite(p, np.stack([x[-1] for x in _propagate(p, part)[0]])), p, z)
    return b, d, a, c


def _finite(p: Potential, x: np.ndarray) -> np.ndarray:
    """x, or IntegrationOverflowError if any of it is not finite."""
    if not np.all(np.isfinite(x)):
        raise IntegrationOverflowError(
            "edge propagation overflowed (z too far below the spectrum for "
            f"l={p.l}); rescale the scan range")
    return x


def _count_chunk(p: Potential, z: np.ndarray) -> np.ndarray:
    (_, u, _, du), (w2, e, h) = _propagate(p, z)
    u, du = _finite(p, u), _finite(p, du)
    u = np.concatenate([np.zeros((1, len(z))), u])   # u1 at t=0 and every cell end
    du = np.concatenate([np.ones((1, len(z))), du])
    sign = np.sign(u)
    zeros = sign[:-1] * (sign[:-1] - sign[1:]) > 0  # u1 changes sign or becomes zero
    osc = w2 > 1e-14
    w = np.sqrt(np.where(osc, w2, 1.0))
    # a state's half-turn floor(angle / pi), angle of (w u, e u + u') in
    # (-pi, pi], is -1 for u < 0, 1 on the negative u' axis, else 0
    delta = np.arctan2(u[:-1] * w, du[:-1] + e * u[:-1])
    half = ((u == 0.0) & (du < 0.0)).astype(np.int64) - (u < 0.0)
    turns = np.round((delta + w * h - (half[1:] + 0.5) * np.pi) / (2.0 * np.pi))
    zeros = np.where(osc, 2 * turns.astype(np.int64) + half[1:] - half[:-1], zeros)
    return zeros.sum(axis=0) - (u[-1] == 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _count_below_many(p: Potential, z: np.ndarray) -> np.ndarray:
    """Number of Dirichlet eigenvalues below each z (Pruefer oscillation count).

    Counts zeros of u1(.; z) on (t0, t1] of each cell of `_propagate`: on a
    cell with w^2 > 0, where u = A sin(w t + delta), the multiples of pi that
    the phase of (w u, e u + u') passes, with the end phase delta + w h read
    in the half-turn of the computed end state, which the next cell starts
    from, so a zero on a cell boundary is counted once; else 1 if u1 changes
    sign or becomes zero.  A zero exactly at t=l is not interior.  A cell is
    a constant-coefficient Hamiltonian system, so the count is exact for the
    cells, and it changes where the basis's u1(l; z) changes sign.
    """
    return _chunked(_count_chunk, p, np.asarray(z, dtype=float))


def _solve_batch(g, lo, hi, g_lo, g_hi):
    """Vectorized bracketed root finder for g(z) = 0, one bracket per lane.

    Brackets require lo < hi and one sign change inside; g_lo and g_hi are
    g at the bracket ends, which the caller already holds, so g is never
    evaluated there.  An end value may be NaN when its sign is unknown (a
    value on the threshold, whose sign is rounding); the other end then sets
    the orientation.  g(z, lanes) maps points z of the lanes `lanes` (an
    index array) to values.  Each step is an Anderson-Bjorck regula falsi
    step; a lane bisects when its bracket has not halved in three steps or an
    endpoint value is NaN or contradicts the bracket's signs.  When a lane's
    next point x lies within EDGE_TOL_Z/2 of its last one, g is also taken
    at x -+ EDGE_TOL_Z/2 in the same call: a sign change among the three ends
    the lane at the one of smallest |g|, three equal signs narrow the bracket
    past them.  A lane whose bracket is at most EDGE_TOL_Z wide, or whose two
    ends are adjacent doubles (|z| >= 2^19, where one ulp exceeds
    EDGE_TOL_Z), ends at its endpoint of smaller |g|.  Every root thus comes
    with a sign change inside a bracket at most max(EDGE_TOL_Z, one ulp) wide.
    """
    half = 0.5 * EDGE_TOL_Z
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    n = a.size
    g_lo, g_hi = np.asarray(g_lo, dtype=float), np.asarray(g_hi, dtype=float)
    s = np.where((g_lo > 0) | (g_hi < 0), 1.0, -1.0)  # oriented: > 0 at a, < 0 at b
    fa = np.where(s * g_lo > 0, s * g_lo, np.nan)  # NaN: unknown or contradicts
    fb = np.where(s * g_hi < 0, s * g_hi, np.nan)
    lane = np.arange(n)
    x = np.empty(n)
    side = np.zeros(n, dtype=int)  # end the last step replaced: -1 a, +1 b
    stall = np.zeros(n, dtype=int)
    ref = b - a                    # width when the bracket last halved
    done = np.zeros(n, dtype=bool)
    for _ in range(300):
        narrow = ~done & ((b - a <= EDGE_TOL_Z) | (np.nextafter(a, b) >= b))
        if np.any(narrow):
            ga = np.where(np.isnan(fa), np.inf, np.abs(fa))
            gb = np.where(np.isnan(fb), np.inf, np.abs(fb))
            end = np.where(gb < ga, b, np.where(ga < np.inf, a, 0.5 * (a + b)))
            x[lane[narrow]] = end[narrow]
            done |= narrow
        if np.any(done):
            lane, s, a, b, fa, fb, side, stall, ref = (
                v[~done] for v in (lane, s, a, b, fa, fb, side, stall, ref))
        if not lane.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - fb * (b - a) / (fb - fa)
        # a secant step that rounds onto its last point is ready, not stuck
        ready = (side != 0) & (c >= a) & (c <= b) & (
            np.abs(c - np.where(side > 0, b, a)) <= half)
        bis = ~ready & (~((c > a) & (c < b)) | (stall >= 3))  # NaN secant: bisect
        c = np.where(bis, 0.5 * (a + b), c)
        r = np.flatnonzero(ready)
        if r.size:
            c_lo, c_hi = np.maximum(c[r] - half, a[r]), np.minimum(c[r] + half, b[r])
            at = np.concatenate((np.arange(lane.size), r, r))
            f = s[at] * g(np.concatenate((c, c_lo, c_hi)), lane[at])
            f_lo, f_hi = f[lane.size:lane.size + r.size], f[lane.size + r.size:]
        else:
            f = s * g(c, lane)
        fc = f[:lane.size]
        # Anderson-Bjorck: when c replaces the same end as the last step did,
        # the kept end's value is scaled by m = 1 - f(c)/f(replaced end), or
        # by 1/2 when that is not positive
        up = fc > 0  # c replaces a
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - fc / np.where(up, fa, fb)
        repeat = (side == np.where(up, -1, 1)) & ~bis
        m = np.where(repeat, np.where(m > 0, m, 0.5), 1.0)
        a, fa = np.where(up, c, a), np.where(up, fc, m * fa)
        b, fb = np.where(up, b, c), np.where(up, m * fb, fc)
        side = np.where(up, -1, 1)
        done = fc == 0.0
        x[lane[done]] = c[done]
        if r.size:
            above = (f_lo > 0) & (fc[r] > 0) & (f_hi > 0)  # root above all three
            below = (f_lo < 0) & (fc[r] < 0) & (f_hi < 0)
            sure = ~(above | below)
            p3 = np.stack((c[r], c_lo, c_hi))
            f3 = np.abs(np.stack((fc[r], f_lo, f_hi)))
            best = p3[np.argmin(f3, axis=0), np.arange(r.size)]  # ties keep c
            x[lane[r[sure]]] = best[sure]
            done[r[sure]] = True
            a[r[above]], fa[r[above]] = c_hi[above], f_hi[above]
            b[r[below]], fb[r[below]] = c_lo[below], f_lo[below]
            side[r] = 0
        width = b - a
        halved = width <= 0.5 * ref
        ref = np.where(halved, width, ref)
        stall = np.where(halved, 0, stall + 1)
    else:  # iteration cap: the lanes left end at their brackets' midpoints
        x[lane[~done]] = 0.5 * (a + b)[~done]
    return x


@lru_cache(maxsize=64)
def dirichlet_eigenvalues(p: Potential, k_max: int) -> DirichletSpectrum:
    """First k_max+1 zeros of z -> u1(l; z).

    Brackets from the oscillation count, seeded at mu_k ~ ((k+1) pi / l)^2 +
    mean(V) and never below inf V, under which no mu_k lies; bisection on
    the count, one midpoint a call, until each bracket holds mu_k alone
    (count k at its lower end, k+1 at its upper end); then `_solve_batch` on
    u1(l; .) in every bracket at once, from the end values of one batched
    propagation.  In double, u1(l; .) is known to a few
    ulps of z only, so the solver's last bits follow its path (mu_0 of the
    free edge: 1.0 from below, 1.0 + 1 ulp from above); one Newton step with
    u1(l; z) in long double ends on the double nearest the root of the
    computed u1(l; .).  Its slope, a central difference of u1(l; .), also
    verifies simplicity.  One more batched propagation at the final mu_k
    gives nu_k and u2'(l; mu_k).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    ks = np.arange(k_max + 1)
    spacing = (np.pi / p.l) ** 2
    seeds = ((ks + 1) * np.pi / p.l) ** 2 + p.mean()
    width = np.maximum(1.5 * spacing * (ks + 1), 2.0 * spacing)
    floor = p.infimum()
    lo, hi = np.maximum(seeds - width, floor), seeds + width
    for attempt in range(64):
        c_lo, c_hi = _count_below_many(p, np.stack([lo, hi]))
        bad_lo = c_lo > ks
        bad_hi = c_hi < ks + 1
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        lo = np.where(bad_lo, np.maximum(lo - width, floor), lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = width * 2.0
    else:
        k_bad = int(np.argmax(bad_lo | bad_hi))
        raise BracketingError(
            f"could not bracket mu_{k_bad} from asymptotic seed {seeds[k_bad]:.6g}",
            (float(lo[k_bad]), float(hi[k_bad])))

    # bisection on the count predicate [count(z) >= k+1], every bracket at
    # once, until each isolates its mu_k
    while np.any(loose := (c_lo < ks) | (c_hi > ks + 1)):
        mid = 0.5 * (lo + hi)
        if np.any(loose & ((mid <= lo) | (mid >= hi))):
            raise ConsistencyError("Dirichlet eigenvalues not strictly increasing")
        c_mid = _count_below_many(p, mid)
        up = c_mid >= ks + 1
        lo, c_lo = np.where(up, lo, mid), np.where(up, c_lo, c_mid)
        hi, c_hi = np.where(up, mid, hi), np.where(up, c_mid, c_hi)

    z = _solve_batch(lambda zz, _: _basis_many(p, zz)[0], lo, hi,
                     *_basis_many(p, np.stack([lo, hi]))[0])
    dz = 1e-7 * np.maximum(1.0, np.abs(z))
    u_up, u_down = _basis_many(p, np.stack([z + dz, z - dz]))[0]
    slope = (u_up - u_down) / (2.0 * dz)
    if np.any(np.abs(slope) * np.maximum(1.0, np.abs(z)) < 1e-13):
        raise ConsistencyError("a Dirichlet root failed the simplicity check")
    # the solver leaves z within max(EDGE_TOL_Z, 1 ulp) of a sign change of
    # double u1(l; .), which can be flat over more than 5 ulps of z (free
    # edge, mu_1418); the cap only stops a step thrown by a poor slope
    cap = np.maximum(EDGE_TOL_Z, 1e-12 * np.abs(z))
    step = np.clip(_basis_many(p, z.astype(np.longdouble))[0] / slope, -cap, cap)
    z = (z - step).astype(float)
    if np.any(np.diff(z) <= 0):
        raise ConsistencyError("Dirichlet eigenvalues not strictly increasing")
    achieved = np.maximum(np.abs(step).astype(float),
                          np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
    _, du1, u2, du2 = _basis_many(p, z)
    return DirichletSpectrum(tuple(float(v) for v in z),
                             tuple(float(v) for v in achieved),
                             tuple(float(v) for v in du1 + u2),
                             tuple(float(v) for v in du2))


def round_up_index(k: int) -> int:
    """The smallest 2^m * 8 - 1 >= k, so nearby indices share one cache entry."""
    k_round = 7
    while k_round < k:
        k_round = 2 * k_round + 1
    return k_round

