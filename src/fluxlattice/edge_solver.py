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
_BISECT_DEPTHS = (5, 5, 5, 5, 6)  # count-bisection steps per batched count


@dataclass(frozen=True)
class DirichletSpectrum:
    """First eigenvalues of the Dirichlet edge operator, strictly increasing,
    and two endpoint values at each: nu_k = u1'(l; mu_k) + u2(l; mu_k), so
    that eta(mu_k) = (1+beta^2) nu_k (the alpha term drops since u1(l; mu_k)
    = 0), and u2'(l; mu_k).  Where |nu_k| = 2, u1' = u2 = nu_k / 2 by the
    Wronskian, so with u1 = 0 they fix the edge's transfer matrix at mu_k."""

    eigenvalues: tuple[float, ...]
    tolerances: tuple[float, ...]  # achieved per-eigenvalue error estimates
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


# overflow far below the spectrum is reported by the isfinite guard, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _basis_many(p: Potential, z: np.ndarray):
    """Vectorized endpoint values: (u1, du1, u2, du2) arrays of z.shape, in
    double, or in long double for a long double z."""
    z = np.asarray(z)
    z = z.astype(np.promote_types(z.dtype, float), copy=False)
    a, b, c, d = ends = _chunked(
        lambda p, part: np.stack([x[-1] for x in _propagate(p, part)[0]]), p, z)
    if not np.all(np.isfinite(ends)):
        raise IntegrationOverflowError(
            "edge propagation overflowed (z too far below the spectrum for "
            f"l={p.l}); rescale the scan range")
    return b, d, a, c


def _count_chunk(p: Potential, z: np.ndarray) -> np.ndarray:
    (_, u, _, du), (w2, e, h) = _propagate(p, z)
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


@lru_cache(maxsize=64)
def dirichlet_eigenvalues(p: Potential, k_max: int) -> DirichletSpectrum:
    """First k_max+1 zeros of z -> u1(l; z).

    Isolation by the oscillation count, seeded at mu_k ~ ((k+1) pi / l)^2 +
    mean(V); bisection on the count pins each root down, a safeguarded Newton
    iteration on u1(l; z) polishes it, one last Newton step with u1(l; z) in
    long double rounds it to the nearest double, and a central difference of
    u1(l; .) verifies simplicity.  One more batched propagation at the final mu_k
    gives nu_k and u2'(l; mu_k).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    ks = np.arange(k_max + 1)
    vbar = p.mean()
    spacing = (np.pi / p.l) ** 2
    seeds = ((ks + 1) * np.pi / p.l) ** 2 + vbar
    width = np.maximum(1.5 * spacing * (ks + 1), 2.0 * spacing)
    lo, hi = seeds - width, seeds + width
    for attempt in range(64):
        c_lo, c_hi = _count_below_many(p, np.stack([lo, hi]))
        bad_lo = c_lo > ks
        bad_hi = c_hi < ks + 1
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = width * 2.0
    else:
        k_bad = int(np.argmax(bad_lo | bad_hi))
        raise BracketingError(
            f"could not bracket mu_{k_bad} from asymptotic seed {seeds[k_bad]:.6g}",
            (float(lo[k_bad]), float(hi[k_bad])))

    # bisection on the count predicate [count(z) >= k+1] converges to mu_k.
    # One count takes every midpoint the next `depth` steps could visit, in
    # heap order (the halves of node i are 2i+1 and 2i+2), and the walk down
    # that tree is the one-midpoint-a-count path bit for bit
    for depth in _BISECT_DEPTHS:
        los, his, mids = lo[None], hi[None], []
        for _ in range(depth):
            mids.append(0.5 * (los + his))
            los, his = (np.stack(x, axis=1).reshape(-1, len(ks))
                        for x in ((los, mids[-1]), (mids[-1], his)))
        mids = np.concatenate(mids)
        above, node = _count_below_many(p, mids) >= ks + 1, np.zeros_like(ks)
        for _ in range(depth):
            hi = np.where(above[node, ks], mids[node, ks], hi)
            lo = np.where(above[node, ks], lo, mids[node, ks])
            node = 2 * node + 2 - above[node, ks]
    z = 0.5 * (lo + hi)
    coarse = 0.5 * (hi - lo)

    # Newton polish on u1(l; z), each step capped at the larger of a quarter
    # of the seed spacing and 1e4 times the bisection bracket
    B = k_max + 1
    step_cap = np.maximum(spacing * 0.25, 1e4 * coarse)
    last_step = np.full(B, np.inf)
    slope = np.ones(B)
    for _ in range(8):
        dz = 1e-7 * np.maximum(1.0, np.abs(z))
        vals = _basis_many(p, np.concatenate([z, z + dz, z - dz]))[0]
        f, fp, fm = vals[:B], vals[B:2 * B], vals[2 * B:]
        slope = (fp - fm) / (2.0 * dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope != 0.0, f / slope, 0.0)
        step = np.clip(step, -step_cap, step_cap)
        z = z - step
        last_step = np.abs(step)
        if np.all(last_step <= 1e-10 * np.maximum(1.0, np.abs(z))):
            break
    # In double, u1(l; .) is known to a few ulps of z only, so Newton's last
    # bits follow its start (mu_0 of the free edge: 1.0 from below, 1.0 + 1 ulp
    # from above); one more step in long double ends on the nearest double.
    f = _basis_many(p, z.astype(np.longdouble))[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(slope != 0.0, f / slope, 0.0)
    z = (z - np.clip(step, -step_cap, step_cap)).astype(float)

    if np.any(np.abs(slope) * np.maximum(1.0, np.abs(z)) < 1e-13):
        raise ConsistencyError("a Dirichlet root failed the simplicity check")
    if np.any(np.diff(z) <= 0):
        raise ConsistencyError("Dirichlet eigenvalues not strictly increasing")
    achieved = np.maximum(last_step, np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
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

