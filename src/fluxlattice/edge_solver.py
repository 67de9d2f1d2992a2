"""Edge Sturm-Liouville solver: basis solutions and Dirichlet spectrum.

For a spectral parameter z the two canonical solutions of -u'' + (V - z) u = 0
on [0,l] are

    u1(0)=0, u1'(0)=1        u2(0)=1, u2'(0)=0,

with Wronskian u1'*u2 - u1*u2' identically 1.  Everything downstream (the
discriminant eta, the Kronig-Penney trace) is a combination of the four
endpoint values (u1(l), u1'(l), u2(l), u2'(l)).

Propagation: one walk, `_propagate`, carries (u, u') from t=0 to t=l cell by
cell and yields the state at the right end of each cell.  For zero / constant /
piecewise-constant potentials every segment of constant V = c is one cell,
crossed with the exact transfer

    [u ]  ->  [ cos(w d)           sin(w d)/w ] [u ]      w^2 = z - c
    [u']      [ -(z-c) sin(w d)/w  cos(w d)   ] [u']

(trigonometric above the segment, hyperbolic below; one code path via complex
sqrt).  A sampled potential is cut into n equal cells, each crossed by one
classical RK4 step on the linearly interpolated V; n is at least 2048 (a step
of at most l/2048) and grows like (|z| - inf V)^(5/8) so the accumulated phase
error stays below ~1e-10 across the scan range.  The basis and the Pruefer count
are both loops over this walk.  All propagation is vectorized over a batch of z
values, so the bracketed root finder downstream advances every root in one
call per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketingError, ConsistencyError, IntegrationOverflowError
from .potential import Potential

DEFAULT_STEPS = 2048
_RK4_PHASE_TOL = 1e-10


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


def _rk4_steps(p: Potential, z_scale: float) -> int:
    # RK4 phase error on u'' = -w^2 u accumulates like l * w^5 h^4 / 120;
    # choose n = l/h to keep it under _RK4_PHASE_TOL, never below the default.
    # Steps must not straddle interpolation kinks of a sampled potential,
    # otherwise RK4 drops below fourth order: n is a multiple of the cells.
    w = np.sqrt(max(abs(z_scale) - p.infimum(), 1.0))
    n = int(max(DEFAULT_STEPS, np.ceil(p.l * (p.l * w**5 / (120.0 * _RK4_PHASE_TOL)) ** 0.25)))
    cells = p.uniform_cells
    return n if cells is None else cells * int(np.ceil(n / cells))


def _propagate(p: Potential, z: np.ndarray, u, du, n_steps: int | None):
    """Walk (u, u') from t=0 across [0, l]; yield (u, du, cell) at the right
    end of each cell.

    A constant segment is one cell, crossed exactly, with cell = (z - V,
    width); a sampled potential is n_steps RK4 cells (None: `_rk4_steps` at
    the largest |z|), each with cell = None.  u and du broadcast against z.
    """
    if p.is_piecewise:
        for c, dt in p.segments():
            w2 = z - c
            arg = np.sqrt(w2 + 0j) * dt
            C = np.cos(arg).real
            S = (dt * np.sinc(arg / np.pi)).real  # sin(w dt)/w with exact w->0 limit
            u, du = u * C + du * S, du * C - (w2 * S) * u
            yield u, du, (w2, dt)
        return
    n = n_steps or _rk4_steps(p, float(np.max(np.abs(z))) if z.size else 1.0)
    h = p.l / n
    h2, h6 = 0.5 * h, h / 6.0
    vg = p.values_on(np.linspace(0.0, p.l, 2 * n + 1)).tolist()
    for v0, vh, v1 in zip(vg[0:-1:2], vg[1::2], vg[2::2]):
        v0, vh, v1 = v0 - z, vh - z, v1 - z
        k1u, k1d = du, v0 * u
        yu, yd = u + h2 * k1u, du + h2 * k1d
        k2u, k2d = yd, vh * yu
        yu, yd = u + h2 * k2u, du + h2 * k2d
        k3u, k3d = yd, vh * yu
        yu, yd = u + h * k3u, du + h * k3d
        k4u, k4d = yd, v1 * yu
        u, du = (u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u),
                 du + h6 * (k1d + 2.0 * (k2d + k3d) + k4d))
        yield u, du, None


# overflow far below the spectrum is reported by the isfinite guard, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _basis_many(p: Potential, z: np.ndarray, n_steps: int | None = None):
    """Vectorized endpoint values: (u1, du1, u2, du2) arrays of z.shape, in
    double, or in long double for a long double z."""
    z = np.asarray(z)
    z = z.astype(np.promote_types(z.dtype, float), copy=False)
    u = np.stack([np.zeros_like(z), np.ones_like(z)])   # rows: u1, u2
    du = np.stack([np.ones_like(z), np.zeros_like(z)])
    for u, du, _ in _propagate(p, z, u, du, n_steps):
        pass
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du))):
        raise IntegrationOverflowError(
            "edge propagation overflowed (z too far below the spectrum for "
            f"l={p.l}); rescale the scan range")
    return u[0], du[0], u[1], du[1]


def _count_below_many(p: Potential, z: np.ndarray) -> np.ndarray:
    """Number of Dirichlet eigenvalues below each z (Pruefer oscillation count).

    Counts zeros of u1(.; z) on (t0, t1] of each cell of `_propagate`: the
    multiples of pi that the phase of (u, u'/w) passes on a constant cell
    with z > V, read from the computed end state so that a zero on a
    breakpoint falls in one cell only, else 1 if u1 changes sign or becomes
    zero; a zero exactly at t=l is removed after the walk.  Sampled V takes
    max(2048, 4 w_max l) RK4 cells, which resolves every half-wave; the ~1e-6
    uncertainty this leaves in the count transition point is removed by the
    Newton polish of the eigenvalue search.
    """
    z = np.asarray(z, dtype=float)
    n = None
    if not p.is_piecewise:
        # counting tolerates the small kink bias of unaligned steps (integer
        # output; the transition shift is cleaned up by the Newton polish)
        wmax = np.sqrt(max(float(np.max(z)) - p.infimum(), 1.0)) if z.size else 1.0
        n = int(max(DEFAULT_STEPS, 4 * wmax * p.l))  # >= ~12 steps per half-wave
    count = np.zeros(z.shape, dtype=np.int64)
    u = np.zeros_like(z)
    du = np.ones_like(z)
    sign = np.sign(u)
    for u_next, du_next, cell in _propagate(p, z, u, du, n):
        sign_next = np.sign(u_next)
        zeros = sign * (sign - sign_next) > 0  # u1 changes sign or becomes zero
        if cell is not None:
            w2, dt = cell
            osc = w2 > 1e-14
            w = np.sqrt(np.where(osc, w2, 1.0))
            # u = A sin(w t + delta) on oscillatory cells; zeros in (t0,t1]
            # sit where the phase passes a multiple of pi.  The end phase
            # delta + w dt is read in the half-turn of the computed end state,
            # which the next cell starts from, so a zero on a breakpoint is
            # counted once.  A state's half-turn floor(angle / pi), angle in
            # (-pi, pi], is -1 for u < 0, 1 on the negative u' axis, else 0.
            delta = np.arctan2(u * w, du)
            half, half_next = (((a == 0.0) & (b < 0.0)).astype(np.int64) - (a < 0.0)
                               for a, b in ((u, du), (u_next, du_next)))
            turns = np.round((delta + w * dt - (half_next + 0.5) * np.pi) / (2.0 * np.pi))
            zeros = np.where(osc, 2 * turns.astype(np.int64) + half_next - half, zeros)
        count += zeros
        u, du, sign = u_next, du_next, sign_next
    # zeros were counted on (t0, t1]; one sitting exactly at t=l is not interior
    count -= u == 0.0
    return count


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
        c_lo = _count_below_many(p, lo)
        c_hi = _count_below_many(p, hi)
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

    # bisection on the count predicate [count(z) >= k+1] converges to mu_k
    for _ in range(26):
        mid = 0.5 * (lo + hi)
        above = _count_below_many(p, mid) >= ks + 1
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    z = 0.5 * (lo + hi)
    coarse = 0.5 * (hi - lo)

    # Newton polish on u1(l; z) at full integration accuracy; the bracket from
    # the count phase may be offset by the coarse-grid bias, so steps are
    # safeguarded against the seed spacing instead of the bracket.
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

