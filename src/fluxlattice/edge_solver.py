"""Edge Sturm-Liouville solver: basis solutions, Dirichlet spectrum, Krein matrix.

For a spectral parameter z the two canonical solutions of -u'' + (V - z) u = 0
on [0,l] are

    u1(0)=0, u1'(0)=1        u2(0)=1, u2'(0)=0,

with Wronskian u1'*u2 - u1*u2' identically 1.  Everything downstream (the
discriminant, the Krein matrix, the Kronig-Penney monodromy) is a combination
of the four endpoint values (u1(l), u1'(l), u2(l), u2'(l)).

Propagation: for zero / constant / piecewise-constant potentials each segment
of constant V = c is crossed with the exact transfer

    [u ]  ->  [ cos(w d)           sin(w d)/w ] [u ]      w^2 = z - c
    [u']      [ -(z-c) sin(w d)/w  cos(w d)   ] [u']

(trigonometric above the segment, hyperbolic below; one code path via complex
sqrt).  Sampled potentials use classical fixed-step RK4 on the linearly
interpolated V; the step count has floor l/2048 and grows like |z|^(5/4) so
the accumulated phase error stays below ~1e-10 across the scan range.  All
propagation is vectorized over a batch of z values, which is what makes the
bisection sweeps downstream affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketingError, ConsistencyError, IntegrationOverflowError, PoleProximityError
from .potential import Potential

# Callers needing values near mu_k must use the entire discriminant, never s(z).
DEFAULT_STEPS = 2048
DEFAULT_MU_GUARD = 1e-8
_RK4_PHASE_TOL = 1e-10


@dataclass(frozen=True)
class SolutionPair:
    """Endpoint data of the canonical basis at one z."""

    z: float
    u1_l: float
    du1_l: float
    u2_l: float
    du2_l: float

    @property
    def wronskian_defect(self) -> float:
        return abs(self.du1_l * self.u2_l - self.u1_l * self.du2_l - 1.0)


@dataclass(frozen=True)
class KreinMatrix:
    """The 2x2 Dirichlet-to-Neumann matrix s(z) of one edge; s12 == s21."""

    z: float
    s11: float
    s12: float
    s21: float
    s22: float


@dataclass(frozen=True)
class DirichletSpectrum:
    """First eigenvalues of the Dirichlet edge operator, strictly increasing."""

    eigenvalues: tuple[float, ...]
    tolerances: tuple[float, ...]  # achieved per-eigenvalue error estimates


def _align_steps(p: Potential, n: int) -> int:
    # steps must not straddle interpolation kinks of a sampled potential,
    # otherwise RK4 drops below fourth order
    cells = p.uniform_cells
    if cells is None:
        return n
    return cells * int(np.ceil(n / cells))


def _rk4_steps(p: Potential, z_scale: float) -> int:
    # RK4 phase error on u'' = -w^2 u accumulates like l * w^5 h^4 / 120;
    # choose n = l/h to keep it under _RK4_PHASE_TOL, never below the default.
    w = np.sqrt(max(abs(z_scale) - p.infimum(), 1.0))
    n = p.l * (p.l * w**5 / (120.0 * _RK4_PHASE_TOL)) ** 0.25
    return _align_steps(p, int(max(DEFAULT_STEPS, np.ceil(n))))


# overflow far below the spectrum is reported by the isfinite guard, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _basis_many(p: Potential, z: np.ndarray, n_steps: int | None = None):
    """Vectorized endpoint values: (u1, du1, u2, du2) arrays of z.shape."""
    z = np.asarray(z, dtype=float)
    if p.is_piecewise:
        u = np.stack([np.zeros_like(z), np.ones_like(z)])   # rows: u1, u2
        du = np.stack([np.ones_like(z), np.zeros_like(z)])
        for c, dt in p.segments():
            w2 = z - c
            arg = np.sqrt(w2.astype(complex)) * dt
            C = np.cos(arg).real
            S = (dt * np.sinc(arg / np.pi)).real  # sin(w dt)/w with exact w->0 limit
            u, du = u * C + du * S, du * C - (w2 * S) * u
    else:
        n = n_steps or _rk4_steps(p, float(np.max(np.abs(z))) if z.size else 1.0)
        h = p.l / n
        vg = p.values_on(np.linspace(0.0, p.l, 2 * n + 1))
        u = np.stack([np.zeros_like(z), np.ones_like(z)])
        du = np.stack([np.ones_like(z), np.zeros_like(z)])
        for i in range(n):
            v0, vh, v1 = vg[2 * i] - z, vg[2 * i + 1] - z, vg[2 * i + 2] - z
            k1u, k1d = du, v0 * u
            yu, yd = u + (0.5 * h) * k1u, du + (0.5 * h) * k1d
            k2u, k2d = yd, vh * yu
            yu, yd = u + (0.5 * h) * k2u, du + (0.5 * h) * k2d
            k3u, k3d = yd, vh * yu
            yu, yd = u + h * k3u, du + h * k3d
            k4u, k4d = yd, v1 * yu
            u = u + (h / 6.0) * (k1u + 2.0 * (k2u + k3u) + k4u)
            du = du + (h / 6.0) * (k1d + 2.0 * (k2d + k3d) + k4d)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du))):
        raise IntegrationOverflowError(
            "edge propagation overflowed (z too far below the spectrum for "
            f"l={p.l}); rescale the scan range")
    return u[0], du[0], u[1], du[1]


def integrate_basis(p: Potential, z: float, n_steps: int | None = None) -> SolutionPair:
    """Endpoint values of u1, u2 at t=l for one real z."""
    u1, du1, u2, du2 = _basis_many(p, np.asarray([float(z)]), n_steps)
    pair = SolutionPair(float(z), float(u1[0]), float(du1[0]), float(u2[0]), float(du2[0]))
    scale = max(1.0, abs(pair.du1_l * pair.u2_l))  # defect is relative once the
    if pair.wronskian_defect > 1e-6 * scale:       # solutions grow large
        raise ConsistencyError(
            f"Wronskian defect {pair.wronskian_defect:.3e} at z={z}; integration unstable")
    return pair


def _count_below_many(p: Potential, z: np.ndarray) -> np.ndarray:
    """Number of Dirichlet eigenvalues below each z (Pruefer oscillation count).

    Counts zeros of u1(.; z) in (0, l).  Piecewise-constant V: the zero count
    per segment is exact, from the phase of (u, u'/w) on oscillatory segments
    and a sign change test on hyperbolic ones.  Sampled V: sign changes of u1
    on the RK4 grid; the default step already resolves every half-wave, and
    the ~1e-6 uncertainty this leaves in the count transition point is
    removed by the Newton polish of the eigenvalue search.
    """
    z = np.asarray(z, dtype=float)
    if p.is_piecewise:
        count = np.zeros(z.shape, dtype=np.int64)
        u = np.zeros_like(z)
        du = np.ones_like(z)
        for c, dt in p.segments():
            w2 = z - c
            osc = w2 > 1e-14
            w = np.sqrt(np.where(osc, w2, 1.0))
            # u = A sin(w t + delta) on oscillatory segments; zeros in (t0,t1]
            # sit at integer multiples of pi of the advancing phase
            delta = np.arctan2(u * w, du)
            adv = (np.floor((delta + w * dt) / np.pi) - np.floor(delta / np.pi)).astype(np.int64)
            u_prev = u
            arg = np.sqrt(w2.astype(complex)) * dt
            C = np.cos(arg).real
            S = (dt * np.sinc(arg / np.pi)).real
            u, du = u * C + du * S, du * C - (w2 * S) * u
            hyp = ((u_prev * u < 0) | ((u == 0.0) & (u_prev != 0.0))).astype(np.int64)
            count += np.where(osc, adv, hyp)
        # zeros were counted on (t0, t1]; one sitting exactly at t=l is not interior
        count -= (u == 0.0).astype(np.int64)
        return count

    # counting tolerates the small kink bias of unaligned steps (integer
    # output; the transition shift is cleaned up by the Newton polish)
    wmax = np.sqrt(max(float(np.max(z)) - p.infimum(), 1.0)) if z.size else 1.0
    n = int(max(DEFAULT_STEPS, 4 * wmax * p.l))  # >= ~12 steps per half-wave
    h = p.l / n
    vg = p.values_on(np.linspace(0.0, p.l, 2 * n + 1))
    u = np.zeros_like(z)
    du = np.ones_like(z)
    count = np.zeros(z.shape, dtype=np.int64)
    for i in range(n):
        v0, vh, v1 = vg[2 * i] - z, vg[2 * i + 1] - z, vg[2 * i + 2] - z
        k1u, k1d = du, v0 * u
        yu, yd = u + (0.5 * h) * k1u, du + (0.5 * h) * k1d
        k2u, k2d = yd, vh * yu
        yu, yd = u + (0.5 * h) * k2u, du + (0.5 * h) * k2d
        k3u, k3d = yd, vh * yu
        yu, yd = u + h * k3u, du + h * k3d
        k4u, k4d = yd, v1 * yu
        un = u + (h / 6.0) * (k1u + 2.0 * (k2u + k3u) + k4u)
        du = du + (h / 6.0) * (k1d + 2.0 * (k2d + k3d) + k4d)
        count += (u * un < 0).astype(np.int64)
        u = un
    return count


def dirichlet_count_below(p: Potential, z: float) -> int:
    """Pruefer count: number of mu_k strictly below z."""
    return int(_count_below_many(p, np.asarray([float(z)]))[0])


def _u1_many(p: Potential, z: np.ndarray, n_steps: int | None = None) -> np.ndarray:
    return _basis_many(p, z, n_steps)[0]


@lru_cache(maxsize=64)
def dirichlet_eigenvalues(p: Potential, k_max: int, tol: float = 1e-10) -> DirichletSpectrum:
    """First k_max+1 zeros of z -> u1(l; z).

    Isolation by the oscillation count, seeded at mu_k ~ ((k+1) pi / l)^2 +
    mean(V); bisection on the count pins each root down, a safeguarded Newton
    iteration on u1(l; z) polishes it, and a central difference of u1(l; .)
    verifies simplicity.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
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
        vals = _u1_many(p, np.concatenate([z, z + dz, z - dz]))
        f, fp, fm = vals[:B], vals[B:2 * B], vals[2 * B:]
        slope = (fp - fm) / (2.0 * dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope != 0.0, f / slope, 0.0)
        step = np.clip(step, -step_cap, step_cap)
        z = z - step
        last_step = np.abs(step)
        if np.all(last_step <= tol * np.maximum(1.0, np.abs(z))):
            break

    if np.any(np.abs(slope) * np.maximum(1.0, np.abs(z)) < 1e-13):
        raise ConsistencyError("a Dirichlet root failed the simplicity check")
    if np.any(np.diff(z) <= 0):
        raise ConsistencyError("Dirichlet eigenvalues not strictly increasing")
    achieved = np.maximum(last_step, np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
    return DirichletSpectrum(tuple(float(v) for v in z),
                             tuple(float(v) for v in achieved))


def round_up_index(k: int) -> int:
    """The smallest 2^m * 8 - 1 >= k, so nearby indices share one cache entry."""
    k_round = 7
    while k_round < k:
        k_round = 2 * k_round + 1
    return k_round


def spectrum_upto(p: Potential, k: int) -> DirichletSpectrum:
    """Dirichlet spectrum covering index k, rounded up so repeated queries with
    nearby k share one cached batched computation."""
    return dirichlet_eigenvalues(p, round_up_index(k))


def krein_matrix(p: Potential, z: float, mu_guard: float = DEFAULT_MU_GUARD) -> KreinMatrix:
    """s(z) = (1/u1(l;z)) [[-u2(l;z), 1], [1, -u1'(l;z)]].

    Raises PoleProximityError inside the guard band around a Dirichlet
    eigenvalue; use the entire discriminant there instead.
    """
    pair = integrate_basis(p, z)
    if abs(pair.u1_l) <= mu_guard:
        mu = _nearest_mu(p, z)
        raise PoleProximityError(
            f"z={z} within pole guard of Dirichlet eigenvalue mu={mu:.12g}", mu)
    inv = 1.0 / pair.u1_l
    s12 = inv
    return KreinMatrix(z=float(z), s11=-pair.u2_l * inv, s12=s12, s21=s12,
                       s22=-pair.du1_l * inv)


def _nearest_mu(p: Potential, z: float) -> float:
    k_above = dirichlet_count_below(p, z)  # index of the first mu >= z
    spec = spectrum_upto(p, max(k_above, 0))
    return min(spec.eigenvalues, key=lambda m: abs(m - z))
