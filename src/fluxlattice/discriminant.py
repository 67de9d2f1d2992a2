"""The entire discriminant eta(z) and its band windows.

    eta(z) = (1 + beta^2) (u1'(l;z) + u2(l;z)) + alpha u1(l;z)

is entire in z; |eta| <= 2(1+beta^2) cuts the real axis into closed windows
J_n on which eta is a strictly monotone homeomorphism onto
[-2(1+beta^2), 2(1+beta^2)].  Facts the scanner relies on:

  * sign alternation: (-1)^k eta(mu_k) <= -2(1+beta^2), so consecutive
    Dirichlet eigenvalues sandwich exactly one window, and one more window
    lies below mu_0 (eta -> +inf as z -> -inf);
  * eta has no real root outside a window, so the root of eta inside each
    inter-eigenvalue segment is a certified interior point to bisect against;
  * windows may touch at mu_k (free lattice): an edge is clamped to mu_k
    whenever eta(mu_k) has not numerically escaped the threshold.

eta is always evaluated in its entire form, never through the
Dirichlet-to-Neumann matrix s(z) of the edge (poles at every mu_k), so there
is no pole cancellation near mu_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .edge_solver import (_basis_many, _mus_through, dirichlet_eigenvalues,
                          round_up_index)
from .errors import ConfigError, DomainError, NumericalError
from .potential import Potential

EDGE_TOL_Z = 1e-10      # bisection tolerance for window edges, absolute in z
INVERT_RESIDUAL = 1e-9  # relative residual target for invert_eta


def check_coupling(alpha: float, beta: float) -> None:
    """ConfigError naming the field unless alpha is finite and beta > 0 finite."""
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha!r}")
    if not np.isfinite(beta) or beta <= 0:
        raise ConfigError(
            f"beta must be positive (spectrum depends on beta^2 only), got {beta!r}")


@dataclass(frozen=True)
class CouplingParams:
    """Vertex coupling strength alpha, anisotropy beta > 0, and the edge data."""

    alpha: float
    beta: float
    potential: Potential

    def __post_init__(self):
        check_coupling(self.alpha, self.beta)

    @property
    def threshold(self) -> float:
        """2(1+beta^2), the window threshold and Harper norm bound."""
        return 2.0 * (1.0 + self.beta**2)


@dataclass(frozen=True)
class BandWindow:
    """Closed window J_n = [a, b] (clipped to the scan range) of |eta| <= threshold.

    a_full/b_full are the untruncated edges; eta restricted to [a_full, b_full]
    is the monotone homeomorphism used for inversion.  increasing means eta
    runs from -threshold at a_full up to +threshold at b_full.
    """

    index: int
    a: float
    b: float
    a_full: float
    b_full: float
    increasing: bool
    truncated_lo: bool
    truncated_hi: bool
    coupling: CouplingParams = field(repr=False)

    @property
    def truncated(self) -> bool:
        return self.truncated_lo or self.truncated_hi


def eta_many(c: CouplingParams, z: np.ndarray) -> np.ndarray:
    u1, du1, u2, _ = _basis_many(c.potential, np.asarray(z, dtype=float))
    return (1.0 + c.beta**2) * (du1 + u2) + c.alpha * u1


def eta(c: CouplingParams, z: float) -> float:
    """The entire discriminant at one point."""
    return float(eta_many(c, np.asarray([float(z)]))[0])


def eta_on_pole(c: CouplingParams, k: int) -> float:
    """eta(mu_k) = (1+beta^2)(u1'(l;mu_k) + u2(l;mu_k)); the alpha term drops
    since u1(l;mu_k) = 0, so the value is coupling-independent."""
    return (1.0 + c.beta**2) * _nus_upto(c.potential, round_up_index(k))[k]


@lru_cache(maxsize=512)
def _nus_upto(p: Potential, k_max: int) -> tuple[float, ...]:
    """u1'(l) + u2(l) at mu_0..mu_{k_max}, one batched propagation."""
    mus = np.asarray(dirichlet_eigenvalues(p, k_max).eigenvalues)
    _, du1, u2, _ = _basis_many(p, mus)
    return tuple(float(v) for v in du1 + u2)


def _bisect_batch(g, lo, hi, sign_lo):
    """Vectorized bisection for g(z) = 0.

    Brackets require lo < hi with sign(g(lo)) = sign_lo != 0 and exactly one
    sign change inside; g maps a full-size z array to values.  Stops at
    brackets of width EDGE_TOL_Z or after 70 halvings.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sgn = np.sign(sign_lo)
    for _ in range(70):
        live = (hi - lo) > EDGE_TOL_Z
        if not np.any(live):
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        same = (sgn * gm > 0) & live
        lo = np.where(same, mid, lo)
        hi = np.where(same | ~live, hi, mid)
    return 0.5 * (lo + hi)


def _scan_windows(p: Potential, g_many, threshold: float,
                  z_min: float | None, z_max: float) -> list[dict]:
    """Maximal closed windows of |g| <= threshold intersecting [z_min, z_max].

    g must share the discriminant's structure: sign alternation on the
    Dirichlet eigenvalues of p, no root outside a window, +inf limit below
    the spectrum.  Full edges are always resolved; clipping to the scan range
    is recorded per window; z_min None clips nothing from below.
    """
    if not np.isfinite(z_max) or (
            z_min is not None and not (np.isfinite(z_min) and z_min < z_max)):
        raise ConfigError(f"invalid scan range [{z_min}, {z_max}]")
    mus = np.asarray(_mus_through(p, z_max))  # the last one is >= z_max

    # left anchor below the lowest window: walk down until g > threshold
    start = (float(mus[0]) if z_min is None else min(z_min, float(mus[0]))) - 1.0
    step = 1.0
    for _ in range(80):
        if g_many(np.asarray([start]))[0] > threshold:
            break
        start -= step
        step *= 2.0
    else:
        raise NumericalError("could not find g > threshold below the lowest window")
    if z_min is None:
        z_min = start  # the lowest window lies above its anchor

    anchors = np.concatenate([[start], mus])
    g_anchor = g_many(anchors)

    # segments whose window could intersect [z_min, z_max]
    seg = np.array([i for i in range(len(anchors) - 1)
                    if anchors[i + 1] >= z_min and anchors[i] <= z_max], dtype=int)
    if seg.size == 0:
        return []
    left, right = anchors[seg], anchors[seg + 1]
    g_left, g_right = g_anchor[seg], g_anchor[seg + 1]

    # interior anchor: the unique root of g inside each segment
    center = _bisect_batch(g_many, left, right, g_left)

    # Edges solve sign(g_anchor) * g = threshold between center and anchor.
    # When |g(mu_k)| sits on the threshold itself the slope of g at mu_k
    # separates two geometries: an extremum (touching window, edge = mu_k,
    # where root finding would be sqrt(eps)-conditioned) versus a transversal
    # return (the window ended at an interior crossing even though g came
    # back to the threshold exactly at mu_k); interior crossings are always
    # transversal (no extrema on the threshold), so their bisection is clean.
    dz = 1e-6 * np.maximum(1.0, np.abs(anchors))
    d_anchor = (g_many(anchors + dz) - g_many(anchors - dz)) / (2.0 * dz)
    f_tol = 1e-8 * threshold
    slope_tol = 1e-4 * (1.0 + threshold)
    # Both edges of every window go into one bisection: [left, center] with
    # s g - threshold > 0 at its lower end, [center, right] with it < 0.
    s_l, s_r = np.sign(g_left), np.sign(g_right)
    do_left = (s_l * g_left - threshold > f_tol) | (s_l * d_anchor[seg] > slope_tol)
    do_right = ((s_r * g_right - threshold > f_tol)
                | (s_r * d_anchor[seg + 1] < -slope_tol))
    a_edge, b_edge = np.array(left), np.array(right)
    n_left = int(np.count_nonzero(do_left))
    if n_left or np.any(do_right):
        s = np.concatenate([s_l[do_left], s_r[do_right]])
        edges = _bisect_batch(
            lambda zz: s * g_many(zz) - threshold,
            np.concatenate([left[do_left], center[do_right]]),
            np.concatenate([center[do_left], right[do_right]]),
            np.concatenate([np.ones(n_left), -np.ones(len(s) - n_left)]))
        a_edge[do_left], b_edge[do_right] = edges[:n_left], edges[n_left:]
    windows = []
    for j, i in enumerate(seg):
        a_f, b_f = float(a_edge[j]), float(b_edge[j])
        if b_f < z_min or a_f > z_max:
            continue
        windows.append({
            "index": int(i),
            "a_full": a_f,
            "b_full": b_f,
            "a": max(a_f, z_min),
            "b": min(b_f, z_max),
            "increasing": bool(g_left[j] < 0),
            "truncated_lo": a_f < z_min,
            "truncated_hi": b_f > z_max,
        })
    return windows


def band_windows(c: CouplingParams, z_min: float | None,
                 z_max: float) -> list[BandWindow]:
    """All maximal windows of |eta| <= 2(1+beta^2) meeting [z_min, z_max].

    Window n sits between mu_{n-1} and mu_n (n = 0 below mu_0); touching
    windows share the eigenvalue as an endpoint and are kept distinct.
    Partial windows at the range boundary come back clipped and flagged.
    z_min None scans from below the lowest window (eta > 2(1+beta^2) below
    its a_full, where the spectrum starts), so none is clipped there.
    """
    raw = _scan_windows(c.potential, lambda zz: eta_many(c, zz), c.threshold,
                        z_min, z_max)
    return [BandWindow(coupling=c, **w) for w in raw]


def invert_eta_many(w, ys: np.ndarray) -> np.ndarray:
    """Solve eta(z) = y on a window's full domain for a batch of y values.

    w is one BandWindow for all targets, or a sequence holding one window per
    target, so a whole request inverts in one call; the windows must share one
    coupling.  Newton steps only the targets whose residual is still above
    INVERT_RESIDUAL, so no answer depends on the other targets of its batch.
    """
    ys = np.asarray(ys, dtype=float)
    ws = [w] * ys.size if isinstance(w, BandWindow) else list(w)
    if not ws:
        return np.empty(ys.shape)
    c = ws[0].coupling
    if any(x.coupling != c for x in ws):
        raise DomainError("windows of different couplings in one inversion")
    if np.any(np.abs(ys) > c.threshold * (1.0 + 1e-12)):
        bad = float(ys[np.argmax(np.abs(ys))])
        raise DomainError(f"eta target {bad} outside [-{c.threshold}, {c.threshold}]")
    ys = np.clip(ys, -c.threshold, c.threshold)
    a = np.array([x.a_full for x in ws])
    b = np.array([x.b_full for x in ws])
    inc = np.array([x.increasing for x in ws])
    # the homeomorphism maps -+threshold to the window edges exactly; at a
    # touching window the edge is a double root of eta -+ threshold, so root
    # finding there would be sqrt(eps)-conditioned while the edge is known
    at_top = np.abs(ys - c.threshold) <= 1e-13 * c.threshold
    at_bot = np.abs(ys + c.threshold) <= 1e-13 * c.threshold
    z = np.where(at_top == inc, b, a)  # the edge that eta sends to the target
    interior = ~(at_top | at_bot)
    if np.any(interior):
        yv, lo, hi = ys[interior], a[interior], b[interior]
        sign_lo = np.where(inc[interior], -1.0, 1.0)  # sign of eta(a_full) - y
        zi = _bisect_batch(lambda zz: eta_many(c, zz) - yv, lo, hi, sign_lo)
        # safeguarded Newton polish, derivative by central difference
        todo = np.arange(zi.size)
        for _ in range(4):
            res = eta_many(c, zi[todo]) - yv[todo]
            high = np.abs(res) > INVERT_RESIDUAL * (1.0 + np.abs(yv[todo]))
            todo, res = todo[high], res[high]
            if not todo.size:
                break
            zt = zi[todo]
            dz = 1e-6 * np.maximum(1.0, np.abs(zt))
            deriv = (eta_many(c, zt + dz) - eta_many(c, zt - dz)) / (2.0 * dz)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(deriv != 0.0, res / deriv, 0.0)
            zi[todo] = np.clip(zt - step, lo[todo], hi[todo])
        z[interior] = zi
    return z


def invert_eta(w: BandWindow, y: float) -> float:
    """Unique z in J_n with eta(z) = y; requires |y| <= 2(1+beta^2)."""
    return float(invert_eta_many(w, np.asarray([float(y)]))[0])

