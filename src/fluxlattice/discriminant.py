"""The entire discriminant eta(z) and its band windows.

    eta(z) = (1 + beta^2) (u1'(l;z) + u2(l;z)) + alpha u1(l;z)

is entire in z; |eta| <= 2(1+beta^2) cuts the real axis into closed windows
J_n on which eta is a strictly monotone homeomorphism onto
[-2(1+beta^2), 2(1+beta^2)].  Facts the scanner relies on:

  * sign alternation: (-1)^k eta(mu_k) <= -2(1+beta^2), so consecutive
    Dirichlet eigenvalues sandwich exactly one window, and one more window
    lies below mu_0 (eta -> +inf as z -> -inf);
  * eta has no real root outside a window, so the root of eta inside each
    inter-eigenvalue segment is a certified interior point, and it brackets
    each window edge together with the segment's eigenvalue;
  * windows may touch at mu_k (free lattice).  When `escapes_threshold` is
    false at eta(mu_k), the Kronig-Penney monodromy M at mu_k (`kp_oracle`)
    gives eta'(mu_k) = (1+beta^2) M_12 int_0^l u1^2 exactly, with
    (1+beta^2) M_12 = (1+beta^2) u2'(l; mu_k) + alpha u2(l; mu_k) and u2(l;
    mu_k) = sign eta(mu_k).  Its sign says on which side of mu_k a window
    ends (its edge is mu_k) and on which a gap opens; M_12 = 0, i.e. M =
    +-I, makes both windows touch.  u2'(l; mu_k) is in the Dirichlet record
    (`DirichletSpectrum.du2s`).

eta is always evaluated in its entire form, never through the
Dirichlet-to-Neumann matrix s(z) of the edge (poles at every mu_k), so there
is no pole cancellation near mu_k.  A request reads mu_k, eta(mu_k) and u2'(l;
mu_k) from one Dirichlet record, keyed by its range's top (`pole_record`):
the scan, the floor, the classification and sign alternation.  eta and its
inversion are batched only (`eta_many`, `invert_eta_many`).

Every window edge, the floor of the spectrum included, comes from one
function, `_window_edges`, and every root here (window centres, window
edges, inversions) from one bracketed solver, `_solve_batch`:
Anderson-Bjorck regula falsi (BIT 13 (1973) 253), superlinear without eta',
with bisection as the safeguard, ending each root with a sign change inside
a bracket at most EDGE_TOL_Z wide.  The solver
never evaluates its bracket ends: their values are known to the caller (eta
at mu_k from the record, at the anchor below window 0 from its search, 0 at a
window centre, -+2(1+beta^2) at a window's full edges), or NaN on the
threshold, where only their sign would be needed and rounding decides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .edge_solver import (_basis_many, _count_below_many, dirichlet_eigenvalues,
                          round_up_index)
from .errors import ConfigError, ConsistencyError, DomainError, NumericalError
from .potential import Potential

EDGE_TOL_Z = 1e-10      # width of the bracket certifying each root, absolute in z
THRESHOLD_RTOL = 1e-8   # |eta| within this fraction above 2(1+beta^2) is on it,
                        # and M_12 at mu_k this small relative to its terms is 0
EDGE_TARGET_RTOL = 1e-13  # an inversion target this close to -+threshold is an edge


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


@lru_cache(maxsize=64)
def _bucket_through(p: Potential, z: float) -> int:
    """round_up_index of the Pruefer count below z, counted once per (p, z)."""
    return round_up_index(int(_count_below_many(p, np.asarray([z]))[0]))


def pole_record(c: CouplingParams, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu_0..mu_K, eta(mu_k) = (1+beta^2) nu_k and u2'(l; mu_k) from the cached
    Dirichlet solve of the bucket K = round_up_index(n), n the Pruefer count
    below z, so that mu_K >= z; alpha-independent.  A request over a range
    with top z reads every mu_k and eta(mu_k) from here."""
    spec = dirichlet_eigenvalues(c.potential, _bucket_through(c.potential, z))
    return (np.asarray(spec.eigenvalues), (1.0 + c.beta**2) * np.asarray(spec.nus),
            np.asarray(spec.du2s))


def eta_on_pole(c: CouplingParams, k: int) -> float:
    """eta(mu_k), read from the cached Dirichlet solve of k's bucket."""
    return (1.0 + c.beta**2) * dirichlet_eigenvalues(c.potential, round_up_index(k)).nus[k]


def escapes_threshold(c: CouplingParams, y):
    """Elementwise |y| - 2(1+beta^2) > THRESHOLD_RTOL * 2(1+beta^2): y lies off
    the threshold by more than rounding."""
    return np.abs(y) - c.threshold > THRESHOLD_RTOL * c.threshold


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


def require_range(z_min: float | None, z_max: float) -> None:
    """ConfigError unless z_max is finite and z_min is None or finite below it."""
    if not np.isfinite(z_max) or (
            z_min is not None and not (np.isfinite(z_min) and z_min < z_max)):
        raise ConfigError(f"invalid scan range [{z_min}, {z_max}]")


def _anchor_below(c: CouplingParams, mu_0: float) -> tuple[float, float]:
    """A point below the lowest window and eta there: walk down from mu_0 - 1
    in doubling steps until eta > 2(1+beta^2).  It reads mu_0 only, so window
    0, solved from it, is the same for every scan range."""
    start, step = mu_0 - 1.0, 1.0
    for _ in range(80):
        y = float(eta_many(c, np.asarray([start]))[0])
        if y > c.threshold:
            return start, y
        start -= step
        step *= 2.0
    raise NumericalError("could not find eta > threshold below the lowest window")


def _window_edges(c: CouplingParams, mus: np.ndarray, eta_mus: np.ndarray,
                  du2: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full edges (a_full, b_full) of the windows n in seg.

    Window n lies between mu_{n-1} and mu_n, window 0 between the anchor
    below mu_0 (`_anchor_below`) and mu_0; eta_mus and du2 hold eta(mu_k) and
    u2'(l; mu_k) from the Dirichlet record.  Every window edge comes from
    here: one centre solve per window, then both edges of every window in
    one solve.  Each lane reads only its own window's ends, so on a
    piecewise-constant edge, where eta is evaluated pointwise, no edge
    depends on the range or on the other windows solved with it.
    """
    threshold = c.threshold
    start, eta_start = _anchor_below(c, float(mus[0]))
    anchors = np.concatenate([[start], mus])
    eta_anchor = np.concatenate([[eta_start], eta_mus])
    left, right = anchors[seg], anchors[seg + 1]
    eta_left, eta_right = eta_anchor[seg], eta_anchor[seg + 1]

    # interior anchor: the unique root of eta inside each segment
    center = _solve_batch(lambda zz, _: eta_many(c, zz), left, right, eta_left, eta_right)

    # Edges solve sign(eta_anchor) * eta = threshold between center and anchor.
    # At a mu_k on the threshold the sign of m_k = (1+beta^2) M_12 (module
    # docstring) says which window beside it ends on mu_k: with s = sign
    # eta(mu_k), s m_k > 0 the lower one, and a gap opens above mu_k; s m_k < 0
    # the upper one; both when m_k is 0 within THRESHOLD_RTOL of its terms'
    # size.  The anchor below window 0 is no mu_k: window 0's lower edge is
    # always solved.
    on = np.concatenate([[False], ~escapes_threshold(c, eta_mus)])
    m = np.concatenate([[0.0], (1.0 + c.beta**2) * du2 + c.alpha * np.sign(eta_mus)])
    m_tol = THRESHOLD_RTOL * ((1.0 + c.beta**2) * np.sqrt(np.maximum(1.0, np.abs(anchors)))
                              + abs(c.alpha))
    # Both edges of every window go into one solve: [left, center] with
    # s eta - threshold > 0 at its lower end, [center, right] with it < 0.
    # The ends' values are known: -threshold at the centre, where eta = 0,
    # and |eta| - threshold at an anchor, NaN on the threshold, where its
    # sign is rounding, so that such a lane bisects first.
    s_l, s_r = np.sign(eta_left), np.sign(eta_right)
    do_left = ~on[seg] | (s_l * m[seg] > m_tol[seg])
    do_right = ~on[seg + 1] | (s_r * m[seg + 1] < -m_tol[seg + 1])
    g_anchor = np.where(on, np.nan, np.abs(eta_anchor) - threshold)
    a_edge, b_edge = np.array(left), np.array(right)
    n_left = int(np.count_nonzero(do_left))
    if n_left or np.any(do_right):
        s = np.concatenate([s_l[do_left], s_r[do_right]])
        n_right = len(s) - n_left
        edges = _solve_batch(
            lambda zz, lanes: s[lanes] * eta_many(c, zz) - threshold,
            np.concatenate([left[do_left], center[do_right]]),
            np.concatenate([center[do_left], right[do_right]]),
            np.concatenate([g_anchor[seg][do_left], np.full(n_right, -threshold)]),
            np.concatenate([np.full(n_left, -threshold), g_anchor[seg + 1][do_right]]))
        a_edge[do_left], b_edge[do_right] = edges[:n_left], edges[n_left:]
    return a_edge, b_edge


def lowest_window_edge(c: CouplingParams, z_max: float) -> float:
    """a_full of window 0, where the spectrum starts, by the solve that gives
    band_windows(c, None, z_max)[0].a_full, from the same record
    (`pole_record(c, z_max)`)."""
    mus, eta_mus, du2 = pole_record(c, z_max)
    a_edge, _ = _window_edges(c, mus[:1], eta_mus[:1], du2[:1], np.array([0]))
    return float(a_edge[0])


def band_windows(c: CouplingParams, z_min: float | None,
                 z_max: float) -> list[BandWindow]:
    """All maximal windows of |eta| <= 2(1+beta^2) meeting [z_min, z_max].

    Window n sits between mu_{n-1} and mu_n (n = 0 below mu_0); touching
    windows share the eigenvalue as an endpoint and are kept distinct.
    Full edges are always resolved (`_window_edges`) and do not depend on
    the range; partial windows at the range boundary come back clipped and
    flagged.  z_min None scans from below the lowest window (eta >
    2(1+beta^2) below its a_full, where the spectrum starts), so none is
    clipped there.
    """
    require_range(z_min, z_max)
    # mu_0..mu_n, mu_n the first mu_k >= z_max, eta at each and u2'(l; mu_k)
    mus, eta_mus, du2 = pole_record(c, z_max)
    top = int(np.searchsorted(mus, z_max)) + 1
    mus, eta_mus, du2 = mus[:top], eta_mus[:top], du2[:top]
    lo = -np.inf if z_min is None else z_min
    seg = np.flatnonzero(mus >= lo)  # windows n whose segment [mu_{n-1}, mu_n] reaches lo
    a_edge, b_edge = _window_edges(c, mus, eta_mus, du2, seg)
    windows = []
    for j, n in enumerate(seg):
        a_f, b_f = float(a_edge[j]), float(b_edge[j])
        if b_f < lo or a_f > z_max:
            continue
        windows.append(BandWindow(
            index=int(n), a=max(a_f, lo), b=min(b_f, z_max), a_full=a_f, b_full=b_f,
            increasing=bool(n > 0 and eta_mus[n - 1] < 0), truncated_lo=a_f < lo,
            truncated_hi=b_f > z_max, coupling=c))
    return windows


def require_resolvable(c: CouplingParams, ws, ys: np.ndarray) -> None:
    """ConsistencyError if a target off -+threshold lies on a window at most
    EDGE_TOL_Z wide, where `_solve_batch` ends every lane at an edge at once;
    ws holds one BandWindow per target.  With no double strictly inside the
    window (free edge, alpha = -200) it names the target of largest relative
    residual |eta - y| / (1 + |y|), else the window's width."""
    a = np.array([w.a_full for w in ws])
    b = np.array([w.b_full for w in ws])
    off = np.abs(np.abs(ys) - c.threshold) > EDGE_TARGET_RTOL * c.threshold
    missed = np.flatnonzero(off & (np.nextafter(a, b) >= b))
    narrow = np.flatnonzero(off & (b - a <= EDGE_TOL_Z))
    if missed.size:
        y = ys[missed]
        res = np.min(np.abs(eta_many(c, np.stack((a[missed], b[missed]))) - y),
                     axis=0) / (1.0 + np.abs(y))
        i = int(np.argmax(res))
        w = ws[int(missed[i])]
        raise ConsistencyError(
            f"eta inversion on window {w.index} missed target {float(y[i])!r}: "
            f"relative residual {float(res[i]):.3e}, since no double lies "
            f"strictly inside [{w.a_full!r}, {w.b_full!r}]")
    if narrow.size:
        i, w = int(narrow[0]), ws[int(narrow[0])]
        raise ConsistencyError(
            f"eta inversion on window {w.index} cannot resolve target {float(ys[i])!r}: "
            f"the window [{w.a_full!r}, {w.b_full!r}] is {w.b_full - w.a_full:.3e} "
            f"wide, within EDGE_TOL_Z = {EDGE_TOL_Z:.0e}")


def invert_eta_many(w, ys: np.ndarray) -> np.ndarray:
    """Solve eta(z) = y on a window's full domain for a batch of y values.

    w is one BandWindow for all targets, or a sequence holding one window per
    target, so a whole request inverts in one call: `graph_spectrum` and
    `butterfly_sweep` each call it once, for every flux they assemble.  The
    windows must share one coupling.  Each target is solved on its own
    bracket [a_full, b_full] and only unfinished targets are evaluated, so on
    a piecewise-constant edge no answer depends on the other targets of its
    batch.  Each z is certified to EDGE_TOL_Z or one ulp, not by its
    residual: on a steep window |eta - y| at the nearest double is |eta'| ulp
    / 2 plus eta's own rounding, so no fixed residual bound holds.
    Targets that `require_resolvable` refuses raise its ConsistencyError.
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
    require_resolvable(c, ws, ys)
    a = np.array([x.a_full for x in ws])
    b = np.array([x.b_full for x in ws])
    inc = np.array([x.increasing for x in ws])
    # the homeomorphism maps -+threshold to the window edges exactly; at a
    # touching window the edge is a double root of eta -+ threshold, so root
    # finding there would be sqrt(eps)-conditioned while the edge is known
    at_top = np.abs(ys - c.threshold) <= EDGE_TARGET_RTOL * c.threshold
    at_bot = np.abs(ys + c.threshold) <= EDGE_TARGET_RTOL * c.threshold
    z = np.where(at_top == inc, b, a)  # the edge that eta sends to the target
    interior = ~(at_top | at_bot)
    if np.any(interior):
        yv, lo, hi = ys[interior], a[interior], b[interior]
        eta_a = np.where(inc[interior], -c.threshold, c.threshold)  # eta(a_full)
        z[interior] = _solve_batch(lambda zz, lanes: eta_many(c, zz) - yv[lanes],
                                   lo, hi, eta_a - yv, -eta_a - yv)
    return z
