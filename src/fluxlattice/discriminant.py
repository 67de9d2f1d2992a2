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
inversion are batched only (`eta_many`, `invert_eta_many`), and the inversion
is a product: it solves every target on every window it is given, as the
spectrum pulls every Harper band edge back through every window.

Every window edge, the floor of the spectrum included, comes from one
function, `_window_edges`, and every root here (window centres, window
edges, inversions) from the bracketed solver of the Dirichlet eigenvalues,
`edge_solver._solve_batch`, which takes the values at its bracket ends from
the caller: eta at mu_k from the record, at the anchor below window 0 from
its search, 0 at a window centre, -+2(1+beta^2) at a window's full edges, or
NaN on the threshold, where only their sign would be needed and rounding
decides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .edge_solver import (EDGE_TOL_Z, _basis_many, _count_below_many, _solve_batch,
                          dirichlet_eigenvalues, round_up_index)
from .errors import ConfigError, ConsistencyError, DomainError, NumericalError
from .potential import Potential

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
    """Closed window J_n = [a_full, b_full] of |eta| <= 2(1+beta^2), between
    mu_{n-1} and mu_n (window 0 below mu_0): a fact of the edge and the
    coupling, the same for every range that meets it.  eta restricted to it
    is the monotone homeomorphism onto [-threshold, threshold] used for
    inversion; by sign alternation it rises from -threshold at a_full to
    +threshold at b_full on odd n and falls on even n.
    """

    index: int
    a_full: float
    b_full: float
    coupling: CouplingParams = field(repr=False)

    @property
    def increasing(self) -> bool:
        """eta(mu_{n-1}) < 0, i.e. n odd: (-1)^k eta(mu_k) <= -2(1+beta^2)."""
        return self.index % 2 == 1


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
    """eta(mu_k) from the cached Dirichlet solve of k's bucket; no caller in
    the package, kept while the benchmark's tracer lists it."""
    return (1.0 + c.beta**2) * dirichlet_eigenvalues(c.potential, round_up_index(k)).nus[k]


def escapes_threshold(c: CouplingParams, y):
    """Elementwise |y| - 2(1+beta^2) > THRESHOLD_RTOL * 2(1+beta^2): y lies off
    the threshold by more than rounding."""
    return np.abs(y) - c.threshold > THRESHOLD_RTOL * c.threshold


def require_range(z_min: float | None, z_max: float) -> None:
    """ConfigError unless z_max is finite and z_min is None or finite below it."""
    if not np.isfinite(z_max) or (
            z_min is not None and not (np.isfinite(z_min) and z_min < z_max)):
        raise ConfigError(f"invalid scan range [{z_min}, {z_max}]")


def below_spectrum(z_max: float) -> ConfigError:
    """The error for a default range whose z_max lies below the spectrum."""
    return ConfigError(f"z_max = {z_max} lies below the lowest band window, "
                       "so there is no spectrum up to it; give z_min")


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
    # By sign alternation eta is positive at the anchor below mu_0 and has
    # the sign (-1)^(k+1) at mu_k, i.e. (-1)^j at anchor j.  At a mu_k on the
    # threshold the sign of m_k = (1+beta^2) M_12 (module docstring) says
    # which window beside it ends on mu_k: with s = sign eta(mu_k), s m_k > 0
    # the lower one, and a gap opens above mu_k; s m_k < 0 the upper one;
    # both when m_k is 0 within THRESHOLD_RTOL of its terms' size.  The
    # anchor below window 0 is no mu_k: window 0's lower edge is always solved.
    sign = (-1.0) ** np.arange(len(anchors))
    on = np.concatenate([[False], ~escapes_threshold(c, eta_mus)])
    m = np.concatenate([[0.0], (1.0 + c.beta**2) * du2 + c.alpha * sign[1:]])
    m_tol = THRESHOLD_RTOL * ((1.0 + c.beta**2) * np.sqrt(np.maximum(1.0, np.abs(anchors)))
                              + abs(c.alpha))
    # Both edges of every window go into one solve: [left, center] with
    # s eta - threshold > 0 at its lower end, [center, right] with it < 0.
    # The ends' values are known: -threshold at the centre, where eta = 0,
    # and |eta| - threshold at an anchor, NaN on the threshold, where its
    # sign is rounding, so that such a lane bisects first.
    s_l, s_r = sign[seg], sign[seg + 1]
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
    Each window is whole (`_window_edges`): the range only selects which
    windows come back, and a window shared by two ranges is the same
    BandWindow in both.  z_min None scans from below the lowest window
    (eta > 2(1+beta^2) below its a_full, where the spectrum starts).
    """
    require_range(z_min, z_max)
    # mu_0..mu_n, mu_n the first mu_k >= z_max, eta at each and u2'(l; mu_k)
    mus, eta_mus, du2 = pole_record(c, z_max)
    top = int(np.searchsorted(mus, z_max)) + 1
    mus, eta_mus, du2 = mus[:top], eta_mus[:top], du2[:top]
    lo = -np.inf if z_min is None else z_min
    seg = np.flatnonzero(mus >= lo)  # windows n whose segment [mu_{n-1}, mu_n] reaches lo
    a_edge, b_edge = _window_edges(c, mus, eta_mus, du2, seg)
    return [BandWindow(index=n, a_full=a, b_full=b, coupling=c)
            for n, a, b in zip(seg.tolist(), a_edge.tolist(), b_edge.tolist())
            if b >= lo and a <= z_max]


def require_resolvable(c: CouplingParams, windows, ys: np.ndarray) -> None:
    """ConsistencyError if a target of the flat ys off -+threshold is to be
    solved on a window at most EDGE_TOL_Z wide, where `_solve_batch` ends
    every lane at an edge at once; each window is checked once.  Where no
    double lies strictly inside a window (free edge, alpha = -200) it names
    the target of largest relative residual |eta - y| / (1 + |y|) there."""
    ys = ys[np.abs(np.abs(ys) - c.threshold) > EDGE_TARGET_RTOL * c.threshold]
    if not (ys.size and windows):
        return
    a = np.array([w.a_full for w in windows])
    b = np.array([w.b_full for w in windows])
    missed = np.flatnonzero(np.nextafter(a, b) >= b)
    if missed.size:
        ends = eta_many(c, np.stack((a[missed], b[missed])))
        res = np.min(np.abs(ends[..., None] - ys), axis=0) / (1.0 + np.abs(ys))
        i, j = np.unravel_index(np.argmax(res), res.shape)
        w = windows[int(missed[i])]
        raise ConsistencyError(
            f"eta inversion on window {w.index} missed target {float(ys[j])!r}: "
            f"relative residual {float(res[i, j]):.3e}, since no double lies "
            f"strictly inside [{w.a_full!r}, {w.b_full!r}]")
    narrow = np.flatnonzero(b - a <= EDGE_TOL_Z)
    if narrow.size:
        w = windows[int(narrow[0])]
        raise ConsistencyError(
            f"eta inversion on window {w.index} cannot resolve target {float(ys[0])!r}: "
            f"the window [{w.a_full!r}, {w.b_full!r}] is {w.b_full - w.a_full:.3e} "
            f"wide, within EDGE_TOL_Z = {EDGE_TOL_Z:.0e}")


def invert_eta_many(windows, ys) -> np.ndarray:
    """Solve eta(z) = y on the full domain of every window for every target y.

    windows is a sequence of W BandWindows of one coupling; the answer has
    shape (W,) + ys.shape, row i solving every target on windows[i].  One
    BandWindow is the case W = 1 and gives ys.shape.  Each lane, one target
    on one window, is solved on the bracket [a_full, b_full], and only
    unfinished lanes are evaluated, so no answer depends on the other lanes.
    Each z is certified to EDGE_TOL_Z or one ulp, not by its residual: on a
    steep window |eta - y| at the nearest double is |eta'| ulp / 2 plus
    eta's own rounding, so no fixed residual bound holds.  A target that is
    not finite or lies beyond -+threshold raises DomainError; targets that
    `require_resolvable` refuses raise its ConsistencyError.
    """
    if isinstance(windows, BandWindow):
        return invert_eta_many([windows], ys)[0]
    ys = np.asarray(ys, dtype=float)
    if not windows:
        return np.empty((0,) + ys.shape)
    c = windows[0].coupling
    if any(w.coupling != c for w in windows):
        raise DomainError("windows of different couplings in one inversion")
    shape, ys = (len(windows),) + ys.shape, ys.ravel()
    bad = ~(np.abs(ys) <= c.threshold * (1.0 + 1e-12))  # NaN and inf as well
    if np.any(bad):
        raise DomainError(
            f"eta target {float(ys[bad][0])} outside [-{c.threshold}, {c.threshold}]")
    ys = np.clip(ys, -c.threshold, c.threshold)
    require_resolvable(c, windows, ys)
    a = np.array([w.a_full for w in windows])
    b = np.array([w.b_full for w in windows])
    inc = np.array([w.increasing for w in windows])
    # the homeomorphism maps -+threshold to the window edges exactly; at a
    # touching window the edge is a double root of eta -+ threshold, so root
    # finding there would be sqrt(eps)-conditioned while the edge is known
    at_top = np.abs(ys - c.threshold) <= EDGE_TARGET_RTOL * c.threshold
    at_bot = np.abs(ys + c.threshold) <= EDGE_TARGET_RTOL * c.threshold
    z = np.where(at_top == inc[:, None], b[:, None], a[:, None])  # the edge eta sends there
    interior = ~(at_top | at_bot)
    n = int(np.count_nonzero(interior))
    if n:  # lanes window by window, each over the interior targets in order
        yv = np.tile(ys[interior], len(windows))
        lo, hi = np.repeat(a, n), np.repeat(b, n)
        eta_a = np.repeat(np.where(inc, -c.threshold, c.threshold), n)  # eta(a_full)
        z[:, interior] = _solve_batch(lambda zz, lanes: eta_many(c, zz) - yv[lanes],
                                      lo, hi, eta_a - yv, -eta_a - yv).reshape(-1, n)
    return z.reshape(shape)
