"""Assemble the full lattice spectrum: point spectrum plus eta-preimage of Harper bands.

The spectrum splits as Sigma_0 (the Dirichlet eigenvalues mu_k, infinitely
degenerate point spectrum) union Sigma = eta^{-1}(spec M(theta, beta)).  Per
band window J_n and Harper band [e-, e+] the continuous part receives the
monotone pullback [eta^{-1}(y1), eta^{-1}(y2)] with the endpoint order set by
the window orientation.  Each mu_k is BandEdge when theta is an integer and
|eta(mu_k)| sits on the threshold 2(1+beta^2), and Isolated otherwise
(`classify_eigenvalue`); no Harper band is read for it.

The scan range, band windows and the mu_k in range do not depend on the flux,
so a request computes them once (`_scan`) and reuses them for every flux;
at integer flux eta(mu_k) comes from the scan's own Dirichlet solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .discriminant import (BandWindow, CouplingParams, band_windows, escapes_threshold,
                           eta_many, invert_eta_many, poles_and_etas)
from .edge_solver import _mus_through
from .errors import ConfigError, NumericalError
from .harper import HarperBands, RationalFlux, best_convergent, harper_spectrum
from .potential import Potential


class Classification(enum.Enum):
    ISOLATED = "Isolated"
    BAND_EDGE = "BandEdge"


@dataclass(frozen=True)
class PointEigenvalue:
    k: int
    mu: float
    classification: Classification


@dataclass(frozen=True)
class ContinuousInterval:
    """One closed interval of Sigma with provenance (window n, Harper band j)."""

    z_lo: float
    z_hi: float
    window: int
    band: int
    truncated: bool


@dataclass(frozen=True)
class SpectralSet:
    """The spectrum over [z_min, z_max]; z_min defaults to the lowest band
    window's a_full, below which there is no spectrum."""

    point_spectrum: tuple[PointEigenvalue, ...]
    continuous: tuple[ContinuousInterval, ...]
    z_min: float
    z_max: float
    coupling: CouplingParams = field(repr=False)
    flux: RationalFlux = RationalFlux(0, 1)
    convergent_used: str | None = None  # "p/q" when a decimal theta was resolved
    harper: HarperBands | None = field(default=None, repr=False)
    windows: tuple[BandWindow, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class Gap:
    lo: float
    hi: float
    contains_mu: tuple[float, ...]


@dataclass(frozen=True)
class GapReport:
    z_min: float
    z_max: float
    gaps: tuple[Gap, ...]


def resolve_flux(theta, q_max: int = 50) -> tuple[RationalFlux, str | None]:
    """Map a flux input to a RationalFlux.

    RationalFlux passes through; floats resolve to their best continued-
    fraction convergent with denominator <= q_max, and the substitution is
    reported (None when the float already equals the convergent).
    """
    if isinstance(theta, RationalFlux):
        return theta, None
    theta = float(theta)
    if not np.isfinite(theta):
        raise ConfigError(f"theta must be finite, got {theta!r}")
    flux = best_convergent(theta, q_max)
    exact = abs(flux.theta - theta) < 1e-12 * max(1.0, abs(theta))
    return flux, (None if exact else str(flux))


def classify_eigenvalue(c: CouplingParams, f: RationalFlux,
                        eta_mu: float | None) -> Classification:
    """BandEdge iff theta is an integer and |eta(mu_k)| is on 2(1+beta^2).

    Two facts make the Harper bands unnecessary: the Wronskian gives
    eta(mu_k) = (1+beta^2)(nu + 1/nu) with nu = u1'(l; mu_k), so |eta(mu_k)|
    >= 2(1+beta^2) (Magnus-Winkler, Hill's Equation, 1966); and ||M(theta)||
    < 2(1+beta^2) unless theta is an integer, where spec M is the one band
    [-2(1+beta^2), 2(1+beta^2)].  "On" means within THRESHOLD_RTOL (1e-8,
    relative), the tolerance that clamps window edges to mu_k.  eta_mu is
    eta(mu_k) (`eta_on_pole`); it is read only at integer theta, so None may
    stand for it at any other flux.
    """
    if f.q == 1 and not escapes_threshold(c, eta_mu):
        return Classification.BAND_EDGE
    return Classification.ISOLATED


@dataclass(frozen=True)
class _Scan:
    """The flux-independent part of a request over [z_min, z_max]: y_bounds
    is eta's range on each window as clipped, poles holds (k, mu_k) for mu_k in
    range, and mu_0..mu_{k_through} (mu_{k_through} >= z_max) came from one
    Dirichlet solve."""

    coupling: CouplingParams
    z_min: float
    z_max: float
    windows: tuple[BandWindow, ...]
    y_bounds: tuple[tuple[float, float], ...]
    poles: tuple[tuple[int, float], ...]
    k_through: int


def below_spectrum(z_max: float) -> ConfigError:
    """The error for a default range whose z_max lies below the spectrum."""
    return ConfigError(f"z_max = {z_max} lies below the lowest band window, "
                       "so there is no spectrum up to it; give z_min")


def _scan(c: CouplingParams, z_min: float | None, z_max: float) -> _Scan:
    """z_min None starts the range at the lowest window's a_full."""
    windows = band_windows(c, z_min, z_max)
    if z_min is None:
        if not windows:
            raise below_spectrum(z_max)
        z_min = windows[0].a_full
    y_bounds = []
    for w in windows:
        v = (eta_many(c, np.asarray([w.a, w.b])) if w.truncated
             else [-c.threshold, c.threshold])
        y_bounds.append((float(np.min(v)), float(np.max(v))))
    mus = _mus_through(c.potential, z_max)  # the window scan's count, cached
    poles = tuple((k, mu) for k, mu in enumerate(mus) if z_min <= mu <= z_max)
    return _Scan(coupling=c, z_min=float(z_min), z_max=float(z_max),
                 windows=tuple(windows), y_bounds=tuple(y_bounds), poles=poles,
                 k_through=len(mus) - 1)


def _assemble(scan: _Scan, flux: RationalFlux, convergent_used: str | None
              ) -> SpectralSet:
    harper = harper_spectrum(flux, scan.coupling.beta)
    threshold = scan.coupling.threshold
    # collect every (window, band) pair, invert all endpoints that clipping
    # left free in one call, then hand the results back in the same order
    pairs = []
    for w, (yl, yh) in zip(scan.windows, scan.y_bounds):
        for j, (lo, hi) in enumerate(harper.bands):
            y1, y2 = max(lo, -threshold), min(hi, threshold)
            z1 = z2 = None  # endpoints pinned by clipping, no inversion needed
            clipped = False
            if y1 < yl:
                y1, clipped = yl, True
                z1 = w.a if w.increasing else w.b
            if y2 > yh:
                y2, clipped = yh, True
                z2 = w.b if w.increasing else w.a
            if y1 > y2:
                continue  # band lies entirely outside the clipped window
            pairs.append((w, j, y1, y2, z1, z2, clipped))
    free = [(w, y) for w, _, y1, y2, z1, z2, _ in pairs
            for y, z in ((y1, z1), (y2, z2)) if z is None]
    inv = iter(invert_eta_many([w for w, _ in free],
                               np.asarray([y for _, y in free])).tolist())
    intervals: list[ContinuousInterval] = []
    for w, j, _, _, z1, z2, clipped in pairs:
        z1 = next(inv) if z1 is None else z1
        z2 = next(inv) if z2 is None else z2
        z_lo, z_hi = max(min(z1, z2), w.a), min(max(z1, z2), w.b)
        if z_hi < z_lo:
            continue
        intervals.append(ContinuousInterval(
            z_lo=z_lo, z_hi=z_hi, window=w.index, band=j,
            truncated=bool(clipped)))
    intervals.sort(key=lambda i: (i.z_lo, i.z_hi, i.window, i.band))
    # eta(mu_k) matters at integer flux only; read it from the scan's solve
    etas = (poles_and_etas(scan.coupling, scan.k_through)[1] if flux.q == 1
            else [None] * (scan.k_through + 1))
    return SpectralSet(
        point_spectrum=tuple(
            PointEigenvalue(k, mu, classify_eigenvalue(scan.coupling, flux, etas[k]))
            for k, mu in scan.poles),
        continuous=tuple(intervals),
        z_min=scan.z_min, z_max=scan.z_max,
        coupling=scan.coupling, flux=flux,
        convergent_used=convergent_used,
        harper=harper,
        windows=scan.windows,
    )


def graph_spectrum(p: Potential, c: CouplingParams, theta,
                   z_min: float | None = None, z_max: float = 100.0,
                   q_max: int = 50) -> SpectralSet:
    """The lattice spectrum over [z_min, z_max].

    theta may be a RationalFlux or a float (resolved to its best convergent
    with denominator <= q_max, recorded in the result).  z_min defaults to the
    lowest band window's a_full (ConfigError if z_max lies below it).
    """
    if c.potential != p:
        c = CouplingParams(alpha=c.alpha, beta=c.beta, potential=p)
    flux, convergent_used = resolve_flux(theta, q_max)
    return _assemble(_scan(c, z_min, z_max), flux, convergent_used)


def gap_report(s: SpectralSet) -> GapReport:
    """Maximal open subintervals of [z_min, z_max] free of the continuous part.

    Touching continuous intervals produce no gap; each gap is annotated with
    the eigenvalues mu_k sitting inside it.
    """
    gaps = []
    eps = 1e-12 * max(1.0, abs(s.z_min), abs(s.z_max))
    cursor = s.z_min
    mus = [pt.mu for pt in s.point_spectrum]
    for iv in s.continuous:
        if iv.z_lo > cursor + eps:
            gaps.append(Gap(lo=cursor, hi=iv.z_lo,
                            contains_mu=tuple(m for m in mus if cursor < m < iv.z_lo)))
        cursor = max(cursor, iv.z_hi)
    if cursor < s.z_max - eps:
        gaps.append(Gap(lo=cursor, hi=s.z_max,
                        contains_mu=tuple(m for m in mus if cursor < m < s.z_max)))
    return GapReport(z_min=s.z_min, z_max=s.z_max, gaps=tuple(gaps))


def farey_fluxes(q_max: int) -> list[RationalFlux]:
    """All reduced p/q in [0, 1] with q <= q_max, ordered by (q, p)."""
    if q_max < 1:
        raise ConfigError(f"q_max must be >= 1, got {q_max}")
    out = [RationalFlux(0, 1), RationalFlux(1, 1)]
    for q in range(2, q_max + 1):
        out.extend(RationalFlux(p, q) for p in range(1, q) if math.gcd(p, q) == 1)
    return out


@dataclass(frozen=True)
class ButterflyRow:
    flux: RationalFlux
    band_index: int
    z_lo: float
    z_hi: float
    truncated: bool


def butterfly_sweep(p: Potential, c: CouplingParams, q_max: int,
                    z_min: float | None = None, z_max: float = 100.0
                    ) -> tuple[list[ButterflyRow], list[str]]:
    """Continuous spectrum intervals for every Farey flux with q' <= q_max.

    One flux-independent scan is shared across rows; z_min defaults as in
    graph_spectrum.  Rows come back ordered by (q', p') then z; per-flux
    failures are collected as diagnostics without aborting the sweep.
    """
    if c.potential != p:
        c = CouplingParams(alpha=c.alpha, beta=c.beta, potential=p)
    scan = _scan(c, z_min, z_max)
    rows: list[ButterflyRow] = []
    diagnostics: list[str] = []
    for flux in farey_fluxes(q_max):
        try:
            s = _assemble(scan, flux, None)
        except NumericalError as exc:
            diagnostics.append(f"theta={flux}: {exc}")
            continue
        rows.extend(ButterflyRow(flux=flux, band_index=i, z_lo=iv.z_lo,
                                 z_hi=iv.z_hi, truncated=iv.truncated)
                    for i, iv in enumerate(s.continuous))
    return rows, diagnostics
