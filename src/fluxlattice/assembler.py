"""Assemble the full lattice spectrum: point spectrum plus eta-preimage of Harper bands.

The spectrum splits as Sigma_0 (the Dirichlet eigenvalues mu_k, infinitely
degenerate point spectrum) union Sigma = eta^{-1}(spec M(theta, beta)).  Per
band window J_n and Harper band [e-, e+] the continuous part receives the
monotone pullback [eta^{-1}(y1), eta^{-1}(y2)] with the endpoint order set by
the window orientation.  Eigenvalues are classified against the Harper bands
through eta(mu_k): strictly outside every band -> Isolated, on an edge within
tolerance -> BandEdge, strictly inside -> Embedded.

The scan range, band windows and eta(mu_k) do not depend on the flux, so a
request computes them once (`_scan`) and reuses them for every flux.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .discriminant import (BandWindow, CouplingParams, band_windows, eta_many,
                           eta_on_pole, invert_eta_many)
from .edge_solver import _count_below_many, spectrum_upto
from .errors import ConfigError, NumericalError
from .harper import HarperBands, RationalFlux, best_convergent, harper_spectrum
from .potential import Potential

EDGE_CLASSIFY_TOL = 1e-9


class Classification(enum.Enum):
    ISOLATED = "Isolated"
    EMBEDDED = "Embedded"
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
    theta_input: float = 0.0
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


def classify_eigenvalue(c: CouplingParams, f: RationalFlux, k: int,
                        tol: float = EDGE_CLASSIFY_TOL) -> Classification:
    """Locate eta(mu_k) relative to the Harper bands of M(theta, beta)."""
    y = eta_on_pole(c, k)
    bands = harper_spectrum(f, c.beta)
    return _classify_value(y, bands, tol)


def _classify_value(y: float, bands: HarperBands, tol: float) -> Classification:
    for lo, hi in bands.bands:
        if abs(y - lo) <= tol or abs(y - hi) <= tol:
            return Classification.BAND_EDGE
        if lo < y < hi:
            return Classification.EMBEDDED
    return Classification.ISOLATED


@dataclass(frozen=True)
class _Scan:
    """The flux-independent part of a request over [z_min, z_max]: y_bounds
    is eta's range on each window as clipped, poles holds (k, mu_k, eta(mu_k))
    for mu_k in range."""

    coupling: CouplingParams
    z_min: float
    z_max: float
    windows: tuple[BandWindow, ...]
    y_bounds: tuple[tuple[float, float], ...]
    poles: tuple[tuple[int, float, float], ...]


def _scan(c: CouplingParams, z_min: float | None, z_max: float) -> _Scan:
    """z_min None starts the range at the lowest window's a_full."""
    windows = band_windows(c, z_min, z_max)
    if z_min is None:
        if not windows:
            raise ConfigError(f"z_max = {z_max} lies below the lowest band window, "
                              "so there is no spectrum up to it; give z_min")
        z_min = windows[0].a_full
    y_bounds = []
    for w in windows:
        v = (eta_many(c, np.asarray([w.a, w.b])) if w.truncated
             else [-c.threshold, c.threshold])
        y_bounds.append((float(np.min(v)), float(np.max(v))))
    k_hi = int(_count_below_many(c.potential, np.asarray([z_max]))[0])  # mu_{k_hi} >= z_max
    mus = spectrum_upto(c.potential, k_hi).eigenvalues[:k_hi + 1]
    poles = tuple((k, mu, eta_on_pole(c, k)) for k, mu in enumerate(mus)
                  if z_min <= mu <= z_max)
    return _Scan(coupling=c, z_min=float(z_min), z_max=float(z_max),
                 windows=tuple(windows), y_bounds=tuple(y_bounds), poles=poles)


def _assemble(scan: _Scan, flux: RationalFlux, theta_input: float,
              convergent_used: str | None) -> SpectralSet:
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
    return SpectralSet(
        point_spectrum=tuple(
            PointEigenvalue(k, mu, _classify_value(y, harper, EDGE_CLASSIFY_TOL))
            for k, mu, y in scan.poles),
        continuous=tuple(intervals),
        z_min=scan.z_min, z_max=scan.z_max,
        coupling=scan.coupling, flux=flux, theta_input=theta_input,
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
    theta_input = flux.theta if isinstance(theta, RationalFlux) else float(theta)
    return _assemble(_scan(c, z_min, z_max), flux, theta_input, convergent_used)


def gap_report(s: SpectralSet, merge_eps: float = 1e-12) -> GapReport:
    """Maximal open subintervals of [z_min, z_max] free of the continuous part.

    Touching continuous intervals produce no gap; each gap is annotated with
    the eigenvalues mu_k sitting inside it.
    """
    gaps = []
    eps = merge_eps * max(1.0, abs(s.z_min), abs(s.z_max))
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
            s = _assemble(scan, flux, flux.theta, None)
        except NumericalError as exc:
            diagnostics.append(f"theta={flux}: {exc}")
            continue
        rows.extend(ButterflyRow(flux=flux, band_index=i, z_lo=iv.z_lo,
                                 z_hi=iv.z_hi, truncated=iv.truncated)
                    for i, iv in enumerate(s.continuous))
    return rows, diagnostics
