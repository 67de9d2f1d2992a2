"""Assemble the full lattice spectrum: point spectrum plus eta-preimage of Harper bands.

The spectrum splits as Sigma_0 (the Dirichlet eigenvalues mu_k, infinitely
degenerate point spectrum) union Sigma = eta^{-1}(spec M(theta, beta)).  Each
mu_k is BandEdge when theta is an integer and |eta(mu_k)| sits on the
threshold 2(1+beta^2), and Isolated otherwise (`classify_eigenvalue`).

Fluxes come in exact; the CLI resolves a decimal theta once (`resolve_flux`).
The windows do not depend on the flux, so a request scans them once (`_scan`)
and `_assemble` serves any number of fluxes in one collect, invert, clip pass
with one eta inversion: one flux for `graph_spectrum`, a list for `butterfly_sweep`.
The flux enters only through its Harper bands, and spec M(theta) is even and
1-periodic in theta (M(-theta) = conj M(theta), and the fiber depends on
p mod q only), so the spectrum is symmetric about theta = 1/2.  Fluxes with
equal bands, such as p/q and (q - p)/q, share one inversion and one interval
list, so their intervals are equal bit for bit.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .discriminant import (BandWindow, CouplingParams, band_windows, below_spectrum,
                           escapes_threshold, invert_eta_many, pole_record,
                           require_resolvable)
from .errors import ConfigError, NumericalError
from .harper import HarperBands, RationalFlux, harper_spectrum


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


def classify_eigenvalue(c: CouplingParams, f: RationalFlux,
                        eta_mu: float) -> Classification:
    """BandEdge iff theta is an integer and |eta(mu_k)| is on 2(1+beta^2).

    Two facts make the Harper bands unnecessary: the Wronskian gives
    eta(mu_k) = (1+beta^2)(nu + 1/nu) with nu = u1'(l; mu_k), so |eta(mu_k)|
    >= 2(1+beta^2) (Magnus-Winkler, Hill's Equation, 1966); and ||M(theta)||
    < 2(1+beta^2) unless theta is an integer, where spec M is the one band
    [-2(1+beta^2), 2(1+beta^2)].  "On" means within THRESHOLD_RTOL (1e-8,
    relative), the tolerance under which `band_windows` reads the window
    sides at mu_k from the monodromy.  eta_mu is eta(mu_k) from the Dirichlet
    record (`pole_record`).
    """
    if f.q == 1 and not escapes_threshold(c, eta_mu):
        return Classification.BAND_EDGE
    return Classification.ISOLATED


@dataclass(frozen=True)
class _Scan:
    """The flux-independent part of a request over [z_min, z_max]: the band
    windows meeting it, each clipped to it as scanned and keeping its full
    domain [a_full, b_full], on which eta is inverted."""

    coupling: CouplingParams
    z_min: float
    windows: tuple[BandWindow, ...]


def _scan(c: CouplingParams, z_min: float | None, z_max: float) -> _Scan:
    """z_min None starts the range at the lowest window's a_full."""
    windows = band_windows(c, z_min, z_max)
    if z_min is None:
        if not windows:
            raise below_spectrum(z_max)
        z_min = windows[0].a_full
    return _Scan(coupling=c, z_min=float(z_min), windows=tuple(windows))


def _assemble(scan: _Scan, fluxes) -> list:
    """Per flux, its HarperBands and intervals sorted by z, or the
    NumericalError that flux alone raised.  Fluxes with equal Harper bands
    share one interval list: the assembly reads a flux only through its bands,
    and p/q, (p + q)/q and (q - p)/q have the same bands, since M(-theta) =
    conj M(theta) (`harper_spectrum`).  For each distinct band set, collect
    both ends of every band on every window; invert them all in one call on
    the windows' full domains, and clip each pullback [min z, max z] to its
    window as scanned: truncated when the clip shortens it, dropped when
    nothing is left."""
    c = scan.coupling
    out, shared, ws, ys = [], {}, [], []
    for flux in fluxes:
        try:
            harper = harper_spectrum(flux, c.beta)
            if harper.bands not in shared:
                fw = [w for w in scan.windows for _ in harper.bands for _ in (0, 1)]
                fy = np.tile(np.clip(harper.bands, -c.threshold, c.threshold).ravel(),
                             len(scan.windows))
                require_resolvable(c, fw, fy)
                shared[harper.bands] = []
                ws += fw
                ys.append(fy)
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append(harper)
    z = iter(invert_eta_many(ws, np.concatenate(ys) if ys else []).reshape(-1, 2).tolist())
    for bands, intervals in shared.items():
        for w, j in itertools.product(scan.windows, range(len(bands))):
            lo, hi = sorted(next(z))
            z_lo, z_hi = max(lo, w.a), min(hi, w.b)
            if z_lo <= z_hi:
                intervals.append(ContinuousInterval(z_lo=z_lo, z_hi=z_hi, window=w.index,
                                                    band=j, truncated=(z_lo, z_hi) != (lo, hi)))
        intervals.sort(key=lambda i: (i.z_lo, i.z_hi, i.window, i.band))
        shared[bands] = tuple(intervals)
    return [r if isinstance(r, NumericalError) else (r, shared[r.bands]) for r in out]


def graph_spectrum(c: CouplingParams, flux: RationalFlux, z_min: float | None,
                   z_max: float) -> SpectralSet:
    """The lattice spectrum at the exact flux over [z_min, z_max] for the
    coupling c, whose potential is the edge's.

    z_min None starts the range at the lowest band window's a_full
    (ConfigError if z_max lies below it).
    """
    scan = _scan(c, z_min, z_max)
    (res,) = _assemble(scan, [flux])
    if isinstance(res, NumericalError):
        raise res
    harper, intervals = res
    mus, etas, _ = pole_record(c, z_max)  # the record the window scan read
    return SpectralSet(
        point_spectrum=tuple(
            PointEigenvalue(k, mu, classify_eigenvalue(c, flux, eta))
            for k, (mu, eta) in enumerate(zip(mus.tolist(), etas.tolist()))
            if scan.z_min <= mu <= z_max),
        continuous=intervals,
        z_min=scan.z_min, z_max=float(z_max),
        coupling=c, flux=flux,
        harper=harper,
        windows=scan.windows,
    )


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


def butterfly_sweep(c: CouplingParams, fluxes: list[RationalFlux], z_min: float | None,
                    z_max: float) -> tuple[list[ButterflyRow], list[str]]:
    """Continuous spectrum intervals at each exact flux, such as
    `farey_fluxes(q_max)` or `approximate_irrational(theta, q_max)`, for the
    coupling c and its potential.

    One scan and one `_assemble` pass serve every flux, so the sweep makes
    one eta inversion in all and builds no SpectralSet; each flux's rows are
    graph_spectrum's intervals.  The mirror fluxes p/q and (q - p)/q share
    one Harper solve and one set of pullbacks (M(-theta) = conj M(theta)),
    so their rows are equal.  Rows come back in the order of the fluxes,
    then by z; a flux that fails is reported as a diagnostic and the others
    keep their rows.
    """
    rows: list[ButterflyRow] = []
    diagnostics: list[str] = []
    for flux, res in zip(fluxes, _assemble(_scan(c, z_min, z_max), fluxes)):
        if isinstance(res, NumericalError):
            diagnostics.append(f"theta={flux}: {res}")
            continue
        rows.extend(ButterflyRow(flux=flux, band_index=i, z_lo=iv.z_lo,
                                 z_hi=iv.z_hi, truncated=iv.truncated)
                    for i, iv in enumerate(res[1]))
    return rows, diagnostics
