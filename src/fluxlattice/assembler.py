"""Assemble the full lattice spectrum: point spectrum plus eta-preimage of Harper bands.

The spectrum splits as Sigma_0 (the Dirichlet eigenvalues mu_k, infinitely
degenerate point spectrum) union Sigma = eta^{-1}(spec M(theta, beta)).  Each
mu_k is BandEdge when theta is an integer and |eta(mu_k)| sits on the
threshold 2(1+beta^2), and Isolated otherwise (`classify_eigenvalue`).

Fluxes come in exact; the CLI resolves a decimal theta once (`resolve_flux`).
The windows do not depend on the flux or on the range, which only selects
them, so a request scans them once (`_scan`) and `_assemble` serves any
number of fluxes in one collect, invert, clip pass: one flux for
`graph_spectrum`, a list for `butterfly_sweep`.  The pullback is a product
of windows and targets: the Harper band edges of every distinct band set
make one target vector, and one eta inversion solves each of them on every
window.  `_assemble` alone clips the pullbacks to the request range and
flags the ones it shortens.  The flux enters only through its Harper bands,
and spec M(theta) is even and 1-periodic in theta (M(-theta) = conj
M(theta), and the fiber depends on p mod q only), so the spectrum is
symmetric about theta = 1/2.  Fluxes with equal bands, such as p/q and
(q - p)/q, share one set of targets and one interval tuple.
"""

from __future__ import annotations

import enum
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


def _scan(c: CouplingParams, z_min: float | None,
          z_max: float) -> tuple[float, tuple[BandWindow, ...]]:
    """The flux-independent part of a request over [z_min, z_max]: z_min and
    the whole band windows meeting the range, on which eta is inverted.
    z_min None starts the range at the lowest window's a_full."""
    windows = tuple(band_windows(c, z_min, z_max))
    if z_min is None:
        if not windows:
            raise below_spectrum(z_max)
        z_min = windows[0].a_full
    return float(z_min), windows


def _assemble(c: CouplingParams, windows: tuple[BandWindow, ...], fluxes,
              z_min: float, z_max: float) -> list:
    """Per flux, its HarperBands and intervals over [z_min, z_max] sorted by
    z, or the NumericalError that flux alone raised.  Fluxes with equal
    Harper bands share one interval tuple: the assembly reads a flux only
    through its bands, and p/q, (p + q)/q and (q - p)/q have the same bands,
    since M(-theta) = conj M(theta) (`harper_spectrum`).  The band edges of
    every distinct band set, which `harper_spectrum` clips to -+threshold,
    go into one target vector, which one `invert_eta_many` call pulls back
    through every window; each band set reads its own columns.  Each
    pullback [min z, max z] lies in its window and is clipped here, and only
    here, to [z_min, z_max]: truncated when the clip shortens it, dropped
    when nothing is left."""
    out, shared = [], {}
    for flux in fluxes:
        try:
            harper = harper_spectrum(flux, c.beta)
            if harper.bands not in shared:
                ys = np.ravel(harper.bands)
                require_resolvable(c, windows, ys)
                shared[harper.bands] = ys
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append(harper)
    ys = list(shared.values())
    z = invert_eta_many(windows, np.concatenate([np.empty(0), *ys]))
    for bands, cols in zip(shared, np.split(z, np.cumsum([y.size for y in ys[:-1]]), axis=1)):
        intervals = []
        for w, row in zip(windows, cols.tolist()):
            for j, ends in enumerate(zip(row[::2], row[1::2])):
                lo, hi = sorted(ends)
                z_lo, z_hi = max(lo, z_min), min(hi, z_max)
                if z_lo <= z_hi:
                    intervals.append(ContinuousInterval(
                        z_lo=z_lo, z_hi=z_hi, window=w.index, band=j,
                        truncated=(z_lo, z_hi) != (lo, hi)))
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
    z_min, windows = _scan(c, z_min, z_max)
    (res,) = _assemble(c, windows, [flux], z_min, z_max)
    if isinstance(res, NumericalError):
        raise res
    harper, intervals = res
    mus, etas, _ = pole_record(c, z_max)  # the record the window scan read
    return SpectralSet(
        point_spectrum=tuple(
            PointEigenvalue(k, mu, classify_eigenvalue(c, flux, eta))
            for k, (mu, eta) in enumerate(zip(mus.tolist(), etas.tolist()))
            if z_min <= mu <= z_max),
        continuous=intervals,
        z_min=z_min, z_max=float(z_max),
        coupling=c, flux=flux,
        harper=harper,
        windows=windows,
    )


def gap_report(s: SpectralSet) -> tuple[Gap, ...]:
    """Maximal open subintervals of [s.z_min, s.z_max] free of the continuous
    part, in increasing order.

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
    return tuple(gaps)


def farey_fluxes(q_max: int) -> list[RationalFlux]:
    """All reduced p/q in [0, 1] with q <= q_max, ordered by (q, p)."""
    if q_max < 1:
        raise ConfigError(f"q_max must be >= 1, got {q_max}")
    out = [RationalFlux(0, 1), RationalFlux(1, 1)]
    for q in range(2, q_max + 1):
        out.extend(RationalFlux(p, q) for p in range(1, q) if math.gcd(p, q) == 1)
    return out


def butterfly_sweep(c: CouplingParams, fluxes: list[RationalFlux], z_min: float | None,
                    z_max: float) -> tuple[list[tuple], list[str]]:
    """Continuous spectrum intervals at each exact flux, such as
    `farey_fluxes(q_max)` or `approximate_irrational(theta, q_max)`, for the
    coupling c and its potential.

    One scan and one `_assemble` pass serve every flux, so the sweep makes
    one eta inversion in all and builds no SpectralSet.  It returns (flux,
    intervals) pairs in the order of the fluxes, each flux's intervals
    graph_spectrum's, sorted by z.  The mirror fluxes p/q and (q - p)/q share
    one Harper solve, one set of pullbacks and one interval tuple (M(-theta)
    = conj M(theta)).  A flux that fails is reported as a diagnostic and
    has no pair; the others keep theirs.
    """
    pairs, diagnostics = [], []
    z_min, windows = _scan(c, z_min, z_max)
    for flux, res in zip(fluxes, _assemble(c, windows, fluxes, z_min, z_max)):
        if isinstance(res, NumericalError):
            diagnostics.append(f"theta={flux}: {res}")
        else:
            pairs.append((flux, res[1]))
    return pairs, diagnostics
