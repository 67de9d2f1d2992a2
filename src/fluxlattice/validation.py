"""Cross-check suite behind the `validate` CLI subcommand.

Each property returns a measured defect and its tolerance; all of them are
restatements of structural facts (Wronskian normalization, discriminant sign
alternation, Chambers momentum independence, the Kronig-Penney trace identity,
torus containment in the Harper bands, flux 1-periodicity) evaluated on the
user's configuration.  The torus is diagonalized from its momentum blocks,
built apart from the Bloch fiber behind the Harper bands, so containment
compares two constructions.  `kp_trace_identity` restates eta algebraically:
both sides combine the same four endpoint values of one propagation, so its
defect can only show rounding, never a wrong basis.  `flux_periodicity`
compares the Harper bands at p/q and (p+q)/q: the assembly reads the flux
only through them and q, so equal bands mean equal spectra, and no spectrum
is assembled here.  Since the fiber uses (p j) mod q and the bands at p/q,
(p+q)/q and (q-p)/q share one cache entry (keyed on min(p mod q, -p mod q),
as M(-theta) = conj M(theta)), its defect is 0 by construction; so would be
a reflection check read through `harper_spectrum`, which must build the
fiber at (q-p)/q itself to compare anything.  `chambers_independence`
compares the float64 spectra of Bloch fibers at momentum pairs with equal
c(k) = 2 cos(q k1) + 2 beta^{2q} cos(q k2), relative to 2(1 + beta^2) (see
`harper.chambers_defect`): it shows that spec H(k) depends on c(k) only,
not that det(E I - H(k)) is linear in c.  Sign alternation and torus
containment are measured relative to 2(1 + beta^2) as well, the scale of
eta(mu_k) and of the Harper spectrum, so that their bounds hold at any beta;
at beta = 1 they are the absolute bounds 1e-6 and 1e-9.

A run takes an exact flux, as `graph_spectrum` does, and computes only what
the checks read.  Every mu_k and eta(mu_k) comes from the Dirichlet record
that `spectrum` reads for the same z_max (`discriminant.pole_record`), and
sign alternation checks all of it and reports its signed worst margin.
Without a given z_min the Wronskian and Kronig-Penney samples start at the
floor of the spectrum, the lower edge of band window 0.
`discriminant.lowest_window_edge` takes it by the solve that gives
`spectrum` and `butterfly` their window 0 (its centre, then its edges), from
that record, so both floors are one double; no other window is scanned and
no spectrum is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminant import (CouplingParams, below_spectrum, eta_many, lowest_window_edge,
                           pole_record, require_range)
from .edge_solver import _basis_many
from .harper import (HarperBands, RationalFlux, chambers_defect, harper_spectrum,
                     torus_oracle)
from .kp_oracle import kp_trace_many

SIGN_ALTERNATION_SLACK = 2.5e-7  # relative; equality is attained (free V, midpoint-even V)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


def _z_samples(z_min: float, z_max: float, n: int) -> np.ndarray:
    """n interior points of a uniform grid on [z_min, z_max]."""
    return np.linspace(z_min, z_max, n + 2)[1:-1]


def check_wronskian(c: CouplingParams, z_min: float, z_max: float) -> PropertyResult:
    # defect measured relative to the solution scale: below the spectral
    # floor the products grow past the point where 1e-8 is representable
    z = _z_samples(z_min, z_max, 64)
    u1, du1, u2, du2 = _basis_many(c.potential, z)
    scale = np.maximum(1.0, np.abs(du1 * u2))
    defect = float(np.max(np.abs(du1 * u2 - u1 * du2 - 1.0) / scale))
    return PropertyResult("wronskian", defect, 1e-8)


def check_sign_alternation(c: CouplingParams, z_max: float) -> PropertyResult:
    """(-1)^k eta(mu_k) <= -2(1+beta^2) at every mu_k of `pole_record(c, z_max)`;
    the defect is the signed worst margin max_k (-1)^k eta(mu_k) + 2(1+beta^2)
    relative to 2(1+beta^2)."""
    _, etas, _ = pole_record(c, z_max)
    worst = float(np.max((-1.0) ** np.arange(etas.size) * etas + c.threshold)) / c.threshold
    return PropertyResult("sign_alternation", worst, SIGN_ALTERNATION_SLACK)


def check_chambers(flux: RationalFlux, beta: float) -> PropertyResult:
    return PropertyResult("chambers_independence",
                          chambers_defect(flux, beta), 1e-12)


def check_kp_identity(c: CouplingParams, z_min: float, z_max: float) -> PropertyResult:
    # defect measured relative to the size of eta's terms, as the Wronskian's
    # to its solution scale: from a deep negative floor they reach 2e8, and
    # both sides combine the same four endpoint values, so only rounding shows
    z = _z_samples(z_min, z_max, 100)
    factor = 1.0 + c.beta**2
    traces = kp_trace_many(c.potential, c.alpha / factor, z)
    u1, du1, u2, _ = _basis_many(c.potential, z)
    scale = np.maximum(1.0, factor * (np.abs(du1) + np.abs(u2)) + abs(c.alpha) * np.abs(u1))
    defect = float(np.max(np.abs(factor * traces - eta_many(c, z)) / scale))
    return PropertyResult("kp_trace_identity", defect, 1e-8)


def check_torus_containment(bands: HarperBands) -> PropertyResult:
    flux = bands.flux
    reps = max(1, 12 // flux.q)  # torus side: the largest multiple of q up to 12, or q
    evals = torus_oracle(flux, bands.beta, reps)
    lo, hi = np.asarray(bands.bands).T
    e = evals[:, None]
    dist = np.maximum(np.maximum(lo - e, e - hi), 0.0).min(axis=1)
    # relative to the Harper norm bound 2(1+beta^2), as chambers_defect
    scale = 2.0 * (1.0 + bands.beta**2)
    return PropertyResult("torus_containment", float(np.max(dist)) / scale, 2.5e-10)


def check_flux_periodicity(bands: HarperBands) -> PropertyResult:
    """The Harper bands at (p+q)/q must equal those at p/q; the assembly reads
    the flux only through them and q, so equal bands give equal spectra."""
    flux = bands.flux
    a = bands.edges
    b = harper_spectrum(RationalFlux(flux.p + flux.q, flux.q), bands.beta).edges
    defect = float(np.max(np.abs(a - b))) if a.shape == b.shape else np.inf
    return PropertyResult("flux_periodicity", defect, 1e-9)


def run_all(c: CouplingParams, flux: RationalFlux, z_min: float | None,
            z_max: float) -> list[PropertyResult]:
    """The six checks at the exact flux, in the order `validate` prints them.

    The Wronskian and Kronig-Penney samples span [z_min, z_max]; z_min None
    starts them at the floor of the spectrum, window 0's a_full, solved as
    `band_windows` solves it (ConfigError when z_max lies below it).  mu_0,
    every eta(mu_k) and u2'(l; mu_0) come from the one Dirichlet record
    `pole_record(c, z_max)`; no other window is scanned.
    """
    require_range(z_min, z_max)
    if z_min is None:
        z_min = lowest_window_edge(c, z_max)
        if z_max < z_min:
            raise below_spectrum(z_max)
    results = [
        check_wronskian(c, z_min, z_max),
        check_sign_alternation(c, z_max),
        check_chambers(flux, c.beta),
        check_kp_identity(c, z_min, z_max),
    ]
    bands = harper_spectrum(flux, c.beta)
    return results + [check_torus_containment(bands), check_flux_periodicity(bands)]
