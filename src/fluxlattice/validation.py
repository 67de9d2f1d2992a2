"""Cross-check suite behind the `validate` CLI subcommand.

Each property returns a measured defect and its tolerance; all of them are
restatements of structural facts (Wronskian normalization, discriminant sign
alternation, Chambers momentum independence, the Kronig-Penney trace identity,
torus containment in the Harper bands, flux 1-periodicity) evaluated on the
user's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembler import _assemble, _scan, _Scan, resolve_flux
from .discriminant import CouplingParams, eta_many, eta_on_pole
from .edge_solver import _basis_many
from .harper import RationalFlux, chambers_defect, harper_spectrum, torus_oracle
from .kp_oracle import kp_trace_many

SIGN_ALTERNATION_SLACK = 1e-6  # equality is attained (free V, midpoint-even V)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


def _z_samples(z_min: float, z_max: float, n: int) -> np.ndarray:
    # keep samples off the Dirichlet poles: interior points of a uniform grid
    return np.linspace(z_min, z_max, n + 2)[1:-1] + 1e-3

def check_wronskian(c: CouplingParams, z_min: float, z_max: float,
                    n: int = 64) -> PropertyResult:
    # defect measured relative to the solution scale: below the spectral
    # floor the products grow past the point where 1e-8 is representable
    z = _z_samples(z_min, z_max, n)
    u1, du1, u2, du2 = _basis_many(c.potential, z)
    scale = np.maximum(1.0, np.abs(du1 * u2))
    defect = float(np.max(np.abs(du1 * u2 - u1 * du2 - 1.0) / scale))
    return PropertyResult("wronskian", defect, 1e-8)


def check_sign_alternation(c: CouplingParams, k_max: int = 10) -> PropertyResult:
    worst = -np.inf
    for k in range(k_max + 1):
        worst = max(worst, (-1) ** k * eta_on_pole(c, k) + c.threshold)
    return PropertyResult("sign_alternation", float(max(worst, 0.0)),
                          SIGN_ALTERNATION_SLACK)


def check_chambers(flux: RationalFlux, beta: float) -> PropertyResult:
    return PropertyResult("chambers_independence",
                          chambers_defect(flux, beta, n_k=10, n_e=5), 1e-9)


def check_kp_identity(c: CouplingParams, z_min: float, z_max: float,
                      n: int = 100) -> PropertyResult:
    z = _z_samples(z_min, z_max, n)
    factor = 1.0 + c.beta**2
    traces = kp_trace_many(c.potential, c.alpha / factor, z)
    defect = float(np.max(np.abs(factor * traces - eta_many(c, z))))
    return PropertyResult("kp_trace_identity", defect, 1e-8)


def check_torus_containment(flux: RationalFlux, beta: float,
                            target_n: int = 12) -> PropertyResult:
    reps = max(1, target_n // flux.q)
    bands = harper_spectrum(flux, beta)
    evals = torus_oracle(flux, beta, reps)
    worst = 0.0
    for e in evals:
        dist = min(max(lo - e, e - hi, 0.0) for lo, hi in bands.bands)
        worst = max(worst, dist)
    return PropertyResult("torus_containment", float(worst), 1e-9)


def check_flux_periodicity(scan: _Scan, flux: RationalFlux) -> PropertyResult:
    shifted = RationalFlux(flux.p + flux.q, flux.q)
    sets = [_assemble(scan, f, f.theta, None) for f in (flux, shifted)]
    ends = [np.asarray([(iv.z_lo, iv.z_hi) for iv in s.continuous]) for s in sets]
    if ends[0].shape != ends[1].shape:
        return PropertyResult("flux_periodicity", np.inf, 1e-9)
    defect = float(np.max(np.abs(ends[0] - ends[1]))) if ends[0].size else 0.0
    return PropertyResult("flux_periodicity", defect, 1e-9)


def run_all(c: CouplingParams, theta, z_min: float | None, z_max: float,
            q_max: int = 50, k_max: int = 10) -> list[PropertyResult]:
    flux, _ = resolve_flux(theta, q_max)
    scan = _scan(c, z_min, z_max)
    return [
        check_wronskian(c, scan.z_min, z_max),
        check_sign_alternation(c, k_max),
        check_chambers(flux, c.beta),
        check_kp_identity(c, scan.z_min, z_max),
        check_torus_containment(flux, c.beta),
        check_flux_periodicity(scan, flux),
    ]
