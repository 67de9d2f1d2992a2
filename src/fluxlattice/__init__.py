"""fluxlattice: spectra of the periodic square quantum-graph lattice with magnetic flux.

The square metric lattice with edge potential V, delta-coupling alpha,
anisotropy beta and flux theta per plaquette has spectrum

    Sigma_0 (Dirichlet eigenvalues mu_k of one edge, point spectrum)
    union   eta^{-1}( spec M(theta, beta) ),

where eta is the entire discriminant of the associated Kronig-Penney operator
and M(theta, beta) is the discrete magnetic Laplacian (Harper operator) on
Z^2.  The package computes all ingredients and assembles band/gap structure,
classification of the eigenvalues, and Hofstadter-butterfly sweep data at
exact fluxes p/q; `resolve_flux` turns a decimal theta into one.  The
`validate` checks (Wronskian, sign alternation, Chambers independence, the
Kronig-Penney trace, torus containment, flux periodicity) live in `validation`.
The edge basis, the Pruefer count, eta, its inversion and the Bloch fiber have
batched kernels only (`edge_solver._basis_many`, `_count_below_many`,
`discriminant.eta_many`, `invert_eta_many`, `harper._fiber`).  A request
reads the mu_k and eta(mu_k) from the Dirichlet solve that reaches the top
of its range (`discriminant.pole_record`) and pulls every Harper band edge
back through every window in one `invert_eta_many` call, one row per window.
A `BandWindow` is whole, the same for every range; only the assembly clips
to the range.  `butterfly_sweep` returns (flux, intervals) pairs; mirror
fluxes share one.
"""

from .assembler import (Classification, ContinuousInterval, Gap, PointEigenvalue,
                        SpectralSet, butterfly_sweep, classify_eigenvalue, farey_fluxes,
                        gap_report, graph_spectrum)
from .discriminant import BandWindow, CouplingParams, band_windows, invert_eta_many
from .edge_solver import DirichletSpectrum, dirichlet_eigenvalues
from .errors import (ConfigError, ConsistencyError, DomainError, IntegrationOverflowError,
                     NumericalError, TorusSizeError)
from .harper import (HarperBands, RationalFlux, approximate_irrational,
                     best_convergent, chambers_defect, harper_spectrum,
                     make_rational, resolve_flux, torus_oracle)
from .kp_oracle import kp_trace_many
from .potential import FieldSample, Potential, flux_from_field, make_potential

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
