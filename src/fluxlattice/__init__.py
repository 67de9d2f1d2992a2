"""fluxlattice: spectra of the periodic square quantum-graph lattice with magnetic flux.

The square metric lattice with edge potential V, delta-coupling alpha,
anisotropy beta and flux theta per plaquette has spectrum

    Sigma_0 (Dirichlet eigenvalues mu_k of one edge, point spectrum)
    union   eta^{-1}( spec M(theta, beta) ),

where eta is the entire discriminant of the associated Kronig-Penney operator
and M(theta, beta) is the discrete magnetic Laplacian (Harper operator) on
Z^2.  The package computes all ingredients and assembles band/gap structure,
classification of the eigenvalues, and Hofstadter-butterfly sweep data.
"""

from .assembler import (ButterflyRow, Classification, ContinuousInterval, Gap,
                        GapReport, PointEigenvalue, SpectralSet, butterfly_sweep,
                        classify_eigenvalue, farey_fluxes, gap_report,
                        graph_spectrum, resolve_flux)
from .discriminant import (BandWindow, CouplingParams, band_windows, eta,
                           eta_on_pole, invert_eta, invert_eta_many)
from .edge_solver import (DirichletSpectrum, KreinMatrix, SolutionPair,
                          dirichlet_count_below, dirichlet_eigenvalues,
                          integrate_basis, krein_matrix)
from .errors import (BracketingError, ConfigError, ConsistencyError, DomainError,
                     IntegrationOverflowError, NumericalError, PoleProximityError,
                     TorusSizeError)
from .harper import (HarperBands, RationalFlux, approximate_irrational,
                     best_convergent, bloch_matrix, chambers_defect,
                     chambers_polynomial, harper_spectrum, make_rational,
                     torus_oracle)
from .kp_oracle import Monodromy, kp_monodromy, kp_spectrum, kp_trace_many
from .potential import (FieldSample, Potential, evaluate_potential,
                        flux_from_field, make_potential)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
