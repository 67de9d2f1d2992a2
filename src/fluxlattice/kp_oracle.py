"""Trace of the Kronig-Penney monodromy, the integer-flux side of the paper.

One period of P = -d^2/dt^2 + W + alpha_eff sum_k delta(t - kl), in (derivative,
value) ordering with the delta jump at the node, has the transfer matrix
M(z) = [[alpha_eff u1 + u1', alpha_eff u2 + u2'], [u1, u2]] (values at t = l), so
trace M = alpha_eff u1 + u1' + u2 = eta(z) / (1 + beta^2) when alpha_eff =
alpha / (1 + beta^2): at integer flux the graph has the Kronig-Penney spectrum
{z : |trace M(z)| <= 2}.  The trace reads eta's four endpoint values, so
`validate`'s trace identity can only show rounding.
"""

from __future__ import annotations

import numpy as np

from .edge_solver import _basis_many
from .potential import Potential


def kp_trace_many(p: Potential, alpha_eff: float, z: np.ndarray) -> np.ndarray:
    """trace M(z) for a batch of z."""
    u1, du1, u2, _ = _basis_many(p, np.asarray(z, dtype=float))
    return alpha_eff * u1 + du1 + u2
