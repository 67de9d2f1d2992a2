"""Independent answers the correctness gate compares the program against.

Nothing here calls fluxlattice.  The step-edge discriminant is a closed-form
product of two 2x2 transfer matrices; Harper bands and finite-difference
Dirichlet eigenvalues come from the test suite's own oracles (tests/oracles.py,
imported read-only), which share no code path with the package either.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

# loaded by path: this module is `oracles` on the benchmark's import path too
_spec = importlib.util.spec_from_file_location(
    "test_oracles", Path(__file__).resolve().parents[1] / "tests" / "oracles.py")
_tests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tests)
dense_fiber, dense_kgrid_bands, fd_dirichlet = (
    _tests.dense_fiber, _tests.dense_kgrid_bands, _tests.fd_dirichlet)


def _segment(z: np.ndarray, c: float, d: float):
    """Entries (a, b, c, e) of the transfer [[a, b], [c, e]] acting on (u, u')
    across a segment of length d where V = c, for each real z."""
    k2 = z - c
    a = np.empty_like(z)
    b = np.empty_like(z)
    cc = np.empty_like(z)
    osc, hyp = k2 > 0, k2 < 0
    w = np.sqrt(k2[osc])
    a[osc], b[osc], cc[osc] = np.cos(w * d), np.sin(w * d) / w, -w * np.sin(w * d)
    w = np.sqrt(-k2[hyp])
    a[hyp], b[hyp], cc[hyp] = np.cosh(w * d), np.sinh(w * d) / w, w * np.sinh(w * d)
    flat = ~(osc | hyp)
    a[flat], b[flat], cc[flat] = 1.0, d, 0.0
    return a, b, cc, a


def step_eta(z, height: float, alpha: float, beta: float,
             split: float = np.pi / 2, l: float = np.pi) -> np.ndarray:
    """eta(z) for V = 0 on [0, split), V = height on [split, l].

    With M = T2 T1 the columns of M are the canonical solutions at t = l:
    u2 = (M00, M10) starts at (1, 0) and u1 = (M01, M11) at (0, 1), so
    eta = (1 + beta^2)(M11 + M00) + alpha M01.
    """
    z = np.asarray(z, dtype=float)
    a1, b1, c1, e1 = _segment(z, 0.0, split)
    a2, b2, c2, e2 = _segment(z, height, l - split)
    m00 = a2 * a1 + b2 * c1
    m01 = a2 * b1 + b2 * e1
    m11 = c2 * b1 + e2 * e1
    return (1.0 + beta**2) * (m11 + m00) + alpha * m01


def harper_edges(p: int, q: int, beta: float) -> np.ndarray:
    """Sorted band edges: eigenvalues of the fiber at (0, 0) and (pi/q, pi/q)."""
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(dense_fiber(p, q, beta, k, k)) for k in (0.0, np.pi / q)]))


def kgrid_bands(p: int, q: int, beta: float) -> np.ndarray:
    """Per-band (min, max) over a momentum grid of spacing pi / 4q, which
    contains both extremal momenta, so band edges are attained on it and
    interior maxima would show."""
    return np.asarray(dense_kgrid_bands(p, q, beta, nk=8 * q))


def richardson_dirichlet(grid: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Lowest `count` Dirichlet eigenvalues of -u'' + V u for piecewise-linear
    V through (grid, values): finite differences at two mesh sizes that put a
    node on every sample, Richardson-extrapolated."""
    l = float(grid[-1] - grid[0])
    cells = len(grid) - 1
    vfunc = lambda t: np.interp(t + grid[0], grid, values)  # noqa: E731
    coarse, fine = (fd_dirichlet(vfunc, l, cells * r - 1, count) for r in (1, 2))
    return (4.0 * fine - coarse) / 3.0
