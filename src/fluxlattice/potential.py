"""Edge potential V on [0,l] and the magnetic-field cell average.

The potential lives on a single edge of length l and is shared by every edge
of the lattice.  It is stored one of two ways: piecewise constant
(breakpoints 0 = t_0 < ... < t_n = l and one value per segment,
right-continuous at interior breakpoints), or sampled with linear
interpolation.  The zero and constant kinds are the one-segment piecewise
potentials breakpoints (0, l), values (c,); `kind` only records how the
config spelled the potential.  The magnetic field enters the rest of the
pipeline only through the flux per plaquette theta = (1/2pi) * integral of b
over the fundamental cell F = [0,l]x[0,l].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

KINDS = ("zero", "constant", "piecewise_constant", "sampled")


@dataclass(frozen=True)
class Potential:
    """Immutable edge potential. Data is stored in tuples so instances hash."""

    l: float
    kind: str
    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    grid: tuple[float, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.l) or self.l <= 0:
            raise ConfigError(f"l must be a positive real, got {self.l!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"potential.kind must be one of {KINDS}, got {self.kind!r}")
        if self.is_piecewise:
            bp, vals = self.breakpoints, self.values
            if len(bp) < 2 or len(vals) != len(bp) - 1:
                raise ConfigError(
                    "potential.breakpoints needs >= 2 entries and "
                    "len(values) == len(breakpoints) - 1")
            if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
                raise ConfigError("potential.breakpoints must be strictly increasing")
            if abs(bp[0]) > 1e-12 * self.l or abs(bp[-1] - self.l) > 1e-12 * self.l:
                raise ConfigError("potential.breakpoints must start at 0 and end at l")
            if not all(np.isfinite(v) for v in vals):
                raise ConfigError("potential.values must be finite")
        else:
            g, vals = self.grid, self.values
            if len(g) < 2 or len(vals) != len(g):
                raise ConfigError(
                    "potential.grid needs >= 2 nodes and len(values) == len(grid)")
            if any(g2 <= g1 for g1, g2 in zip(g, g[1:])):
                raise ConfigError("potential.grid must be strictly increasing")
            if abs(g[0]) > 1e-12 * self.l or abs(g[-1] - self.l) > 1e-12 * self.l:
                raise ConfigError("potential.grid must span [0, l]")
            if not all(np.isfinite(v) for v in vals):
                raise ConfigError("potential.values must be finite")

    @cached_property
    def _grid_arr(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=float)

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _breakpoints_arr(self) -> np.ndarray:
        return np.asarray(self.breakpoints, dtype=float)

    def segments(self) -> list[tuple[float, float]]:
        """(value, length) pieces for exact transfer-matrix propagation."""
        if not self.is_piecewise:
            raise ValueError("sampled potentials have no exact segment decomposition")
        bp = self._breakpoints_arr
        return [(v, bp[i + 1] - bp[i]) for i, v in enumerate(self.values)]

    @property
    def is_piecewise(self) -> bool:
        return self.kind != "sampled"

    def values_on(self, t: np.ndarray) -> np.ndarray:
        """V(t) on an array of points in [0,l], right-continuous at interior
        breakpoints; t is not checked against [0,l]."""
        if not self.is_piecewise:
            return np.interp(t, self._grid_arr, self._values_arr)
        bp = self._breakpoints_arr
        idx = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, len(self.values) - 1)
        return self._values_arr[idx]

    def infimum(self) -> float:
        """inf V over [0,l] (exact for both representations)."""
        return float(self._values_arr.min())

    def supremum(self) -> float:
        """sup V over [0,l] (exact for both representations)."""
        return float(self._values_arr.max())


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Magnetic field b(x) sampled on a uniform tensor grid over the cell F."""

    grid_x: np.ndarray
    grid_y: np.ndarray
    values: np.ndarray  # shape (len(grid_x), len(grid_y)), row-major over x

    def __post_init__(self):
        gx = np.asarray(self.grid_x, dtype=float)
        gy = np.asarray(self.grid_y, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if gx.ndim != 1 or gy.ndim != 1 or len(gx) < 2 or len(gy) < 2:
            raise ConfigError("field grid must be 1-d with >= 2 nodes per axis")
        for name, g in (("grid_x", gx), ("grid_y", gy)):
            if np.any(np.diff(g) <= 0):
                raise ConfigError(f"field.{name} must be strictly increasing")
            dg = np.diff(g)
            if np.max(np.abs(dg - dg[0])) > 1e-9 * max(abs(g[-1]), 1.0):
                raise ConfigError(f"field.{name} must be uniformly spaced")
        if vals.shape != (len(gx), len(gy)):
            raise ConfigError(
                f"field.values must have shape ({len(gx)}, {len(gy)}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("field.values must be finite")
        for arr in (gx, gy, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "grid_x", gx)
        object.__setattr__(self, "grid_y", gy)
        object.__setattr__(self, "values", vals)


def make_potential(spec: dict) -> Potential:
    """Build a Potential from a structured description.

    Expected keys: l (positive number) and potential {kind, ...} with
    kind-specific fields: constant -> c; piecewise_constant -> breakpoints,
    values; sampled -> grid, values.  Zero and constant build the one
    segment breakpoints (0, l), values (c,).
    """
    if not isinstance(spec, dict):
        raise ConfigError("potential spec must be a mapping")
    if "l" not in spec:
        raise ConfigError("missing field: l")
    l = as_float(spec["l"], "l")
    pot = spec.get("potential", {"kind": "zero"})
    if not isinstance(pot, dict) or "kind" not in pot:
        raise ConfigError("field potential must be an object with a 'kind'")
    kind = pot["kind"]
    if kind == "zero":
        return Potential(l=l, kind="zero", breakpoints=(0.0, l), values=(0.0,))
    if kind == "constant":
        if "c" not in pot:
            raise ConfigError("missing field: potential.c")
        c = as_float(pot["c"], "potential.c")
        if not np.isfinite(c):
            raise ConfigError("potential.c must be finite")
        return Potential(l=l, kind="constant", breakpoints=(0.0, l), values=(c,))
    if kind == "piecewise_constant":
        bp = _as_float_tuple(pot.get("breakpoints"), "potential.breakpoints")
        vals = _as_float_tuple(pot.get("values"), "potential.values")
        return Potential(l=l, kind="piecewise_constant", breakpoints=bp, values=vals)
    if kind == "sampled":
        grid = _as_float_tuple(pot.get("grid"), "potential.grid")
        vals = _as_float_tuple(pot.get("values"), "potential.values")
        return Potential(l=l, kind="sampled", grid=grid, values=vals)
    raise ConfigError(f"potential.kind must be one of {KINDS}, got {kind!r}")


def convert_field(convert, x, message: str):
    """convert(x) for a config value x, or ConfigError(message) when x holds
    a JSON true/false or string (which float() reads as 1.0/0.0 or parses),
    is no number, or is an integer beyond the double range (OverflowError)."""
    def has_non_number(v):
        return isinstance(v, (bool, str)) or (
            isinstance(v, list) and any(map(has_non_number, v)))
    try:
        if not has_non_number(x):
            return convert(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(message)


def as_float(x, name: str) -> float:
    """A JSON number as a float, or a ConfigError naming the field."""
    return convert_field(float, x, f"field {name} must be a finite number, got {x!r}")


def _as_float_tuple(x, name: str) -> tuple[float, ...]:
    if x is None:
        raise ConfigError(f"missing field: {name}")
    return convert_field(lambda v: tuple(float(u) for u in v), x,
                         f"field {name} must be a list of numbers")


def flux_from_field(f: FieldSample, l: float) -> float:
    """Flux quanta per plaquette: theta = (1/2pi) * trapezoid(b over F).

    Equals xi * l^2 with xi the paper-normalized field average; the composite
    trapezoid rule is second-order, enough for continuous b.
    """
    if not np.isfinite(l) or l <= 0:
        raise ConfigError(f"l must be a positive real, got {l!r}")
    for name, g in (("grid_x", f.grid_x), ("grid_y", f.grid_y)):
        if abs(g[0]) > 1e-9 * l or abs(g[-1] - l) > 1e-9 * l:
            raise ConfigError(f"field.{name} must span [0, l] = [0, {l}]")
    with np.errstate(over="ignore", invalid="ignore"):
        integral = np.trapezoid(np.trapezoid(f.values, f.grid_y, axis=1), f.grid_x)
    if not np.isfinite(integral):
        raise ConfigError("field.values integrate to a flux beyond the double range")
    return float(integral / (2.0 * np.pi))
