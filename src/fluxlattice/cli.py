"""Command-line front end.

Subcommands: spectrum (JSON SpectralSet), butterfly (CSV sweep table),
dirichlet (mu_k list), harper (band intervals), validate (cross-check suite).
Only spectrum, harper and validate need theta (or a field sample).
Each setting has one place.  The JSON config holds what is computed: l and
the potential, alpha, beta, theta or field, q_max, z_min, z_max, and k_max,
which `dirichlet` alone reads; q_max defaults to 50.  `parse_config` resolves
theta once: 'p/q' stays exact, a number or a field's flux becomes its best
convergent with q <= q_max; the commands pass that flux on, and butterfly
builds its Farey list once.
The command line holds where and how it is written: --out, --format and
--stamp.  A config that sets out or format exits 2 and names the flag.
Exit codes: 0 success, 1 validation-property failure, 2 invalid config,
3 numerical failure.  Output is byte-identical for identical configs unless
--stamp is given.
spectrum JSON: parameters (with the scan range z_min..z_max; z_min defaults to
the lower edge of the lowest band window), point_spectrum, continuous, gaps,
metadata {convergent_used[, generated_at]}.  validate samples [z_min, z_max]
from the same lower window edge, taken by the same solve, and exits 2 when
z_max lies below it; it prints a text report and refuses --format.
butterfly exits 0 when some fluxes fail, since the other rows still hold;
stderr names each failure and ends with "butterfly: K of N fluxes failed".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import validation
from .assembler import butterfly_sweep, farey_fluxes, gap_report, graph_spectrum
from .discriminant import CouplingParams
from .edge_solver import dirichlet_eigenvalues
from .errors import ConfigError, NumericalError
from .harper import RationalFlux, harper_spectrum, make_rational, resolve_flux
from .potential import (FieldSample, Potential, as_float, convert_field, flux_from_field,
                        make_potential)

BUTTERFLY_HEADER = ["θ_num", "θ_den", "band_index", "z_lo", "z_hi", "truncated"]
THETA = "theta (or a field sample)"  # the flux field that spectrum, harper and validate need


@dataclass(frozen=True)
class RunConfig:
    coupling: CouplingParams  # alpha, beta and the edge potential
    flux: RationalFlux | None  # theta resolved to an exact flux; None without theta
    convergent_used: str | None  # "p/q" when a number was replaced by its convergent
    theta_repr: object       # value echoed into outputs, as given in the config
    q_max: int
    z_min: float | None
    z_max: float | None
    k_max: int               # read by dirichlet only


def parse_theta(raw) -> RationalFlux | float:
    """'p/q' as an exact flux; a number as a finite float, resolved later."""
    if isinstance(raw, str):
        parts = raw.split("/")
        if len(parts) != 2:
            raise ConfigError(f"theta string must look like 'p/q', got {raw!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"theta string must hold integers, got {raw!r}") from None
        if q == 0:
            raise ConfigError("theta denominator must be nonzero")
        return make_rational(p, q)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        message = f"theta must be finite, got {raw!r}"
        theta = convert_field(float, raw, message)
        if not np.isfinite(theta):
            raise ConfigError(message)
        return theta
    raise ConfigError(f"theta must be a number or 'p/q' string, got {raw!r}")


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key, flag in (("out", "--out"), ("format", "--format")):  # command line only
        if key in doc:
            raise ConfigError(f"{key} is set by the {flag} flag, not in the config")
    potential = make_potential(doc)
    for name in ("alpha", "beta"):
        if name not in doc:
            raise ConfigError(f"missing field: {name}")
    coupling = CouplingParams(alpha=as_float(doc["alpha"], "alpha"),
                              beta=as_float(doc["beta"], "beta"), potential=potential)
    has_theta = "theta" in doc
    has_field = "field" in doc
    if has_theta and has_field:
        raise ConfigError("give either theta or field, not both")
    if has_theta:
        theta = parse_theta(doc["theta"])
        theta_repr = doc["theta"]
    elif has_field:
        fld = doc["field"]
        if not isinstance(fld, dict):
            raise ConfigError("field must be an object with grid_x, grid_y, values")
        for key in ("grid_x", "grid_y", "values"):
            if key not in fld:
                raise ConfigError(f"missing field: field.{key}")
        gx, gy, vals = (convert_field(lambda v: np.asarray(v, dtype=float), fld[key],
                                      f"field.{key} must be an array of numbers")
                        for key in ("grid_x", "grid_y", "values"))
        if vals.ndim == 1 and vals.size == gx.size * gy.size:
            vals = vals.reshape(gx.size, gy.size)  # row-major over grid_x
        sample = FieldSample(grid_x=gx, grid_y=gy, values=vals)
        theta = theta_repr = parse_theta(flux_from_field(sample, potential.l))
    else:
        theta = theta_repr = None
    q_max = doc.get("q_max", 50)
    if not isinstance(q_max, int) or isinstance(q_max, bool) or q_max < 1:
        raise ConfigError(f"q_max must be an integer >= 1, got {q_max!r}")
    flux, convergent_used = (None, None) if theta is None else resolve_flux(theta, q_max)
    z_min, z_max = (None if doc.get(name) is None else as_float(doc[name], name)
                    for name in ("z_min", "z_max"))
    for name, val in (("z_min", z_min), ("z_max", z_max)):
        if val is not None and not np.isfinite(val):
            raise ConfigError(f"field {name} must be a finite number, got {val!r}")
    if z_min is not None and z_max is not None and z_min >= z_max:
        raise ConfigError(f"z_min must be below z_max, got [{z_min}, {z_max}]")
    k_max = doc.get("k_max", 10)
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise ConfigError(f"k_max must be an integer >= 0, got {k_max!r}")
    return RunConfig(coupling=coupling, flux=flux, convergent_used=convergent_used,
                     theta_repr=theta_repr, q_max=q_max, z_min=z_min, z_max=z_max,
                     k_max=k_max)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


def _require(value, field: str):
    """value, or a ConfigError naming the missing field."""
    if value is None:
        raise ConfigError(f"missing field: {field}")
    return value


def _potential_doc(p: Potential) -> dict:
    """The potential as its config spelled it (`kind` records the spelling)."""
    if p.kind == "zero":
        return {"kind": p.kind}
    if p.kind == "constant":
        return {"kind": p.kind, "c": p.values[0]}
    if p.is_piecewise:
        return {"kind": p.kind, "breakpoints": list(p.breakpoints), "values": list(p.values)}
    return {"kind": p.kind, "grid": list(p.grid), "values": list(p.values)}


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.fmt == "csv":
        raise ConfigError("spectrum output is JSON; use butterfly for CSV tables")
    flux, z_max = _require(cfg.flux, THETA), _require(cfg.z_max, "z_max")
    s = graph_spectrum(cfg.coupling, flux, cfg.z_min, z_max)
    gaps = gap_report(s)
    doc = {
        "parameters": {
            "l": cfg.coupling.potential.l,
            "potential": _potential_doc(cfg.coupling.potential),
            "alpha": cfg.coupling.alpha,
            "beta": cfg.coupling.beta,
            "theta": cfg.theta_repr,
            "theta_resolved": str(s.flux),
            "q_max": cfg.q_max,
            "z_min": s.z_min,
            "z_max": s.z_max,
        },
        "point_spectrum": [
            {"k": pt.k, "mu": pt.mu, "classification": pt.classification.value}
            for pt in s.point_spectrum],
        "continuous": [
            {"z_lo": iv.z_lo, "z_hi": iv.z_hi, "window": iv.window,
             "band": iv.band, "truncated": iv.truncated}
            for iv in s.continuous],
        "gaps": [
            {"lo": g.lo, "hi": g.hi, "contains_mu": list(g.contains_mu)}
            for g in gaps.gaps],
        "metadata": {
            "convergent_used": cfg.convergent_used,
        },
    }
    if args.stamp:
        doc["metadata"]["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_butterfly(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.fmt == "json":
        raise ConfigError("butterfly output is CSV")
    z_max = _require(cfg.z_max, "z_max")
    fluxes = farey_fluxes(cfg.q_max)
    rows, diagnostics = butterfly_sweep(cfg.coupling, fluxes, cfg.z_min, z_max)
    _emit(_csv(BUTTERFLY_HEADER, ([r.flux.p, r.flux.q, r.band_index, repr(r.z_lo),
                                   repr(r.z_hi), "true" if r.truncated else "false"]
                                  for r in rows)), args.out)
    for msg in diagnostics:
        print(f"butterfly diagnostic: {msg}", file=sys.stderr)
    print(f"butterfly: {len(diagnostics)} of {len(fluxes)} fluxes failed", file=sys.stderr)
    return 0


def cmd_dirichlet(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = dirichlet_eigenvalues(cfg.coupling.potential, cfg.k_max)
    if args.fmt == "csv":
        _emit(_csv(["k", "mu", "tolerance"],
                   ([k, repr(mu), repr(tol)] for k, (mu, tol)
                    in enumerate(zip(spec.eigenvalues, spec.tolerances)))), args.out)
    else:
        doc = {"eigenvalues": list(spec.eigenvalues),
               "tolerances": list(spec.tolerances)}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_harper(cfg: RunConfig, args: argparse.Namespace) -> int:
    flux = _require(cfg.flux, THETA)
    bands = harper_spectrum(flux, cfg.coupling.beta)
    if args.fmt == "csv":
        _emit(_csv(["band_index", "e_lo", "e_hi"],
                   ([j, repr(lo), repr(hi)] for j, (lo, hi) in enumerate(bands.bands))),
              args.out)
    else:
        doc = {"theta": str(flux), "beta": cfg.coupling.beta,
               "convergent_used": cfg.convergent_used,
               "bands": [[lo, hi] for lo, hi in bands.bands]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.fmt is not None:
        raise ConfigError("validate output is a text report; it takes no --format")
    flux, z_max = _require(cfg.flux, THETA), _require(cfg.z_max, "z_max")
    results = validation.run_all(cfg.coupling, flux, cfg.z_min, z_max)
    _emit("".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
                  f"defect={r.defect:.3e} tol={r.tolerance:.1e}\n" for r in results), args.out)
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {"spectrum": cmd_spectrum, "butterfly": cmd_butterfly,
            "dirichlet": cmd_dirichlet, "harper": cmd_harper, "validate": cmd_validate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxlattice",
        description="Spectra of the periodic square quantum-graph lattice "
                    "with magnetic flux")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default=None, choices=("json", "csv"),
                        dest="fmt", help="output format where applicable")
    parser.add_argument("--stamp", action="store_true",
                        help="include a timestamp in metadata (spectrum only)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.stamp and args.command != "spectrum":
        parser.error(f"--stamp applies to spectrum only, not {args.command}")
    try:
        return COMMANDS[args.command](load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
