"""Command-line front end.

Subcommands: spectrum (JSON SpectralSet), butterfly (CSV sweep table),
dirichlet (mu_k list), harper (band intervals), validate (cross-check suite).
Exit codes: 0 success, 1 validation-property failure, 2 invalid config,
3 numerical failure.  Output is byte-identical for identical configs unless
--stamp is given.
spectrum JSON: parameters (with the scan range z_min..z_max; z_min defaults to
the lower edge of the lowest band window), point_spectrum, continuous, gaps,
metadata {convergent_used[, generated_at]}.  butterfly exits 0 when some
fluxes fail, since the other rows still hold; stderr names each failure and
ends with "butterfly: K of N fluxes failed".
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
from .harper import RationalFlux, harper_spectrum, make_rational
from .potential import FieldSample, Potential, flux_from_field, make_potential

BUTTERFLY_HEADER = ["θ_num", "θ_den", "band_index", "z_lo", "z_hi", "truncated"]


@dataclass(frozen=True)
class RunConfig:
    potential: Potential
    alpha: float
    beta: float
    theta: object            # RationalFlux (exact "p/q") or float (resolved later)
    theta_repr: object       # value echoed into outputs, as given in the config
    q_max: int
    z_min: float | None
    z_max: float | None
    k_max: int
    fmt: str | None
    out: str | None


def parse_theta(raw) -> RationalFlux | float:
    """Numbers resolve through continued fractions later; 'p/q' stays exact."""
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
        if not np.isfinite(raw):
            raise ConfigError(f"theta must be finite, got {raw!r}")
        return float(raw)
    raise ConfigError(f"theta must be a number or 'p/q' string, got {raw!r}")


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    potential = make_potential(doc)
    for name in ("alpha", "beta"):
        if name not in doc:
            raise ConfigError(f"missing field: {name}")
        if not isinstance(doc[name], (int, float)) or isinstance(doc[name], bool):
            raise ConfigError(f"field {name} must be a number, got {doc[name]!r}")
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
        gx = np.asarray(fld["grid_x"], dtype=float)
        gy = np.asarray(fld["grid_y"], dtype=float)
        vals = np.asarray(fld["values"], dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(len(gx), len(gy))  # row-major over grid_x
        sample = FieldSample(grid_x=gx, grid_y=gy, values=vals)
        theta = flux_from_field(sample, potential.l)
        theta_repr = theta
    else:
        raise ConfigError("missing field: theta (or a field sample)")
    q_max = doc.get("q_max", 50)
    if not isinstance(q_max, int) or q_max < 1:
        raise ConfigError(f"q_max must be an integer >= 1, got {q_max!r}")
    z_min = doc.get("z_min")
    z_max = doc.get("z_max")
    for name, val in (("z_min", z_min), ("z_max", z_max)):
        if val is not None and (not isinstance(val, (int, float)) or isinstance(val, bool)
                                or not np.isfinite(val)):
            raise ConfigError(f"field {name} must be a finite number, got {val!r}")
    if z_min is not None and z_max is not None and z_min >= z_max:
        raise ConfigError(f"z_min must be below z_max, got [{z_min}, {z_max}]")
    k_max = doc.get("k_max", 10)
    if not isinstance(k_max, int) or k_max < 0:
        raise ConfigError(f"k_max must be an integer >= 0, got {k_max!r}")
    fmt = doc.get("format")
    if fmt is not None and fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    return RunConfig(potential=potential, alpha=float(doc["alpha"]),
                     beta=float(doc["beta"]), theta=theta, theta_repr=theta_repr,
                     q_max=q_max,
                     z_min=None if z_min is None else float(z_min),
                     z_max=None if z_max is None else float(z_max),
                     k_max=k_max, fmt=fmt, out=doc.get("out"))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


def _coupling(cfg: RunConfig) -> CouplingParams:
    return CouplingParams(alpha=cfg.alpha, beta=cfg.beta, potential=cfg.potential)


def _require_z_max(cfg: RunConfig) -> float:
    if cfg.z_max is None:
        raise ConfigError("missing field: z_max")
    return cfg.z_max


def _potential_doc(p: Potential) -> dict:
    doc = {"kind": p.kind}
    if p.kind == "constant":
        doc["c"] = p.c
    elif p.kind == "piecewise_constant":
        doc["breakpoints"] = list(p.breakpoints)
        doc["values"] = list(p.values)
    elif p.kind == "sampled":
        doc["grid"] = list(p.grid)
        doc["values"] = list(p.values)
    return doc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(cfg: RunConfig, out: str | None, stamp: bool) -> int:
    if cfg.fmt == "csv":
        raise ConfigError("spectrum output is JSON; use butterfly for CSV tables")
    z_max = _require_z_max(cfg)
    s = graph_spectrum(cfg.potential, _coupling(cfg), cfg.theta,
                       z_min=cfg.z_min, z_max=z_max, q_max=cfg.q_max)
    gaps = gap_report(s)
    doc = {
        "parameters": {
            "l": cfg.potential.l,
            "potential": _potential_doc(cfg.potential),
            "alpha": cfg.alpha,
            "beta": cfg.beta,
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
            "convergent_used": s.convergent_used,
        },
    }
    if stamp:
        doc["metadata"]["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(json.dumps(doc, indent=2) + "\n", out)
    return 0


def cmd_butterfly(cfg: RunConfig, out: str | None) -> int:
    if cfg.fmt == "json":
        raise ConfigError("butterfly output is CSV")
    z_max = _require_z_max(cfg)
    rows, diagnostics = butterfly_sweep(
        cfg.potential, _coupling(cfg), cfg.q_max, z_min=cfg.z_min, z_max=z_max)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BUTTERFLY_HEADER)
    for r in rows:
        writer.writerow([r.flux.p, r.flux.q, r.band_index, repr(r.z_lo),
                         repr(r.z_hi), "true" if r.truncated else "false"])
    _emit(buf.getvalue(), out)
    for msg in diagnostics:
        print(f"butterfly diagnostic: {msg}", file=sys.stderr)
    print(f"butterfly: {len(diagnostics)} of {len(farey_fluxes(cfg.q_max))} "
          "fluxes failed", file=sys.stderr)
    return 0


def cmd_dirichlet(cfg: RunConfig, out: str | None) -> int:
    spec = dirichlet_eigenvalues(cfg.potential, cfg.k_max)
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "mu", "tolerance"])
        for k, (mu, tol) in enumerate(zip(spec.eigenvalues, spec.tolerances)):
            writer.writerow([k, repr(mu), repr(tol)])
        _emit(buf.getvalue(), out)
    else:
        doc = {"eigenvalues": list(spec.eigenvalues),
               "tolerances": list(spec.tolerances)}
        _emit(json.dumps(doc, indent=2) + "\n", out)
    return 0


def cmd_harper(cfg: RunConfig, out: str | None) -> int:
    from .assembler import resolve_flux
    flux, convergent = resolve_flux(cfg.theta, cfg.q_max)
    bands = harper_spectrum(flux, cfg.beta)
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["band_index", "e_lo", "e_hi"])
        for j, (lo, hi) in enumerate(bands.bands):
            writer.writerow([j, repr(lo), repr(hi)])
        _emit(buf.getvalue(), out)
    else:
        doc = {"theta": str(flux), "beta": cfg.beta,
               "convergent_used": convergent,
               "bands": [[lo, hi] for lo, hi in bands.bands]}
        _emit(json.dumps(doc, indent=2) + "\n", out)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    z_max = _require_z_max(cfg)
    results = validation.run_all(_coupling(cfg), cfg.theta, cfg.z_min, z_max,
                                 q_max=cfg.q_max, k_max=cfg.k_max)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{status} {r.name}: defect={r.defect:.3e} tol={r.tolerance:.1e}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxlattice",
        description="Spectra of the periodic square quantum-graph lattice "
                    "with magnetic flux")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "butterfly", "dirichlet", "harper", "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default=None, choices=("json", "csv"),
                        dest="fmt", help="output format where applicable")
        sp.add_argument("--q-max", type=int, default=None, dest="q_max",
                        help="override config q_max")
        if name == "spectrum":
            sp.add_argument("--stamp", action="store_true",
                            help="include a timestamp in metadata")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.fmt is not None:
            cfg = RunConfig(**{**cfg.__dict__, "fmt": args.fmt})
        if args.q_max is not None:
            if args.q_max < 1:
                raise ConfigError(f"q_max must be >= 1, got {args.q_max}")
            cfg = RunConfig(**{**cfg.__dict__, "q_max": args.q_max})
        out = args.out if args.out is not None else cfg.out
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, args.stamp)
        if args.command == "butterfly":
            return cmd_butterfly(cfg, out)
        if args.command == "dirichlet":
            return cmd_dirichlet(cfg, out)
        if args.command == "harper":
            return cmd_harper(cfg, out)
        return cmd_validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
