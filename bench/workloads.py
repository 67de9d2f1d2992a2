"""The benchmark's workloads: inputs from a seed, one timed pass, and the gate.

Each workload turns a seed into physical inputs (seed 0 gives the inputs the
reference answers were recorded from; any other seed perturbs them by up to
2 %), runs one pass through the program, and splits the pass into operations:
a flux for the sweeps, a property for `validate`, the whole run for
`spectrum`.  `evaluate` gives each operation a status:

    ok      the answer passed the workload's oracle
    raised  the program raised (or exited with an error) for it
    wrong   an answer came back but failed the check

Reference answers (bench/reference/<workload>.json.gz), where a workload has
them, are compared afterwards by the runner, for operations whose inputs match
the recorded ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from tracer import VALIDATION_PROPERTIES as PROPERTIES

L = math.pi


@dataclass
class Op:
    name: str
    status: str            # ok | raised | wrong
    detail: str = ""
    answer: object = None  # JSON-able answer compared with the reference


def jitter(seed: int, salt: int) -> float:
    """0 at seed 0, otherwise a deterministic value in [-1, 1)."""
    if seed == 0:
        return 0.0
    return float(np.random.default_rng([seed % 2**63, salt]).uniform(-1.0, 1.0))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation with stdout and stderr captured."""
    from fluxlattice import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def clear_caches() -> None:
    """Empty every functools cache in the package, so each pass starts cold
    like a fresh process (the CLI pays these costs on every invocation)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fluxlattice" or name.startswith("fluxlattice.")):
            continue
        for obj in list(vars(mod).values()):
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and callable(obj.cache_clear):
                obj.cache_clear()


def farey(q_max: int) -> list[tuple[int, int]]:
    """Reduced p/q in [0, 1], q <= q_max; the package's own list is not used,
    so a flux the program drops shows up as missing."""
    out = [(0, 1), (1, 1)]
    for q in range(2, q_max + 1):
        out += [(p, q) for p in range(1, q) if math.gcd(p, q) == 1]
    return out


def step_doc(height: float) -> dict:
    return {"l": L, "potential": {"kind": "piecewise_constant",
                                  "breakpoints": [0.0, L / 2, L],
                                  "values": [0.0, height]}}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name = ""
    known_failures: tuple[str, ...] = ()
    # True: op names carry every input an answer depends on, so reference
    # answers apply by name; False: only when all inputs equal the recorded ones
    ref_by_name = False

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, inputs: dict, workdir: Path) -> dict:
        """Write config files; returns what `run_pass` needs."""
        raise NotImplementedError

    def setup_code(self, ctx: dict) -> str:
        """Python run by a fresh interpreter to time import + config load."""
        raise NotImplementedError

    def run_pass(self, ctx: dict):
        raise NotImplementedError

    def evaluate(self, inputs: dict, raw) -> list[Op]:
        raise NotImplementedError

    # compare(ref, answer) gives None when `answer` agrees with the recorded
    # reference answer, else why not; a workload without one records no
    # reference and its oracle alone judges each answer
    compare = None


def _write_config(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- butterfly

class ButterflyStep(Workload):
    name = "butterfly-step"
    ETA_TOL = 1e-7   # |eta(endpoint) - nearest Harper edge|
    REF_TOL = 1e-7   # relative, endpoints against the reference

    def inputs(self, seed):
        return {"height": 10.0 * (1.0 + 0.02 * jitter(seed, 1)), "alpha": 1.0,
                "beta": 1.0, "q_max": 12, "z_max": 40.0}

    def prepare(self, inputs, workdir):
        doc = {**step_doc(inputs["height"]), "alpha": inputs["alpha"],
               "beta": inputs["beta"], "theta": "0/1", "q_max": inputs["q_max"],
               "z_max": inputs["z_max"]}
        return {"config": _write_config(workdir, self.name, doc)}

    def setup_code(self, ctx):
        return f"import fluxlattice.cli as c; c.load_config({ctx['config']!r})"

    def run_pass(self, ctx):
        return run_cli(["butterfly", "--config", ctx["config"]])

    def evaluate(self, inputs, raw):
        rc, out, err = raw
        fluxes = farey(inputs["q_max"])
        if rc != 0:
            return [Op(f"{p}/{q}", "raised", f"exit {rc}: {err.strip()}") for p, q in fluxes]
        raised = {}
        for line in err.splitlines():
            m = re.match(r"butterfly diagnostic: theta=(\d+/\d+): (.*)", line)
            if m:
                raised[m.group(1)] = m.group(2)
        rows: dict[str, list] = {}
        reader = csv.reader(io.StringIO(out))
        next(reader)
        for num, den, _, lo, hi, trunc in reader:
            rows.setdefault(f"{num}/{den}", []).append(
                [float(lo), float(hi), trunc == "true"])
        z_min = -abs(inputs["alpha"]) / L - 1.0   # the CLI's default scan floor
        z_max = inputs["z_max"]
        ops = []
        for p, q in fluxes:
            name = f"{p}/{q}"
            if name in raised:
                ops.append(Op(name, "raised", raised[name]))
                continue
            got = rows.get(name, [])
            ops.append(Op(name, *self._check(p, q, got, inputs, z_min, z_max), answer=got))
        return ops

    def _check(self, p, q, got, inputs, z_min, z_max):
        if not got:
            return "wrong", "no rows"
        edges = oracles.harper_edges(p, q, inputs["beta"])
        free = []
        for lo, hi, trunc in got:
            if not z_min <= lo <= hi <= z_max:
                return "wrong", f"row [{lo}, {hi}] out of order or range"
            for z in (lo, hi):
                if not (trunc and (z == z_min or z == z_max)):
                    free.append(z)
        eta = oracles.step_eta(np.asarray(free), inputs["height"], inputs["alpha"],
                               inputs["beta"])
        err = np.min(np.abs(eta[:, None] - edges[None, :]), axis=1)
        worst = float(np.max(err)) if err.size else 0.0
        if worst > self.ETA_TOL:
            return "wrong", f"eta at an endpoint misses every Harper edge by {worst:.3e}"
        return "ok", f"max eta residual {worst:.1e}"

    def compare(self, ref, answer):
        if len(ref) != len(answer):
            return f"{len(answer)} rows, reference has {len(ref)}"
        for (rlo, rhi, rt), (lo, hi, t) in zip(ref, answer):
            if rt != t or not (_close(rlo, lo, self.REF_TOL) and _close(rhi, hi, self.REF_TOL)):
                return f"row [{lo}, {hi}, {t}] differs from reference [{rlo}, {rhi}, {rt}]"
        return None


# ----------------------------------------------------------------- spectrum

class SpectrumMathieu(Workload):
    name = "spectrum-mathieu"
    MU_TOL = 1e-7    # relative, mu_k against finite differences
    REF_TOL = 1e-7
    NODES = 4097

    def inputs(self, seed):
        return {"amplitude": 10.0 * (1.0 + 0.02 * jitter(seed, 2)), "alpha": 1.0,
                "beta": 1.0, "theta": "1/3", "z_max": 6.0}

    def _grid(self, inputs):
        grid = np.linspace(0.0, L, self.NODES)
        return grid, inputs["amplitude"] * np.cos(2.0 * grid)

    def prepare(self, inputs, workdir):
        grid, values = self._grid(inputs)
        doc = {"l": L, "potential": {"kind": "sampled", "grid": grid.tolist(),
                                     "values": values.tolist()},
               "alpha": inputs["alpha"], "beta": inputs["beta"],
               "theta": inputs["theta"], "z_max": inputs["z_max"]}
        return {"config": _write_config(workdir, self.name, doc)}

    def setup_code(self, ctx):
        return f"import fluxlattice.cli as c; c.load_config({ctx['config']!r})"

    def run_pass(self, ctx):
        return run_cli(["spectrum", "--config", ctx["config"]])

    def evaluate(self, inputs, raw):
        rc, out, err = raw
        if rc != 0:
            return [Op("spectrum", "raised", f"exit {rc}: {err.strip()}")]
        doc = json.loads(out)
        answer = {
            "mu": [pt["mu"] for pt in doc["point_spectrum"]],
            "classification": [pt["classification"] for pt in doc["point_spectrum"]],
            "continuous": [[iv["z_lo"], iv["z_hi"], iv["window"], iv["band"], iv["truncated"]]
                           for iv in doc["continuous"]],
            "gaps": [[g["lo"], g["hi"]] for g in doc["gaps"]],
        }
        z_min, z_max = doc["parameters"]["z_min"], doc["parameters"]["z_max"]
        grid, values = self._grid(inputs)
        fd = oracles.fd_dirichlet(grid, values, len(answer["mu"]) + 3)
        expect = [float(m) for m in fd if z_min <= m <= z_max]
        if len(expect) != len(answer["mu"]):
            return [Op("spectrum", "wrong",
                       f"{len(answer['mu'])} mu_k in range, finite differences give "
                       f"{len(expect)}", answer)]
        worst = max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(answer["mu"], expect)),
                    default=0.0)
        if worst > self.MU_TOL:
            return [Op("spectrum", "wrong", f"mu_k off finite differences by {worst:.3e}",
                       answer)]
        ivs = answer["continuous"]
        if any(not z_min <= lo <= hi <= z_max for lo, hi, *_ in ivs) or not ivs:
            return [Op("spectrum", "wrong", "continuous part empty or out of range", answer)]
        return [Op("spectrum", "ok", f"mu_k within {worst:.1e} of finite differences",
                   answer)]

    def compare(self, ref, answer):
        if ref["classification"] != answer["classification"]:
            return "classifications differ from reference"
        for key in ("mu", "continuous", "gaps"):
            a, r = answer[key], ref[key]
            if len(a) != len(r):
                return f"{key}: {len(a)} entries, reference has {len(r)}"
            for x, y in zip(a, r):
                xs, ys = (x, y) if isinstance(x, list) else ([x], [y])
                for u, v in zip(xs, ys):
                    ok = (u == v) if isinstance(u, (bool, int)) else _close(u, v, self.REF_TOL)
                    if not ok:
                        return f"{key}: {x} differs from reference {y}"
        return None


# ------------------------------------------------------------------- harper

class HarperWeak(Workload):
    """theta = 1/q and 1 - 1/q: the weak-flux fluxes of every Farey order,
    whose narrowest bands are the hardest for the Harper layer."""

    name = "harper-weak"
    # ConsistencyError "band pairing failed": the lowest bands are narrower
    # than float64 resolves, and the pairing and polish misorder their edges
    known_failures = tuple(f"beta=1.0:{f}" for f in (
        "1/31", "30/31", "31/32", "1/33", "33/34", "1/35", "34/35", "1/36",
        "35/36", "1/37", "36/37", "1/38", "37/38", "1/39", "1/40", "39/40"))
    ref_by_name = True
    KGRID_Q = 8

    def inputs(self, seed):
        # beta = 1 stays fixed: its failing fluxes are the point of the workload
        return {"betas": [1.0, 2.0 * (1.0 + 0.02 * jitter(seed, 3))], "q_max": 40}

    def prepare(self, inputs, workdir):
        from fluxlattice.harper import make_rational
        fluxes = [make_rational(p, q) for p, q in farey(inputs["q_max"])
                  if p in (0, 1, q - 1)]
        return {"calls": [(f"beta={b!r}:{f.p}/{f.q}", f, b)
                          for b in inputs["betas"] for f in fluxes]}

    def setup_code(self, ctx):
        return "import fluxlattice.harper as h; [h.make_rational(1, q) for q in range(1, 41)]"

    def run_pass(self, ctx):
        from fluxlattice import NumericalError, harper
        out = []
        for name, f, beta in ctx["calls"]:
            try:
                out.append((name, harper.harper_spectrum(f, beta).bands))
            except NumericalError as exc:
                out.append((name, f"{type(exc).__name__}: {exc}"))
        return out

    def evaluate(self, inputs, raw):
        ops = []
        for name, got in raw:
            if isinstance(got, str):
                ops.append(Op(name, "raised", got))
                continue
            beta_s, flux = name.split(":")
            p, q = (int(x) for x in flux.split("/"))
            beta = float(beta_s.split("=")[1])
            bands = [list(b) for b in got]
            ops.append(Op(name, *self._check(p, q, beta, bands), answer=bands))
        return ops

    def _check(self, p, q, beta, bands):
        bound = 2.0 * (1.0 + beta**2)
        if len(bands) != q:
            return "wrong", f"{len(bands)} bands for q = {q}"
        flat = np.asarray(bands).ravel()
        edges = oracles.harper_edges(p, q, beta)
        tol = self.edge_tol(edges)
        # edges are only as accurate as tol, so an overlap below it is no error
        if np.any(np.diff(flat) < -tol[1:]) or np.max(np.abs(flat)) > bound * (1 + 1e-12):
            return "wrong", "band edges out of order (bands overlap) or outside the norm bound"
        off = np.abs(flat - edges)
        if q <= self.KGRID_Q:
            off = np.maximum(off, np.abs(flat - oracles.kgrid_bands(p, q, beta).ravel()))
        if np.any(off > tol):
            return "wrong", f"band edges off the Bloch-fiber oracle by {np.max(off):.3e}"
        return "ok", ""

    @staticmethod
    def edge_tol(edges):
        """Twice the program's polish bracket, 1e-10 max(1, |e|), per edge."""
        return 2e-10 * np.maximum(1.0, np.abs(np.asarray(edges)))

    def compare(self, ref, answer):
        if len(ref) != len(answer):
            return "band count differs from reference"
        ref, answer = np.asarray(ref).ravel(), np.asarray(answer).ravel()
        off = np.abs(ref - answer)
        if np.any(off > self.edge_tol(ref)):
            return f"bands off reference by {np.max(off):.3e}"
        return None


# ----------------------------------------------------------------- validate

class ValidateFib(Workload):
    name = "validate-fib"
    FLUXES = ("1/3", "2/5", "3/8", "5/13", "8/21", "13/34")
    known_failures = ("8/21:chambers_independence", "13/34:chambers_independence")
    LINE = re.compile(r"^(PASS|FAIL) (\w+): defect=(\S+) tol=(\S+)$")

    def inputs(self, seed):
        return {"height": 10.0 * (1.0 + 0.02 * jitter(seed, 4)), "alpha": 1.0,
                "beta": 1.0, "z_max": 40.0, "fluxes": list(self.FLUXES)}

    def prepare(self, inputs, workdir):
        configs = []
        for theta in inputs["fluxes"]:
            doc = {**step_doc(inputs["height"]), "alpha": inputs["alpha"],
                   "beta": inputs["beta"], "theta": theta, "z_max": inputs["z_max"]}
            configs.append(_write_config(workdir, f"{self.name}-{theta.replace('/', '_')}", doc))
        return {"configs": configs}

    def setup_code(self, ctx):
        return f"import fluxlattice.cli as c; c.load_config({ctx['configs'][0]!r})"

    def run_pass(self, ctx):
        out = []
        for path in ctx["configs"]:
            clear_caches()   # each validate run is its own process for a user
            out.append(run_cli(["validate", "--config", path]))
        return out

    def evaluate(self, inputs, raw):
        ops = []
        for theta, (rc, out, err) in zip(inputs["fluxes"], raw):
            if rc not in (0, 1):
                ops += [Op(f"{theta}:{prop}", "raised", f"exit {rc}: {err.strip()}")
                        for prop in PROPERTIES]
                continue
            seen = {}
            for line in out.splitlines():
                m = self.LINE.match(line)
                if m:
                    seen[m.group(2)] = (m.group(1), float(m.group(3)), float(m.group(4)))
            for prop in PROPERTIES:
                name = f"{theta}:{prop}"
                if prop not in seen:
                    ops.append(Op(name, "wrong", "property missing from the report"))
                    continue
                status, defect, tol = seen[prop]
                if status == "FAIL" or not defect <= tol:
                    ops.append(Op(name, "wrong", f"defect {defect:.3e} > tol {tol:.1e}"))
                else:
                    ops.append(Op(name, "ok", f"defect {defect:.3e}"))
        return ops



WORKLOADS = {w.name: w for w in (ButterflyStep(), HarperWeak(), ValidateFib(),
                                 SpectrumMathieu())}
