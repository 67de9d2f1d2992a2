"""Span tracer that wraps fluxlattice layer functions from outside the package.

A wrapped call records one span: its name, start, end, parent span, the time
its children's wrappers took, and a few counters taken from its arguments or
result (points evaluated, integration steps, ...).  Spans stay in memory;
`layer_metrics` folds one pass worth of spans into the per-layer metrics of
the benchmark.

The wrapper replaces the original function object in every loaded
`fluxlattice` module namespace that holds it (e.g. `_basis_many` lives in
`edge_solver`, `discriminant`, `kp_oracle` and `validation`), so calls are
caught whichever module makes them.  `restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

PACKAGE = "fluxlattice"

# span slots
NAME, START, END, PARENT, CHILD_S, POINTS, EXTRA, RAISED = range(8)

VALIDATION_PROPERTIES = ("wronskian", "sign_alternation", "chambers_independence",
                         "kp_trace_identity", "torus_containment", "flux_periodicity")
HARPER_Q_BINS = ((1, 10, "q01_10"), (11, 30, "q11_30"), (31, 50, "q31_50"))


def _size(x) -> int:
    return int(np.size(x))


def _basis_counts(mod):
    """points and steps of one `_basis_many(p, z, n_steps=None)` call.

    Steps are segments x points for piecewise-constant edges and RK4 steps x
    points for sampled edges, the step count read from the solver's own rule.
    """
    def count(args, kwargs, result):
        p, z = args[0], args[1]
        n = _size(z)
        if p.is_piecewise:
            return n, len(p.segments()) * n
        n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps")
        if not n_steps:
            rk4 = getattr(mod, "_rk4_steps", None)
            if rk4 is None or n == 0:
                return n, 0
            n_steps = rk4(p, float(np.max(np.abs(np.asarray(z, dtype=float)))))
        return n, int(n_steps) * n
    return count


def _arg_points(index):
    def count(args, kwargs, result):
        return _size(args[index]) if len(args) > index else 0, 0
    return count


def _result_len(args, kwargs, result):
    return 0, len(result) if result is not None else 0


def _harper_q_beta(args, kwargs, result):
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    return 0, (int(args[0].q), float(beta))


def _property_name(args, kwargs, result):
    return 0, getattr(result, "name", None)


def _no_counts(args, kwargs, result):
    return 0, 0


def layer_targets():
    """(module, function, counter) for every layer boundary the benchmark traces.

    `potential` is left out (negligible share everywhere); so is the CLI's
    process pool, since every run stays in one process.
    """
    from fluxlattice import edge_solver, validation
    targets = [
        ("edge_solver", "_basis_many", _basis_counts(edge_solver)),
        ("edge_solver", "_count_below_many", _arg_points(1)),
        ("edge_solver", "dirichlet_eigenvalues", _no_counts),
        ("discriminant", "eta_many", _arg_points(1)),
        ("discriminant", "eta_on_pole", _no_counts),
        ("discriminant", "band_windows", _result_len),
        ("discriminant", "invert_eta_many", _arg_points(1)),
        ("harper", "harper_spectrum", _harper_q_beta),
        ("harper", "chambers_defect", _no_counts),
        ("harper", "torus_oracle", _no_counts),
        ("kp_oracle", "kp_trace_many", _arg_points(2)),
        ("assembler", "graph_spectrum", _no_counts),
        ("assembler", "butterfly_sweep", _no_counts),
        ("assembler", "_assemble", _no_counts),
        ("assembler", "gap_report", _no_counts),
        ("validation", "run_all", _no_counts),
        ("cli", "main", _no_counts),
    ]
    targets += [("validation", name, _property_name)
                for name in sorted(vars(validation)) if name.startswith("check_")]
    return targets


class Tracer:
    """Install with `install()`, run the workload, then `restore()`.

    Also a context manager.  `spans` holds one list per recorded call, laid
    out by the slot constants above.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, 0, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                rec[POINTS], rec[EXTRA] = counter(args, kwargs, result)
                # the parent is charged the whole wrapper, so the tracer's own
                # bookkeeping stays out of every self time
                if parent >= 0:
                    spans[parent][CHILD_S] += clock() - entered
        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        import importlib
        found = []
        for mod_name, fn_name, counter in layer_targets():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
            else:
                found.append((mod_name, fn_name, fn, counter))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, fn, counter in found:
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counter)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._patched:
            m, attr, fn = self._patched.pop()
            setattr(m, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def _ancestor_names(spans, i):
    names = set()
    p = spans[i][PARENT]
    while p >= 0:
        names.add(spans[p][NAME])
        p = spans[p][PARENT]
    return names


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one pass.

    `<module>.self_s` and the `_s` metrics of single functions are self times
    (span time minus its children's wrappers); `validation.<property>_s` is
    the inclusive time of each property check.
    """
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    self_s: dict[str, float] = {}
    raised: dict[str, int] = {}
    steps = 0
    windows = 0
    eta_in_invert = 0
    q_time = {label: 0.0 for _, _, label in HARPER_Q_BINS}
    # beta <= 1 always takes the long-double Chambers polish; beta > 1 skips
    # it once 2 + 2 beta^2q reaches 1e12 (q >= 20 at beta = 2)
    beta_time = {"beta_le1": 0.0, "beta_gt1": 0.0}
    prop_time = {name: 0.0 for name in VALIDATION_PROPERTIES}
    module_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        own = (s[END] - s[START]) - s[CHILD_S]
        calls[name] = calls.get(name, 0) + 1
        points[name] = points.get(name, 0) + s[POINTS]
        self_s[name] = self_s.get(name, 0.0) + own
        raised[name] = raised.get(name, 0) + int(s[RAISED])
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + own
        if name == "edge_solver._basis_many":
            steps += s[EXTRA]
        elif name == "discriminant.band_windows":
            windows += s[EXTRA]
        elif name == "discriminant.eta_many":
            if "discriminant.invert_eta_many" in _ancestor_names(spans, i):
                eta_in_invert += s[POINTS]
        elif name == "harper.harper_spectrum":
            q, beta = s[EXTRA]
            for lo, hi, label in HARPER_Q_BINS:
                if lo <= q <= hi:
                    q_time[label] += own
            beta_time["beta_gt1" if beta > 1.0 else "beta_le1"] += own
        elif name.startswith("validation.check_") and s[EXTRA] in prop_time:
            prop_time[s[EXTRA]] += s[END] - s[START]

    c = lambda n: calls.get(n, 0)
    pts = lambda n: points.get(n, 0)
    t = lambda n: self_s.get(n, 0.0)
    basis, invert = "edge_solver._basis_many", "discriminant.invert_eta_many"
    assembled = c("assembler._assemble")
    m = {
        "edge_solver.basis_calls": c(basis),
        "edge_solver.basis_points": pts(basis),
        "edge_solver.basis_batch_mean": pts(basis) / c(basis) if c(basis) else 0.0,
        "edge_solver.steps": steps,
        "edge_solver.basis_s": t(basis),
        "edge_solver.count_calls": c("edge_solver._count_below_many"),
        "edge_solver.count_points": pts("edge_solver._count_below_many"),
        "edge_solver.count_s": t("edge_solver._count_below_many"),
        "edge_solver.dirichlet_calls": c("edge_solver.dirichlet_eigenvalues"),
        "edge_solver.dirichlet_s": t("edge_solver.dirichlet_eigenvalues"),
        "discriminant.eta_calls": c("discriminant.eta_many"),
        "discriminant.eta_points": pts("discriminant.eta_many"),
        "discriminant.invert_calls": c(invert),
        "discriminant.invert_targets": pts(invert),
        "discriminant.eta_per_target": eta_in_invert / pts(invert) if pts(invert) else 0.0,
        "discriminant.invert_s": t(invert),
        "discriminant.windows": windows,
        "discriminant.windows_s": t("discriminant.band_windows"),
        "harper.spectrum_calls": c("harper.harper_spectrum"),
        "harper.spectrum_s": t("harper.harper_spectrum"),
        "harper.failures": raised.get("harper.harper_spectrum", 0),
        "harper.chambers_s": t("harper.chambers_defect"),
        "harper.torus_s": t("harper.torus_oracle"),
        "assembler.harper_calls_per_flux":
            c("harper.harper_spectrum") / assembled if assembled else 0.0,
        "assembler.fluxes_failed": raised.get("assembler._assemble", 0),
        "kp_oracle.trace_calls": c("kp_oracle.kp_trace_many"),
        "kp_oracle.trace_points": pts("kp_oracle.kp_trace_many"),
        "kp_oracle.trace_s": t("kp_oracle.kp_trace_many"),
        "trace.spans": len(spans),
    }
    for label, v in (q_time | beta_time).items():
        m[f"harper.spectrum_{label}_s"] = v
    for name, v in prop_time.items():
        m[f"validation.{name}_s"] = v
    for module in ("edge_solver", "discriminant", "harper", "kp_oracle",
                   "assembler", "validation", "cli"):
        m[f"{module}.self_s"] = module_self.get(module, 0.0)
    return m
