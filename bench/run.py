"""fluxlattice benchmark: one workload per run, one process, no worker pool.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src.  Passes of
the workload repeat until --seconds have gone by (at least one pass; package
caches are emptied before each).  With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it holds the per-layer metrics.  A results file with
machine info and every raw sample goes to bench/out/.  Workloads and
metrics are described in bench/README.md.

    python3 bench/run.py --workload NAME --record

re-records bench/reference/NAME.json.gz from one pass at seed 0.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
SETUP_REPEATS = 9

sys.path.insert(0, str(BENCH))


def _import_package():
    if not (SRC / "fluxlattice" / "__init__.py").is_file():
        raise ImportError(f"no fluxlattice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fluxlattice  # noqa: F401


def measure_setup(code: str) -> float:
    """Wall time of a fresh interpreter importing the package and loading the
    workload's config."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _round(x):
    """13 significant digits: far below every comparison tolerance."""
    if isinstance(x, float):
        return float(f"{x:.13g}")
    if isinstance(x, list):
        return [_round(v) for v in x]
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    return x


def reference_path(name: str) -> Path:
    return REFERENCE / f"{name}.json.gz"


def load_reference(name: str) -> dict | None:
    path = reference_path(name)
    return json.loads(gzip.decompress(path.read_bytes())) if path.is_file() else None


def save_reference(name: str, doc: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    text = json.dumps(_round(doc), separators=(",", ":"))
    reference_path(name).write_bytes(gzip.compress(text.encode(), mtime=0))


def gate(wl, inputs: dict, raws: list) -> tuple[list, dict]:
    """Check every pass; returns (ops of each pass, summary).

    Passes with byte-identical output share one evaluation.  An operation
    that is not ok makes the run incorrect unless it is a known failure.
    """
    ref = load_reference(wl.name) if wl.compare is not None else None
    use_ref = ref is not None and (
        wl.ref_by_name or ref["inputs"] == _round(json.loads(json.dumps(inputs))))
    cache: list[tuple[object, list]] = []
    per_pass = []
    compared = 0
    for raw in raws:
        ops = next((o for r, o in cache if r == raw), None)
        if ops is None:
            ops = wl.evaluate(inputs, raw)
            for op in ops:
                ref_answer = ref["answers"].get(op.name) if use_ref else None
                if op.status == "ok" and ref_answer is not None:
                    compared += 1
                    why = wl.compare(ref_answer, op.answer)
                    if why is not None:
                        op.status, op.detail = "wrong", f"reference: {why}"
            cache.append((raw, ops))
        per_pass.append(ops)
    known = set(wl.known_failures)
    bad = [op for op in per_pass[0] if op.status != "ok"]
    unexpected = sorted({op.name for ops in per_pass for op in ops
                         if op.status != "ok" and op.name not in known})
    summary = {
        "distinct_outputs": len(cache),
        "reference_used": use_ref,
        "reference_compared": compared,
        "failures": [{"op": op.name, "status": op.status, "detail": op.detail,
                      "known": op.name in known} for op in bad],
        "unexpected_failures": unexpected,
        "known_failures_now_ok": sorted(known - {op.name for op in bad}),
        "correct": not unexpected,
    }
    return per_pass, summary


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def source_id() -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the package sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        commit = got.stdout.strip() if got.returncode == 0 else None
    except OSError:
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


@dataclass
class Samples:
    """Everything one run measured; wall times are per pass."""
    setup: list = field(default_factory=list)       # fresh-interpreter set-up times
    passes: list = field(default_factory=list)      # (traced, wall time) per pass
    raws: list = field(default_factory=list)        # each pass's output, for the gate
    layers: list = field(default_factory=list)      # layer_metrics of each traced pass
    missing: list = field(default_factory=list)     # traced functions not found

    @property
    def walls(self) -> list[float]:
        return [dt for traced, dt in self.passes if not traced]

    @property
    def traced_walls(self) -> list[float]:
        return [dt for traced, dt in self.passes if traced]


def run_passes(wl, ctx: dict, seconds: float, trace: bool) -> Samples:
    """Timed passes until `seconds` have elapsed.

    One set-up sample is taken before each pass (at least SETUP_REPEATS in
    all), so that set-up samples are spread over the run like the passes.
    """
    from tracer import Tracer, layer_metrics
    from workloads import clear_caches
    setup_code = wl.setup_code(ctx)
    run = Samples()
    start = time.perf_counter()
    while True:
        run.setup.append(measure_setup(setup_code))
        # untraced, traced, traced, untraced, ...: drift hits both sides alike
        traced = trace and len(run.passes) % 4 in (1, 2)
        tracer = Tracer().install() if traced else None
        try:
            clear_caches()
            t0 = time.perf_counter()
            raw = wl.run_pass(ctx)
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        run.raws.append(raw)
        run.passes.append((traced, dt))
        if traced:
            run.layers.append(layer_metrics(tracer.spans))
            run.missing = tracer.missing
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(run.traced_walls) == len(run.walls)):
            while len(run.setup) < SETUP_REPEATS:
                run.setup.append(measure_setup(setup_code))
            return run


def per_layer(run: Samples) -> tuple[dict, list]:
    """Counts from the first traced pass (they must repeat exactly), times as
    medians over traced passes, and the tracing overhead."""
    layers = run.layers
    unsteady = [k for k in layers[0] if isinstance(layers[0][k], int)
                and any(m[k] != layers[0][k] for m in layers[1:])]
    out = {}
    for k, v in layers[0].items():
        out[k] = v if isinstance(v, int) else statistics.median(m[k] for m in layers)
    out["trace.wall_s"] = statistics.median(run.traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(run.walls)
    return out, unsteady


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"edge_solver.basis_batch_mean": "points/call",
            "discriminant.eta_per_target": "points/target",
            "assembler.harper_calls_per_flux": "calls/flux"}.get(name, "count")


def main(argv=None) -> int:
    # Single-threaded BLAS here and in the set-up interpreters (set before numpy
    # loads): timings must not depend on whether the machine's other core is free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        from workloads import WORKLOADS   # also loads tests/oracles.py
    except (ImportError, OSError) as exc:
        print(f"benchmark: cannot load the workloads: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record the reference answers from one pass at seed 0")
    args = ap.parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"benchmark: cannot import fluxlattice: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    ctx = wl.prepare(inputs, work)

    if args.record:
        if args.seed != 0 or wl.compare is None:
            print("benchmark: references are recorded at seed 0 only, for workloads "
                  "that compare against one", file=sys.stderr)
            return 2
        from workloads import clear_caches
        clear_caches()
        ops = wl.evaluate(inputs, wl.run_pass(ctx))
        unexpected = [op.name for op in ops if op.status != "ok"
                      and op.name not in wl.known_failures]
        if unexpected:
            print(f"benchmark: not recording, oracle failures: {unexpected}", file=sys.stderr)
            return 1
        answers = {op.name: op.answer for op in ops if op.status == "ok"}
        save_reference(wl.name, {"inputs": inputs, "source": source_id(), "answers": answers})
        print(f"recorded {len(answers)} answers to {reference_path(wl.name).relative_to(ROOT)}")
        return 0

    run = run_passes(wl, ctx, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass, summary = gate(wl, inputs, run.raws)
    attempted = sum(len(ops) for ops in per_pass)
    failed = sum(op.status != "ok" for ops in per_pass for op in ops)
    q1, med, q3 = quartiles(run.walls)

    end_to_end = {
        "wall_s": med,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": 1.0 - failed / attempted,
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}
    print(f"workload {wl.name}  seed {args.seed}  inputs {json.dumps(inputs)}")
    print(f"  wall_s       {med:.4f} s  (median, q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n = {len(run.walls)} untraced passes)")
    print(f"  setup_s      {end_to_end['setup_s']:.4f} s  (median of {len(run.setup)} fresh interpreters)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_frac    {failed / attempted:.6f}  ({failed} of {attempted} operations, "
          f"{len(per_pass)} passes)")
    for f in summary["failures"]:
        tag = "known" if f["known"] else "NEW"
        print(f"    {tag} {f['status']} {f['op']}: {f['detail'][:160]}")
    for name in summary["known_failures_now_ok"]:
        print(f"    fixed {name}: known failure now passes the oracle")
    print(f"  correct      {summary['correct']}  (reference "
          f"{'used' if summary['reference_used'] else 'not used'}, "
          f"{summary['distinct_outputs']} distinct outputs)")

    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs, "machine": machine_info(),
              "source": source_id(),
              "samples": {"passes": run.passes, "setup_s": run.setup},
              "wall_s_quartiles": [q1, med, q3], "end_to_end": end_to_end,
              "attempted": attempted, "failed": failed, "gate": summary}
    if args.trace:
        metrics, unsteady = per_layer(run)
        result.update(per_layer=metrics, per_layer_passes=run.layers,
                      counters_unsteady=unsteady, untraced_functions=run.missing)
        print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s "
              f"(traced {metrics['trace.wall_s']:.4f} s, {len(run.traced_walls)} traced passes)")
        for k in sorted(metrics):
            print(f"    {k:40s} {metrics[k]:.6g} {unit_of(k)}")
        if unsteady:
            print(f"  WARNING counters differ between passes: {unsteady}")
        if run.missing:
            print(f"  WARNING functions not found, not traced: {run.missing}")
        shown = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        shown = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{wl.name}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(f"  results in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": summary["correct"], "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
