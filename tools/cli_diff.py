"""Compare the output of every CLI subcommand between two source trees.

    python tools/cli_diff.py OLD NEW [--edges free step const5 linear65 mathieu] [--harper]

OLD and NEW are checkouts of the repository (for example the parent commit,
made with `git worktree add` or `git archive`).  Each tree runs the whole
config grid in one worker process of its own, with PYTHONPATH at its `src`:

  * edges: free (V = 0), step (V = 0 then 10 on the halves of [0, pi]), and
    on request const5 (V = 5) and the sampled edges linear65 (V = t at 65
    nodes) and mathieu (V = 10 cos 2t at 4097 nodes, the edge of the
    `spectrum-mathieu` benchmark workload).  A piecewise edge takes seconds
    a tree; linear65 about 1 minute and mathieu about 1.5 minutes on one
    core of a 2 vCPU machine (trees before the Magnus cells, with RK4:
    about 15 minutes for linear65);
  * alpha in {1, 0, -1.5, -15}, beta in {0.5, 1, 1.3};
  * (z_min, z_max) in {(default, 10), (0.3, 7.7), (-0.1, 23.3), (2.2, 5.1)};
  * `spectrum` at theta 0/1, 1/3, 2/5, 1/2, 3/5 (the mirror of 2/5, whose
    bands are the cache entry of 2/5), `butterfly` at q_max 5, and
    `validate` at theta 1/3 and 2/5;
  * on the free and const5 edges, `spectrum` at alpha 0.1, beta 1, theta
    0/1 and z_max 410, where a gap of width 0.4 / (4 pi) opens above each of
    the 20 mu_k in range, and `validate` there at theta 1/3, whose sign
    alternation reads the Dirichlet record of that z_max;
  * on the free and step edges, alpha in {1, -15}, beta in {0.5, 1, 1.3},
    `spectrum` at theta 1/3 and `butterfly` at q_max 5 over [z_min, 10],
    with z_min (DEEP_Z_MIN) at least 50 below the default floor, so a
    window 0 that moved with z_min shows as a diff;
  * `dirichlet` once per edge (it reads neither alpha, beta nor the range),
    in json and in csv, with k_max 10;
  * per edge, at alpha 1 and beta 1.3, every subcommand under the rows of
    FLAG_RUNS: --format and --out with config q_max 3 or the default, the
    refused `spectrum --format csv`, `validate --format` and config q_max 0,
    and the settings that have no place, config out and format and the
    --q-max flag, which the current command line refuses with exit 2;
  * per edge, at alpha 1, beta 1.3 and z_max 10, `spectrum`, `harper` and
    `validate` at each flux of FLUX_RUNS that the config resolves to its
    convergent: theta 0.41 (16/39 at the default q_max 50), theta
    0.6180339887 with q_max 13 (8/13), and a uniform field b = 1 sampled on
    a 5 x 5 grid, whose flux l^2 / (2 pi) = pi/2 resolves to 11/7;
  * on request (--harper) also `harper` at every Farey flux p/q in [0, 1]
    with q <= 50 and beta in {0.5, 1, 1.3, 2} (3100 configs; with them the
    free and step grid takes about 40 s a tree).

A run's text is its exit code, stdout, stderr and the text of the file
that --out (or config out) names, if any.  Each config prints one line:
identical; the largest numeric difference between the two texts and how
many numbers differ, when only numbers differ; the truncation flags that
changed; or that the texts differ in structure.  The last line sums up.
Exit status 0 means every config is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

L = float(np.pi)
LINEAR65 = np.linspace(0.0, L, 65)
MATHIEU = np.linspace(0.0, L, 4097)
EDGES = {
    "free": {"kind": "zero"},
    "step": {"kind": "piecewise_constant", "breakpoints": [0.0, L / 2, L],
             "values": [0.0, 10.0]},
    "const5": {"kind": "constant", "c": 5.0},
    "linear65": {"kind": "sampled", "grid": LINEAR65.tolist(),
                 "values": LINEAR65.tolist()},
    "mathieu": {"kind": "sampled", "grid": MATHIEU.tolist(),
                "values": (10.0 * np.cos(2.0 * MATHIEU)).tolist()},
}
ALPHAS = (1.0, 0.0, -1.5, -15.0)
BETAS = (0.5, 1.0, 1.3)
RANGES = ((None, 10.0), (0.3, 7.7), (-0.1, 23.3), (2.2, 5.1))
THETAS = ("0/1", "1/3", "2/5", "1/2", "3/5")
VALIDATE_THETAS = ("1/3", "2/5")
K_MAX = 10
Q_MAX = 5
HARPER_Q_MAX = 50
HARPER_BETAS = (0.5, 1.0, 1.3, 2.0)
# per alpha, a z_min at least 50 below the default floor of the free and
# step edges at every beta of BETAS (the deepest: -36.0 on the free edge at
# alpha -15, beta 0.5)
DEEP_Z_MIN = {1.0: -50.0, -15.0: -86.0}
OUT = "<out>"  # stands for the output path in a run's arguments and config
FLAG_RUNS = (  # (arguments after the subcommand, extra config) per edge
    (("--format", "csv"), {"q_max": 3}),
    (("--out", OUT), {"q_max": 3, "theta": 0.41}),
    (("--format", "csv"), {}),
    (("--out", OUT, "--format", "csv"), {}),
    ((), {"q_max": 0}),
    ((), {"out": OUT}),
    ((), {"format": "csv"}),
    (("--q-max", "3"), {}),
)
FIELD_GRID = np.linspace(0.0, L, 5).tolist()
FLUX_RUNS = (  # (label, config) of the flux settings resolved to a convergent
    ("theta=0.41", {"theta": 0.41}),
    ("theta=0.6180339887 q_max=13", {"theta": 0.6180339887, "q_max": 13}),
    ("field b=1", {"field": {"grid_x": FIELD_GRID, "grid_y": FIELD_GRID,
                             "values": [[1.0] * 5] * 5}}),
)

NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")
FLAG = re.compile(r"\b(?:true|false)\b")


def farey(q_max):
    """The reduced fractions p/q in [0, 1] with q <= q_max, by q then p."""
    return [(p, q) for q in range(1, q_max + 1) for p in range(q + 1)
            if math.gcd(p, q) == 1]


def grid(edges, harper):
    """(label, arguments but --config, config) for every run."""
    for edge, alpha, beta, (z_min, z_max) in itertools.product(
            edges, ALPHAS, BETAS, RANGES):
        doc = {"l": L, "potential": EDGES[edge], "alpha": alpha, "beta": beta,
               "z_max": z_max, **({} if z_min is None else {"z_min": z_min})}
        label = f"{edge} alpha={alpha} beta={beta} z=[{z_min}, {z_max}]"
        for theta in THETAS:
            yield f"spectrum {label} theta={theta}", ["spectrum"], {**doc, "theta": theta}
        # butterfly reads no theta; older trees demand one all the same
        yield (f"butterfly {label} q_max={Q_MAX}", ["butterfly"],
               {**doc, "theta": "0/1", "q_max": Q_MAX})
        for theta in VALIDATE_THETAS:
            yield f"validate {label} theta={theta}", ["validate"], {**doc, "theta": theta}
    # on these mirror-symmetric edges every mu_k is on the threshold
    gap_run = {"alpha": 0.1, "beta": 1.0, "theta": "0/1", "z_max": 410.0}
    for edge in (e for e in edges if e in ("free", "const5")):
        yield (f"spectrum {edge} {json.dumps(gap_run)}", ["spectrum"],
               {"l": L, "potential": EDGES[edge], **gap_run})
        run = {**gap_run, "theta": "1/3"}
        yield (f"validate {edge} {json.dumps(run)}", ["validate"],
               {"l": L, "potential": EDGES[edge], **run})
    for edge, alpha, beta in itertools.product(
            (e for e in edges if e in ("free", "step")), DEEP_Z_MIN, BETAS):
        doc = {"l": L, "potential": EDGES[edge], "alpha": alpha, "beta": beta,
               "z_min": DEEP_Z_MIN[alpha], "z_max": 10.0}
        label = f"{edge} alpha={alpha} beta={beta} z=[{DEEP_Z_MIN[alpha]}, 10.0]"
        yield f"spectrum {label} theta=1/3", ["spectrum"], {**doc, "theta": "1/3"}
        yield (f"butterfly {label} q_max={Q_MAX}", ["butterfly"],
               {**doc, "theta": "0/1", "q_max": Q_MAX})
    for edge, fmt in itertools.product(edges, ("json", "csv")):
        # dirichlet reads no theta either; older trees demand one all the same
        yield (f"dirichlet {edge} k_max={K_MAX} format={fmt}", ["dirichlet", "--format", fmt],
               {"l": L, "potential": EDGES[edge], "alpha": 0.0, "beta": 1.0,
                "theta": "0/1", "k_max": K_MAX})
    commands = ("spectrum", "butterfly", "dirichlet", "harper", "validate")
    for edge, command, (flags, extra) in itertools.product(edges, commands, FLAG_RUNS):
        doc = {"l": L, "potential": EDGES[edge], "alpha": 1.0, "beta": 1.3,
               "theta": "1/3", "z_max": 10.0, "q_max": Q_MAX, "k_max": K_MAX, **extra}
        yield (f"{command} {edge} {' '.join(flags)} {json.dumps(extra)}",
               [command, *flags], doc)
    for edge, command, (label, extra) in itertools.product(
            edges, ("spectrum", "harper", "validate"), FLUX_RUNS):
        yield (f"{command} {edge} {label}", [command],
               {"l": L, "potential": EDGES[edge], "alpha": 1.0, "beta": 1.3,
                "z_max": 10.0, **extra})
    if harper:
        for beta, (p, q) in itertools.product(HARPER_BETAS, farey(HARPER_Q_MAX)):
            yield (f"harper beta={beta} theta={p}/{q}", ["harper"],
                   {"l": L, "potential": EDGES["free"], "alpha": 0.0, "beta": beta,
                    "theta": f"{p}/{q}"})


def worker(edges, harper) -> None:
    """Run the grid with the fluxlattice on sys.path; print a JSON list of texts."""
    from fluxlattice.cli import main
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        for _, args, doc in grid(edges, harper):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({k: out_path if v == OUT else v for k, v in doc.items()}, fh)
            argv = [args[0], "--config", path,
                    *(out_path if a == OUT else a for a in args[1:])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse refuses a flag
                    rc = exc.code
            written = ""
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8", newline="") as fh:
                    written = fh.read()
                os.remove(out_path)
            texts.append(f"exit {rc}\n{out.getvalue()}\n{err.getvalue()}\n{written}")
    json.dump(texts, sys.stdout)


def run_tree(root: str, edges, harper) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker",
                             "--edges", *edges, *(["--harper"] if harper else [])],
                            env=env, stdout=subprocess.PIPE, text=True)


def compare(old: str, new: str) -> tuple[str, str, float]:
    """(kind, one-line verdict, largest numeric difference) for two texts;
    kind is identical, numbers, flags or structure."""
    if old == new:
        return "identical", "identical", 0.0
    skeleton_old, skeleton_new = NUMBER.sub("#", old), NUMBER.sub("#", new)
    if FLAG.sub("@", skeleton_old) != FLAG.sub("@", skeleton_new):
        return "structure", "differs in structure", 0.0
    a = np.array([float(x) for x in NUMBER.findall(old)])
    b = np.array([float(x) for x in NUMBER.findall(new)])
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    verdict = f"max |diff| {diff:.3e} over {int(np.count_nonzero(a != b))} numbers"
    flags = [(x, y) for x, y in zip(FLAG.findall(skeleton_old),
                                    FLAG.findall(skeleton_new)) if x != y]
    if not flags:
        return "numbers", verdict, diff
    return "flags", (f"{verdict}; truncation flags changed: {len(flags)} "
                     f"({flags[0][0]} -> {flags[0][1]}, ...)"), diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="OLD and NEW checkouts")
    parser.add_argument("--edges", nargs="+", choices=sorted(EDGES),
                        default=["free", "step"])
    parser.add_argument("--harper", action="store_true",
                        help="add `harper` at every Farey flux with q <= 50")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.edges, args.harper)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD and NEW")
    procs = [run_tree(root, args.edges, args.harper) for root in args.trees]
    outputs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("a worker failed", file=sys.stderr)
        return 2
    old, new = (json.loads(text) for text in outputs)
    counts = dict.fromkeys(("identical", "numbers", "flags", "structure"), 0)
    worst = 0.0
    for (label, _, _), a, b in zip(grid(args.edges, args.harper), old, new):
        kind, verdict, diff = compare(a, b)
        print(f"{label}: {verdict}")
        counts[kind] += 1
        worst = max(worst, diff)
    print(f"summary: {counts['identical']} of {len(old)} identical, "
          f"{counts['numbers']} differ only in numbers (max |diff| {worst:.3e}), "
          f"{counts['flags']} change truncation flags, "
          f"{counts['structure']} differ in structure")
    return 0 if counts["identical"] == len(old) else 1


if __name__ == "__main__":
    sys.exit(main())
