"""Census of `validate`'s checks over the documented default range.

    python tools/census.py [TREE]

With the package from TREE's `src` (default: this checkout), runs

  * the Harper checks `check_chambers` and `check_torus_containment` at every
    Farey flux p/q in [0, 1] with q <= 50 and beta in {0.5, 1, 1.3, 2} (3100
    configs each, the `harper` grid of `cli_diff.py`);
  * the theta-independent checks `check_wronskian`, `check_sign_alternation`
    and `check_kp_identity` on the free, constant (V = 5), step and sampled
    linear (V = t, 65 nodes) edges, alpha in {1, 0, -1.5, -15} and beta in
    {0.5, 1, 1.3, 2} (64 configs each), sampled as `validate` samples them:
    from the default floor, the lower edge of band window 0, up to z_max 40,
    with sign alternation over the Dirichlet record that z_max 40 reads;
  * per edge, how many of its 16 couplings give `validate` (which reads
    window 0 through `lowest_window_edge`) and `spectrum` (window 0 of
    `band_windows`), both up to z_max 40, the same default floor bit for bit.

About a minute on one core (53 to 65 s): the Harper checks take about 40 s,
and the default floor's edge solve on the sampled edge most of the rest.

It prints one line per failing config and per exception other than
ConfigError or NumericalError (those are counted), then per check the number
of FAILs and the worst defect with its config.  Exit status 1 means some
config failed or raised an untyped exception.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from functools import cache
from pathlib import Path

from cli_diff import ALPHAS, EDGES, HARPER_BETAS, HARPER_Q_MAX, L, farey

CENSUS_EDGES = {"free": EDGES["free"], "constant5": {"kind": "constant", "c": 5.0},
                "step": EDGES["step"], "linear65": EDGES["linear65"]}
Z_MAX = 40.0  # validate-fib's z_max


def census(name: str, runs, typed: tuple[type, ...]) -> int:
    """Run one check over (label, thunk) pairs and print its summary; return
    the number of FAILs and untyped exceptions."""
    fails = raised = errors = 0
    worst, where = -1.0, None
    for label, run in runs:
        try:
            r = run()
        except typed:
            raised += 1
            continue
        except Exception as exc:  # a census reports every config, then exits
            errors += 1
            print(f"ERROR {name} {label}: {type(exc).__name__}: {exc}")
            continue
        if not r.passed:
            fails += 1
            print(f"FAIL {name} {label}: defect={r.defect:.3e} tol={r.tolerance:.1e}")
        if r.defect > worst:
            worst, where = r.defect, label
    print(f"{name}: {fails} of {len(runs)} FAIL, {errors} raised untyped, "
          f"{raised} raised ConfigError or NumericalError, "
          f"worst defect {worst:.3e} at {where}")
    return fails + errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout whose src to import (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from fluxlattice import (ConfigError, CouplingParams, NumericalError, RationalFlux,
                             harper_spectrum, make_potential)
    from fluxlattice.discriminant import band_windows, lowest_window_edge
    from fluxlattice.validation import (check_chambers, check_kp_identity,
                                        check_sign_alternation, check_torus_containment,
                                        check_wronskian)

    typed = (ConfigError, NumericalError)
    fluxes = [(f"{p}/{q} beta={beta}", RationalFlux(p, q), beta)
              for beta, (p, q) in itertools.product(HARPER_BETAS, farey(HARPER_Q_MAX))]
    harper_checks = {
        "chambers_independence": check_chambers,
        "torus_containment": lambda f, beta: check_torus_containment(harper_spectrum(f, beta)),
    }
    couplings = {edge: [(f"{edge} alpha={alpha} beta={beta}",
                         CouplingParams(alpha=alpha, beta=beta, potential=make_potential(
                             {"l": L, "potential": CENSUS_EDGES[edge]})))
                        for alpha, beta in itertools.product(ALPHAS, HARPER_BETAS)]
                 for edge in CENSUS_EDGES}

    @cache
    def floor(c):
        """The default floor of `validate`: a_full of band window 0."""
        return lowest_window_edge(c, Z_MAX)

    edge_checks = {
        "wronskian": lambda c: check_wronskian(c, floor(c), Z_MAX),
        "sign_alternation": lambda c: check_sign_alternation(c, Z_MAX),
        "kp_trace_identity": lambda c: check_kp_identity(c, floor(c), Z_MAX),
    }
    failed = 0
    for name, check in harper_checks.items():
        failed += census(name, [(label, lambda f=f, beta=beta, check=check: check(f, beta))
                                for label, f, beta in fluxes], typed)
    for name, check in edge_checks.items():
        failed += census(name, [(label, lambda c=c, check=check: check(c))
                                for runs in couplings.values() for label, c in runs], typed)
    for edge, runs in couplings.items():
        same = sum(floor(c) == band_windows(c, None, Z_MAX)[0].a_full for _, c in runs)
        print(f"default floor {edge}: validate and spectrum agree bit for bit "
              f"at {same} of {len(runs)} couplings")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
