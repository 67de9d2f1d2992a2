"""Census of `validate`'s Harper checks over the documented default range.

    python tools/census.py [TREE]

Runs `check_chambers` and `check_torus_containment` at every Farey flux p/q
in [0, 1] with q <= 50 and beta in {0.5, 1, 1.3, 2} (3100 configs each, the
`harper` grid of `cli_diff.py`; 35 to 45 s on one core), with the package
from TREE's `src` (default: this checkout).  Prints one line per failing
config, then per check the number of FAILs and the worst defect with its
config.  Exit status 1 means some config failed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from cli_diff import HARPER_BETAS, HARPER_Q_MAX, farey


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout whose src to import (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from fluxlattice import RationalFlux, harper_spectrum
    from fluxlattice.validation import check_chambers, check_torus_containment

    checks = {
        "chambers_independence": check_chambers,
        "torus_containment":
            lambda f, beta: check_torus_containment(harper_spectrum(f, beta)),
    }
    configs = list(itertools.product(HARPER_BETAS, farey(HARPER_Q_MAX)))
    failed = 0
    for name, check in checks.items():
        fails, worst, where = 0, -1.0, None
        for beta, (p, q) in configs:
            r = check(RationalFlux(p, q), beta)
            if not r.passed:
                fails += 1
                print(f"FAIL {name} {p}/{q} beta={beta}: defect={r.defect:.3e} "
                      f"tol={r.tolerance:.1e}")
            if r.defect > worst:
                worst, where = r.defect, f"{p}/{q} beta={beta}"
        print(f"{name}: {fails} of {len(configs)} FAIL, "
              f"worst defect {worst:.3e} at {where}")
        failed += fails
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
