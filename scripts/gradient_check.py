#!/usr/bin/env python3
"""Finite-difference audit of the full model gradient.

Checks every parameter of the micro model against central differences
in extended precision and prints the worst coordinate per parameter. It
runs `tensor.finite_diff_check` once per parameter on the loss of
criterion 1 (`checks.micro_gradcheck`), so both report the same worst
error.

    python3 scripts/gradient_check.py [--eps 1e-3]
"""

import argparse
import sys
import time

from multigrain import tensor as T
from multigrain.checks import micro_loss


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--tolerance", type=float, default=1e-4)
    args = ap.parse_args()

    t0 = time.time()
    worst_overall = 0.0
    with T.precision("extended"):
        f, params = micro_loss(args.seed, args.scale)
        for name, p in params.items():
            worst = T.finite_diff_check(f, {name: p}, eps=args.eps)
            print(f"{name:35s} worst rel err {worst:.3e}")
            worst_overall = max(worst_overall, worst)

    ok = worst_overall < args.tolerance
    print(f"\nmax relative error {worst_overall:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tolerance:g}) in {time.time() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
