#!/usr/bin/env python3
"""Audit the interval inequalities on large random rational samples.

Runs every lemma variant over exact-rational random polynomials and
reports violation counts, the smallest relative margin seen, and where
it occurred.  The margin is (rhs - lhs) / rhs, so 0 is an equality case
and anything negative would be a counterexample.  The cases come from
`polylib.random_lemma_case`, the draw of `wavechannel lemmas` and of
acceptance criterion 02.
"""

import argparse
import random
import time

from wavechannel.polylib import VARIANTS, lemma_check, random_lemma_case


def audit(trials: int, degree_max: int, seed: int) -> int:
    rng = random.Random(seed)
    total_violations = 0
    print(f"{'variant':<12} {'trials':>7} {'violations':>10} {'min margin':>12}  at")
    for variant in VARIANTS:
        start = time.time()
        violations = 0
        min_margin = None
        witness = None
        for _ in range(trials):
            coeffs, L, l = random_lemma_case(rng, degree_max)
            chk = lemma_check(coeffs, variant, L, l)
            if not chk.holds:
                violations += 1
            if chk.rhs > 0:
                margin = float((chk.rhs - chk.lhs) / chk.rhs)
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                    witness = (len(coeffs) - 1, L, l)
        elapsed = time.time() - start
        spot = f"deg={witness[0]} L={witness[1]} l={witness[2]}" if witness else "-"
        print(
            f"{variant:<12} {trials:>7} {violations:>10} "
            f"{min_margin:>12.3e}  {spot}  ({elapsed:.1f}s)"
        )
        total_violations += violations
    return total_violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--degree-max", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    violations = audit(args.trials, args.degree_max, args.seed)
    if violations:
        print(f"FOUND {violations} VIOLATIONS")
        return 1
    print("all inequalities hold on the sampled data")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
