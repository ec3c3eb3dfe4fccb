#!/usr/bin/env python3
"""Measure worst-case radiation-tail decay against the recursion limit.

For each (alpha, l) pair this builds the adversarial envelope that
saturates the interpolation recursion, fits its decay exponent over the
final decade of a long radial window, and compares with the fixed point
(1 - 1/l) alpha.  The measured exponent carries an O(1/log r) amplitude
correction, so expect agreement to a couple of percent at r/R = 1e6 and
slow improvement as the window grows.
"""

import argparse

from wavechannel.decay_lab import RecursionParams, gamma_sequence, worst_case_S


PAIRS = [(1.0, 5.0), (0.95, 5.0), (0.5, 3.0), (2.0, 2.0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--r-over-R", type=float, default=1e6)
    parser.add_argument(
        "--pair", type=float, nargs=2, action="append", metavar=("ALPHA", "L"),
        help="extra (alpha, l) pair; may repeat",
    )
    args = parser.parse_args(argv)
    pairs = PAIRS + [tuple(p) for p in args.pair or []]

    print(f"{'alpha':>6} {'l':>5} {'gamma*':>8} {'gamma_200':>10} "
          f"{'exponent':>9} {'residual':>9}")
    for alpha, l in pairs:
        params = RecursionParams(alpha, l, 0.1 * (1 - 1 / l) * alpha)
        tail = gamma_sequence(params, 200)[-1]
        report = worst_case_S(params, 1.0, args.r_over_R)
        print(
            f"{alpha:>6.3f} {l:>5.2f} {params.gamma_star:>8.4f} {tail:>10.7f} "
            f"{report.exponent:>9.4f} {report.residual:>9.2e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
