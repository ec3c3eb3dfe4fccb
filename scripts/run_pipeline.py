#!/usr/bin/env python3
"""Run the nonlinear decay pipeline on exterior A/r data and print fits.

The three stages measure, at a ladder of probe radii: (a) the radiation
tail S(r) of the linear data, (b) the exterior gradient energy, and
(c) the sixth-power tail after a compactified defocusing quintic run.
For A/r data the expected picture is S identically at floor, gradient
exponent 1, and a sixth-power tail whose fitted exponent clears 1.8 by
a wide margin (the true local rate is near 3).
"""

import argparse

import numpy as np

import wavechannel.decay_lab as dl
import wavechannel.exterior_basis as eb
import wavechannel.radial_solver as rs


PROBES = [2.0, 4.0, 8.0, 16.0, 32.0]


def show(name: str, report: dl.DecayReport) -> None:
    print(f"\n{name}: fitted exponent {report.exponent:.4f}"
          f" (rms log residual {report.residual:.2e})")
    for r, v in report.samples:
        print(f"  r = {r:6.2f}   value = {v:.6e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--amplitude", type=float, default=1.0)
    parser.add_argument("--t-final", type=float, default=4.0)
    parser.add_argument("--r-max", type=float, default=72.0)
    parser.add_argument("--n-r", type=int, default=3601)
    args = parser.parse_args(argv)

    mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[args.amplitude])
    config = rs.SolverConfig(r_max=args.r_max, n_r=args.n_r, t_final=args.t_final)
    fld = rs.lifted_field_from_mode(mode, config)
    report = dl.nonlinear_decay_pipeline(
        fld, "defocusing_quintic", PROBES, t_final=args.t_final
    )

    print(f"cutoff support [{report.cutoff[0]:.2f}, {report.cutoff[1]:.2f}], "
          f"nonlinear run to t = {report.t_end:.3f}")
    show("(a) radiation tail S(r)", report.s_report)
    if np.isinf(report.s_report.exponent):
        print("  (all probes at the floor: the data is weakly non-radiative)")
    show("(b) exterior gradient energy", report.dr_u0_report)
    show("(c) sixth-power tail after quintic run", report.l6_report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
