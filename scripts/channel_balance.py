#!/usr/bin/env python3
"""Exterior-energy balance on random radiating data.

Builds random band-limited radiation profiles, pulls them back to
initial data, and compares the two sides of the exterior-energy
identity: extrapolated forward plus backward exterior energies against
twice the squared radiation tail.  Also runs one basis-backed data set
for which both sides must vanish.  Acceptance criterion 07 draws its
data and grid with `band_limited_profile` and `snapped_config` below.
"""

import argparse
import math

import numpy as np

import wavechannel.exterior_basis as eb
import wavechannel.radial_solver as rs
import wavechannel.radiation3 as rad


def snapped_config(r_max, n_r, t_final):
    dr = r_max / (n_r - 1)
    n_total = 8 * math.ceil(t_final / (8 * 0.45 * dr))
    dt = t_final / n_total
    return rs.SolverConfig(
        r_max=r_max, n_r=n_r, t_final=t_final, cfl=dt / dr,
        store_every=n_total // 8,
    )


def band_limited_profile(rng, half_width=12.0, n=4801):
    s = np.linspace(-half_width, half_width, n)
    g = np.zeros_like(s)
    for k in range(1, 6):
        a, b = rng.normal(size=2)
        g += a * np.cos(0.5 * k * s) + b * np.sin(0.5 * k * s)
    g *= np.exp(-((s / 3.0) ** 2))
    # zero charge keeps all the energy inside a truncated window
    env = np.exp(-((s / 3.0) ** 2))
    g -= np.trapezoid(g, x=s) * env / np.trapezoid(env, x=s)
    return rad.RadiationProfile(s=s, g=g)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    config = snapped_config(78.0, 3901, 16.0)
    r = config.radial_grid()
    print(f"{'sample':>6} {'lhs':>12} {'rhs':>12} {'rel gap':>10}")
    worst = 0.0
    for i in range(args.samples):
        fld = rad.field_from_profile(band_limited_profile(rng), r)
        report = rad.channel_identity_check(fld, config, R=1.0)
        worst = max(worst, report.rel_gap)
        print(f"{i:>6} {report.lhs:>12.5e} {report.rhs:>12.5e} {report.rel_gap:>10.2e}")
    print(f"worst relative gap over {args.samples} samples: {worst:.2e}")

    mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
    quiet_cfg = snapped_config(8.0, 401, 128.0)
    fld = rs.lifted_field_from_mode(mode, quiet_cfg)
    vals = eb.eval_extended(mode, fld.r)
    report = rad.channel_identity_check(fld, quiet_cfg, R=1.0, du0=vals.du0_dr)
    print(
        "weakly non-radiative A/r data at T=128: "
        f"lhs={report.lhs:.2e}, rhs={report.rhs:.2e}, total={report.total:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
