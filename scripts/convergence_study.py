#!/usr/bin/env python3
"""Refinement study for the radial stepper against two exact oracles.

Oracle A: d'Alembert evolution of a radial gaussian in d = 3.
Oracle B: the closed-form chain solution for (d, nu) = (7, 0), k = 2,
checked outside the influence cone of the interior blend.

Prints max-norm errors and successive ratios for a resolution ladder;
the second-order leapfrog scheme should show ratios near 4.  Acceptance
criterion 06 gates the ratios of `dalembert_error` and `chain_error`
as written here.
"""

import argparse

import numpy as np

import wavechannel.exterior_basis as eb
import wavechannel.radial_solver as rs


def dalembert_exact(r: np.ndarray, t: float) -> np.ndarray:
    def w0(x):
        return x * np.exp(-(x**2))

    out = np.empty_like(r)
    pos = r > 1e-12
    out[pos] = (w0(r[pos] + t) + w0(r[pos] - t)) / (2 * r[pos])
    if np.any(~pos):
        out[~pos] = np.exp(-(t**2)) * (1 - 2 * t**2)
    return out


def dalembert_error(n_r: int) -> float:
    config = rs.SolverConfig(r_max=20.0, n_r=n_r, t_final=3.0, store_every=10**9)
    r = config.radial_grid()
    fld = rs.RadialGridField(r=r, u=np.exp(-(r**2)), ut=np.zeros_like(r), lifted_dim=3)
    traj = rs.solve_mode_linear(fld, config)
    t_end = float(traj.times[-1])
    mask = traj.r < 10.0
    return float(
        np.max(np.abs(traj.u[-1][mask] - dalembert_exact(traj.r[mask], t_end)))
    )


def chain_error(n_r: int) -> float:
    data = eb.build_exterior_mode(eb.ModeSpec(7, 0), 1.0, A=[0.0, 1.0], B=[0.0])
    config = rs.SolverConfig(r_max=14.0, n_r=n_r, t_final=2.0, store_every=10**9)
    fld = rs.lifted_field_from_mode(data, config)
    traj = rs.solve_mode_linear(fld, config)
    t_end = float(traj.times[-1])
    # stay outside anything the interior blend can influence numerically
    mask = traj.r > 1.0 + t_end / config.cfl + 3 * config.dr
    exact = traj.descriptor.eval(traj.r[mask], t_end)
    return float(np.max(np.abs(traj.u[-1][mask] - exact.u)))


def table(name, errors, resolutions) -> None:
    print(f"\n{name} (scheme errors, max norm)")
    print(f"{'n_r':>6} {'error':>12} {'ratio':>7}")
    prev = None
    for n_r, err in zip(resolutions, errors):
        ratio = f"{prev / err:7.2f}" if prev else "      -"
        print(f"{n_r:>6} {err:>12.3e} {ratio}")
        prev = err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--resolutions", type=int, nargs="+",
        default=[201, 401, 801, 1601],
    )
    args = parser.parse_args(argv)

    table(
        "gaussian vs d'Alembert",
        [dalembert_error(n) for n in args.resolutions],
        args.resolutions,
    )
    table(
        "lifted (7,0) chain, exterior window",
        [chain_error(n) for n in args.resolutions],
        args.resolutions,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
