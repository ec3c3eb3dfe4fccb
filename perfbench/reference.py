#!/usr/bin/env python3
"""Reference figures for single layers and whole flows, at fixed sizes.

    python3 perfbench/reference.py [--skip-slow]

Prints one JSON object: median (and quartiles) of repeated timings of
`lemma_check`, one leapfrog step for each ghost kind, a scalar
`ExteriorDescriptor.eval` for one-, two- and three-chain modes,
`channel_identity_check` and the README pipeline, plus one wall time for
each script under scripts/ and for the Tier-1 test suite (skipped with
--skip-slow).  These sit next to the hand-measured baseline in ROADMAP.md;
the workloads in run.py are the benchmark proper.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import wavechannel.cli as cli  # noqa: E402
import wavechannel.exact_evolution as ev  # noqa: E402
import wavechannel.exterior_basis as eb  # noqa: E402
import wavechannel.polylib as pl  # noqa: E402
import wavechannel.radial_solver as rs  # noqa: E402
import wavechannel.radiation3 as rad  # noqa: E402


def summary(samples: list[float], scale: float = 1.0) -> dict:
    q1, q2, q3 = statistics.quantiles([scale * s for s in samples], n=4) if len(samples) > 1 else [scale * samples[0]] * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


def timed(fn, repeat: int) -> list[float]:
    out = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def lemma_ms() -> dict:
    """Criterion 02's stream (seed 0, degrees 0-15), per check."""
    rng = random.Random(0)
    samples = []
    for variant in ("sup_odd", "deriv_odd", "sup_even", "deriv_even"):
        for _ in range(100):
            degree = rng.randint(0, 15)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
            L = Fraction(rng.randint(1, 16), rng.randint(1, 4))
            l = L * Fraction(rng.randint(1, 4), 8)
            samples += timed(lambda: pl.lemma_check(coeffs, variant, L, l), 1)
    return {**summary(samples, 1e3), "mean": 1e3 * statistics.fmean(samples)}


def step_us(n_r: int, descriptor: bool) -> dict:
    """One leapfrog step of a (3, 0) mode at r_max 16, t_final 4, snapshots every 50 steps."""
    cfg = rs.SolverConfig(r_max=16.0, n_r=n_r, t_final=4.0, store_every=50)
    fld = rs.lifted_field_from_mode(eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, [1.0]), cfg)
    if not descriptor:
        fld = rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=fld.lifted_dim)
    steps = math.ceil(cfg.t_final / cfg.dt)
    return summary(timed(lambda: rs.solve_mode_linear(fld, cfg), 7), 1e6 / steps)


def descriptor_us(d: int, nu: int) -> dict:
    spec = eb.ModeSpec(d, nu)
    data = eb.build_exterior_mode(spec, 1.0, np.ones(spec.k1_max), np.ones(spec.k2_max))
    desc = ev.descriptor_for_mode(data)
    calls = 2000
    samples = timed(lambda: [desc.eval(5.0, 1.0) for _ in range(calls)], 7)
    return {"chains": len(ev.chains_for_mode(data)), **summary(samples, 1e6 / calls)}


def channel_identity_s() -> dict:
    """Sample 0 of scripts/channel_balance.py (seed 0) at n_r 4801, r_max 78, T 16."""
    rng = np.random.default_rng(0)
    s = np.linspace(-12.0, 12.0, 4801)
    env = np.exp(-((s / 3.0) ** 2))
    g = sum(a * np.cos(0.5 * k * s) + b * np.sin(0.5 * k * s) for k, (a, b) in enumerate(rng.normal(size=(5, 2)), 1)) * env
    g -= np.trapezoid(g, x=s) * env / np.trapezoid(env, x=s)
    r_max, n_r, t_final = 78.0, 4801, 16.0
    dr = r_max / (n_r - 1)
    n_total = 8 * math.ceil(t_final / (8 * 0.45 * dr))
    cfg = rs.SolverConfig(r_max=r_max, n_r=n_r, t_final=t_final, cfl=(t_final / n_total) / dr, store_every=n_total // 8)
    profile = rad.RadiationProfile(s=s, g=g)
    data = rad.inverse_map(profile)
    r = cfg.radial_grid()
    u0 = np.interp(r, data.r, data.u0, left=0.0, right=0.0)
    u0[0] = 2.0 * np.interp(0.0, s, g)
    u1 = np.interp(r, data.r, data.u1, left=0.0, right=0.0)
    u1[0] = 0.0
    fld = rs.RadialGridField(r=r, u=u0, ut=u1, lifted_dim=3)
    return summary(timed(lambda: rad.channel_identity_check(fld, cfg, R=1.0), 5))


def pipeline_s(tmp: Path) -> dict:
    """`wavechannel pipeline` at the README config, in process."""
    config = tmp / "pipeline_config.json"
    config.write_text(json.dumps({"R": 1.0, "A": [1.0], "r_max": 72.0, "n_r": 3601,
                                  "probe_radii": [2.0, 4.0, 8.0, 16.0, 32.0]}))
    argv = ["pipeline", "--config", str(config), "--out", str(tmp / "pipeline")]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run(argv) != 0:
                raise RuntimeError("pipeline exited non-zero")

    return summary(timed(call, 7))


def wall_s(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return {"s": time.perf_counter() - t, "exit": done.returncode}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--skip-slow", action="store_true", help="skip the scripts and the Tier-1 suite")
    args = p.parse_args(argv)
    out: dict = {
        "lemma_check_ms": lemma_ms(),
        "leapfrog_step_us": {
            f"{kind}_n_r_{n}": step_us(n, kind == "descriptor") for kind in ("extrapolated", "descriptor") for n in (801, 3601)
        },
        "descriptor_eval_us": {f"mode_{d}_{nu}": descriptor_us(d, nu) for d, nu in ((3, 0), (5, 0), (7, 0))},
        "channel_identity_check_s": channel_identity_s(),
    }
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        out["pipeline_s"] = pipeline_s(Path(tmp))
    if not args.skip_slow:
        scripts = sorted((ROOT / "scripts").glob("*.py"))
        out["scripts_s"] = {s.stem: wall_s([sys.executable, str(s)]) for s in scripts}
        out["tier1_s"] = wall_s([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"])
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
