"""End-to-end acceptance checks, one test per contract criterion.

Each test prints a single PASS line with the measured quantities, so a
verbose run doubles as the acceptance report.  Tolerances are stated
inline; nothing here is weaker than the module-level suites, but these
run the full advertised sizes (1000 exact lemma trials per variant,
100 random modes, 20 random channel data sets, and so on).  Criteria
06 and 07 run the experiment code of scripts/convergence_study.py and
scripts/channel_balance.py, so the scripts print what is gated here.
"""

import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wavechannel.decay_lab as dl
import wavechannel.exact_evolution as ev
import wavechannel.exterior_basis as eb
import wavechannel.polylib as pl
import wavechannel.radial_solver as rs
import wavechannel.radiation3 as rad
from oracles import compact_bump, exterior_norms_quadrature, random_mode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from channel_balance import band_limited_profile, snapped_config  # noqa: E402
from convergence_study import chain_error, dalembert_error  # noqa: E402


def ok(n: int, msg: str) -> None:
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_01_orthogonal_family_norms_and_ode():
    for n in range(21):
        plain = pl.family_norm2("legendre", n)
        shifted = pl.family_norm2("modified", n)
        assert plain == Fraction(2, 2 * n + 1)
        assert shifted == Fraction(1, 2 * (n + 1))
        assert abs(float(plain) - 2.0 / (2 * n + 1)) < 1e-12
        assert abs(float(shifted) - 0.5 / (n + 1)) < 1e-12
    for n in range(16):
        assert pl.modified_legendre_ode_residual(n).is_zero
    ok(1, "norms exact for n <= 20, ODE residual identically zero for n <= 15")


def test_criterion_02_lemma_inequalities_1000_per_variant():
    rng = random.Random(0)
    start = time.time()
    checked = 0
    for variant in pl.VARIANTS:
        for _ in range(1000):
            coeffs, L, l = pl.random_lemma_case(rng, 15)
            assert pl.lemma_check(coeffs, variant, L, l).holds, (variant, coeffs, L, l)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    ok(2, f"{checked} exact checks, zero violations, {elapsed:.1f}s")


def test_criterion_03_chain_residuals_exactly_zero():
    count = 0
    for d in (3, 5, 7, 9, 11, 13):
        for nu in range(7):
            spec = eb.ModeSpec(d, nu)
            D = spec.lifted_dim
            for kind in (ev.POSITION, ev.VELOCITY):
                for k in range(1, ev.max_admissible_k(D, kind) + 1):
                    sol = ev.chain_lift(spec, k, kind)
                    residual = ev.wave_residual(sol)
                    assert all(c == 0 for c in residual.values()), (d, nu, k, kind)
                    count += 1
    marked = ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION)
    assert marked.c == (Fraction(1), Fraction(-3))
    ok(3, f"{count} chains with zero residual; (d=7, k=2) coefficient is -3")


def test_criterion_04_series_norms_match_quadrature():
    rng = np.random.default_rng(41)
    checked = 0
    for d in (3, 4, 5, 6, 7):
        for _ in range(20):
            data = random_mode(rng, d, int(rng.integers(0, 5)))
            got = eb.series_norms(data)
            want = exterior_norms_quadrature(data)
            for a, b in (
                (got.u1_norm2, want.u1_norm2),
                (got.du0_norm2, want.du0_norm2),
            ):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-14)
            assert got.angular == pytest.approx(want.angular, rel=1e-10, abs=1e-14)
            checked += 1
    ok(4, f"{checked} random modes across d in 3..7 agree to 1e-10")


def test_criterion_05_decay_ratio_and_monotone_tails():
    rng = np.random.default_rng(52)
    for _ in range(10):
        R = float(rng.uniform(0.3, 4.0))
        amp = float(rng.uniform(0.2, 3.0))
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), R, A=[amp])
        chk = eb.decay_bound_check(data, 2.0 * R)
        assert abs(chk.ratio - 1.0) <= 1e-10
        assert not chk.trivial
    suites = 0
    for _ in range(20):
        d = int(rng.choice([3, 4, 5, 6, 7]))
        data = random_mode(rng, d, int(rng.integers(0, 4)))
        radii = data.R * np.geomspace(2.0, 32.0, 9)
        tails = [eb.decay_bound_check(data, R1).tail for R1 in radii]
        assert all(a >= b - 1e-15 * abs(a) for a, b in zip(tails, tails[1:]))
        suites += 1
    ok(5, f"A/r ratio 1 to 1e-10; tails nonincreasing on {suites} random suites")


class TestCriterion06Convergence:
    def test_refinement_ratios_and_drift(self):
        r1 = dalembert_error(401) / dalembert_error(801)
        assert 3.6 <= r1 <= 4.4, r1
        r2 = chain_error(701) / chain_error(1401)
        assert 3.6 <= r2 <= 4.4, r2

        cfg = rs.SolverConfig(r_max=30.0, n_r=2501, t_final=20.0, store_every=50)
        lin = rs.energy_series(rs.solve_mode_linear(compact_bump(cfg, 0.8, 3.0), cfg))
        lin_drift = float(np.max(np.abs(lin - lin[0])) / lin[0])
        assert lin_drift <= 1e-4

        cfg = rs.SolverConfig(
            r_max=30.0, n_r=1501, t_final=20.0,
            nonlinearity="defocusing_quintic", store_every=50,
        )
        traj = rs.solve_quintic(compact_bump(cfg, 0.8, 3.0), cfg)
        assert not traj.blown_up
        nl = rs.energy_series(traj)
        nl_drift = float(np.max(np.abs(nl - nl[0])) / nl[0])
        assert nl_drift <= 1e-3
        ok(
            6,
            f"ratios {r1:.2f}, {r2:.2f} in [3.6, 4.4]; drift to t=20: "
            f"linear {lin_drift:.1e} <= 1e-4, quintic {nl_drift:.1e} <= 1e-3",
        )


class TestCriterion07ChannelIdentity:
    def test_twenty_random_radiating_sets(self):
        rng = np.random.default_rng(7)
        cfg = snapped_config(78.0, 3901, 16.0)
        r = cfg.radial_grid()
        worst = 0.0
        for _ in range(20):
            fld = rad.field_from_profile(band_limited_profile(rng), r)
            report = rad.channel_identity_check(fld, cfg, R=1.0)
            assert report.rhs > 1e-3 * report.total
            assert report.rel_gap <= 0.01
            worst = max(worst, report.rel_gap)
        ok(7, f"20 random data sets balance within 1% (worst gap {worst:.2e})")

    def test_weakly_nonradiative_data_both_sides_vanish(self):
        mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        cfg = snapped_config(8.0, 401, 128.0)
        fld = rs.lifted_field_from_mode(mode, cfg)
        vals = eb.eval_extended(mode, fld.r)
        report = rad.channel_identity_check(fld, cfg, R=1.0, du0=vals.du0_dr)
        assert report.total > 1.0
        assert abs(report.lhs) <= 1e-6 * report.total
        assert abs(report.rhs) <= 1e-6 * report.total
        ok(7, "basis data: both sides below 1e-6 of total energy at T = 128")


def test_criterion_08_radiation_isometry_and_round_trip():
    rng = np.random.default_rng(8)
    worst_iso = 0.0
    worst_rt = 0.0
    for _ in range(50):
        p = band_limited_profile(rng)
        data = rad.inverse_map(p)
        back = rad.forward_map(data.r, data.u0, data.u1)
        ratio = rad.isometry_ratio(back, data.r, data.u0, data.u1)
        worst_iso = max(worst_iso, abs(ratio - 1.0))
        assert ratio == pytest.approx(1.0, rel=1e-6)

        g_back = np.interp(p.s, back.s, back.g)
        err = np.max(np.abs(g_back - p.g)) / np.max(np.abs(p.g))
        worst_rt = max(worst_rt, err)
        assert err <= 1e-8
    ok(8, f"50 profiles: isometry off by <= {worst_iso:.1e}, round trip <= {worst_rt:.1e}")


def test_criterion_09_recursion_limit_and_worst_case_exponent():
    for alpha, l in [(1.0, 5.0), (0.95, 5.0)]:
        params = dl.RecursionParams(alpha, l, 0.1 * params_star(alpha, l))
        seq = dl.gamma_sequence(params, 200)
        assert abs(seq[-1] - params.gamma_star) <= 1e-6
    rng = np.random.default_rng(9)
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 5.0))
        l = float(rng.uniform(1.5, 8.0))
        frac = float(rng.uniform(0.05, 1.0))
        params = dl.RecursionParams(alpha, l, frac * params_star(alpha, l))
        seq = dl.gamma_sequence(params, 200)
        assert abs(seq[-1] - params.gamma_star) <= 1e-6, (alpha, l, frac)

    report = dl.worst_case_S(dl.RecursionParams(1.0, 5.0, 0.1), 1.0, 1e6)
    assert abs(report.exponent - 0.8) <= 0.02, report.exponent
    ok(
        9,
        "gamma limit to 1e-6 within 200 steps on 12 pairs; worst-case "
        f"exponent {report.exponent:.3f} within 0.02 of 0.8 at r/R = 1e6",
    )


def params_star(alpha: float, l: float) -> float:
    return (1.0 - 1.0 / l) * alpha


def test_criterion_10_nonlinear_pipeline_exponents():
    start = time.time()
    mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
    cfg = rs.SolverConfig(r_max=72.0, n_r=3601, t_final=4.0)
    fld = rs.lifted_field_from_mode(mode, cfg)
    report = dl.nonlinear_decay_pipeline(
        fld, "defocusing_quintic", [2.0, 4.0, 8.0, 16.0, 32.0]
    )
    elapsed = time.time() - start

    assert np.all(report.s_report.values <= 1e-9)  # the pipeline's FLOOR_TOL
    assert math.isinf(report.s_report.exponent)
    assert report.dr_u0_report.exponent == pytest.approx(1.0, abs=0.05)
    assert report.l6_report.exponent >= 1.8
    assert elapsed < 600.0
    ok(
        10,
        f"S at floor for r >= R; gradient exponent "
        f"{report.dr_u0_report.exponent:.3f} = 1.00 +- 0.05; quintic tail "
        f"exponent {report.l6_report.exponent:.2f} >= 1.8; {elapsed:.1f}s",
    )
