"""The benchmark's four workloads: seeded inputs, timed calls and their checks.

A workload hands out rounds.  Each round is a fixed list of operations of
the same kinds, with inputs drawn from the run's seed, so every run
attempts whole rounds and a failure that a fault causes on every round
keeps the same share of the operations.  An operation is one call into
the package (timed) and one check of its output made apart from the
package (not timed).

The workloads reach the package only through module attributes, looked up
at call time, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks

VARIANTS = ("sup_odd", "deriv_odd", "sup_even", "deriv_even")

# named program faults that a check may attribute a failure to
PHASE_ERROR = "second-order phase error of the leapfrog scheme (ROADMAP item 4)"
L6_CUTOFF = "pipeline l6 stage compactifies inside the probes' windows (ROADMAP item 4)"


@dataclass
class Outcome:
    """Result of one check; `fault` names the known program fault behind a failure."""

    passed: bool
    fault: Optional[str] = None
    detail: str = ""


PASS = Outcome(True)


def fail(detail: str, fault: Optional[str] = None) -> Outcome:
    return Outcome(False, fault, detail)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


class Workload:
    name = ""
    MODULES: dict[str, str] = {}  # attribute -> wavechannel module the workload calls into

    def __init__(self, seed: int, tiny: bool, tracer: Any, workdir: Path):
        for attr, module in self.MODULES.items():
            setattr(self, attr, importlib.import_module(f"wavechannel.{module}"))
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.workdir = workdir
        self.cone_gap = 0.0
        self.balance_gap = 0.0
        self.kept_failures: dict[str, str] = {}  # named fault -> one failure's detail

    def round(self) -> list[Op]:
        """The next round: the same operation kinds every time, fresh seeded inputs."""
        raise NotImplementedError

    def warmup(self) -> Op:
        """The operation that set-up runs once before timing starts."""
        return self.round()[0]

    def echo(self) -> dict:
        """Correctness figures for the run record."""
        return {}


# ---------------------------------------------------------------------------
# exact-audit


class ExactAudit(Workload):
    """Exact rational kernels: interval inequalities, chains, norms, envelopes."""

    name = "exact-audit"
    MODULES = {"dl": "decay_lab", "ev": "exact_evolution", "eb": "exterior_basis", "pl": "polylib"}
    PAIRS = ((1.0, 5.0), (0.95, 5.0), (0.5, 3.0), (2.0, 2.0))

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = random.Random(self.seed)
        self.nrng = np.random.default_rng(self.seed)
        self.violations = 0
        self.min_margin = math.inf
        self.envelope_exponent = math.nan

    def round(self) -> list[Op]:
        degrees = (2, 15) if self.tiny else range(16)
        ops = []
        for variant in VARIANTS:
            # criterion 02's generator, one draw per degree 0..15, plus one
            # draw of degree 17..20, past the Sturm branch of the sup sides
            for degree in (*degrees, self.rng.randint(17, 20)):
                ops.append(self._lemma_op(variant, degree))
        for d in (3,) if self.tiny else (3, 5, 7, 9, 11, 13):
            ops.append(Op("chains", lambda d=d: self._chain_sweep(d), lambda out, d=d: self._check_chains(d, out)))
        for _ in range(1 if self.tiny else 8):
            ops.append(self._norms_op())
        for alpha, l in self.PAIRS[:1] if self.tiny else self.PAIRS:
            ops.append(self._envelope_op(alpha, l))
        return ops

    def _lemma_op(self, variant: str, degree: int) -> Op:
        rng = self.rng
        draw = lambda: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]  # noqa: E731
        coeffs = draw()
        # Left out: a sup side whose critical-point polynomial has a double
        # root at z = 0, where isolate_real_roots misses interior roots (see
        # the FOUND line in CHANGES.md).  Redrawn, so the stream stays seeded.
        while variant.startswith("sup") and _double_root_at_zero(coeffs, variant):
            coeffs = draw()
        L = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        l = L * Fraction(rng.randint(1, 4), 8)
        # Above degree 15 the sup side takes each critical point from a sign
        # change on a Chebyshev grid plus one Newton step, so lhs may fall
        # short of the sup (by up to 2e-8 relative on seeds 1-3); allow 1e-6.
        sup_tol = 1e-6 if variant.startswith("sup") and degree > 15 else 1e-9

        def check(chk) -> Outcome:
            if not (chk.holds and chk.lhs <= chk.rhs):
                self.violations += 1
                return fail(f"{variant} violated: lhs {float(chk.lhs)!r} > rhs {float(chk.rhs)!r}")
            if chk.rhs > 0 and degree > 0:  # a constant P makes sup_odd an equality
                self.min_margin = min(self.min_margin, float((chk.rhs - chk.lhs) / chk.rhs))
            lhs, rhs = checks.lemma_reference(coeffs, variant, L, l)
            if checks.rel_gap(float(chk.rhs), rhs) > 1e-9:
                return fail(f"{variant} degree {degree}: rhs {float(chk.rhs)!r} vs quadrature {rhs!r}")
            # a value of the objective never exceeds its sup
            if not lhs * (1.0 - sup_tol) <= float(chk.lhs) <= lhs * (1.0 + 1e-9):
                return fail(f"{variant} degree {degree}: lhs {float(chk.lhs)!r} vs reference {lhs!r}")
            return PASS

        return Op("lemma_check", lambda: self.pl.lemma_check(coeffs, variant, L, l), check)

    def _chain_sweep(self, d: int) -> list:
        ev, eb = self.ev, self.eb
        out = []
        for nu in range(7):
            spec = eb.ModeSpec(d, nu)
            D = spec.lifted_dim
            for kind in (ev.POSITION, ev.VELOCITY):
                for k in range(1, ev.max_admissible_k(D, kind) + 1):
                    sol = ev.chain_lift(spec, k, kind)
                    out.append((D, k, kind, sol.monomials(), ev.wave_residual(sol), ev.cone_energy_terms(sol)))
        return out

    def _check_chains(self, d: int, out: list) -> Outcome:
        if not out:
            return fail(f"no chains for d={d}")
        for D, k, kind, monomials, res, terms in out:
            velocity = kind == self.ev.VELOCITY
            if [c for c, _, _ in monomials] != checks.chain_coefficients(D, k, velocity):
                return fail(f"D={D} k={k} {kind}: coefficients differ from the operator's recursion")
            if res or checks.residual(monomials, D):
                return fail(f"D={D} k={k} {kind}: residual not identically zero")
            floats = [(float(c), a, b) for c, a, b in monomials]
            for t in (0.0, 1.0, 3.0):
                rho = 1.0 + t
                closed = sum(float(term.coeff) * t**term.t_power * rho**term.base_power for term in terms)
                gap = checks.rel_gap(closed, checks.exterior_energy(floats, D, rho, t))
                self.cone_gap = max(self.cone_gap, gap)
                if gap > 1e-10:
                    return fail(f"D={D} k={k} {kind}: cone energy at t={t} off by {gap:.2e}")
        return PASS

    def _norms_op(self) -> Op:
        eb, rng = self.eb, self.nrng
        # criterion 04's random mode
        spec = eb.ModeSpec(int(rng.choice([3, 4, 5, 6, 7])), int(rng.integers(0, 5)))
        R = float(rng.uniform(0.5, 3.0))
        A = rng.uniform(-2, 2, size=spec.k1_max)
        B = rng.uniform(-2, 2, size=spec.k2_max)
        data = eb.build_exterior_mode(spec, R, A, B)

        def check(got) -> Outcome:
            want = checks.mode_norms(spec.d, spec.nu, R, A, B)
            have = (got.angular, got.u1_norm2, got.du0_norm2)
            for g, w in zip(have, want):
                if abs(g - w) > 1e-10 * abs(w) + 1e-14:
                    return fail(f"(d, nu)=({spec.d}, {spec.nu}): norms {have} vs quadrature {want}")
            self.balance_gap = max(self.balance_gap, checks.rel_gap(sum(have), sum(want)))
            return PASS

        return Op("series_norms", lambda: eb.series_norms(data), check)

    def _envelope_op(self, alpha: float, l: float) -> Op:
        dl = self.dl
        params = dl.RecursionParams(alpha, l, 0.1 * (1 - 1 / l) * alpha)

        def check(rep) -> Outcome:
            x, S = np.asarray(rep.r), np.asarray(rep.values)
            if not (np.all(S > 0) and np.all(S < 0.5)):
                return fail(f"({alpha}, {l}): envelope leaves (0, 1/2)")
            slack = checks.recursion_slack(x, S, alpha, l)
            if slack > 1e-12:
                return fail(f"({alpha}, {l}): envelope breaks the recursion by {slack:.2e}")
            if (alpha, l) == (1.0, 5.0):
                decade = x >= x[-1] / 10.0
                beta = checks.loglog_slope(x[decade], S[decade])
                self.envelope_exponent = beta
                if abs(beta - 0.8) > 0.02 or abs(rep.exponent - 0.8) > 0.02:
                    return fail(f"(1, 5) exponent {beta:.4f} (program {rep.exponent:.4f}) not within 0.02 of 0.8")
            return PASS

        return Op("worst_case_S", lambda: dl.worst_case_S(params, 1.0, 1e6), check)

    def echo(self) -> dict:
        return {
            "lemma_violations": self.violations,
            "lemma_min_relative_margin_degree_ge_1": self.min_margin if math.isfinite(self.min_margin) else None,
            "envelope_exponent_1_5": self.envelope_exponent,
        }


def _double_root_at_zero(coeffs: list, variant: str) -> bool:
    """Whether the critical-point polynomial of a sup side vanishes to second order at 0.

    sup_odd maximises P^2, whose critical points are the roots of P'
    (coefficients (j+1) c_(j+1)); sup_even maximises z P^2, critical
    where P + 2 z P' = 0 (coefficients (2j+1) c_j).
    """
    if variant == "sup_odd":
        crit = [(j + 1) * c for j, c in enumerate(coeffs[1:])]
    else:
        crit = [(2 * j + 1) * c for j, c in enumerate(coeffs)]
    return crit[:2] == [0, 0] and any(crit[2:])


# ---------------------------------------------------------------------------
# mode-evolution


class ModeEvolution(Workload):
    """Basis-backed exterior data evolved with exact descriptor ghosts."""

    name = "mode-evolution"
    MODULES = {"eb": "exterior_basis", "rs": "radial_solver"}
    # (d, nu, draws per round): a single chain's relative gaps do not depend
    # on its coefficient, a two-chain mode's depend on the ratio, so the
    # two-chain modes take two draws
    MODES = ((3, 0, 1), (4, 0, 1), (5, 0, 2), (3, 1, 2))
    GRIDS = (801, 1601)  # the energy subcommand's grid, and twice as fine

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed)

    def round(self) -> list[Op]:
        modes = self.MODES[:1] if self.tiny else self.MODES
        return [self._op(d, nu) for d, nu, draws in modes for _ in range(draws)]

    def _coeffs(self, n: int) -> np.ndarray:
        return self.rng.uniform(0.5, 2.0, size=n) * self.rng.choice([-1.0, 1.0], size=n)

    def _op(self, d: int, nu: int) -> Op:
        eb, rs = self.eb, self.rs
        spec = eb.ModeSpec(d, nu)
        A, B = self._coeffs(spec.k1_max), self._coeffs(spec.k2_max)
        data = eb.build_exterior_mode(spec, 1.0, A, B)
        D = d + 2 * nu
        monomials = checks.mode_monomials(D, A, B)

        def call():
            out = []
            for n_r in self.GRIDS:
                cfg = rs.SolverConfig(
                    r_max=16.0, n_r=n_r, t_final=4.0, cfl=0.45, store_every=50 * (n_r - 1) // 800
                )
                traj = rs.solve_mode_linear(rs.lifted_field_from_mode(data, cfg), cfg)
                out.append((traj.blown_up, rs.cone_energy(traj, 1.0), rs.energy_series(traj)))
            return out

        def check(out) -> Outcome:
            gaps = []
            for n_r, (blown_up, series, total) in zip(self.GRIDS, out):
                # first order in dr: the C1 interior blend limits the
                # refinement ratio to about 2.5 (between first and second order)
                tol = 0.01 * 800 / (n_r - 1)
                if blown_up or series.truncated:
                    return fail(f"({d}, {nu}) n_r={n_r}: blown_up={blown_up}, truncated={series.truncated}")
                exact = np.array([checks.exterior_energy(monomials, D, 1.0 + abs(t), t) for t in series.times])
                gap = float(np.max(np.abs(series.values - exact)) / np.max(exact))
                beyond = np.array([checks.exterior_energy(monomials, D, 16.0, t) for t in series.times])
                whole = np.asarray(total) + beyond
                balance = float(np.max(np.abs(whole - whole[0])) / whole[0])
                self.cone_gap = max(self.cone_gap, gap)
                self.balance_gap = max(self.balance_gap, balance)
                if gap > tol or balance > tol:
                    return fail(f"({d}, {nu}) n_r={n_r}: cone gap {gap:.2e}, energy balance {balance:.2e} > {tol:.2e}")
                gaps.append(gap)
            if gaps[0] < 2.0 * gaps[1]:
                return fail(f"({d}, {nu}): halving dr cut the cone gap by only {gaps[0] / gaps[1]:.2f}")
            return PASS

        return Op(f"mode_{d}_{nu}", call, check)


# ---------------------------------------------------------------------------
# radiating-balance


class RadiatingBalance(Workload):
    """Random radiating data: the exterior-energy identity on computed runs."""

    name = "radiating-balance"
    MODULES = {"rs": "radial_solver", "rad": "radiation3"}
    R = 1.0
    KEPT_FAILURE = 3

    def __init__(self, *args):
        super().__init__(*args)
        # scripts/channel_balance.py at its defaults: seed 0, 8 profiles,
        # r_max 78, n_r 3901, T 16, with dt snapped so dyadic times are stored
        base = np.random.default_rng(0)
        self.profiles = [checks.BandProfile(base.normal(size=(5, 2))) for _ in range(8)]
        r_max, n_r, t_final = 78.0, 3901, 16.0
        dr = r_max / (n_r - 1)
        n_total = 8 * math.ceil(t_final / (8 * 0.45 * dr))
        self.config = self.rs.SolverConfig(
            r_max=r_max, n_r=n_r, t_final=t_final, cfl=(t_final / n_total) / dr, store_every=n_total // 8
        )
        self.r = self.config.radial_grid()
        self.rng = np.random.default_rng(self.seed)

    def round(self) -> list[Op]:
        # the seed draws an amplitude, a sign and a mirror s -> -s for each
        # profile; the identity's relative gaps are invariant under all
        # three.  Profile 3 (gap 1.11e-2, the kept failure) runs as the
        # script draws it, so its input does not depend on the seed.
        picks = (3, 0) if self.tiny else range(len(self.profiles))
        ops = []
        for i in picks:
            scale = float(self.rng.uniform(0.5, 2.0) * self.rng.choice([-1.0, 1.0]))
            mirror = bool(self.rng.integers(0, 2))
            ops.append(self._op(i, 1.0, False) if i == self.KEPT_FAILURE else self._op(i, scale, mirror))
        return ops

    def _op(self, i: int, scale: float, mirror: bool) -> Op:
        rs, rad, r = self.rs, self.rad, self.r
        prof = self.profiles[i]
        profile = rad.RadiationProfile(s=prof.s, g=prof.g(prof.s, scale, mirror))

        def call():
            data = rad.inverse_map(profile)
            u0 = np.interp(r, data.r, data.u0, left=0.0, right=0.0)
            u0[0] = 2.0 * np.interp(0.0, profile.s, profile.g)
            u1 = np.interp(r, data.r, data.u1, left=0.0, right=0.0)
            u1[0] = 0.0
            fld = rs.RadialGridField(r=r, u=u0, ut=u1, lifted_dim=3)
            report = rad.channel_identity_check(fld, self.config, R=self.R)
            return report, rad.forward_map(data.r, data.u0, data.u1)

        def check(out) -> Outcome:
            report, back = out
            g_back = np.interp(profile.s, back.s, back.g)
            trip = float(np.max(np.abs(g_back - profile.g)) / np.max(np.abs(profile.g)))
            if trip > 1e-8:
                return fail(f"profile {i}: forward_map(inverse_map(g)) off by {trip:.2e}")
            if not report.rhs > 1e-3 * report.total:
                return fail(f"profile {i}: tail mass {report.rhs:.3e} below 1e-3 of the energy")
            # E+ carries the part of g on s < -R and E- the part on s > R:
            # E+- = 2 int g^2 ds over that side of the closed-form profile
            hw = prof.half_width
            sides = [
                checks.rel_gap(e, 2.0 * prof.tail2(lo, hi, scale, mirror))
                for e, lo, hi in ((report.e_plus, -hw, -self.R), (report.e_minus, self.R, hw))
            ]
            self.cone_gap = max(self.cone_gap, *sides)
            self.balance_gap = max(self.balance_gap, report.rel_gap)
            if report.rel_gap > 0.01:
                return fail(f"profile {i}: 4pi(E+ + E-) vs 2 S(R)^2 gap {report.rel_gap:.3e} > 1%", PHASE_ERROR)
            if max(sides) > 0.02:
                return fail(f"profile {i}: one-sided exterior energies off their closed forms by {sides}")
            return PASS

        return Op("channel_identity", call, check)


# ---------------------------------------------------------------------------
# readme-cli


class ReadmeCli(Workload):
    """The README's command lines, in process, through wavechannel.cli.run."""

    name = "readme-cli"
    MODULES = {"cli": "cli"}
    PIPELINE = {"R": 1.0, "A": [1.0], "r_max": 72.0, "n_r": 3601, "probe_radii": [2.0, 4.0, 8.0, 16.0, 32.0]}

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed)
        # saved under a name that is not the pipeline's output
        self.pipeline_config = self.workdir / "pipeline_config.json"
        self.pipeline_config.write_text(json.dumps(self.PIPELINE))
        self.exponents: dict = {}

    def round(self) -> list[Op]:
        amp = lambda: repr(float(self.rng.uniform(0.5, 2.0)))  # noqa: E731
        a_basis, a_evolve, a_energy, a_rad = amp(), amp(), amp(), amp()
        return [
            self._op(f"basis --d 3 --nu 0 --R 1 --A {a_basis} --check part2 part3".split(), self._basis(float(a_basis))),
            self._op(f"evolve --exact --d 3 --A {a_evolve} --t-final 4".split(), self._evolve(float(a_evolve))),
            self._op(f"energy --d 3 --A {a_energy} --cone-radius 2".split(), self._energy(float(a_energy))),
            self._op(f"radiation --gaussian {a_rad} 1.5".split(), self._radiation),
            self._op("nlw --gaussian 0.5 1.5 --r-max 32 --probe-radii 4 8".split(), self._nlw),
            self._op(["pipeline", "--config", str(self.pipeline_config)], self._pipeline),
        ]

    def _op(self, args: list[str], check: Callable[[Path], Outcome]) -> Op:
        name = args[0]
        base = self.workdir / name
        argv = args + ["--out", str(base)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.run(argv)

        def checked(code: int) -> Outcome:
            try:
                if code != 0:
                    return fail(f"{name} exited {code}")
                return check(base)
            finally:
                for f in self.workdir.glob(f"{name}.*"):
                    self.tracer.count("cli.artifact_bytes", f.stat().st_size)
                    f.unlink()

        return Op(f"cli_{name}", call, checked)

    @staticmethod
    def _report(base: Path) -> dict:
        return json.loads(base.with_name(base.name + ".json").read_text())["report"]

    @staticmethod
    def _csv(base: Path, ext: str) -> np.ndarray:
        return np.loadtxt(base.with_name(base.name + ext), delimiter=",", skiprows=1, ndmin=2)

    def _basis(self, A: float) -> Callable[[Path], Outcome]:
        def check(base: Path) -> Outcome:
            rep = self._report(base)
            part2, part3 = rep["part2"], rep["part3"]
            # u0 = A/r on r > 1: int |u0'|^2 r^2 dr = A^2, and the R1 = 2 tail is half of it
            if checks.rel_gap(part2["du0_norm2"], A * A) > 1e-12 or part2["u1_norm2"] != 0 or part2["angular"] != 0:
                return fail(f"basis norms {part2} for A={A}")
            if len(part3) != 1 or abs(part3[0]["ratio"] - 1.0) > 1e-10:
                return fail(f"basis decay ratio {part3}")
            return PASS

        return check

    def _evolve(self, A: float) -> Callable[[Path], Outcome]:
        def check(base: Path) -> Outcome:
            rows = self._csv(base, ".csv")
            t, r, u, ut = rows.T
            if rows.shape[0] == 0 or np.any(r - t <= 1.0):
                return fail("evolve rows outside the exterior region r - t > R")
            err = float(np.max(np.abs(u * r / A - 1.0)))
            if err > 1e-12 or np.any(ut != 0.0):
                return fail(f"evolve rows differ from A/r by {err:.2e}")
            return PASS

        return check

    def _energy(self, A: float) -> Callable[[Path], Outcome]:
        def check(base: Path) -> Outcome:
            t, e = self._csv(base, ".csv").T
            exact = A * A / (2.0 + t)
            gap = float(np.max(np.abs(e - exact)) / np.max(exact))
            self.cone_gap = max(self.cone_gap, gap)
            if gap > 1e-3:
                return fail(f"energy series off A^2/(2+t) by {gap:.2e}")
            return PASS

        return check

    def _radiation(self, base: Path) -> Outcome:
        rep = self._report(base)
        gap = abs(rep["isometry_ratio"] - 1.0)
        self.balance_gap = max(self.balance_gap, gap)
        tails = [x["tail"] for x in rep["tails"]]
        if gap > 1e-6 or any(b > a for a, b in zip(tails, tails[1:])):
            return fail(f"radiation isometry ratio {rep['isometry_ratio']!r}, tails {tails}")
        return PASS

    def _nlw(self, base: Path) -> Outcome:
        rep = self._report(base)
        e = self._csv(base, ".csv")[:, 1]
        drift = float((np.max(e) - np.min(e)) / e[0])
        if rep["blown_up"] or drift > 1e-3 or checks.rel_gap(drift, rep["relative_drift"]) > 1e-9:
            return fail(f"quintic energy drift {drift:.2e} (reported {rep['relative_drift']!r})")
        return PASS

    def _pipeline(self, base: Path) -> Outcome:
        rep = self._report(base)
        self.exponents = {k: rep[k]["exponent"] for k in ("radiation_tail", "gradient_tail", "sixth_power_tail")}
        rho, grad = self._csv(base, ".dru0.csv").T
        if np.max(np.abs(grad * rho - 1.0)) > 1e-4:
            return fail(f"gradient tails {grad} differ from 1/rho")
        _, s_tail = self._csv(base, ".s.csv").T
        if rep["radiation_tail"]["exponent"] != "inf" or np.max(s_tail) > 1e-8:
            return fail(f"radiation tails {s_tail} not at the floor")
        rho, l6 = self._csv(base, ".l6.csv").T
        if not rep["sixth_power_tail"]["truncated"]:
            # the max over t includes t = 0, where the tail of u0 = 1/r is 4 pi/(3 rho^3)
            floor = 4.0 * math.pi / (3.0 * rho**3) * (1.0 - 1e-4)
            short = rho[l6 < floor]
            if short.size:
                ratios = ", ".join(f"{v:.4f}" for v in l6 * 3.0 * rho**3 / (4.0 * math.pi))
                return fail(f"sixth-power tails below the t=0 tail at rho={short.tolist()} (ratios {ratios})", L6_CUTOFF)
        return PASS

    def echo(self) -> dict:
        return {"pipeline_exponents": self.exponents}


WORKLOADS = {w.name: w for w in (ExactAudit, ModeEvolution, RadiatingBalance, ReadmeCli)}
