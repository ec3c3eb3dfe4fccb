"""Decay exponents forced by a two-radius recursion, and radial decay reports.

A nonnegative S on [R, inf) that vanishes at infinity and satisfies
S(r2) <= (1/2)(r1/r2)^alpha + (1/2) S^l(r1) for separated radii decays
polynomially: every exponent below (1 - 1/l) alpha is eventually
achieved.  This module iterates the exponent ladder driving that proof,
builds the extremal S saturating the recursion on a geometric grid, and
fits measured exponents.  On top of those sit the d = 3 diagnostics:
radiation tail mass of the data, gradient tail integrals, and
sixth-power cone tails along a defocusing quintic evolution, each
emitted as a log-log decay report.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .radial_solver import (
    RadialGridField,
    SolverConfig,
    l6_tail,
    solve_quintic,
    _moving_tail_integral,
)
from .radiation3 import _gradient4, forward_map, tail_S

# "r2 >> r1 >> R" on the grid: r1 >= INNER_FACTOR * R and
# r2 >= SEPARATION_FACTOR * r1.
INNER_FACTOR = 4.0
SEPARATION_FACTOR = 4.0
# the envelope's geometric grid R * GRID_RATIO^i, and S on its initial band
GRID_RATIO = 1.05
SEED_VALUE = 0.499
# the pipeline's relative zero floor for a tail, the ramp width of its
# sixth-power cutoff, and the snapshots its nonlinear run aims at
FLOOR_TOL = 1e-9
CUTOFF_WIDTH = 4.0
SNAPSHOTS = 32
# most candidate cells one block of envelope rows holds at once
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class RecursionParams:
    """Exponent alpha, power l, and a starting exponent for the ladder."""

    alpha: float
    l: float
    gamma0: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.l > 1:
            raise ValueError("the recursion needs l > 1; l <= 1 never contracts")
        # the fixed point itself is admissible (the ladder is constant there)
        if not 0 < self.gamma0 <= self.gamma_star:
            raise ValueError(
                f"gamma0 must lie in (0, (1 - 1/l) alpha] = (0, {self.gamma_star:g}]"
            )

    @property
    def gamma_star(self) -> float:
        return (1.0 - 1.0 / self.l) * self.alpha


def gamma_sequence(params: RecursionParams, n: int) -> np.ndarray:
    """Ladder gamma_{k+1} = alpha gamma_k l / (alpha + gamma_k l), k = 0..n-1.

    Returns [gamma_0, ..., gamma_n].  The gap to the fixed point
    (1 - 1/l) alpha contracts by exactly alpha / (alpha + gamma_k l)
    per step, so the sequence increases toward it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, l = params.alpha, params.l
    out = np.empty(n + 1)
    out[0] = params.gamma0
    for k in range(n):
        out[k + 1] = a * out[k] * l / (a + out[k] * l)
    return out


@dataclass(frozen=True)
class ExponentFit:
    beta: float
    residual: float


def fit_exponent(
    samples: Union[Sequence[tuple[float, float]], np.ndarray],
) -> ExponentFit:
    """Least-squares power law through (r, value) pairs.

    beta is minus the slope of log value against log r; the residual is
    the RMS misfit in log space.  Needs at least 4 samples, all with
    positive r and value.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise ValueError("need at least 4 (r, value) samples")
    r, v = arr[:, 0], arr[:, 1]
    if not (np.all(r > 0) and np.all(v > 0)):
        raise ValueError("power-law fits need positive radii and values")
    x, y = np.log(r), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ExponentFit(beta=-float(slope), residual=resid)


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Sampled decay curve with its fitted log-log exponent."""

    r: np.ndarray
    values: np.ndarray
    exponent: float
    residual: float

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)
        if r.ndim != 1 or v.shape != r.shape:
            raise ValueError("r and values must be matching 1-d arrays")
        if not np.all(np.diff(r) > 0):
            raise ValueError("sample radii must be strictly increasing")
        if not (np.all(np.isfinite(v)) and np.all(v >= 0)):
            raise ValueError("sampled values must be finite and nonnegative")


def worst_case_S(params: RecursionParams, R: float, r_max: float) -> DecayReport:
    """Extremal S saturating the recursion on a geometric grid.

    Radii run over R * GRID_RATIO^i.  Below 16 R no constraint applies
    and S holds SEED_VALUE; on the band [4 R, (4 R -> 4^l in units
    of R)] the seed bound also caps S; elsewhere S(r2) equals the
    binding constraint, the minimum over admissible r1 of
    (1/2)(r1/r2)^alpha + (1/2) S^l(r1).  Candidates are the grid points
    in [4 R, r2/4] plus the interval endpoints and the two analytic
    probe radii r2^(1/l) and r2^(alpha/(alpha + gamma* l)), evaluated
    by log-log interpolation.

    A row's window ends at r2/4, well below the row, so a run of rows
    whose windows all close below its first row takes its grid minimum
    from one masked (rows x window) array, with S^l formed once for the
    run; the probes then follow row by row.

    The exponent is fitted over the last decade.  The extremal carries
    a slowly varying amplitude on top of r^(-gamma*), so the finite-
    radius slope sits near gamma* with a correction of order 1/log r,
    approaching from either side depending on (alpha, l).
    """
    if not R > 0:
        raise ValueError("R must be positive")
    x_max = r_max / R
    if x_max < 160.0:
        raise ValueError("r_max must reach at least 160 R for a fitted decade")
    x, S = _extremal_S(params, x_max, GRID_RATIO, SEED_VALUE)
    decade = x >= x[-1] / 10.0
    good = decade & (S > 0)
    if int(np.sum(good)) < 4:
        raise ValueError("no positive samples to fit in the final decade")
    fit = fit_exponent(np.column_stack([x[good], S[good]]))
    return DecayReport(r=x * R, values=S, exponent=fit.beta, residual=fit.residual)


def _extremal_S(
    params: RecursionParams, x_max: float, grid_ratio: float, seed_value: float
) -> tuple[np.ndarray, np.ndarray]:
    """(x, S) of the extremal envelope on grid_ratio^i <= x_max."""
    n = int(math.floor(math.log(x_max) / math.log(grid_ratio)))
    x = grid_ratio ** np.arange(n + 1)
    logx = np.log(x).tolist()
    gstar = params.gamma_star
    alpha, l = params.alpha, params.l
    start = INNER_FACTOR * SEPARATION_FACTOR
    band_top = INNER_FACTOR**l
    # admissible grid r1 of row i: indices first <= j < ends[i], all below i
    first = int(np.searchsorted(x, INNER_FACTOR))
    ends = np.searchsorted(x, x / SEPARATION_FACTOR, side="right")

    def s_interp(p: float, i: int) -> float:
        # geometric interpolation from the already-built prefix
        logp = math.log(p)
        j = bisect_left(logx, logp, 0, i)
        if j <= 0:
            return S[0]
        if j >= i:
            return S[i - 1]
        w = (logp - logx[j - 1]) / (logx[j] - logx[j - 1])
        return math.exp((1 - w) * logs[j - 1] + w * logs[j])

    # S of the rows built so far, and the logs that s_interp reads
    seed_value = float(seed_value)
    i = int(np.searchsorted(x, start))
    S = [seed_value] * i
    logs = [math.log(max(seed_value, 1e-300))] * i
    while i <= n:
        # rows i..e-1 read S only below row i; the cap bounds the block's size
        e = int(np.searchsorted(ends, i, side="right"))
        e = min(e, i + max(1, _BLOCK_CELLS // max(1, int(ends[e - 1]) - first)))
        top = int(ends[e - 1])
        best_grid = np.full(e - i, math.inf)
        if top > first:
            cand = 0.5 * (x[first:top] / x[i:e, None]) ** alpha + 0.5 * np.array(S[first:top]) ** l
            cand[np.arange(first, top) >= ends[i:e, None]] = math.inf
            best_grid = cand.min(axis=1)
        for row in range(i, e):
            xi = float(x[row])
            hi = xi / SEPARATION_FACTOR
            best = float(best_grid[row - i])
            probes = [
                INNER_FACTOR,
                hi,
                xi ** (1.0 / l),
                xi ** (alpha / (alpha + gstar * l)),
            ]
            for p in probes:
                if INNER_FACTOR <= p <= hi:
                    sp = s_interp(p, row)
                    best = min(best, 0.5 * (p / xi) ** alpha + 0.5 * sp**l)
            if xi <= band_top:
                best = min(best, seed_value)
            S.append(best)
            logs.append(math.log(max(best, 1e-300)))
        i = e
    return x, np.array(S)


# ---------------------------------------------------------------------------
# the d = 3 decay pipeline


def _initial_slope(data: RadialGridField) -> np.ndarray:
    """du0/dr on the grid, exact where the descriptor covers the exterior."""
    du0 = _gradient4(data.u, data.dr)
    cov = data.descriptor.covers(data.r, 0.0)
    if np.any(cov):
        du0[cov] = data.descriptor.eval(data.r[cov], 0.0).ur
    return du0


def _fit_or_floor(r: np.ndarray, values: np.ndarray, floor: float) -> ExponentFit:
    # values at or below the floor are treated as exact zeros; a curve
    # that sits entirely at the floor decays faster than any power law
    live = values > floor
    if int(np.sum(live)) < 4:
        return ExponentFit(beta=math.inf, residual=0.0)
    return fit_exponent(np.column_stack([r[live], values[live]]))


@dataclass(frozen=True)
class PipelineReport:
    """The three decay reports plus the run geometry that produced them."""

    s_report: DecayReport
    dr_u0_report: DecayReport
    l6_report: DecayReport
    cutoff: tuple[float, float]
    t_end: float


def nonlinear_decay_pipeline(
    data: RadialGridField,
    nonlinearity: str,
    probe_radii: Sequence[float],
    t_final: float = 4.0,
) -> PipelineReport:
    """Radiation, gradient, and sixth-power decay of d = 3 radial data.

    Three independent measurements at each probe radius rho:

      s_report      tail mass sqrt(4 pi int_{|s|>rho} g^2 ds) of the
                    past radiation profile of (u0, u1);
      dr_u0_report  int_{r>rho} (du0/dr)^2 r^2 dr, grid quadrature plus
                    the descriptor's exact beyond-grid tail;
      l6_report     max_t int_{|x|>rho+|t|} |u|^6 dx along a nonlinear
                    run of the data, compactified outside every
                    diagnostic cone so the far boundary stays silent.

    Exponents are log-log fits over the probes; curves resting at the
    floor get exponent inf.  Data without a descriptor is rejected,
    since only basis-backed exteriors certify the non-radiative
    hypothesis the reports speak to.
    """
    if data.lifted_dim != 3:
        raise ValueError("the decay pipeline takes physical d = 3 radial data")
    if data.descriptor is None:
        raise ValueError("data carries no exterior descriptor")
    probes = np.asarray(probe_radii, dtype=float)
    if probes.ndim != 1 or probes.size < 4:
        raise ValueError("need at least 4 probe radii")
    if not (np.all(np.diff(probes) > 0) and probes[0] > 0):
        raise ValueError("probe radii must be positive and strictly increasing")
    r = data.r
    if probes[-1] >= r[-1]:
        raise ValueError("probe radii must stay inside the grid")
    if not t_final > 0:
        raise ValueError("t_final must be positive")

    du0 = _initial_slope(data)

    # (a) radiation tail of the data
    profile = forward_map(r, data.u, data.ut, du0=du0)
    s_values = np.array([tail_S(profile, float(p)) for p in probes])
    grad_mass = float(np.trapezoid(du0**2 * r**2, r))
    s_scale = math.sqrt(4.0 * math.pi * grad_mass) if grad_mass > 0 else 1.0
    s_fit = _fit_or_floor(probes, s_values, FLOOR_TOL * s_scale)
    s_report = DecayReport(
        r=probes, values=s_values, exponent=s_fit.beta, residual=s_fit.residual
    )

    # (b) gradient tails; the exterior families carry no velocity part
    # in d = 3, so the descriptor tail is purely the du0 integral
    integrand = du0**2 * r**2
    beyond = data.descriptor.exterior_energy(float(r[-1]), 0.0)
    b_values = np.array(
        [_moving_tail_integral(r, float(p), integrand) + beyond for p in probes]
    )
    b_fit = _fit_or_floor(probes, b_values, FLOOR_TOL * max(grad_mass, 1e-300))
    dr_u0_report = DecayReport(
        r=probes, values=b_values, exponent=b_fit.beta, residual=b_fit.residual
    )

    # (c) sixth-power cone tails along the nonlinear run
    config = SolverConfig(
        r_max=float(r[-1]),
        n_r=int(r.size),
        t_final=t_final,
        nonlinearity=nonlinearity,
    )
    config = replace(config, store_every=max(1, config.raw_steps // SNAPSHOTS))
    t_end = config.n_steps * config.dt
    c0 = float(probes[-1]) + 2.0 * t_end + 2.0 * data.dr
    c1 = c0 + CUTOFF_WIDTH
    required = c1 + 2.0 * t_end / config.cfl + 2.0 * data.dr
    if float(r[-1]) < required:
        raise ValueError(
            f"grid too small for the compactified nonlinear stage; "
            f"need r_max >= {required:.3f}"
        )
    s = np.clip((r - c0) / (c1 - c0), 0.0, 1.0)
    chi = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    cut = RadialGridField(r=r, u=data.u * chi, ut=data.ut * chi, lifted_dim=3)
    traj = solve_quintic(cut, config)
    l6_values = l6_tail(traj, probes)
    six_mass = float(np.trapezoid(4.0 * math.pi * data.u**6 * r**2, r))
    l6_fit = _fit_or_floor(probes, l6_values, FLOOR_TOL * max(six_mass, 1e-300))
    l6_report = DecayReport(
        r=probes, values=l6_values, exponent=l6_fit.beta, residual=l6_fit.residual
    )

    return PipelineReport(
        s_report=s_report,
        dr_u0_report=dr_u0_report,
        l6_report=l6_report,
        cutoff=(c0, c1),
        t_end=float(traj.times[-1]),
    )
