"""Radiation fields of radial waves in three space dimensions.

The reduction w = r u turns a finite-energy radial pair (u0, u1) into
odd line data, and the evolution into free 1d transport.  The past
radiation field g(s) determines the data up to the static 1/r kernel,
carries exactly half of the doubled energy, and its mass outside a
radius balances the late-time exterior cone energies.  This module
holds the forward and inverse maps, the pull-back of a profile onto a
solver grid, the tail functionals, and the Richardson limit needed to
test that balance on computed solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .radial_solver import (
    NumericalError,
    RadialGridField,
    SolverConfig,
    Trajectory,
    cone_energy,
    solve_mode_linear,
    uniform_step,
)

ArrayLike = Union[float, np.ndarray]

# snapshots T, T/2, T/4, T/8 that channel_identity_check extrapolates in 1/t
_RICHARDSON_NODES = 4


def _gradient4(f: np.ndarray, dx: float) -> np.ndarray:
    """First derivative on a uniform grid, fourth order inside.

    The two cells at each edge use one-sided fourth-order stencils, so
    smooth data keeps O(dx^4) accuracy all the way to the boundary.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 6:
        raise ValueError("need a 1-d array with at least 6 samples")
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * dx)
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * dx)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * dx)
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * dx)
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * dx)
    return out


@dataclass(frozen=True, eq=False)
class RadiationProfile:
    """A line profile g(s) sampled on an increasing grid."""

    s: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "g", g)
        if s.ndim != 1 or s.size < 2 or g.shape != s.shape:
            raise ValueError("profile needs matching 1-d s and g arrays")
        if not np.all(np.diff(s) > 0):
            raise ValueError("s grid must be strictly increasing")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(g))):
            raise ValueError("profile samples must be finite")

    def norm2(self) -> float:
        """int g(s)^2 ds over the sampled window."""
        return float(np.trapezoid(self.g**2, x=self.s))

    def mean(self) -> float:
        """int g(s) ds; equals the 1/r coefficient of the inverse data."""
        return float(np.trapezoid(self.g, x=self.s))

    def tail2(self, r: float) -> float:
        """int_{|s| > r} g(s)^2 ds with interpolated cut points."""
        if r < 0:
            raise ValueError("tail radius must be nonnegative")
        if r == 0.0:
            return self.norm2()
        f = self.g**2
        # right tail [r, s_max] plus left tail [s_min, -r]
        total = _clipped_integral(self.s, f, r, np.inf)
        total += _clipped_integral(self.s, f, -np.inf, -r)
        return total


def _clipped_integral(x: np.ndarray, f: np.ndarray, lo: float, hi: float) -> float:
    """Integral of samples (x, f) restricted to [lo, hi].

    Simpson on the clipped window; the cut endpoints are inserted by
    interpolation, so accuracy near a cut is limited by that local
    linearization rather than by the window length.
    """
    lo = max(lo, float(x[0]))
    hi = min(hi, float(x[-1]))
    if hi <= lo:
        return 0.0
    inside = (x > lo) & (x < hi)
    f_lo, f_hi = np.interp((lo, hi), x, f)
    xs = np.concatenate([[lo], x[inside], [hi]])
    fs = np.concatenate([[f_lo], f[inside], [f_hi]])
    if xs.size < 4:
        return float(np.trapezoid(fs, x=xs))
    return float(_simpson(fs, xs))


def _simpson(y: np.ndarray, x: np.ndarray) -> np.float64:
    """Composite Simpson on strictly increasing nodes x, N >= 3.

    The 1-d case of scipy.integrate.simpson (scipy 1.11 on), in its own
    operations and order, so it returns the same bits: parabolas over
    pairs of intervals and, for an even node count, Cartwright's
    correction for the last interval.  Two steps of scipy's change no
    value here and are left out: its zero-denominator guards, since the
    nodes strictly increase, and its final + 0.0, since the result is
    never -0.0 (the term of y[-3] puts a +0.0 into the sum whenever the
    correction could be -0.0).
    """
    N = y.size
    h = np.diff(x)
    stop = N - 3 if N % 2 == 0 else N - 2
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / h0divh1)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
        + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
    )
    result = np.sum(tmp)
    if N % 2:
        return result
    # The last two spacings as 0-d arrays, as scipy holds them: an array's
    # ** 2 is a square and its ** 3 numpy's power loop, where a float64
    # scalar's go through the C library's pow and differ in the last bit.
    g0, g1 = np.squeeze(h[-2:-1]), np.squeeze(h[-1:])
    alpha = (2 * g1**2 + 3 * g0 * g1) / (6 * (g1 + g0))
    beta = (g1**2 + 3.0 * g0 * g1) / (6 * g0)
    eta = g1**3 / (6 * g0 * (g0 + g1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def tail_S(profile: RadiationProfile, r: float) -> float:
    """sqrt(4 pi int_{|s|>r} g^2 ds), the physical tail mass."""
    return math.sqrt(4.0 * math.pi * profile.tail2(r))


def forward_map(
    r: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    du0: Optional[np.ndarray] = None,
) -> RadiationProfile:
    """Past radiation field of radial data: g(+-r) = ((r u0)' +- r u1) / 2.

    The radial grid must be uniform.  When du0 is omitted, (r u0)' is
    formed with the fourth-order stencil; passing the exact derivative
    removes that error entirely.
    """
    r = np.asarray(r, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if r.ndim != 1 or r.size < 6:
        raise ValueError("need a 1-d radial grid with >= 6 nodes")
    dr = uniform_step(r)
    if r[0] < 0:
        raise ValueError("radial grid must start at r >= 0")
    if du0 is None:
        w0p = _gradient4(r * u0, dr)
    else:
        w0p = u0 + r * np.asarray(du0, dtype=float)
    w1 = r * u1
    g_plus = 0.5 * (w0p + w1)
    g_minus = 0.5 * (w0p - w1)
    if r[0] == 0.0:
        s = np.concatenate([-r[:0:-1], r])
        g = np.concatenate([g_minus[:0:-1], g_plus])
        # both one-sided limits at s = 0 equal u0(0)/2; keep the mean
        g[r.size - 1] = 0.5 * (g_plus[0] + g_minus[0])
    else:
        # synthesize the center sample: w0'(0) = u0(0), and u0 is even
        # in r, so extrapolate it quadratically in r^2 (small weights,
        # no derivative noise)
        x = r[:3] ** 2
        w = np.array(
            [
                np.prod([x[k] / (x[k] - x[j]) for k in range(3) if k != j])
                for j in range(3)
            ]
        )
        g_center = 0.5 * float(w @ u0[:3])
        s = np.concatenate([-r[::-1], [0.0], r])
        g = np.concatenate([g_minus[::-1], [g_center], g_plus])
    return RadiationProfile(s=s, g=g)


def _cumulative4(f: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, fourth order.

    Each cell integrates the cubic through its four nearest samples;
    the result has len(f) entries and starts at zero.
    """
    f = np.asarray(f, dtype=float)
    if f.size < 4:
        raise ValueError("need at least 4 samples")
    seg = np.empty(f.size - 1)
    seg[0] = dx * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]) / 24.0
    seg[1:-1] = dx * (-f[:-3] + 13 * f[1:-2] + 13 * f[2:-1] - f[3:]) / 24.0
    seg[-1] = dx * (f[-4] - 5 * f[-3] + 19 * f[-2] + 9 * f[-1]) / 24.0
    return np.concatenate([[0.0], np.cumsum(seg)])


@dataclass(frozen=True, eq=False)
class RadialData:
    """Radial Cauchy data recovered from a radiation profile."""

    r: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    charge: float


def inverse_map(profile: RadiationProfile) -> RadialData:
    """Reconstruct (u0, u1) on r > 0 from the past radiation field.

    w0' and w1 come from the even/odd parts of g, and w0 is integrated
    from the origin (w0(0) = 0 for bounded u0).  The 1/r coefficient of
    u0 is not free: it equals int g ds and is reported as charge.  The
    profile must have decayed by the edges of its window or the
    reconstruction is truncated there.
    """
    s, g = profile.s, profile.g
    rpos = s[s > 0]
    if rpos.size < 2:
        raise ValueError("profile carries no positive-s samples")
    gp = np.interp(rpos, s, g)
    gm = np.interp(-rpos, s, g)
    w0p = gp + gm
    w1 = gp - gm
    # anchor the cumulative at w0(0) = 0; prepend the origin node
    g0 = np.interp(0.0, s, g)
    r_full = np.concatenate([[0.0], rpos])
    w0p_full = np.concatenate([[2.0 * g0], w0p])
    steps = np.diff(r_full)
    if np.allclose(steps, steps[0], rtol=1e-10, atol=0) and r_full.size >= 4:
        w0 = _cumulative4(w0p_full, float(steps[0]))[1:]
    else:
        w0 = np.cumsum(0.5 * steps * (w0p_full[1:] + w0p_full[:-1]))
    return RadialData(
        r=rpos, u0=w0 / rpos, u1=w1 / rpos, charge=float(w0[-1])
    )


def field_from_profile(profile: RadiationProfile, r: np.ndarray) -> RadialGridField:
    """d = 3 grid data whose past radiation field is `profile`.

    The inverse map's data are interpolated onto r, with zeros past the
    profile's window; the origin node takes the limits u0(0) = 2 g(0) and
    u1(0) = 0, so the grid must start at r = 0.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0 or r[0] != 0.0:
        raise ValueError("the radial grid must start at r = 0")
    data = inverse_map(profile)
    u0 = np.interp(r, data.r, data.u0, left=0.0, right=0.0)
    u0[0] = 2.0 * np.interp(0.0, profile.s, profile.g)
    u1 = np.interp(r, data.r, data.u1, left=0.0, right=0.0)
    u1[0] = 0.0
    return RadialGridField(r=r, u=u0, ut=u1, lifted_dim=3)


def data_norm2(
    r: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    du0: Optional[np.ndarray] = None,
) -> float:
    """Doubled energy integral int (u0'^2 + u1^2) r^2 dr (no 4 pi)."""
    r = np.asarray(r, dtype=float)
    if du0 is None:
        w0p = _gradient4(r * np.asarray(u0, dtype=float), float(r[1] - r[0]))
        du0sq_r2 = (w0p - np.asarray(u0, dtype=float)) ** 2
    else:
        du0sq_r2 = (r * np.asarray(du0, dtype=float)) ** 2
    integrand = du0sq_r2 + (r * np.asarray(u1, dtype=float)) ** 2
    return float(np.trapezoid(integrand, x=r))


def isometry_ratio(
    profile: RadiationProfile,
    r: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    du0: Optional[np.ndarray] = None,
) -> float:
    """data_norm2 / (2 norm2 of `profile`, the data's forward_map); exactly 1 in the limit."""
    denom = 2.0 * profile.norm2()
    if denom == 0.0:
        raise ValueError("radiation-free data has no isometry ratio")
    return data_norm2(r, u0, u1, du0=du0) / denom


def extrapolate_to_zero(xs: Sequence[float], ys: Sequence[ArrayLike]) -> ArrayLike:
    """Lagrange value at x = 0 of the polynomial through (xs, ys).

    Used as Richardson extrapolation with x = 1/t.  Each y may be a
    float or an array of samples (all of one shape), extrapolated
    pointwise.
    """
    xs = [float(x) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching xs and ys with at least two nodes")
    if len(set(xs)) != len(xs):
        raise ValueError("extrapolation nodes must be distinct")
    total = 0.0
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        w = 1.0
        for k, xk in enumerate(xs):
            if k != j:
                w *= xk / (xk - xj)
        total += w * yj
    return float(total) if np.ndim(total) == 0 else total


def _snapshot_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time that equals t up to rounding (1e-9 relative)."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(float(times[idx]) - t) > 1e-9 * abs(t):
        raise NumericalError(
            f"no stored snapshot at t={t:g}; adjust store_every/t_final"
        )
    return idx


def _require_healthy(traj: Trajectory) -> None:
    """Refuse a run stopped by the blow-up threshold: its snapshots end early."""
    if traj.blown_up:
        raise NumericalError(
            f"the linear run blew up; last stored snapshot at t={float(traj.times[-1]):g}"
        )


@dataclass(frozen=True)
class ChannelBalance:
    """Both sides of the exterior energy balance, with context."""

    lhs: float
    rhs: float
    e_plus: float
    e_minus: float
    total: float

    @property
    def rel_gap(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return abs(self.lhs - self.rhs) / scale if scale > 0 else 0.0


def channel_identity_check(
    fld: RadialGridField,
    config: SolverConfig,
    R: float,
    du0: Optional[np.ndarray] = None,
) -> ChannelBalance:
    """Test 4 pi (E_+ + E_-) = 2 tail_S(R)^2 on a computed evolution.

    E_+- are the Richardson limits, in 1/t, of the exterior cone energy
    at T, T/2, T/4 and T/8 (T = config.t_final) for the forward and
    time-reversed runs; each node must be a stored time up to rounding,
    or NumericalError is raised.  One call of solve_mode_linear steps
    both runs together, each bit for bit as a run of its own; the right side comes
    from the forward map of the same initial data.  Both routes are
    independent: one is quadrature on the evolved grid, the other is
    algebra on the data.  A descriptor on `fld` supplies exact exterior
    ghosts for both runs: lifted dimension 3 admits no velocity chain,
    so its chains are even in t and also describe the time-reversed
    data.  Refusals of the forward run come before those of the
    reversed one.
    """
    if fld.lifted_dim != 3:
        raise ValueError("the channel identity is a d = 3 statement")
    if R <= 0:
        raise ValueError("cone radius must be positive")
    t_nodes = [config.t_final / 2**j for j in range(_RICHARDSON_NODES)]
    runs = solve_mode_linear(
        [
            RadialGridField(r=fld.r, u=fld.u, ut=sign * fld.ut, lifted_dim=3, descriptor=fld.descriptor)
            for sign in (1.0, -1.0)
        ],
        config,
    )

    def limit_of(traj: Trajectory) -> float:
        _require_healthy(traj)
        series = cone_energy(traj, R)
        es = [series.values[_snapshot_index(traj.times, t)] for t in t_nodes]
        return extrapolate_to_zero([1.0 / t for t in t_nodes], es)

    e_plus, e_minus = (limit_of(traj) for traj in runs)
    profile = forward_map(fld.r, fld.u, fld.ut, du0=du0)
    rhs = 2.0 * tail_S(profile, R) ** 2
    lhs = 4.0 * math.pi * (e_plus + e_minus)
    total = 4.0 * math.pi * data_norm2(fld.r, fld.u, fld.ut, du0=du0)
    return ChannelBalance(lhs=lhs, rhs=rhs, e_plus=e_plus, e_minus=e_minus, total=total)
