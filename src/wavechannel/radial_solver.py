"""Finite-difference evolution of radial wave equations.

Two equations are covered on a uniform radial grid:

    lifted linear:  u_tt = u_rr + ((D-1)/r) u_r            (any D >= 2)
    radial quintic: u_tt = u_rr + (2/r) u_r + F(u),  d = 3, |F(u)| <= C|u|^5

The scheme is leapfrog in time with centered second-order space, folded
into three diagonals built once per run: the centred interior rows and
the even-parity origin row (the operator's limit D * u_rr at r = 0).
Each time level carries one extra slot, at index n_r, that holds the
ghost value at r_max + dr, so the last row is an ordinary row whose
upper weight reads that slot and a step is a few array passes.  Grids
start at r = 0.  The outer edge is closed either by exact ghost values
from an ExteriorDescriptor (linear runs: basis data evolves in closed
form, so the boundary is exact) or by quadratic extrapolation, in which
case the numerical domain of dependence shrinks by exactly one cell per
step and every diagnostic accounts for that contaminated band.

With extrapolated ghosts a step updates only a leading window of rows.
Rows past the support of the first two time levels hold +0 and a row
whose stencil reads only +0 steps to +0, so the window follows the
numerical domain of dependence outward (64 rows every 64 steps) and
covers the grid once it nears the edge; the ghost is formed only from
then on.  It changes no bit of any snapshot; descriptor runs step every
row from the start.

Initial data is a RadialGridField.  A run writes its stored steps into
one (n_snap, n_r) stack each of u and u_t, held by a Trajectory, and the
diagnostics read the whole stack.  Fields that share a grid, lifted
dimension and descriptor can be stepped as one run (a TrajectoryBatch):
the runs are interleaved row by row, so a step costs the per-call
overhead of one run, and each run's snapshots are bit for bit those of
a run of its own.  The channel identity steps its forward and
time-reversed runs this way.

Cone-energy diagnostics follow the lifted single-mode convention
int (u_t^2 + u_r^2) r^(D-1) dr without a sphere-area factor; the
nonlinear d = 3 diagnostic (the sixth-power tail) is a
physical-space integral and carries the 4 pi.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exact_evolution import ExteriorDescriptor, descriptor_for_mode
from .exterior_basis import ExteriorModeData, ModeSpec, build_exterior_mode, eval_extended

NONLINEARITIES = ("none", "defocusing_quintic", "focusing_quintic")
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_BLOCK = 64  # steps between window updates, and the rows the window grows by each time


class NumericalError(ValueError):
    """A run or diagnostic that failed numerically rather than on bad input."""


@dataclass(frozen=True)
class SolverConfig:
    """Grid, stepping, and equation selection for one run.

    The grid is n_r uniform nodes on [0, r_max]; the stepper's origin
    row is the parity closure.  That closure tightens the usable Courant
    number to about sqrt(2/D) in lifted dimension D; the default cfl
    0.45 is inside that limit for every D <= 9, and _solve rejects
    anything beyond it.
    That limit does not make runs stable for D >= 6: next to the origin
    the centred ((D-1)/r) u_r stencil has complex eigenvalues there, and
    runs blow up after a few time units at any cfl (ROADMAP item 1).
    """

    r_max: float
    n_r: int
    t_final: float
    cfl: float = 0.45
    nonlinearity: str = "none"
    store_every: int = 1
    blowup_threshold: float = 1e8

    def __post_init__(self) -> None:
        for name in ("r_max", "t_final", "cfl"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("n_r", "store_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.r_max > 0:
            raise ValueError("need r_max > 0")
        if self.n_r < 8:
            raise ValueError("grid too small to carry the stencil")
        if not 0 < self.cfl < 1:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(
                f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}"
            )
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        if not self.blowup_threshold >= 0:
            raise ValueError(f"blowup_threshold must be >= 0 or inf, got {self.blowup_threshold}")

    @property
    def dr(self) -> float:
        return self.r_max / (self.n_r - 1)

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def raw_steps(self) -> int:
        """Number of steps of size dt closest to t_final (at least one)."""
        return max(1, int(round(self.t_final / self.dt)))

    @property
    def stride(self) -> int:
        """Steps between stored snapshots."""
        return min(self.store_every, self.raw_steps)

    @property
    def n_steps(self) -> int:
        """Steps taken: whole strides, so the snapshot cadence is uniform."""
        return self.stride * math.ceil(self.raw_steps / self.stride)

    def radial_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_r)


def uniform_step(r: np.ndarray) -> float:
    """Step of a uniform increasing grid; ValueError for any other grid.

    Building a grid rounds each node by a few eps * max|r|, so steps
    may differ by that much.
    """
    steps = np.diff(r)
    h = float(steps[0])
    tol = 1e-9 * abs(h) + 64.0 * _EPS * max(abs(float(r[0])), abs(float(r[-1])))
    if not (steps.min() > 0 and np.max(np.abs(steps - h)) <= tol):
        raise ValueError("radial grid must be uniform and increasing")
    return h


@dataclass(frozen=True, eq=False)
class RadialGridField:
    """Initial data (u, u_t) of a radial profile in lifted dimension D."""

    r: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    lifted_dim: int
    descriptor: Optional[ExteriorDescriptor] = None

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        ut = np.asarray(self.ut, dtype=float)
        for name, arr in (("r", r), ("u", u), ("ut", ut)):
            object.__setattr__(self, name, arr)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("radial grid must be a 1-d array with >= 2 nodes")
        uniform_step(r)
        if r[0] < 0:
            raise ValueError("radial grid must start at r >= 0")
        if u.shape != r.shape or ut.shape != r.shape:
            raise ValueError("u and ut must match the radial grid shape")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(ut))):
            raise ValueError("field values must be finite")
        if self.lifted_dim < 2:
            raise ValueError("lifted dimension must be >= 2")
        desc = self.descriptor
        if desc is not None and desc.terms and desc.lifted_dim != self.lifted_dim:
            raise ValueError(
                f"descriptor of lifted dimension {desc.lifted_dim} "
                f"on a field of lifted dimension {self.lifted_dim}"
            )

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored snapshots of one evolution, at uniform stored cadence.

    Row k of the (n_snap, n_r) stacks u and ut is the field at times[k]
    on the grid r.
    """

    r: np.ndarray
    times: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    lifted_dim: int
    descriptor: Optional[ExteriorDescriptor]
    config: SolverConfig
    blown_up: bool = False

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if not (times.ndim == 1 and self.u.shape == self.ut.shape == (times.size, self.r.size)):
            raise ValueError("u and ut need one row per stored time and one column per node")
        if times.size >= 2:
            steps = np.diff(times)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15) or steps[0] <= 0:
                raise ValueError("stored times must be uniform and increasing")

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    def ur(self) -> np.ndarray:
        """Second-order radial derivative of every snapshot."""
        return np.gradient(self.u, self.dr, axis=1, edge_order=2)

    def clean_radius(self, t: float) -> float:
        """Largest radius exactly independent of the outer-edge closure.

        With descriptor ghosts the closure is exact everywhere; with
        extrapolated ghosts the stencil imports one cell per step.
        """
        if self.descriptor is not None:
            return math.inf
        return self.config.r_max - abs(t) / self.config.cfl - 2 * self.dr


class TrajectoryBatch(tuple):
    """The trajectories of fields stepped as one run, in the order of the fields."""

    @property
    def times(self) -> np.ndarray:
        """The batch's stored times; the times of each of its runs are a prefix of them."""
        return max((traj.times for traj in self), key=len)


# ---------------------------------------------------------------------------
# initial data builders


def lifted_field_from_mode(data: ExteriorModeData, config: SolverConfig) -> RadialGridField:
    """Sample the mode's lifted profile, blending C1-smoothly inside R.

    The lifted profile of a degree-nu mode in dimension d is the radial
    (D, 0) mode with the same coefficients, D = d + 2 nu, so its
    eval_extended blend is even and regular at the origin in D.
    Outside R it is the exact power-law data; finite speed keeps
    exterior-cone quantities extension-independent.
    """
    if config.r_max <= data.R:
        raise ValueError("grid must extend past the data radius R")
    radial = build_exterior_mode(ModeSpec(data.spec.lifted_dim, 0), data.R, data.A, data.B)
    r = config.radial_grid()
    vals = eval_extended(radial, r)
    return RadialGridField(
        r=r,
        u=vals.u0,
        ut=vals.u1,
        lifted_dim=data.spec.lifted_dim,
        descriptor=descriptor_for_mode(data),
    )


def gaussian_bump(config: SolverConfig, amplitude: float, width: float) -> RadialGridField:
    """Even Gaussian position data with zero velocity, in d = 3."""
    r = config.radial_grid()
    return RadialGridField(
        r=r,
        u=amplitude * np.exp(-((r / width) ** 2)),
        ut=np.zeros_like(r),
        lifted_dim=3,
        descriptor=None,
    )


# ---------------------------------------------------------------------------
# stepping


def _fifth_power(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """u**5 into out, as u (u^2)^2.

    numpy's pow takes a slow path wherever the power underflows, and
    smooth data has long underflowing tails; the products differ from it
    by a few ulp.
    """
    np.multiply(u, u, out=out)
    np.multiply(out, out, out=out)
    return np.multiply(out, u, out=out)


def _sixth_power(u: np.ndarray) -> np.ndarray:
    """u**6 as (u^2)^3, for the reason given in _fifth_power."""
    u2 = u * u
    return u2 * u2 * u2


def _leapfrog_weights(r: np.ndarray, dr: float, dt: float, D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three diagonals of one leapfrog step.

    A linear step is u_next = di u + lo u_(j-1) + up u_(j+1) - u_prev, which
    is 2 u - u_prev + dt^2 (u_rr + ((D-1)/r) u_r) on the centred
    second-order stencil: lo[j-1] is row j's weight on u[j-1] and up[j]
    its weight on u[j+1].  Row 0 is the even-parity limit of the operator
    at r = 0, D u_rr = 2 D (u_1 - u_0) / dr^2, and the last row's u[j+1]
    is the ghost value at r[-1] + dr, held in slot n_r of each time level.
    """
    a = dt**2 / dr**2
    c = (0.5 * (D - 1) * dt**2 / dr) / r[1:]  # the u_r weight of rows 1 .. n-1
    di = np.full(r.size, 2.0 - 2.0 * a)
    di[0] = 2.0 - 2.0 * D * a
    lo = a - c
    up = np.empty(r.size)
    up[0] = 2.0 * D * a
    up[1:] = a + c
    return di, lo, up


def _health_test(threshold: float) -> Callable[[np.ndarray], bool]:
    """The test max|u| <= threshold with every value finite, mostly in one pass.

    Rounding is monotone, and any order of summing non-negative terms
    gives at least the largest of them, so a u with max|u| > threshold has
    dot(u, u) >= fl(threshold^2) > limit.  A sum below the limit therefore
    passes; NaN, inf and sums near the threshold take the exact test, and
    so does every u when threshold^2 is not a finite normal float.
    """

    def exact(u: np.ndarray) -> bool:
        m = float(np.max(np.abs(u)))
        return m <= threshold and math.isfinite(m)

    square = threshold * threshold
    if not (threshold > 0 and _TINY <= square < math.inf):
        return exact
    limit = square * (1.0 - 4.0 * _EPS)

    def healthy(u: np.ndarray) -> bool:
        return float(np.dot(u, u)) < limit or exact(u)

    return healthy


def _solve(fields: Sequence[RadialGridField], config: SolverConfig) -> list[Trajectory]:
    """Evolve fields that share a grid, lifted dimension and descriptor as one run.

    Returns one Trajectory per field, each bit for bit the one a run of
    that field alone gives.  The fields are interleaved row by row in
    each time level, so a step is the same few array passes over all of
    them; a run the blow-up threshold stops ends at its own step while
    the others go on.
    """
    if not fields:
        raise ValueError("a batch needs at least one field")
    r = config.radial_grid()
    D, desc = fields[0].lifted_dim, fields[0].descriptor
    for fld in fields:
        if fld.r.shape != r.shape or not np.allclose(fld.r, r, rtol=1e-12):
            raise ValueError("initial data grid does not match the solver configuration")
        if fld.lifted_dim != D or fld.descriptor is not desc:
            raise ValueError("the fields of a batch share their lifted dimension and descriptor")
    dr, dt = config.dr, config.dt
    if dt > dr * math.sqrt(2.0 / D) * (1 + 1e-12):
        raise ValueError(
            f"cfl={config.cfl} is unstable for lifted dimension {D}; "
            f"the origin closure requires cfl <= sqrt(2/D) = {math.sqrt(2.0 / D):.4f}"
        )
    stride, n_steps = config.stride, config.n_steps
    n_r, m = r.size, len(fields)
    # Row j of run i sits at j m + i in each time level, and slot n_r m + i
    # holds run i's ghost value, so the diagonals are repeated m times and
    # every element is formed in the same order as in a run of its own.
    # The ghost slots and the last three rows the extrapolation reads are
    # indices for one run (a scalar store) and slices for a batch.
    ghost, last, second, third = (
        (n_r, n_r - 1, n_r - 2, n_r - 3)
        if m == 1
        else tuple(slice(j * m, (j + 1) * m) for j in (n_r, n_r - 1, n_r - 2, n_r - 3))
    )
    # fixed for the run: the ghost, the diagonals, the factor of u^5 in dt^2 F(u), a buffer
    boundary = desc.boundary(r[-1] + dr) if desc is not None else None
    di, lo, up = (np.repeat(w, m) for w in _leapfrog_weights(r, dr, dt, D))
    quintic = {"none": 0.0, "defocusing_quintic": -(dt**2), "focusing_quintic": dt**2}[
        config.nonlinearity
    ]
    scratch = np.empty(n_r * m)

    def window(w: int, *levels: np.ndarray) -> tuple:
        """Views for stepping rows [0, w): the weights, scratch and whether the
        last row is stepped, then for each time level the whole buffer, its
        rows, the rows below and above them (through the ghost slots when
        w = n_r), and its rows from 1 on."""
        e = w * m
        weights = (di[:e], lo[: e - m], up[:e], scratch[:e], scratch[m:e], w == n_r)
        return (weights, *((u, u[:e], u[: e - m], u[m : e + m], u[m:e]) for u in levels))

    def advance(weights: tuple, u: tuple, out: tuple, t: float) -> np.ndarray:
        """2 u + dt^2 (u_rr + ((D-1)/r) u_r + F(u)) into out's rows of the window."""
        di_w, lo_w, up_w, s, s_tail, edge = weights
        level, rows, below, above, _ = u
        _, out_rows, _, _, out_tail = out
        if edge:  # only the last row reads the ghost slots
            if boundary is not None:
                level[ghost] = boundary(t)
            else:
                level[ghost] = 3.0 * level[last] - 3.0 * level[second] + level[third]
        np.multiply(di_w, rows, out=out_rows)
        out_tail += np.multiply(lo_w, below, out=s_tail)
        out_rows += np.multiply(up_w, above, out=s)
        if quintic:
            out_rows += np.multiply(_fifth_power(rows, s), quintic, out=s)
        return out_rows

    healthy = _health_test(config.blowup_threshold)
    stopped: dict[int, int] = {}  # run -> rows it had written when the threshold stopped it

    def stop_unhealthy(rows: np.ndarray, *levels: np.ndarray) -> bool:
        """Stop each run whose own rows fail the health test; True while one goes on.

        A batch's one dot bounds every run's max^2, so only a batch that
        fails it comes here.  A stopped run's levels are zeroed, so it
        cannot overflow while the others step on.
        """
        for i in range(m):
            if not healthy(rows[i::m]):
                stopped.setdefault(i, k)
                for level in levels:
                    level[i::m] = 0.0
        return len(stopped) < m

    # snapshot k of run i is u_rows[k, :, i]; flat, a row of the stack is one time level
    u_rows = np.zeros((n_steps // stride + 1, n_r, m))
    ut_rows = np.zeros_like(u_rows)
    u_rows[0] = np.stack([fld.u for fld in fields], axis=1)
    ut_rows[0] = np.stack([fld.ut for fld in fields], axis=1)
    u_flat, ut_flat = u_rows.reshape(u_rows.shape[0], -1), ut_rows.reshape(u_rows.shape[0], -1)
    k = 1  # rows written

    # three rotating time levels, each with its ghost slots;
    # u_1 = u_0 + dt u_t + (dt^2 / 2)(u_rr + ((D-1)/r) u_r + F)(u_0) on every row
    w = n_r
    weights, prev, curr, nxt = window(w, *(np.zeros((n_r + 1) * m) for _ in range(3)))
    prev[1][:] = u_flat[0]
    first = advance(weights, prev, curr, 0.0)
    first *= 0.5
    first += dt * ut_flat[0]
    going = healthy(first) or stop_unhealthy(first, prev[0], curr[0], nxt[0])

    # The numerical domain of dependence.  A row is +0 exactly when no bit
    # of it is set; from row `support` on, u_0 and u_1 are +0 in every run.
    # A row whose stencil inputs are all +0 steps to di (+0) + lo 0 + up 0
    # (+ dt^2 F(+0)) - (+0) = +0 (di = 2 - 2 cfl^2 > 0 on rows j >= 1), so
    # at step n every row from support + n on is still +0, which is what the
    # full-width run writes there.  With extrapolated ghosts the stepper
    # therefore updates only a window of rows that grows by _BLOCK rows every
    # _BLOCK steps, and covers the grid once it comes within three rows of
    # the edge (the ghost reads the last three); until then no ghost is
    # formed, since no stepped row reads it.  Descriptor ghosts feed the last
    # row from the start.
    set_bits = np.flatnonzero(prev[1].view(np.uint64) | curr[1].view(np.uint64))
    support = int(set_bits[-1]) // m + 1 if set_bits.size else 0
    n = 1
    while n <= n_steps and going:
        if (n - 1) % _BLOCK == 0:
            w = support + n + _BLOCK
            if boundary is not None or w + 3 > n_r:
                w = n_r
            weights, prev, curr, nxt = window(w, prev[0], curr[0], nxt[0])
        rows = advance(weights, curr, nxt, n * dt)
        rows -= prev[1]
        if not healthy(rows) and not stop_unhealthy(rows, prev[0], curr[0], nxt[0]):
            break
        if n % stride == 0:
            e = w * m
            u_flat[k, :e] = curr[1]
            ut = ut_flat[k, :e]
            np.divide(np.subtract(rows, prev[1], out=ut), 2 * dt, out=ut)
            k += 1
        prev, curr, nxt = curr, nxt, prev
        n += 1

    trajectories = []
    for i in range(m):
        rows_i = stopped.get(i, k)
        trajectories.append(
            Trajectory(
                r=r,
                times=np.arange(rows_i) * stride * dt,
                u=np.ascontiguousarray(u_rows[:rows_i, :, i]),
                ut=np.ascontiguousarray(ut_rows[:rows_i, :, i]),
                lifted_dim=D,
                descriptor=desc,
                config=config,
                blown_up=i in stopped,
            )
        )
    return trajectories


def solve_mode_linear(
    initial: RadialGridField | Sequence[RadialGridField], config: SolverConfig
) -> Trajectory | TrajectoryBatch:
    """Evolve the lifted linear equation u_tt = u_rr + ((D-1)/r) u_r.

    `initial` is one field, or a sequence of fields that share a grid,
    lifted dimension and descriptor.  Those are stepped as one run and
    come back as a TrajectoryBatch, each trajectory bit for bit the one
    its field gives alone.
    """
    if config.nonlinearity != "none":
        raise ValueError("linear solves take nonlinearity='none'")
    if isinstance(initial, RadialGridField):
        return _solve((initial,), config)[0]
    return TrajectoryBatch(_solve(initial, config))


def solve_quintic(initial: RadialGridField, config: SolverConfig) -> Trajectory:
    """Evolve the d = 3 radial equation u_tt = u_rr + (2/r)u_r + F(u), with extrapolated ghosts."""
    if initial.lifted_dim != 3:
        raise ValueError("the quintic solver is for physical d = 3 radial fields")
    if initial.descriptor is not None:
        raise ValueError("a descriptor's free chains are no ghost for a quintic run")
    if config.nonlinearity == "none":
        raise ValueError("quintic solves need a nonlinearity; use solve_mode_linear")
    return _solve((initial,), config)[0]


# ---------------------------------------------------------------------------
# diagnostics


def energy_series(traj: Trajectory) -> np.ndarray:
    """int (u_t^2 + u_r^2 + potential) r^(D-1) dr on the grid, at every stored time.

    Doubled-energy convention; defocusing potential u^6/3, focusing
    -u^6/3.  This is the conserved functional of the flow when no flux
    crosses the edges.
    """
    pot = {
        "none": lambda u: 0.0,
        "defocusing_quintic": lambda u: _sixth_power(u) / 3.0,
        "focusing_quintic": lambda u: -_sixth_power(u) / 3.0,
    }[traj.config.nonlinearity]
    dens = (traj.ut**2 + traj.ur() ** 2 + pot(traj.u)) * traj.r ** (traj.lifted_dim - 1)
    return np.trapezoid(dens, dx=traj.dr, axis=1)


def _check_clean(traj: Trajectory) -> None:
    """Refuse a run whose outer-edge closure has reached a stored snapshot's interior."""
    for t, u, ut in zip(traj.times, traj.u, traj.ut):
        rc = traj.clean_radius(t)
        if rc >= traj.config.r_max:
            continue
        band = traj.r >= rc
        scale = max(np.max(np.abs(u)), np.max(np.abs(ut)), 1e-300)
        if np.max(np.abs(u[band])) > 1e-11 * scale or np.max(np.abs(ut[band])) > 1e-11 * scale:
            raise NumericalError(
                f"outer-edge contamination reaches the diagnostic region at t={t:g}; "
                "enlarge r_max or supply descriptor ghosts"
            )


def _moving_tail_integral(r: np.ndarray, a: float, integrand: np.ndarray) -> float:
    """Trapezoid of integrand over [a, r[-1]] on the uniform grid r, interpolated at a."""
    if a >= r[-1]:
        return 0.0
    dr = float(r[1] - r[0])
    if a <= r[0]:
        return float(np.trapezoid(integrand, dx=dr))
    j = int(np.searchsorted(r, a, side="left"))
    total = float(np.trapezoid(integrand[j:], dx=dr)) if j < r.size - 1 else 0.0
    if j >= 1 and r[j] > a:
        f_a = integrand[j - 1] + (integrand[j] - integrand[j - 1]) * (a - r[j - 1]) / dr
        total += 0.5 * (f_a + integrand[j]) * (r[j] - a)
    return total


@dataclass(frozen=True, eq=False)
class ConeEnergySeries:
    """Exterior-cone energy samples E(t), with truncation bookkeeping."""

    times: np.ndarray
    values: np.ndarray
    truncated: bool


def cone_energy(traj: Trajectory, R: float) -> ConeEnergySeries:
    """E(t) = int_{R+|t|}^inf (u_t^2 + u_r^2) r^(D-1) dr along the run.

    The grid part is a trapezoid with linear interpolation at the
    moving endpoint; beyond r_max the exact descriptor tail is added
    when available, otherwise the series is flagged truncated.  Times
    whose exterior region is contaminated by the outer closure are
    rejected outright.
    """
    if R <= 0:
        raise ValueError("cone radius must be positive")
    _check_clean(traj)
    desc = traj.descriptor
    # one gradient over the stack, then the integrand row by row, so its
    # temporaries stay one snapshot long
    weight = traj.r ** (traj.lifted_dim - 1)
    vals = []
    for t, ut, ur in zip(traj.times, traj.ut, traj.ur()):
        e = _moving_tail_integral(traj.r, R + abs(t), (ut**2 + ur**2) * weight)
        if desc is not None:
            e += desc.exterior_energy(max(traj.config.r_max, R + abs(t)), t)
        vals.append(e)
    return ConeEnergySeries(
        times=traj.times.copy(),
        values=np.asarray(vals),
        truncated=desc is None,
    )


def l6_tail(traj: Trajectory, radii: Sequence[float]) -> np.ndarray:
    """max over stored times of int_{|x|>r+|t|} u^6 dx (physical d = 3), for each r in radii.

    One pass over the snapshots serves every radius; each value equals a
    call with that radius alone.
    """
    if traj.lifted_dim != 3:
        raise ValueError("physical-space diagnostics require d = 3 radial runs")
    radii = [float(r) for r in radii]
    if not all(r > 0 for r in radii):
        raise ValueError("tail radii must be positive")
    _check_clean(traj)
    r2 = traj.r**2
    worst = np.zeros(len(radii))
    for t, u in zip(traj.times, traj.u):
        integrand = 4.0 * math.pi * _sixth_power(u) * r2
        for i, r in enumerate(radii):
            worst[i] = max(worst[i], _moving_tail_integral(traj.r, r + abs(t), integrand))
    return worst
