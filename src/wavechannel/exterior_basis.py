"""Exterior Cauchy data families for weakly non-radiative modes.

A single angular mode in dimension d with harmonic degree nu carries
exterior data of the form

    u0(r) = r^(-mu) * P(1/r),    u1(r) = r^(-mu-1) * Q(1/r),    r > R,

where mu = (d-1)/2 for odd d, mu = d/2 for even d, and P, Q are
polynomials drawn from a parity-dependent set of admissible exponents.
The profiles are coefficients against an L2-normalized spherical
harmonic; all quadratic quantities below are therefore free of sphere
area factors.

The weighted norms of such data over {|x| > R} reduce, under the
substitution z = 1/r, to polynomial integrals on (0, 1/R) (with an
extra weight z in even dimension).  Those are computed here in exact
rational arithmetic, which makes the derivative-tail decay check an
exact ratio rather than a quadrature estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .polylib import Poly

ArrayLike = Union[float, np.ndarray]

_Z = Poly([0, 1])

POSITION = "position"
VELOCITY = "velocity"


def max_admissible_k(D: int, kind: str) -> int:
    """Largest k whose chain has finite exterior energy in dimension D."""
    if kind == POSITION:
        return (D + 1) // 4
    if kind == VELOCITY:
        return (D - 1) // 4
    raise ValueError(f"kind must be {POSITION!r} or {VELOCITY!r}, got {kind!r}")


@dataclass(frozen=True)
class ModeSpec:
    """Ambient dimension and harmonic degree of one exterior mode."""

    d: int
    nu: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.d!r}")
        if not isinstance(self.nu, (int, np.integer)) or self.nu < 0:
            raise ValueError(f"harmonic degree must be an integer >= 0, got {self.nu!r}")

    @property
    def is_odd(self) -> bool:
        return self.d % 2 == 1

    @property
    def mu(self) -> int:
        # (d-1)/2 in odd dimension, d/2 in even; an integer either way.
        return (self.d - 1) // 2 if self.is_odd else self.d // 2

    @property
    def lifted_dim(self) -> int:
        """Dimension d + 2*nu in which the mode profile is a radial field."""
        return self.d + 2 * self.nu

    @property
    def k1_max(self) -> int:
        """Number of admissible position monomials."""
        return max_admissible_k(self.lifted_dim, POSITION)

    @property
    def k2_max(self) -> int:
        """Number of admissible velocity monomials."""
        return max_admissible_k(self.lifted_dim, VELOCITY)

    @property
    def p_exponents(self) -> tuple[int, ...]:
        """Exponents e of z in P, indexed by k1 = 1..k1_max.

        r^(-mu) z^e is r^nu times the lifted power r^(2 k1 - D).
        """
        base = self.d + self.nu - self.mu
        return tuple(base - 2 * k1 for k1 in range(1, self.k1_max + 1))

    @property
    def q_exponents(self) -> tuple[int, ...]:
        """Exponents e of z in Q, indexed by k2 = 1..k2_max.

        r^(-mu-1) z^e is r^nu times the lifted power r^(2 k2 - D).
        """
        base = self.d + self.nu - self.mu - 1
        return tuple(base - 2 * k2 for k2 in range(1, self.k2_max + 1))


@dataclass(frozen=True)
class ExteriorModeData:
    """One mode's exterior data: radius R and monomial coefficients A, B.

    A[k1-1] multiplies z^(p_exponents[k1-1]) in P, and likewise for B
    and Q.  Coefficients are kept as the floats supplied; exact-valued
    integrals convert them to rationals without rounding.
    """

    spec: ModeSpec
    R: float
    A: tuple[float, ...]
    B: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.R > 0:
            raise ValueError(f"exterior radius must be positive, got {self.R!r}")
        if len(self.A) != self.spec.k1_max:
            raise ValueError(
                f"position coefficients: expected {self.spec.k1_max}, got {len(self.A)}"
            )
        if len(self.B) != self.spec.k2_max:
            raise ValueError(
                f"velocity coefficients: expected {self.spec.k2_max}, got {len(self.B)}"
            )

    def position_poly(self) -> Poly:
        """P(z) with exact rational coefficients."""
        return _monomial_sum(self.A, self.spec.p_exponents)

    def velocity_poly(self) -> Poly:
        """Q(z) with exact rational coefficients."""
        return _monomial_sum(self.B, self.spec.q_exponents)


def _monomial_sum(coeffs: Sequence[float], exponents: Sequence[int]) -> Poly:
    if not coeffs:
        return Poly([Fraction(0)])
    out = [Fraction(0)] * (max(exponents) + 1)
    for a, e in zip(coeffs, exponents):
        out[e] += Fraction(a)
    return Poly(out)


def build_exterior_mode(
    spec: ModeSpec,
    R: float,
    A: Sequence[float] = (),
    B: Sequence[float] = (),
) -> ExteriorModeData:
    """Validate coefficient sequences and assemble a mode data record."""
    return ExteriorModeData(
        spec=spec,
        R=float(R),
        A=tuple(float(a) for a in A),
        B=tuple(float(b) for b in B),
    )


@dataclass(frozen=True)
class ProfileValues:
    """Pointwise radial profile values for one mode."""

    u0: ArrayLike
    u1: ArrayLike
    du0_dr: ArrayLike


def eval_extended(data: ExteriorModeData, r: ArrayLike) -> ProfileValues:
    """Profiles on all r > 0: exterior family outside R, C1 blend inside.

    The interior extension is a + b*r^2 for each of u0, u1, matching
    value and slope at r = R.  Finite propagation speed keeps every
    exterior-cone quantity independent of this choice.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError("radii must be nonnegative")
    mu = data.spec.mu
    Rv = data.R
    p = data.position_poly()
    q = data.velocity_poly()
    zR = 1.0 / Rv
    u0R = Rv ** (-mu) * p(zR)
    du0R = Rv ** (-mu - 1) * (-mu * p(zR) - zR * p.deriv()(zR))
    u1R = Rv ** (-mu - 1) * q(zR)
    du1R = Rv ** (-mu - 2) * (-(mu + 1) * q(zR) - zR * q.deriv()(zR))
    b0 = du0R / (2.0 * Rv)
    a0 = u0R - b0 * Rv**2
    b1 = du1R / (2.0 * Rv)
    a1 = u1R - b1 * Rv**2

    outside = arr >= Rv
    safe = np.maximum(arr, Rv)
    z = np.where(outside, 1.0 / safe, 0.0)
    u0 = np.where(outside, safe ** (-mu) * p(z), a0 + b0 * arr**2)
    u1 = np.where(outside, safe ** (-mu - 1) * q(z), a1 + b1 * arr**2)
    du0 = np.where(
        outside,
        safe ** (-mu - 1) * (-mu * p(z) - z * p.deriv()(z)),
        2.0 * b0 * arr,
    )
    if np.isscalar(r) or arr.ndim == 0:
        return ProfileValues(float(u0), float(u1), float(du0))
    return ProfileValues(u0, u1, du0)


@dataclass(frozen=True)
class SeriesNorms:
    """Exterior-region weighted norms of one mode.

    angular:   squared angular-gradient energy, nu*(d-2+nu) * int |P|^2
    u1_norm2:  squared L2 norm of the velocity, int |Q|^2
    du0_norm2: squared L2 norm of the radial derivative, int |zP' + mu P|^2

    Integrals run over z in (0, 1/R), with weight z dz in even dimension.
    """

    angular: float
    u1_norm2: float
    du0_norm2: float


def _weighted_square_integral(p: Poly, weight_z: bool, z_hi: Fraction) -> Fraction:
    integrand = p * p
    if weight_z:
        integrand = _Z * integrand
    return integrand.integrate(Fraction(0), z_hi)


def _series_norms_exact(
    data: ExteriorModeData, z_hi: Fraction
) -> tuple[Fraction, Fraction, Fraction]:
    spec = data.spec
    weighted = not spec.is_odd
    P = data.position_poly()
    Q = data.velocity_poly()
    dP = _Z * P.deriv() + P.scale(spec.mu)
    angular = spec.nu * (spec.d - 2 + spec.nu) * _weighted_square_integral(P, weighted, z_hi)
    u1_norm2 = _weighted_square_integral(Q, weighted, z_hi)
    du0_norm2 = _weighted_square_integral(dP, weighted, z_hi)
    return angular, u1_norm2, du0_norm2


def series_norms(data: ExteriorModeData) -> SeriesNorms:
    """Exact exterior norms of the mode, returned as floats.

    Each equals the corresponding integral of the full mode field over
    {|x| > R}: angular-gradient energy, velocity energy, and radial
    derivative energy.
    """
    z_hi = 1 / Fraction(data.R)
    angular, u1n, du0n = _series_norms_exact(data, z_hi)
    return SeriesNorms(float(angular), float(u1n), float(du0n))


@dataclass(frozen=True)
class DecayBound:
    """Derivative tail beyond R1 against its decay-scaled reference."""

    tail: float
    reference: float
    ratio: float
    trivial: bool


def decay_bound_check(data: ExteriorModeData, R1: float) -> DecayBound:
    """Compare the radial-derivative tail beyond R1 >= 2R with its bound.

    tail      = int_{|x|>R1} |d_r u0|^2
    reference = (R/R1) * int_{|x|>R} |grad u0|^2      for nu = 0
                (R/R1) * angular part over {|x|>R}    for nu >= 1

    Both sides are exact rationals, so the returned ratio carries no
    quadrature error.  Zero data yields a trivial record with ratio 0.
    """
    if R1 < 2 * data.R:
        raise ValueError(f"tail radius must satisfy R1 >= 2R, got R1={R1}, R={data.R}")
    spec = data.spec
    weighted = not spec.is_odd
    P = data.position_poly()
    dP = _Z * P.deriv() + P.scale(spec.mu)
    tail = _weighted_square_integral(dP, weighted, 1 / Fraction(R1))
    angular, _, du0_norm2 = _series_norms_exact(data, 1 / Fraction(data.R))
    scale = Fraction(data.R) / Fraction(R1)
    reference = scale * (du0_norm2 if spec.nu == 0 else angular)
    if reference == 0:
        assert tail == 0, "vanishing reference forces P = 0, hence zero tail"
        return DecayBound(0.0, 0.0, 0.0, True)
    return DecayBound(float(tail), float(reference), float(tail / reference), False)
