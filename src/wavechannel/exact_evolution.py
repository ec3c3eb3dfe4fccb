"""Closed-form evolution of power-law exterior data in the lifted frame.

A mode with harmonic degree nu in dimension d, viewed through the
substitution u -> r^(-nu) u, becomes a radial field in the lifted
dimension D = d + 2*nu solving the free wave equation

    u_tt = u_rr + ((D-1)/r) u_r ,    r > 0.

Each admissible power-law datum r^(2k-D) evolves as a terminating
polynomial-in-t chain

    position:  f(r,t) = sum_j c_j t^(2j)   r^(2k-D-2j),   f(.,0) = r^(2k-D), f_t(.,0) = 0
    velocity:  g(r,t) = sum_j c_j t^(2j+1) r^(2k-D-2j),   g(.,0) = 0,        g_t(.,0) = r^(2k-D)

whose rational coefficients are fixed inductively by matching powers
under the operator.  A chain exposes them as `Fraction`s (`c`,
`monomials()`) and computes with integer numerators over one positive
denominator, the lcm of theirs.  The master correctness check is
symbolic: applying the operator term by term in exact arithmetic must
cancel identically.

Because chains are finite monomial sums, the energy outside a light
cone has a closed form as well, and its vanishing as |t| grows is a
statement about integer growth exponents rather than quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .exterior_basis import POSITION, VELOCITY, ExteriorModeData, ModeSpec, max_admissible_k

ArrayLike = Union[float, np.ndarray]

# (coefficient, t power, r power) with exact rational coefficient
Monomial = tuple[Fraction, int, int]
# the same with an integer numerator over the chain's denominator
IntMonomial = tuple[int, int, int]
# the same with the coefficient rounded to a float
FloatMonomial = tuple[float, int, int]


@dataclass(frozen=True)
class ChainSolution:
    """One terminating chain: exact evolution of a single power law."""

    spec: ModeSpec
    k: int
    kind: str
    c: tuple[Fraction, ...]

    @property
    def lifted_dim(self) -> int:
        return self.spec.lifted_dim

    def monomials(self) -> tuple[Monomial, ...]:
        """The chain as exact (coeff, t_power, r_power) monomials."""
        D = self.lifted_dim
        shift = 0 if self.kind == POSITION else 1
        return tuple(
            (cj, 2 * j + shift, 2 * self.k - D - 2 * j) for j, cj in enumerate(self.c)
        )

    @cached_property
    def _scaled(self) -> tuple[tuple[IntMonomial, ...], int]:
        """The monomials as integer numerators over one positive denominator, the lcm of c's."""
        den = math.lcm(*(cj.denominator for cj in self.c))
        return (
            tuple((c.numerator * (den // c.denominator), a, b) for c, a, b in self.monomials()),
            den,
        )


def chain_lift(spec: ModeSpec, k: int, kind: str) -> ChainSolution:
    """Determine the chain coefficients for the power-law datum r^(2k-D).

    position: c_{j+1} (2j+2)(2j+1) = c_j (2k-2j-D)(2k-2j-2)
    velocity: c_{j+1} (2j+3)(2j+2) = c_j (2k-2j-D)(2k-2j-2)

    with c_0 = 1; the factor (2k-2j-2) vanishes at j = k-1, so the
    chain has exactly k terms.
    """
    D = spec.lifted_dim
    kmax = max_admissible_k(D, kind)
    if not 1 <= k <= kmax:
        raise ValueError(
            f"k={k} outside admissible range [1, {kmax}] for D={D} {kind} data"
        )
    num, den = 1, 1
    c = [Fraction(1)]
    for j in range(k - 1):
        num *= (2 * k - 2 * j - D) * (2 * k - 2 * j - 2)
        den *= (2 * j + 2) * (2 * j + 1) if kind == POSITION else (2 * j + 3) * (2 * j + 2)
        c.append(Fraction(num, den))
    return ChainSolution(spec=spec, k=k, kind=kind, c=tuple(c))


def _eval_monomials(
    terms: Iterable[FloatMonomial], r: np.ndarray, t: float
) -> np.ndarray:
    out = np.zeros_like(r)
    for coeff, a, b in terms:
        out += coeff * t**a * r**b
    return out


def _derivative_monomials(monomials: Iterable[tuple]) -> tuple[tuple, tuple]:
    """Monomials of (u_t, u_r) from those of u, in the same coefficient type."""
    ut = []
    ur = []
    for coeff, a, b in monomials:
        if a >= 1:
            ut.append((coeff * a, a - 1, b))
        ur.append((coeff * b, a, b - 1))
    return tuple(ut), tuple(ur)


def _float_tables(sol: ChainSolution) -> tuple[tuple[FloatMonomial, ...], ...]:
    """Float monomials of (u, u_t, u_r), each coefficient rounded once."""
    monomials = sol.monomials()
    return tuple(
        tuple((float(c), a, b) for c, a, b in family)
        for family in (monomials, *_derivative_monomials(monomials))
    )


def _positive_radii(r: ArrayLike) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("chain solutions live on r > 0")
    return arr


@dataclass(frozen=True)
class ExactValues:
    """Pointwise chain-sum values and first derivatives."""

    u: ArrayLike
    ut: ArrayLike
    ur: ArrayLike


def wave_residual(sol: ChainSolution) -> dict[tuple[int, int], Fraction]:
    """Symbolic residual of u_tt - u_rr - ((D-1)/r) u_r, power by power.

    A monomial t^a r^b contributes a(a-1) t^(a-2) r^b from the time part
    and -b(b+D-2) t^a r^(b-2) from the radial part.  The returned map
    holds the surviving (t_power, r_power) -> coefficient entries; an
    empty map certifies the chain exactly.
    """
    D = sol.lifted_dim
    monomials, den = sol._scaled
    acc: dict[tuple[int, int], int] = {}
    for n, a, b in monomials:
        if a >= 2:
            acc[a - 2, b] = acc.get((a - 2, b), 0) + n * a * (a - 1)
        acc[a, b - 2] = acc.get((a, b - 2), 0) - n * b * (b + D - 2)
    return {key: Fraction(v, den) for key, v in acc.items() if v}


# ---------------------------------------------------------------------------
# exterior-cone energy in closed form


@dataclass(frozen=True)
class ConeEnergyTerm:
    """One collected term coeff * t^t_power * rho^base_power of E."""

    coeff: Fraction
    t_power: int
    base_power: int

    @property
    def growth_exponent(self) -> int:
        """Power of t carried by the term as |t| -> infinity with rho ~ |t|."""
        return self.t_power + self.base_power


def _collect_energy(first: ChainSolution, second: ChainSolution) -> list[tuple[Fraction, int, int]]:
    """Sorted nonzero (coeff, t_power, rho_power) of int_rho^inf (ut ut' + ur ur') r^(D-1) dr.

    (ut, ur) are the derivatives of `first`, (ut', ur') those of
    `second`, in the same lifted dimension.  Numerator products are
    summed as ints for each (t_power, rho_power); rho_power fixes the
    integral's 1/(-rho_power), so each sum is divided once.
    """
    D = first.lifted_dim
    monomials1, den1 = first._scaled
    monomials2, den2 = second._scaled
    acc: dict[tuple[int, int], int] = {}
    for family1, family2 in zip(_derivative_monomials(monomials1), _derivative_monomials(monomials2)):
        for n1, a1, b1 in family1:
            for n2, a2, b2 in family2:
                m = b1 + b2 + D
                assert m < 0, "divergent exterior integral: inadmissible exponent"
                key = (a1 + a2, m)
                acc[key] = acc.get(key, 0) + n1 * n2
    den = den1 * den2
    return [(Fraction(v, den * -m), a, m) for (a, m), v in sorted(acc.items()) if v]


def _energy_terms(
    terms: Sequence[tuple[float, ChainSolution]]
) -> tuple[tuple[float, int, int], ...]:
    """(coeff, t_power, rho_power) of int_rho^inf (ut^2+ur^2) r^(D-1) dr, in floats.

    Each coefficient is sum_ij w_i w_j float(E_ij) over the ordered
    pairs of chains, where E_ij is the exact pair term of that power.
    """
    if not terms:
        return ()
    D = terms[0][1].lifted_dim
    for _, sol in terms:
        if sol.lifted_dim != D:
            raise ValueError("all chains in a combination must share the lifted dimension")
    acc: dict[tuple[int, int], float] = {}
    for w1, sol1 in terms:
        for w2, sol2 in terms:
            for c, a, m in _collect_energy(sol1, sol2):
                acc[a, m] = acc.get((a, m), 0.0) + w1 * w2 * float(c)
    return tuple((c, a, m) for (a, m), c in sorted(acc.items()) if c != 0)


def cone_energy_terms(sol: ChainSolution) -> tuple[ConeEnergyTerm, ...]:
    """Exact closed form of E(t) = int_{R+|t|}^inf (ut^2+ur^2) r^(D-1) dr.

    Terms are coeff * t^t_power * (R+|t|)^base_power with every
    base_power <= -1; the growth exponents certify the limit at
    infinity symbolically.
    """
    return tuple(
        ConeEnergyTerm(coeff=c, t_power=a, base_power=m)
        for c, a, m in _collect_energy(sol, sol)
    )


# ---------------------------------------------------------------------------
# bridge from exterior mode data to chain combinations


def chains_for_mode(data: ExteriorModeData) -> tuple[tuple[float, ChainSolution], ...]:
    """Chains reproducing the mode's lifted exterior data.

    The lifted position profile is sum_k1 A[k1-1] r^(2k1-D) and the
    lifted velocity profile is sum_k2 B[k2-1] r^(2k2-D), so each
    coefficient pairs with the chain of matching index and kind.
    """
    spec = data.spec
    out: list[tuple[float, ChainSolution]] = []
    for k1, a in enumerate(data.A, start=1):
        out.append((a, chain_lift(spec, k1, POSITION)))
    for k2, b in enumerate(data.B, start=1):
        out.append((b, chain_lift(spec, k2, VELOCITY)))
    return tuple(out)


@dataclass(frozen=True)
class ExteriorDescriptor:
    """Exact lifted solution valid on the region r - |t| > valid_radius.

    Finite propagation speed makes the chain combination equal to the
    true evolution of any interior completion of the data there.
    """

    terms: tuple[tuple[float, ChainSolution], ...]
    valid_radius: float

    @property
    def lifted_dim(self) -> int:
        if not self.terms:
            raise ValueError("empty descriptor has no dimension")
        return self.terms[0][1].lifted_dim

    def covers(self, r: ArrayLike, t: float) -> np.ndarray:
        return np.asarray(r, dtype=float) - abs(t) > self.valid_radius

    @cached_property
    def _chains(self) -> tuple[tuple[float, tuple[tuple[FloatMonomial, ...], ...]], ...]:
        """(weight, float tables of u, u_t, u_r) per chain, built on first use."""
        return tuple((weight, _float_tables(sol)) for weight, sol in self.terms)

    @cached_property
    def _energy(self) -> tuple[tuple[float, int, int], ...]:
        """Collected (coeff, t_power, rho_power) of the exterior energy."""
        return _energy_terms(self.terms)

    def eval(self, r: ArrayLike, t: float) -> ExactValues:
        arr = np.asarray(r, dtype=float)
        if self._chains:
            _positive_radii(arr)
        u = np.zeros_like(arr)
        ut = np.zeros_like(arr)
        ur = np.zeros_like(arr)
        tf = float(t)
        # per chain: accumulate the monomials, then weight the chain sum
        for weight, (u_terms, ut_terms, ur_terms) in self._chains:
            u += weight * _eval_monomials(u_terms, arr, tf)
            ut += weight * _eval_monomials(ut_terms, arr, tf)
            ur += weight * _eval_monomials(ur_terms, arr, tf)
        if np.isscalar(r) or np.asarray(r).ndim == 0:
            return ExactValues(float(u), float(ut), float(ur))
        return ExactValues(u, ut, ur)

    def boundary(self, r: float) -> Callable[[float], float]:
        """t -> eval(r, t).u at one fixed radius, bit for bit and in a few flops.

        Each r**b is the same 0-d numpy power that eval takes, computed
        once; a call then sums the chains in eval's order.
        """
        arr = np.asarray(r, dtype=float)
        if arr.ndim != 0:
            raise ValueError("a boundary is taken at one radius")
        if self._chains:
            _positive_radii(arr)
        chains = tuple(
            (weight, tuple((c, a, float(arr**b)) for c, a, b in u_terms))
            for weight, (u_terms, _, _) in self._chains
        )

        def u(t: float) -> float:
            t = float(t)
            total = 0.0
            for weight, terms in chains:
                chain = 0.0
                for c, a, rb in terms:
                    chain += c * t**a * rb
                total += weight * chain
            return total

        return u

    def exterior_energy(self, rho: float, t: float) -> float:
        """Energy of the chain combination in {r > rho} at time t, exactly.

        Cross terms between chains are included; all chains must share D.
        """
        if not rho > 0:
            raise ValueError("exterior radius must be positive")
        total = 0.0
        for c, a, m in self._energy:
            total += c * float(t) ** a * rho**m
        return total


def descriptor_for_mode(data: ExteriorModeData) -> ExteriorDescriptor:
    """Exact exterior evolution of one mode's data, valid for r - |t| > R."""
    return ExteriorDescriptor(terms=chains_for_mode(data), valid_radius=data.R)
