"""Exact-rational polynomial machinery.

Two families orthogonal on [-1, 1] are provided: the Legendre
polynomials (weight dx), exact by their three-term recurrence, and a
modified family orthogonal under the shifted weight (x+1)dx, exact from
its Rodrigues-type derivative definition, with their squared norms.
The module also holds Gauss-Legendre quadrature and the interval sup /
weighted-derivative inequalities used by the exterior-decay estimates
elsewhere in the package.  Their sup sides locate critical points by
exact Sturm isolation at every degree; a root at a bracket's right end
is taken exactly, and any other is refined by float bisection oriented
by the exact sign at that end.

A polynomial is stored as integer numerators over one positive
denominator, the content and primitive-part form (Knuth, TAOCP vol. 2,
section 4.6.1): sums, products, derivatives, integrals, evaluation at a
rational point and the Sturm chains run on Python ints, with one gcd
per result, and the coefficients read as ``fractions.Fraction``.
Floats enter only at evaluation: a float or array argument, and the
bisection inside an isolating bracket, use the coefficients rounded
once, ``float_coeffs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "Poly",
    "QuadratureRule",
    "LemmaCheck",
    "gauss_nodes",
    "legendre_poly",
    "modified_legendre_poly",
    "modified_legendre_ode_residual",
    "family_norm2",
    "VARIANTS",
    "lemma_check",
    "random_lemma_case",
]

_EXACT_TYPES = (int, Fraction)


def _is_exact_scalar(c) -> bool:
    if isinstance(c, bool):
        return False
    return isinstance(c, _EXACT_TYPES) or isinstance(c, np.integer)


def _fraction(c) -> Fraction:
    """c at its exact value: ints, numpy ints, Fractions and binary floats."""
    return Fraction(float(c) if isinstance(c, np.floating) else c)


def _horner_ints(num, p: int, q: int) -> tuple[int, int]:
    """(sum num[i] p^i q^(n-i), q^n), n = len(num) - 1: the value at p/q times q^n."""
    acc, qn = num[-1], 1
    for c in reversed(num[:-1]):
        qn *= q
        acc = acc * p + c * qn
    return acc, qn


class Poly:
    """Dense univariate polynomial with exact rational coefficients, ascending.

    The constructor takes ints, numpy ints, ``Fraction``s and floats,
    each at its exact value.  The polynomial is stored as integer
    numerators ``num`` over one positive denominator ``den``, with
    gcd(den, content of num) = 1, so equal polynomials have equal
    fields.  ``coeffs`` reads the ``Fraction`` values num[i]/den and
    ``float_coeffs`` their correctly rounded floats, each built on
    first read.  Trailing zeros are stripped; the zero polynomial is a
    single zero coefficient.
    """

    __slots__ = ("num", "den", "_coeffs", "_float_coeffs")

    def __init__(self, coeffs):
        coeffs = [_fraction(c) for c in coeffs] or [Fraction(0)]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, num: list[int], den: int) -> None:
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        if g > 1:
            num = [c // g for c in num]
            den //= g
        for name, value in zip(self.__slots__, (tuple(num), den, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_ints(cls, num: list[int], den: int) -> "Poly":
        """The polynomial sum(num[i] x^i) / den, den > 0, normalised."""
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic protocol -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(Fraction(c, self.den) for c in self.num))
        return self._coeffs

    @property
    def float_coeffs(self) -> tuple[float, ...]:
        """Each coefficient rounded once: the correctly rounded num[i]/den."""
        if self._float_coeffs is None:
            object.__setattr__(self, "_float_coeffs", tuple(c / self.den for c in self.num))
        return self._float_coeffs

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return self.num == (0,)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self.num, other.num
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [fa * c for c in a]
        for i, c in enumerate(b):
            out[i] += fb * c
        return Poly._from_ints(out, den)

    def __neg__(self):
        return Poly._from_ints([-c for c in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        b = other.num
        out = [0] * (len(self.num) + len(b) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, c in enumerate(b):
                    out[i + j] += a * c
        return Poly._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c):
        c = _fraction(c)
        return Poly._from_ints([c.numerator * a for a in self.num], self.den * c.denominator)

    def deriv(self) -> "Poly":
        return Poly._from_ints([i * c for i, c in enumerate(self.num)][1:] or [0], self.den)

    def antideriv(self) -> "Poly":
        m = math.lcm(*range(1, len(self.num) + 1))
        return Poly._from_ints(
            [0] + [c * (m // (i + 1)) for i, c in enumerate(self.num)], self.den * m
        )

    def integrate(self, a, b):
        """Exact definite integral over [a, b], float endpoints at their exact values."""
        anti = self.antideriv()
        a, b = _fraction(a), _fraction(b)
        va, qa = _horner_ints(anti.num, a.numerator, a.denominator)
        vb, qb = _horner_ints(anti.num, b.numerator, b.denominator)
        return Fraction(vb * qa - va * qb, anti.den * qa * qb)

    def __call__(self, x):
        """Exact value at an exact scalar; otherwise Horner on ``float_coeffs``."""
        if isinstance(x, np.ndarray):
            return np.polynomial.polynomial.polyval(x, np.asarray(self.float_coeffs))
        if _is_exact_scalar(x):
            x = Fraction(x)
            acc, qn = _horner_ints(self.num, x.numerator, x.denominator)
            return Fraction(acc, self.den * qn)
        cs = self.float_coeffs
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1]; weights sum to 2."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        vals = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(np.dot(self.weights, vals))

    def mapped(self, a: float, b: float) -> "QuadratureRule":
        """Affinely mapped rule for integrals over [a, b]."""
        half = 0.5 * (b - a)
        return QuadratureRule(a + half * (self.nodes + 1.0), half * self.weights)


def gauss_nodes(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes, exact through degree 2n-1."""
    if not 1 <= int(n) <= 512:
        raise ValueError(f"node count {n} out of range [1, 512]")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(x, w)


# ---------------------------------------------------------------------------
# Orthogonal families


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> Poly:
    """Exact P_n via the recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    p_prev = Poly([1])
    if n == 0:
        return p_prev
    p = Poly([0, 1])
    for k in range(2, n + 1):
        p, p_prev = (Poly([0, 2 * k - 1]) * p - Poly([k - 1]) * p_prev).scale(
            Fraction(1, k)
        ), p
    return p


@lru_cache(maxsize=None)
def modified_legendre_poly(n: int) -> Poly:
    """Exact Q_n as the (n+1)-th derivative of (x+1)^n (x-1)^{n+1}
    scaled by 1 / (2^{n+1} (n+1)!)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    p = Poly([1])
    plus, minus = Poly([1, 1]), Poly([-1, 1])
    for _ in range(n):
        p = p * plus
    for _ in range(n + 1):
        p = p * minus
    for _ in range(n + 1):
        p = p.deriv()
    return p.scale(Fraction(1, 2 ** (n + 1) * math.factorial(n + 1)))


def modified_legendre_ode_residual(n: int) -> Poly:
    """d/dx[(x+1)(1-x^2) Q_n'] + n(n+2)(x+1) Q_n, identically zero."""
    q = modified_legendre_poly(n)
    lhs = (Poly([1, 1]) * Poly([1, 0, -1]) * q.deriv()).deriv()
    return lhs + Poly([n * (n + 2), n * (n + 2)]) * q


def family_norm2(family: str, n: int) -> Fraction:
    """Squared weighted L2 norm of the n-th family member on [-1, 1]."""
    if family == "legendre":
        return Fraction(2, 2 * n + 1)
    if family == "modified":
        return Fraction(1, 2 * (n + 1))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Interval maxima via exact root isolation (Sturm) with float refinement


def _primitive(num) -> list[int]:
    """The content-free multiple of an integer polynomial, by a positive factor."""
    g = math.gcd(*num)
    return [c // g for c in num] if g > 1 else list(num)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of |lc(b)|^(deg a - deg b + 1) * a by b, on ints.

    The factor is positive, so the result is a positive multiple of the
    rational remainder of a by b and keeps its sign everywhere.
    """
    lc, nb = b[-1], len(b)
    scale, sign = abs(lc), 1 if lc > 0 else -1
    rem = list(a)
    for top in range(len(a) - 1, nb - 2, -1):
        t = sign * rem[top]
        shift = top - nb + 1
        for i in range(top):
            rem[i] *= scale
        for j in range(nb - 1):
            rem[shift + j] -= t * b[j]
        rem.pop()
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a.

    With b primitive the quotient has integer coefficients (Gauss's
    lemma), so every step of the long division is an exact int division.
    """
    lc, nb = b[-1], len(b)
    rem = list(a)
    quot = [0] * (len(a) - nb + 1)
    for shift in range(len(a) - nb, -1, -1):
        q = rem[shift + nb - 1] // lc
        quot[shift] = q
        for j, c in enumerate(b):
            rem[shift + j] -= q * c
    return quot


def _remainder_chain(f: list[int]) -> list[list[int]]:
    """f, f' and the negated remainders, down to the last nonzero one,
    each replaced by its primitive part."""
    chain = [_primitive(f), _primitive([i * c for i, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if rem == [0]:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _sturm_chain(p: Poly) -> list[list[int]]:
    """Signed remainder chain of the square-free part, integer coefficients.

    Every member is the content-free integer polynomial that is a
    positive multiple of the rational signed remainder, so signs at any
    point are those of the rational chain.  A non-constant last remainder
    is gcd(p, p'): sign counts at one of its roots (a multiple root of p)
    miss roots, so the chain is rebuilt from p / gcd(p, p').
    """
    chain = _remainder_chain(p.num)
    if len(chain[-1]) > 1:
        chain = _remainder_chain(_exact_quotient(chain[0], chain[-1]))
    return chain


# bisection depth at which a bracket is kept even if it still holds several roots
_MAX_DEPTH = 64


def _sign_changes(chain, x: Fraction) -> int:
    # q^n > 0, so value * q^n has the sign of the value at x = p/q
    p, q = x.numerator, x.denominator
    signs = []
    for coeffs in chain:
        v = _horner_ints(coeffs, p, q)[0]
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(p: Poly, a: Fraction, b: Fraction):
    """Disjoint brackets, each containing exactly one distinct root in (a, b]."""
    if p.is_zero or p.degree == 0:
        return []
    chain = _sturm_chain(p)
    brackets = []
    stack = [(Fraction(a), Fraction(b), _sign_changes(chain, Fraction(a)),
              _sign_changes(chain, Fraction(b)), 0)]
    while stack:
        lo, hi, v_lo, v_hi, depth = stack.pop()
        count = v_lo - v_hi
        if count <= 0:
            continue
        if count == 1 or depth >= _MAX_DEPTH:
            brackets.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _sign_changes(chain, mid)
        stack.append((lo, mid, v_lo, v_mid, depth + 1))
        stack.append((mid, hi, v_mid, v_hi, depth + 1))
    return brackets


def _refine_root(p: Poly, lo: Fraction, hi: Fraction) -> Fraction | float:
    """A root of p in the bracket (lo, hi], by float bisection oriented at ``hi``.

    The sign of p at ``hi`` is exact, from p's integer numerators; a
    zero there returns ``hi`` itself.  Otherwise 80 bisection steps
    keep the half whose float sign differs from the sign at ``hi``.
    Scalar values come from a Horner loop with the multiply-then-add
    rounding of ``np.polyval``, so the bits match it.  A root of odd
    multiplicity is refined to float precision; at a root of even
    multiplicity p keeps its sign and the result is some point of the
    closed bracket.
    """
    v_hi = _horner_ints(p.num, hi.numerator, hi.denominator)[0]
    if v_hi == 0:
        return hi
    cs = p.float_coeffs[::-1]

    def f(x):
        acc = 0.0
        for c in cs:
            acc = acc * x + c
        return acc

    a, b = float(lo), float(hi)
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (v_hi > 0):
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def _critical_candidates(src: Poly, a: Fraction, b: Fraction) -> list[Fraction]:
    """Rational approximations of the roots of ``src`` inside [a, b].

    Exact Sturm isolation at every degree, then ``_refine_root`` inside
    each isolating bracket.  Every candidate is clipped to the interval,
    so exact evaluation at a candidate never leaves it.  A root of even
    multiplicity may come back as any point of its bracket; the sup
    sides lose nothing by that.  There src is P' or P + 2zP', and the
    objectives P^2 and zP^2 have derivatives 2PP' and P(P + 2zP'),
    which keep their sign through such a root unless P, and with it the
    objective, is 0 there: the root is no interior maximum.
    """
    return [
        min(max(Fraction(_refine_root(src, lo, hi)), a), b)
        for lo, hi in isolate_real_roots(src, a, b)
    ]


def _interval_max(objective: Poly, crit_src: Poly, a: Fraction, b: Fraction) -> Fraction:
    candidates = [a, b] + _critical_candidates(crit_src, a, b)
    return max(objective(c) for c in candidates)


# ---------------------------------------------------------------------------
# Inequality checks


@dataclass(frozen=True)
class LemmaCheck:
    variant: str
    lhs: Fraction
    rhs: Fraction
    holds: bool


VARIANTS = ("sup_odd", "deriv_odd", "sup_even", "deriv_even")


def lemma_check(poly, variant: str, L, l=None) -> LemmaCheck:
    """Check one of the four interval inequalities on [0, L].

    sup_odd     max_{[0,L]} P^2           <= (k+1)^2/L * int_0^L P^2
    deriv_odd   int_0^l (z P')^2          <= 2k(k+1) l/L * int_0^L P^2
    sup_even    max_{[0,L]} z P^2         <= 2(k+1)^2/L * int_0^L z P^2
    deriv_even  int_0^l z (z P')^2        <= 2k(k+2) l/L * int_0^L z P^2

    with k = deg P.  Derivative variants require L >= 2l > 0.  All
    integrals are exact rational; sup sides evaluate exactly at
    endpoints and at isolated critical points, so a reported ``lhs``
    is a certified value of the objective inside the interval.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = poly if isinstance(poly, Poly) else Poly(poly)
    L = Fraction(L)
    if L <= 0:
        raise ValueError("L must be positive")
    if l is None:
        l = L / 2
    l = Fraction(l)
    if variant.startswith("deriv"):
        if not (l > 0 and L >= 2 * l):
            raise ValueError("derivative variants require L >= 2l > 0")
    if p.is_zero:
        return LemmaCheck(variant, Fraction(0), Fraction(0), True)
    k = p.degree
    z = Poly([0, 1])
    zero = Fraction(0)
    if variant == "sup_odd":
        lhs = _interval_max(p * p, p.deriv(), zero, L)
        rhs = Fraction((k + 1) ** 2) / L * (p * p).integrate(zero, L)
    elif variant == "deriv_odd":
        q = z * p.deriv()
        lhs = (q * q).integrate(zero, l)
        rhs = Fraction(2 * k * (k + 1)) * l / L * (p * p).integrate(zero, L)
    elif variant == "sup_even":
        lhs = _interval_max(z * p * p, p + (2 * z * p.deriv()), zero, L)
        rhs = Fraction(2 * (k + 1) ** 2) / L * (z * p * p).integrate(zero, L)
    else:  # deriv_even
        q = z * p.deriv()
        lhs = (z * q * q).integrate(zero, l)
        rhs = Fraction(2 * k * (k + 2)) * l / L * (z * p * p).integrate(zero, L)
    return LemmaCheck(variant, lhs, rhs, lhs <= rhs)


def random_lemma_case(rng, degree_max: int) -> tuple[list[Fraction], Fraction, Fraction]:
    """One random lemma_check input (coeffs, L, l), drawn from a random.Random.

    The degree is uniform on 0..degree_max and each coefficient is a/b
    with a in -9..9 and b in 1..9; L = p/q with p in 1..16 and q in 1..4,
    and l = L j/8 with j in 1..4, so every variant accepts the case.
    """
    degree = rng.randint(0, degree_max)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    L = Fraction(rng.randint(1, 16), rng.randint(1, 4))
    l = L * Fraction(rng.randint(1, 4), 8)
    return coeffs, L, l
