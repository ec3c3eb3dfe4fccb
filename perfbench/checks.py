"""Reference computations for the benchmark's checks, made apart from the package.

Nothing here calls into `wavechannel`.  Integrals are float Gauss-Legendre
quadrature (numpy's nodes, not the package's), maxima are dense samples
refined by golden-section search, and the chain solutions are rebuilt from
the wave operator itself.  Agreement between these and the package's exact
or grid results is therefore evidence, not a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

# Gaps below this are under what a float cross-check resolves; the gap
# metrics report them at this value so that they are never zero.
GAP_FLOOR = 1e-12

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = npleg.leggauss(n)
    x, w = _GL_CACHE[n]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def rel_gap(value: float, reference: float) -> float:
    scale = max(abs(value), abs(reference))
    return abs(value - reference) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# interval inequalities


def _golden_max(f: Callable[[float], float], a: float, b: float, iters: int = 80) -> float:
    """Maximum of a function unimodal on [a, b], by golden-section search."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return max(fc, fd, f(a), f(b))


def dense_sup(coeffs: np.ndarray, L: float, n: int = 4097) -> float:
    """max over [0, L] of the polynomial with float coefficients (low first)."""
    xs = np.linspace(0.0, L, n)
    vals = nppoly.polyval(xs, coeffs)
    i = int(np.argmax(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
    return max(float(vals[i]), _golden_max(lambda x: float(nppoly.polyval(x, coeffs)), lo, hi))


def lemma_reference(coeffs: Sequence[Fraction], variant: str, L: Fraction, l: Fraction) -> tuple[float, float]:
    """Float (lhs, rhs) of one interval inequality, as stated in the paper's lemma.

    sup_odd     max_[0,L] P^2         vs (k+1)^2/L     int_0^L P^2
    deriv_odd   int_0^l (z P')^2      vs 2k(k+1) l/L   int_0^L P^2
    sup_even    max_[0,L] z P^2       vs 2(k+1)^2/L    int_0^L z P^2
    deriv_even  int_0^l z (z P')^2    vs 2k(k+2) l/L   int_0^L z P^2
    """
    p = np.array([float(c) for c in coeffs])
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return 0.0, 0.0
    p = p[: nz[-1] + 1]
    k = p.size - 1
    Lf, lf = float(L), float(l)
    z = np.array([0.0, 1.0])
    p2 = nppoly.polymul(p, p)
    zq = nppoly.polymul(z, nppoly.polyder(p)) if k > 0 else np.zeros(1)
    xL, wL = gauss_legendre(32, 0.0, Lf)
    xl, wl = gauss_legendre(32, 0.0, lf)

    def integral(c, x, w):
        return float(np.dot(w, nppoly.polyval(x, c)))

    if variant == "sup_odd":
        return dense_sup(p2, Lf), (k + 1) ** 2 / Lf * integral(p2, xL, wL)
    if variant == "deriv_odd":
        lhs = integral(nppoly.polymul(zq, zq), xl, wl)
        return lhs, 2 * k * (k + 1) * lf / Lf * integral(p2, xL, wL)
    zp2 = nppoly.polymul(z, p2)
    if variant == "sup_even":
        return dense_sup(zp2, Lf), 2 * (k + 1) ** 2 / Lf * integral(zp2, xL, wL)
    lhs = integral(nppoly.polymul(z, nppoly.polymul(zq, zq)), xl, wl)
    return lhs, 2 * k * (k + 2) * lf / Lf * integral(zp2, xL, wL)


# ---------------------------------------------------------------------------
# coefficient chains of the lifted wave equation u_tt = u_rr + ((D-1)/r) u_r


def chain_coefficients(D: int, k: int, velocity: bool) -> list[Fraction]:
    """Coefficients c_j of sum_j c_j t^(2j+s) r^(2k-D-2j), rebuilt from the operator.

    The radial part maps r^b to b(b+D-2) r^(b-2) and the time part maps
    t^a to a(a-1) t^(a-2); matching powers gives the recursion.
    """
    s = 1 if velocity else 0
    c = [Fraction(1)]
    j = 0
    while True:
        b = 2 * k - D - 2 * j
        num = b * (b + D - 2)
        if num == 0:
            return c
        a = 2 * j + s + 2
        c.append(c[-1] * num / (a * (a - 1)))
        j += 1


def residual(monomials: Sequence[tuple[Fraction, int, int]], D: int) -> dict[tuple[int, int], Fraction]:
    """Surviving terms of u_tt - u_rr - ((D-1)/r) u_r for a monomial sum."""
    acc: dict[tuple[int, int], Fraction] = {}
    for c, a, b in monomials:
        if a >= 2:
            acc[(a - 2, b)] = acc.get((a - 2, b), Fraction(0)) + c * a * (a - 1)
        acc[(a, b - 2)] = acc.get((a, b - 2), Fraction(0)) - c * b * (b + D - 2)
    return {key: v for key, v in acc.items() if v != 0}


def exterior_energy(
    monomials: Sequence[tuple[float, int, int]], D: int, rho: float, t: float, n: int = 48
) -> float:
    """int_rho^inf (u_t^2 + u_r^2) r^(D-1) dr for u = sum c t^a r^b.

    Half-line Gauss quadrature under r = rho/x; exact for the admissible
    power laws, whose integrand is then a polynomial in x.
    """
    x, w = gauss_legendre(n, 0.0, 1.0)
    r = rho / x
    ut = np.zeros_like(r)
    ur = np.zeros_like(r)
    for c, a, b in monomials:
        if a >= 1:
            ut += c * a * t ** (a - 1) * r**b
        ur += c * b * t**a * r ** (b - 1)
    return float(np.dot(w * rho / x**2, (ut**2 + ur**2) * r ** (D - 1)))


def mode_monomials(D: int, A: Sequence[float], B: Sequence[float]) -> list[tuple[float, int, int]]:
    """Lifted chain sum of exterior data sum_k A_k r^(2k-D), sum_k B_k r^(2k-D)."""
    out: list[tuple[float, int, int]] = []
    for velocity, coeffs in ((False, A), (True, B)):
        for k, weight in enumerate(coeffs, start=1):
            for j, c in enumerate(chain_coefficients(D, k, velocity)):
                out.append((weight * float(c), 2 * j + (1 if velocity else 0), 2 * k - D - 2 * j))
    return out


# ---------------------------------------------------------------------------
# exterior norms of one mode's data


def mode_norms(d: int, nu: int, R: float, A: Sequence[float], B: Sequence[float], n: int = 120) -> tuple[float, float, float]:
    """(angular, u1_norm2, du0_norm2) over r > R by half-line quadrature.

    The lifted data sum_k A_k r^(2k-D) is r^(-nu) times the mode
    coefficient, so u0 = sum_k A_k r^(2k-D+nu) and likewise u1.
    """
    D = d + 2 * nu
    x, w = gauss_legendre(n, 0.0, 1.0)
    r = R / x
    w = w * R / x**2
    u0 = sum(a * r ** (2 * k - D + nu) for k, a in enumerate(A, start=1)) + 0 * r
    du0 = sum(a * (2 * k - D + nu) * r ** (2 * k - D + nu - 1) for k, a in enumerate(A, start=1)) + 0 * r
    u1 = sum(b * r ** (2 * k - D + nu) for k, b in enumerate(B, start=1)) + 0 * r
    angular = nu * (d - 2 + nu) * float(np.dot(w, u0**2 * r ** (d - 3)))
    return (
        angular,
        float(np.dot(w, u1**2 * r ** (d - 1))),
        float(np.dot(w, du0**2 * r ** (d - 1))),
    )


# ---------------------------------------------------------------------------
# recursion envelope


def recursion_slack(x: np.ndarray, S: np.ndarray, alpha: float, l: float, inner: float = 4.0, sep: float = 4.0) -> float:
    """Largest violation of S(x2) <= (1/2)(x1/x2)^alpha + (1/2) S(x1)^l.

    Taken over grid pairs with x1 >= inner and x2 >= sep * x1 (radii in
    units of R); a correct envelope gives a value <= 0.
    """
    worst = -math.inf
    for i in range(x.size):
        ok = (x[:i] >= inner) & (x[:i] <= x[i] / sep)
        if np.any(ok):
            bound = 0.5 * (x[:i][ok] / x[i]) ** alpha + 0.5 * S[:i][ok] ** l
            worst = max(worst, float(S[i] - np.min(bound)))
    return worst


def loglog_slope(r: np.ndarray, values: np.ndarray) -> float:
    """Decay exponent beta of values ~ r^-beta, least squares in log-log."""
    slope, _ = np.polyfit(np.log(r), np.log(values), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# band-limited radiation profiles


class BandProfile:
    """Zero-mean band-limited radiation profile, as scripts/channel_balance.py draws it.

    g(s) = scale * [sum_k (a_k cos(ks/2) + b_k sin(ks/2)) - m] exp(-(s/3)^2),
    evaluated at mirror * s.  The mean m is fixed by the trapezoid on the
    sample grid, as in the script, so the function is known in closed form.
    """

    def __init__(self, ab: np.ndarray, half_width: float = 12.0, n: int = 4801):
        self.ab = np.asarray(ab, dtype=float)
        self.s = np.linspace(-half_width, half_width, n)
        env = np.exp(-((self.s / 3.0) ** 2))
        raw = self._wave(self.s) * env
        self.mean = float(np.trapezoid(raw, x=self.s) / np.trapezoid(env, x=self.s))
        self.half_width = half_width

    def _wave(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s)
        for k in range(1, 6):
            a, b = self.ab[k - 1]
            out += a * np.cos(0.5 * k * s) + b * np.sin(0.5 * k * s)
        return out

    def g(self, s: np.ndarray, scale: float = 1.0, mirror: bool = False) -> np.ndarray:
        x = -s if mirror else s
        return scale * (self._wave(x) - self.mean) * np.exp(-((x / 3.0) ** 2))

    def tail2(self, lo: float, hi: float, scale: float, mirror: bool) -> float:
        """int_lo^hi g^2 ds by Gauss-Legendre on the analytic profile."""
        x, w = gauss_legendre(400, lo, hi)
        return float(np.dot(w, self.g(x, scale, mirror) ** 2))
