"""Exact polynomial machinery: families, quadrature, inequalities."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from wavechannel import polylib as pl
from oracles import legendre_eval, legendre_poly_rodrigues, modified_legendre_eval
from wavechannel.polylib import (
    Poly,
    family_norm2,
    gauss_nodes,
    legendre_poly,
    lemma_check,
    modified_legendre_ode_residual,
    modified_legendre_poly,
)


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        p = Poly([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero_poly(self):
        p = Poly([0, 0, 0])
        assert p.is_zero
        assert p.degree == 0

    def test_exact_arithmetic(self):
        p = Poly([Fraction(1, 3), 1])
        q = Poly([0, 0, 1])
        assert (p * q).coeffs == (0, 0, Fraction(1, 3), 1)
        assert (p + p).coeffs == (Fraction(2, 3), 2)

    def test_derivative_and_integral(self):
        p = Poly([0, 0, 0, 1])  # z^3
        assert p.deriv().coeffs == (0, 0, 3)
        assert p.integrate(0, 2) == 4
        assert p.integrate(0.5, 1) == Fraction(15, 64)

    def test_float_eval_vectorized(self):
        p = Poly([1.0, -2.0, 1.0])
        x = np.array([0.0, 1.0, 2.0])
        assert_allclose(p(x), (1 - x) ** 2)


def _fraction_ops(a: list[Fraction], b: list[Fraction]) -> dict:
    """Sum, product, derivative and antiderivative on Fraction lists, written plainly."""
    def strip(c):
        c = list(c)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return tuple(c)

    n = max(len(a), len(b))
    pad = lambda c: list(c) + [Fraction(0)] * (n - len(c))  # noqa: E731
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return {
        "sum": strip(x + y for x, y in zip(pad(a), pad(b))),
        "product": strip(prod),
        "deriv": strip([i * c for i, c in enumerate(a)][1:] or [Fraction(0)]),
        "antideriv": strip([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)]),
    }


class TestPolyInvariants:
    @staticmethod
    def assert_normalised(p: Poly):
        assert p.den > 0 and math.gcd(p.den, *p.num) == 1
        assert p.num[-1] != 0 or p.num == (0,)

    def test_one_polynomial_one_representation(self):
        half = Fraction(1, 2)
        ways = [
            Poly([Fraction(2, 4), 1]),
            Poly([1, 2]).scale(half),
            Poly([np.int64(1), np.int64(2)]) * half,
            (Poly([1, 2]) * Poly([Fraction(3, 7)])).scale(Fraction(7, 6)),
            Poly([half, 1, Fraction(5, 3)]) - Poly([0, 0, Fraction(10, 6)]),
            Poly([0, half, half, 0]).deriv().antideriv().deriv(),
            Poly([0.5, np.float32(1.0)]),
            Poly([1, 2]).scale(0.5),
        ]
        for p in ways:
            self.assert_normalised(p)
            assert (p.num, p.den) == ((1, 2), 2)
            assert p == ways[0] and hash(p) == hash(ways[0])
            assert p.coeffs == (half, 1)
        assert Poly([0, 0]) == Poly([Fraction(0, 5)]) == Poly([1, 1]) - Poly([1, 1])
        assert (Poly([0]).num, Poly([0]).den) == ((0,), 1)
        assert Poly([half]) == Poly([0.5])
        assert Poly([0.1]).coeffs == (Fraction(0.1),) != (Fraction(1, 10),)

    def test_operations_keep_the_normal_form_and_the_fraction_values(self):
        rng = random.Random(99)
        rational = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 40))  # noqa: E731
        for _ in range(300):
            a = [rational() for _ in range(rng.randint(1, 12))]
            b = [rational() for _ in range(rng.randint(1, 12))]
            p, q = Poly(a), Poly(b)
            c = rational() or Fraction(1)
            want = _fraction_ops(list(p.coeffs), list(q.coeffs))
            got = {"sum": p + q, "product": p * q, "deriv": p.deriv(), "antideriv": p.antideriv()}
            for name, r in got.items():
                self.assert_normalised(r)
                assert r.coeffs == want[name], name
                assert all(type(x) is Fraction for x in r.coeffs)
            for r in (p - q, -p, p.scale(c), c * p):
                self.assert_normalised(r)
            assert p.scale(c).coeffs == tuple(c * x for x in p.coeffs)
            x = rational()
            assert p(x) == sum(v * x**i for i, v in enumerate(p.coeffs))
            assert p.integrate(x, c) == sum(
                v * (c ** (i + 1) - x ** (i + 1)) / (i + 1) for i, v in enumerate(p.coeffs)
            )

    def test_float_coeffs_match_float_of_each_fraction_bit_for_bit(self):
        rng = random.Random(5)
        huge = Fraction(10**400 + 1, 3**700)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))
                      for _ in range(rng.randint(1, 10))] + [huge]
            p = Poly(coeffs)
            assert [c.hex() for c in p.float_coeffs] == [float(c).hex() for c in p.coeffs]


class TestGauss:
    def test_one_node(self):
        rule = gauss_nodes(1)
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [2.0])

    def test_two_nodes(self):
        rule = gauss_nodes(2)
        assert_allclose(sorted(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert_allclose(rule.weights, [1.0, 1.0])

    def test_degree_30_with_16_nodes(self):
        rule = gauss_nodes(16)
        val = rule.integrate(lambda x: x**30)
        assert abs(val - 2.0 / 31.0) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_weight_sums_and_exactness(self, n):
        rule = gauss_nodes(n)
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        for deg in range(0, 2 * n, max(1, n // 2)):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(rule.integrate(lambda x, d=deg: x**d) - exact) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_nodes(0)
        with pytest.raises(ValueError):
            gauss_nodes(513)


class TestLegendre:
    def test_p0_is_one(self):
        assert legendre_eval(0, 0.37) == 1.0

    def test_p3_value(self):
        # (5x^3 - 3x)/2 at 0.5, worked by hand
        assert abs(legendre_eval(3, 0.5) - (-0.4375)) < 1e-15

    def test_norm_p2(self):
        p2 = legendre_poly(2)
        assert (p2 * p2).integrate(Fraction(-1), Fraction(1)) == Fraction(2, 5)

    @pytest.mark.parametrize("n", range(21))
    def test_exact_norms(self, n):
        p = legendre_poly(n)
        assert (p * p).integrate(Fraction(-1), Fraction(1)) == family_norm2("legendre", n)

    @pytest.mark.parametrize("n", range(21))
    def test_recurrence_vs_rodrigues(self, n):
        assert legendre_poly(n) == legendre_poly_rodrigues(n)
        rng = np.random.default_rng(5 + n)
        x = rng.uniform(-1, 1, size=100)
        assert_allclose(
            legendre_eval(n, x), legendre_poly_rodrigues(n)(x), atol=1e-12
        )

    @pytest.mark.parametrize("n", range(16))
    def test_bounded_by_one(self, n):
        x = np.linspace(-1, 1, 2001)
        assert np.max(np.abs(legendre_eval(n, x))) <= 1.0 + 1e-12


class TestModifiedLegendre:
    def test_q0_q1(self):
        assert modified_legendre_poly(0) == Poly([Fraction(1, 2)])
        assert modified_legendre_poly(1) == Poly([Fraction(-1, 4), Fraction(3, 4)])
        assert abs(modified_legendre_eval(1, 1.0) - 0.5) < 1e-15

    def test_norm_q1(self):
        q1 = modified_legendre_poly(1)
        w = Poly([1, 1])
        assert (w * q1 * q1).integrate(Fraction(-1), Fraction(1)) == Fraction(1, 4)

    @pytest.mark.parametrize("n", range(21))
    def test_exact_norms(self, n):
        q = modified_legendre_poly(n)
        w = Poly([1, 1])
        assert (w * q * q).integrate(Fraction(-1), Fraction(1)) == family_norm2("modified", n)

    @pytest.mark.parametrize("n", range(21))
    def test_leading_coefficient(self, n):
        q = modified_legendre_poly(n)
        expect = Fraction(
            math.factorial(2 * n + 1), 2 ** (n + 1) * math.factorial(n) * math.factorial(n + 1)
        )
        assert q.coeffs[-1] == expect

    @pytest.mark.parametrize("n", range(16))
    def test_ode_residual_exactly_zero(self, n):
        assert modified_legendre_ode_residual(n).is_zero

    @pytest.mark.parametrize("n", range(21))
    def test_recurrence_vs_derivative_form(self, n):
        rng = np.random.default_rng(11 + n)
        x = rng.uniform(-1, 1, size=100)
        assert_allclose(
            modified_legendre_eval(n, x),
            modified_legendre_poly(n)(x),
            atol=1e-12,
        )

    def test_orthogonality_by_quadrature(self):
        rule = gauss_nodes(64)
        for n in range(0, 21, 4):
            for m in range(0, 21, 5):
                if n == m:
                    continue
                val = rule.integrate(
                    lambda x: (x + 1)
                    * modified_legendre_eval(n, x)
                    * modified_legendre_eval(m, x)
                )
                assert abs(val) < 1e-12

    def test_legendre_orthogonality_by_quadrature(self):
        rule = gauss_nodes(64)
        for n in range(0, 21, 4):
            for m in range(1, 21, 5):
                if n == m:
                    continue
                val = rule.integrate(lambda x: legendre_eval(n, x) * legendre_eval(m, x))
                assert abs(val) < 1e-12


def _random_exact_poly(rng, max_degree=15):
    deg = int(rng.integers(0, max_degree + 1))
    num = rng.integers(-9, 10, size=deg + 1)
    den = rng.integers(1, 10, size=deg + 1)
    if num[-1] == 0:
        num[-1] = 1
    return Poly([Fraction(int(n), int(d)) for n, d in zip(num, den)])


class TestLemmaChecks:
    def test_constant_attains_equality_sup_odd(self):
        res = lemma_check(Poly([1]), "sup_odd", 2)
        assert res.lhs == res.rhs == 1
        assert res.holds

    def test_linear_example_deriv_odd(self):
        # P(z) = z - 1 on [0, 2], l = 1: int_0^1 z^2 = 1/3 against 2*1*2 * 1/2 * 2/3
        res = lemma_check(Poly([-1, 1]), "deriv_odd", 2, 1)
        assert res.lhs == Fraction(1, 3)
        assert res.rhs == Fraction(4, 3)
        assert res.holds

    def test_zero_poly_trivial(self):
        res = lemma_check(Poly([0]), "deriv_even", 4, 1)
        assert res.lhs == res.rhs == 0
        assert res.holds

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            lemma_check(Poly([1, 1]), "deriv_odd", 1, Fraction(3, 4))
        with pytest.raises(ValueError):
            lemma_check(Poly([1]), "sup_odd", 0)
        with pytest.raises(ValueError):
            lemma_check(Poly([1]), "nope", 1)

    def test_sup_max_catches_interior_peak(self):
        # P(z) = z(2-z) peaks at z=1 inside [0, 2]
        res = lemma_check(Poly([0, 2, -1]), "sup_odd", 2)
        assert res.lhs == 1
        assert res.holds

    @pytest.mark.parametrize("variant", ["sup_odd", "deriv_odd", "sup_even", "deriv_even"])
    def test_random_rational_polys(self, variant):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = _random_exact_poly(rng)
            L = Fraction(int(rng.integers(1, 8)))
            res = lemma_check(p, variant, L, L / 2)
            assert res.holds, (variant, p.coeffs, L, res.lhs, res.rhs)

    @given(
        coefs=st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=9),
            min_size=1,
            max_size=9,
        ),
        variant=st.sampled_from(["sup_odd", "deriv_odd", "sup_even", "deriv_even"]),
        L=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_inequalities_hold_property(self, coefs, variant, L):
        res = lemma_check(Poly(coefs), variant, Fraction(L), Fraction(L, 2))
        assert res.holds


class TestRootIsolation:
    def test_isolates_simple_roots(self):
        # (z-1)(z-2)(z-3)
        p = Poly([-6, 11, -6, 1])
        brackets = pl.isolate_real_roots(p, Fraction(0), Fraction(4))
        assert len(brackets) == 3
        roots = sorted(float(pl._refine_root(p, lo, hi)) for lo, hi in brackets)
        assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)

    def test_counts_distinct_roots_with_multiplicity(self):
        # (z-1)^2 (z-2): two distinct roots
        p = Poly([-2, 5, -4, 1])
        brackets = pl.isolate_real_roots(p, Fraction(0), Fraction(3))
        assert len(brackets) == 2

    def test_multiple_root_at_left_end(self):
        # z^2 (z-1)(z-2): the double root at the open end 0 must not
        # hide the two interior roots
        p = Poly([0, 0, 2, -3, 1])
        brackets = pl.isolate_real_roots(p, Fraction(0), Fraction(3))
        assert len(brackets) == 2
        roots = sorted(float(pl._refine_root(p, lo, hi)) for lo, hi in brackets)
        assert_allclose(roots, [1.0, 2.0], atol=1e-12)

    def test_sup_even_sees_interior_maximum(self):
        # P + 2zP' has a double root at z = 0; the sup of zP^2 on [0, 3]
        # sits near z = 2.74, far above the endpoint value 2.85e7
        P = [0, 0, Fraction(6, 5), Fraction(-1, 8), Fraction(-3, 4), Fraction(-3, 5),
             3, -1, -1, Fraction(1, 2), -1, -2, Fraction(7, 9)]
        p = Poly(P)
        crit = p + Poly([0, 2]) * p.deriv()
        assert len(pl.isolate_real_roots(crit, Fraction(0), Fraction(3))) == 2
        z = np.linspace(0.0, 3.0, 200001)
        dense = float(np.max(z * p(z) ** 2))
        lhs = float(lemma_check(P, "sup_even", 3).lhs)
        assert lhs == pytest.approx(dense, rel=1e-6)

    def test_root_at_the_right_end_is_exact(self):
        # 3z - 1 vanishes at 1/3, which no float holds
        assert pl._refine_root(Poly([-1, 3]), Fraction(0), Fraction(1, 3)) == Fraction(1, 3)

    def test_sup_odd_critical_point_at_a_bracket_end(self):
        # P' = (8z - 1)(4z - 3)/12; the first bisection of (0, 3/2] puts
        # the root 3/4 at the right end of the bracket (3/8, 3/4]
        P = [-1, Fraction(1, 4), Fraction(-7, 6), Fraction(8, 9)]
        assert lemma_check(P, "sup_odd", Fraction(3, 2)).lhs == Fraction(1225, 1024)

    def test_even_multiplicity_critical_roots(self):
        # P = (z - 1)^3: P' = 3(z - 1)^2 and P + 2zP' = (z - 1)^2 (7z - 1)
        # have a double root at 1, where P is monotone, so both sups sit at z = 2
        p = Poly([-1, 3, -3, 1])
        assert lemma_check(p, "sup_odd", 2).lhs == 1
        assert lemma_check(p, "sup_even", 2).lhs == 2


    def test_sup_even_reaches_the_critical_value_above_degree_15(self):
        # degree 17 on [0, 2]: a Chebyshev-sampled sign change plus one
        # Newton step lands 1.3e-4 from the critical point z* = 1.886435,
        # 1.1e-6 short of the sup; z* here comes from exact bisection
        P = [Fraction(-7, 6), 3, Fraction(-9, 4), 0, 1, Fraction(-6, 5), Fraction(1, 5),
             Fraction(-8, 9), 2, Fraction(-4, 5), Fraction(2, 7), Fraction(9, 7),
             Fraction(1, 3), 1, Fraction(1, 5), 1, Fraction(-4, 9), Fraction(-1, 7)]
        p, z = Poly(P), Poly([0, 1])
        crit = p + 2 * z * p.deriv()
        lo, hi = Fraction(1886, 1000), Fraction(1887, 1000)
        assert crit(lo) * crit(hi) < 0
        for _ in range(60):
            mid = (lo + hi) / 2
            if (crit(mid) > 0) == (crit(lo) > 0):
                lo = mid
            else:
                hi = mid
        peak = (z * p * p)(lo)
        lhs = lemma_check(P, "sup_even", 2).lhs
        assert lhs >= peak * (1 - Fraction(1, 10**12)), float((peak - lhs) / peak)

# ---------------------------------------------------------------------------
# Golden lemma_check values, frozen from the Fraction-coefficient Poly; the
# two degree-20 sup_odd cases re-frozen when the sup sides took Sturm
# isolation at every degree (each lhs rose by 2.9e-8 relative)

GOLDEN = Path(__file__).parent / "data" / "lemma_golden.json"


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def golden_inputs() -> list[tuple[str, list[Fraction], Fraction, Fraction]]:
    """Seeded lemma_check inputs behind the golden fixture.

    For each variant: two draws of each degree 0..15 and one of 16..20,
    one draw of each degree 3..20 whose critical polynomial has a double
    root at z = 0 (for sup_odd P' = O(z^2); otherwise P = O(z^2), so
    P + 2zP' = O(z^2)), and a copy of every draw scaled by a signed
    rational.
    """
    rng = random.Random(20240607)
    cases = []
    for variant in pl.VARIANTS:
        draws = [(d, False) for d in range(21) for _ in range(2 if d <= 15 else 1)]
        draws += [(d, True) for d in range(3, 21)]
        for degree, double_root in draws:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = Fraction(1)
            if double_root:
                low = (1, 2) if variant == "sup_odd" else (0, 1)
                for i in low:
                    coeffs[i] = Fraction(0)
            L = Fraction(rng.randint(1, 16), rng.randint(1, 4))
            l = L * Fraction(rng.randint(1, 4), 8)
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            cases.append((variant, coeffs, L, l))
            cases.append((variant, [scale * c for c in coeffs], L, l))
    return cases


def write_golden(path: Path = GOLDEN) -> None:
    """Run lemma_check on golden_inputs() and store inputs and results."""
    rows = []
    for variant, coeffs, L, l in golden_inputs():
        chk = lemma_check(coeffs, variant, L, l)
        rows.append({
            "variant": variant,
            "coeffs": [_ratio(c) for c in coeffs],
            "L": _ratio(L),
            "l": _ratio(l),
            "lhs": _ratio(chk.lhs),
            "rhs": _ratio(chk.rhs),
            "holds": chk.holds,
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(row) for row in rows)
    path.write_text('{"cases": [\n' + lines + "\n]}\n")


class TestLemmaGolden:
    def test_inputs_match_generator(self):
        rows = json.loads(GOLDEN.read_text())["cases"]
        inputs = [(r["variant"], [Fraction(c) for c in r["coeffs"]], Fraction(r["L"]),
                   Fraction(r["l"])) for r in rows]
        assert inputs == golden_inputs()

    def test_exact_values(self):
        for r in json.loads(GOLDEN.read_text())["cases"]:
            coeffs = [Fraction(c) for c in r["coeffs"]]
            chk = lemma_check(coeffs, r["variant"], Fraction(r["L"]), Fraction(r["l"]))
            assert (chk.lhs, chk.rhs, chk.holds) == (
                Fraction(r["lhs"]), Fraction(r["rhs"]), r["holds"]
            ), (r["variant"], r["coeffs"], r["L"], r["l"])


# ---------------------------------------------------------------------------
# Root isolation against the plain Fraction / np.polyval reference


def sturm_cases(n: int = 2000):
    """Seeded (poly, a, b) of degree 1..20.

    A quarter random rational polynomials, a quarter products of linear
    factors with multiplicities 1..3 times a random cofactor, a quarter
    of those with an interval end on one of their roots, and a quarter
    random polynomials on intervals with a negative left end.
    """
    rng = random.Random(7331)
    rational = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    for i in range(n):
        kind = i % 4
        if kind in (1, 2):
            p, roots, target = Poly([rational() or 1 for _ in range(rng.randint(1, 3))]), [], rng.randint(2, 20)
            while not roots or p.degree < target:
                roots.append(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                for _ in range(min(rng.randint(1, 3), 20 - p.degree)):
                    p = p * Poly([-roots[-1], 1])
        else:
            coeffs = [rational() for _ in range(rng.randint(2, 21))]
            p = Poly(coeffs[:-1] + [coeffs[-1] or Fraction(1)])
        width = Fraction(rng.randint(1, 24), rng.randint(1, 4))
        if kind == 2:
            root = rng.choice(roots)
            a = root if rng.random() < 0.5 else root - width
        else:
            a = Fraction(rng.randint(-16, -1 if kind == 3 else 4), rng.randint(1, 4))
        b = a + width
        yield p, a, b


class TestSturmOracle:
    def test_chain_brackets_and_refined_roots(self):
        seen_brackets = seen_multiple = 0
        for p, a, b in sturm_cases():
            coeffs = p.coeffs
            chain = oracles.sturm_chain_reference(coeffs)
            assert pl._sturm_chain(p) == chain, (coeffs, a, b)
            brackets = pl.isolate_real_roots(p, a, b)
            assert brackets == oracles.isolate_real_roots_reference(chain, a, b), (coeffs, a, b)
            for lo, hi in brackets:
                got = pl._refine_root(p, lo, hi)
                want = oracles.refine_root_reference(coeffs, lo, hi)
                assert got == want, (coeffs, lo, hi)
            seen_brackets += len(brackets)
            seen_multiple += len(chain[0]) < len(coeffs)
        assert seen_brackets > 2000 and seen_multiple > 500


if __name__ == "__main__":
    write_golden()
