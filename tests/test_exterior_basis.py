from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavechannel import exterior_basis as eb

from oracles import (
    exterior_norms_quadrature,
    extended_profiles_reference,
    halfline_rule,
    radial_span,
    random_mode,
)


class TestModeSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            eb.ModeSpec(1, 0)
        with pytest.raises(ValueError):
            eb.ModeSpec(3.0, 0)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            eb.ModeSpec(3, -1)

    def test_derived_quantities(self):
        s = eb.ModeSpec(3, 0)
        assert s.is_odd and s.mu == 1 and s.lifted_dim == 3
        s = eb.ModeSpec(4, 2)
        assert not s.is_odd and s.mu == 2 and s.lifted_dim == 8
        s = eb.ModeSpec(7, 1)
        assert s.mu == 3 and s.lifted_dim == 9

    @pytest.mark.parametrize(
        "d,nu,p_exps,q_exps",
        [
            (3, 0, (0,), ()),
            (5, 0, (1,), (0,)),
            (4, 0, (0,), ()),
            (7, 0, (2, 0), (1,)),
            (3, 1, (1,), (0,)),
            (3, 2, (2, 0), (1,)),
            (2, 0, (), ()),
            (2, 1, (0,), ()),
            (6, 0, (1,), (0,)),
        ],
    )
    def test_exponent_tables(self, d, nu, p_exps, q_exps):
        s = eb.ModeSpec(d, nu)
        assert s.p_exponents == p_exps
        assert s.q_exponents == q_exps

    @pytest.mark.parametrize("d", range(2, 14))
    def test_radial_case_matches_span(self, d):
        # nu = 0 exterior exponents of r must reproduce the radial span.
        s = eb.ModeSpec(d, 0)
        span = radial_span(d)
        u0_exps = tuple(-s.mu - e for e in s.p_exponents)
        u1_exps = tuple(-s.mu - 1 - e for e in s.q_exponents)
        assert sorted(u0_exps) == sorted(span.u0_exponents)
        assert sorted(u1_exps) == sorted(span.u1_exponents)

    def test_exponents_nonnegative_over_range(self):
        for d in range(2, 14):
            for nu in range(0, 7):
                s = eb.ModeSpec(d, nu)
                assert all(e >= 0 for e in s.p_exponents)
                assert all(e >= 0 for e in s.q_exponents)
                assert len(s.p_exponents) == s.k1_max
                assert len(s.q_exponents) == s.k2_max

    def test_lifted_forms_equal_the_parity_tables(self):
        # the counts and exponents as first written, one branch per parity of d
        for d in range(2, 40):
            for nu in range(30):
                s = eb.ModeSpec(d, nu)
                odd, w = d % 2 == 1, s.mu + s.nu
                k1 = (w + 1) // 2 if odd else w // 2
                k2 = w // 2 if odd else (w - 1) // 2
                p = tuple(w + odd - 2 * k for k in range(1, k1 + 1))
                q = tuple(w - (not odd) - 2 * k for k in range(1, k2 + 1))
                assert (s.k1_max, s.k2_max, s.p_exponents, s.q_exponents) == (k1, k2, p, q), (d, nu)
                assert min(p + q, default=0) >= 0


class TestRadialSpan:
    def test_d3(self):
        span = radial_span(3)
        assert span.u0_exponents == (-1,)
        assert span.u1_exponents == ()

    def test_d2_empty(self):
        span = radial_span(2)
        assert span.u0_exponents == ()
        assert span.u1_exponents == ()

    def test_d7(self):
        span = radial_span(7)
        assert span.u0_exponents == (-5, -3)
        assert span.u1_exponents == (-5,)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            radial_span(1)


class TestBuild:
    def test_wrong_lengths_rejected(self):
        spec = eb.ModeSpec(3, 0)
        with pytest.raises(ValueError):
            eb.build_exterior_mode(spec, 1.0, A=[1.0, 2.0])
        with pytest.raises(ValueError):
            eb.build_exterior_mode(spec, 1.0, A=[1.0], B=[1.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            eb.build_exterior_mode(eb.ModeSpec(3, 0), -1.0, A=[1.0])

    def test_empty_mode_allowed(self):
        data = eb.build_exterior_mode(eb.ModeSpec(2, 0), 1.0)
        assert data.position_poly().coeffs == (Fraction(0),)

    def test_polynomials_exact(self):
        data = eb.build_exterior_mode(eb.ModeSpec(7, 0), 1.0, A=[0.5, 2.0], B=[3.0])
        # P(z) = 0.5 z^2 + 2, Q(z) = 3 z
        assert data.position_poly().coeffs == (Fraction(2), Fraction(0), Fraction(1, 2))
        assert data.velocity_poly().coeffs == (Fraction(0), Fraction(3))


class TestEvalProfiles:
    def test_one_over_r(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        vals = eb.eval_extended(data, 2.0)
        assert vals.u0 == pytest.approx(0.5, abs=0)
        assert vals.du0_dr == pytest.approx(-0.25, abs=0)
        assert vals.u1 == 0.0

    def test_d7_second_slot(self):
        # A = (0, 1) activates the k1 = 2 monomial: u0 = r^-3.
        data = eb.build_exterior_mode(eb.ModeSpec(7, 0), 1.0, A=[0.0, 1.0], B=[0.0])
        vals = eb.eval_extended(data, 2.0)
        assert vals.u0 == pytest.approx(0.125, rel=1e-15)

    def test_leading_coefficient_limit(self):
        rng = np.random.default_rng(3)
        data = random_mode(rng, 5, 3, R=1.0)
        r = 1e8
        vals = eb.eval_extended(data, r)
        # constant term of P dominates as z -> 0
        lead = float(data.position_poly().coeffs[0])
        assert vals.u0 * r ** data.spec.mu == pytest.approx(lead, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        data = random_mode(rng, 6, 2, R=0.7)
        rr = np.linspace(0.8, 5.0, 13)
        vals = eb.eval_extended(data, rr)
        for i, r in enumerate(rr):
            one = eb.eval_extended(data, float(r))
            assert vals.u0[i] == pytest.approx(one.u0, rel=1e-15)
            assert vals.u1[i] == pytest.approx(one.u1, rel=1e-15)
            assert vals.du0_dr[i] == pytest.approx(one.du0_dr, rel=1e-15)


class TestEvalExtended:
    def test_matches_exterior_outside(self):
        # the exterior family r^-mu P(1/r), r^-mu-1 Q(1/r) and the slope of
        # the first, evaluated in exact arithmetic at the same binary radii
        rng = np.random.default_rng(5)
        data = random_mode(rng, 3, 1, R=1.5)
        mu, P, Q = data.spec.mu, data.position_poly(), data.velocity_poly()
        rr = np.linspace(1.6, 8.0, 9)
        got = eb.eval_extended(data, rr)
        for i, r in enumerate(rr):
            z = 1 / Fraction(r)
            want = (
                z**mu * P(z),
                z ** (mu + 1) * Q(z),
                z ** (mu + 1) * (-mu * P(z) - z * P.deriv()(z)),
            )
            for value, exact in zip((got.u0[i], got.u1[i], got.du0_dr[i]), want):
                assert value == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_bit_for_bit_against_plain_float_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        for nu in range(6):
            data = random_mode(rng, d, nu)
            R = data.R
            r = np.concatenate(([0.0], rng.uniform(0.0, R, 6), [R], rng.uniform(R, 6.0 * R, 6)))
            got = eb.eval_extended(data, r)
            want = extended_profiles_reference(data, r)
            for field in ("u0", "u1", "du0_dr"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (d, nu, field)

    def test_c1_match_at_radius(self):
        # Value and slope continuous across r = R: one-sided difference
        # quotients from either side agree to the O(h) stencil error.
        rng = np.random.default_rng(9)
        R, h = 1.25, 1e-6
        for d, nu in [(3, 0), (5, 1), (4, 2)]:
            data = random_mode(rng, d, nu, R=R)
            lo = eb.eval_extended(data, R - h)
            mid = eb.eval_extended(data, R)
            hi = eb.eval_extended(data, R + h)
            for field in ("u0", "u1"):
                v_lo, v_mid, v_hi = (getattr(v, field) for v in (lo, mid, hi))
                fd_minus = (v_mid - v_lo) / h
                fd_plus = (v_hi - v_mid) / h
                assert fd_plus == pytest.approx(fd_minus, rel=5e-4, abs=1e-4)
            assert (hi.u0 - lo.u0) / (2 * h) == pytest.approx(
                mid.du0_dr, rel=5e-4, abs=1e-4
            )

    def test_interior_is_even_quadratic(self):
        rng = np.random.default_rng(13)
        data = random_mode(rng, 3, 0, R=2.0)
        v = eb.eval_extended(data, np.array([0.25, 0.5, 1.0]))
        # a + b r^2 through three points has zero second difference in r^2
        r2 = np.array([0.25, 0.5, 1.0]) ** 2
        slope01 = (v.u0[1] - v.u0[0]) / (r2[1] - r2[0])
        slope12 = (v.u0[2] - v.u0[1]) / (r2[2] - r2[1])
        assert slope01 == pytest.approx(slope12, rel=1e-12, abs=1e-12)

    def test_rejects_negative_radius(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        with pytest.raises(ValueError):
            eb.eval_extended(data, -0.5)

    def test_origin_takes_blend_value(self):
        rng = np.random.default_rng(17)
        data = random_mode(rng, 3, 2, R=2.0)
        v = eb.eval_extended(data, np.array([0.0, 0.5, 1.0]))
        assert np.all(np.isfinite(v.u0)) and np.all(np.isfinite(v.u1))
        # the blend is even in r, so the radial derivative vanishes at 0
        assert v.du0_dr[0] == 0.0
        # a + b r^2 pinned by the two interior samples hits the origin value
        r2 = np.array([0.25, 1.0])
        b = (v.u0[2] - v.u0[1]) / (r2[1] - r2[0])
        assert v.u0[0] == pytest.approx(v.u0[1] - b * r2[0], rel=1e-12, abs=1e-12)


class TestSeriesNorms:
    def test_one_over_r_derivative_norm(self):
        for A, R in [(1.0, 1.0), (2.5, 3.0), (-1.5, 0.25)]:
            data = eb.build_exterior_mode(eb.ModeSpec(3, 0), R, A=[A])
            norms = eb.series_norms(data)
            assert norms.du0_norm2 == pytest.approx(A * A / R, rel=1e-15)
            assert norms.angular == 0.0
            assert norms.u1_norm2 == 0.0

    def test_zero_velocity_gives_zero_norm(self):
        data = eb.build_exterior_mode(eb.ModeSpec(5, 0), 2.0, A=[1.0], B=[0.0])
        assert eb.series_norms(data).u1_norm2 == 0.0

    def test_d3_nu1_angular(self):
        # P(z) = A z, so angular = 2 int_0^{1/R} A^2 z^2 dz = 2 A^2 / (3 R^3).
        A, R = 1.5, 2.0
        data = eb.build_exterior_mode(eb.ModeSpec(3, 1), R, A=[A], B=[0.0])
        norms = eb.series_norms(data)
        assert norms.angular == pytest.approx(2 * A * A / (3 * R**3), rel=1e-15)

    def test_d5_radial_hand_value(self):
        # u0 = A r^-3, derivative -3A r^-4: int (3A)^2 r^-8 r^4 dr = 3 A^2/R^3.
        A, R = 2.0, 1.5
        data = eb.build_exterior_mode(eb.ModeSpec(5, 0), R, A=[A], B=[0.0])
        norms = eb.series_norms(data)
        assert norms.du0_norm2 == pytest.approx(3 * A * A / R**3, rel=1e-15)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_quadrature_consistency(self, d):
        rng = np.random.default_rng(100 + d)
        for nu in range(0, 5):
            data = random_mode(rng, d, nu)
            exact = eb.series_norms(data)
            quad = exterior_norms_quadrature(data)
            scale = max(exact.angular, exact.u1_norm2, exact.du0_norm2, 1e-30)
            assert abs(exact.angular - quad.angular) <= 1e-10 * scale
            assert abs(exact.u1_norm2 - quad.u1_norm2) <= 1e-10 * scale
            assert abs(exact.du0_norm2 - quad.du0_norm2) <= 1e-10 * scale

    def test_gradient_decomposition_orthogonality(self):
        # Pointwise 3d quadrature of |grad(u0 Phi)|^2 for d=3, nu=2, m=0
        # against the sum of radial and angular series terms.
        A1, A2, R = 0.8, -1.3, 1.0
        data = eb.build_exterior_mode(eb.ModeSpec(3, 2), R, A=[A1, A2], B=[0.5])
        norms = eb.series_norms(data)
        series_total = norms.du0_norm2 + norms.angular

        from wavechannel.polylib import gauss_nodes

        r, wr = halfline_rule(R, 160)
        vals = eb.eval_extended(data, r)
        ang = gauss_nodes(80)
        ct, wt = ang.nodes, ang.weights  # cos(theta) rule on [-1, 1]
        norm_c = np.sqrt(5.0 / (16.0 * np.pi))
        phi = norm_c * (3 * ct**2 - 1)
        # d(Phi)/d(theta) = -sin(theta) dPhi/d(cos theta)
        dphi_dtheta2 = (1 - ct**2) * (norm_c * 6 * ct) ** 2
        two_pi = 2 * np.pi
        sphere_phi2 = two_pi * np.sum(wt * phi**2)
        sphere_dphi2 = two_pi * np.sum(wt * dphi_dtheta2)
        assert sphere_phi2 == pytest.approx(1.0, rel=1e-12)
        assert sphere_dphi2 == pytest.approx(6.0, rel=1e-12)
        total = np.sum(wr * vals.du0_dr**2 * r**2) * sphere_phi2 + np.sum(
            wr * vals.u0**2
        ) * sphere_dphi2
        assert total == pytest.approx(series_total, rel=1e-10)


class TestDecayBound:
    def test_one_over_r_saturates(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        chk = eb.decay_bound_check(data, 2.0)
        assert chk.tail == pytest.approx(0.5, abs=0)
        assert chk.reference == pytest.approx(0.5, abs=0)
        assert chk.ratio == 1.0
        assert not chk.trivial

    def test_one_over_r_ratio_all_radii(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[2.0])
        for R1 in [2.0, 3.7, 16.0, 1024.0]:
            assert eb.decay_bound_check(data, R1).ratio == 1.0

    def test_zero_data_trivial(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[0.0])
        chk = eb.decay_bound_check(data, 2.0)
        assert chk.trivial and chk.tail == 0.0 and chk.ratio == 0.0

    def test_rejects_small_tail_radius(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        with pytest.raises(ValueError):
            eb.decay_bound_check(data, 1.9)

    def test_d5_single_term_ratio(self):
        # Single monomial: tail/reference = (R/R1)^2 exactly.
        data = eb.build_exterior_mode(eb.ModeSpec(5, 0), 1.0, A=[1.0], B=[0.0])
        for R1 in [2.0, 4.0, 8.0]:
            chk = eb.decay_bound_check(data, R1)
            assert chk.ratio == pytest.approx((1.0 / R1) ** 2, rel=1e-14)

    def test_tail_monotone_on_geometric_grid(self):
        rng = np.random.default_rng(42)
        for d in (3, 4, 5, 6, 7):
            for nu in (0, 1, 3):
                data = random_mode(rng, d, nu, R=1.0)
                tails = [eb.decay_bound_check(data, 2.0 * 2**j).tail for j in range(6)]
                for a, b in zip(tails, tails[1:]):
                    assert b <= a + 1e-18

    def test_random_d5_suite_bounded(self):
        # The decay estimate carries an unquantified constant; this cap
        # is empirical for the sampled family and guards regressions.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            nu = int(rng.integers(0, 5))
            data = random_mode(rng, 5, nu, R=1.0)
            for R1 in (2.0, 4.0, 8.0):
                chk = eb.decay_bound_check(data, R1)
                if not chk.trivial:
                    assert np.isfinite(chk.ratio)
                    worst = max(worst, chk.ratio)
        assert worst <= 4.0


@given(
    d=st.integers(min_value=2, max_value=9),
    nu=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_norms_nonnegative(d, nu, seed):
    rng = np.random.default_rng(seed)
    data = random_mode(rng, d, nu)
    norms = eb.series_norms(data)
    assert norms.angular >= 0.0
    assert norms.u1_norm2 >= 0.0
    assert norms.du0_norm2 >= 0.0
