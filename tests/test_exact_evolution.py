from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavechannel import exact_evolution as ev
from wavechannel import exterior_basis as eb
from wavechannel.polylib import gauss_nodes

from oracles import cone_energy_terms_reference, wave_residual_reference


def admissible_cases(d_range=range(2, 14), nu_max=6):
    for d in d_range:
        for nu in range(nu_max + 1):
            spec = eb.ModeSpec(d, nu)
            D = spec.lifted_dim
            for kind in (ev.POSITION, ev.VELOCITY):
                for k in range(1, ev.max_admissible_k(D, kind) + 1):
                    yield spec, k, kind


class TestChainLift:
    def test_static_one_over_r(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        assert sol.c == (Fraction(1),)
        assert sol.monomials() == ((Fraction(1), 0, -1),)

    def test_lifted_seven_second_chain(self):
        sol = ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION)
        assert sol.c == (Fraction(1), Fraction(-3))

    def test_lifted_five_velocity(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 1), 1, ev.VELOCITY)
        assert sol.c == (Fraction(1),)
        assert sol.monomials() == ((Fraction(1), 1, -3),)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ev.chain_lift(eb.ModeSpec(3, 0), 2, ev.POSITION)
        with pytest.raises(ValueError):
            ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.VELOCITY)
        with pytest.raises(ValueError):
            ev.chain_lift(eb.ModeSpec(3, 0), 0, ev.POSITION)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ev.chain_lift(eb.ModeSpec(5, 0), 1, "acceleration")

    def test_chain_length_equals_k(self):
        for spec, k, kind in admissible_cases(range(3, 14), 4):
            sol = ev.chain_lift(spec, k, kind)
            assert len(sol.c) == k
            assert sol.c[0] == 1


class TestResidualOracle:
    def test_all_admissible_chains_solve_exactly(self):
        # master oracle: symbolic operator application cancels term by term
        count = 0
        for spec, k, kind in admissible_cases():
            sol = ev.chain_lift(spec, k, kind)
            assert ev.wave_residual(sol) == {}, (spec.d, spec.nu, k, kind)
            count += 1
        assert count > 100

    def test_oracle_detects_corruption(self):
        sol = ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION)
        bad = replace(sol, c=(Fraction(1), Fraction(-2)))
        assert ev.wave_residual(bad) != {}

    def test_oracle_detects_wrong_dimension(self):
        sol = ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION)
        bad = replace(sol, spec=eb.ModeSpec(9, 0))
        assert ev.wave_residual(bad) != {}


class TestIntegerChains:
    """Integer-numerator residuals and energy terms equal the plain `Fraction` sums."""

    def test_criterion_03_sweep_equals_the_fraction_oracles(self):
        count = 0
        for d in (3, 5, 7, 9, 11, 13):
            for spec, k, kind in admissible_cases([d], 6):
                sol = ev.chain_lift(spec, k, kind)
                assert ev.wave_residual(sol) == wave_residual_reference(sol) == {}
                want = tuple(
                    ev.ConeEnergyTerm(coeff=c, t_power=a, base_power=m)
                    for c, a, m in cone_energy_terms_reference(sol.monomials(), sol.lifted_dim)
                )
                assert ev.cone_energy_terms(sol) == want, (spec, k, kind)
                count += 1
        assert count == 273

    def test_scaled_form_is_c_over_one_denominator(self):
        sol = ev.chain_lift(eb.ModeSpec(13, 6), 6, ev.POSITION)
        monomials, den = sol._scaled
        assert den > 0
        assert [Fraction(n, den) for n, _, _ in monomials] == list(sol.c)
        assert [(a, b) for _, a, b in monomials] == [(a, b) for _, a, b in sol.monomials()]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda sol: replace(sol, c=(Fraction(1), Fraction(-2))),
            lambda sol: replace(sol, spec=eb.ModeSpec(9, 0)),
            lambda sol: replace(sol, c=(Fraction(1, 3), Fraction(-5, 7))),
        ],
    )
    def test_corrupted_chains_equal_the_fraction_oracles(self, corrupt):
        bad = corrupt(ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION))
        residual = ev.wave_residual(bad)
        assert residual != {}
        assert residual == wave_residual_reference(bad)
        assert [(t.coeff, t.t_power, t.base_power) for t in ev.cone_energy_terms(bad)] == (
            cone_energy_terms_reference(bad.monomials(), bad.lifted_dim)
        )

    def test_descriptor_energy_is_the_rounded_exact_pair_sum(self):
        # each float coefficient is sum_ij w_i w_j float(E_ij); it lies within
        # a few ulp of the exact energy of the weighted combination
        data = eb.build_exterior_mode(eb.ModeSpec(5, 2), 1.0, A=[0.7, -1.3], B=[1.1, 0.4])
        desc = ev.descriptor_for_mode(data)
        assert len(desc.terms) == 4
        combined = [(Fraction(w) * c, a, b) for w, sol in desc.terms for c, a, b in sol.monomials()]
        exact = {(a, m): c for c, a, m in cone_energy_terms_reference(combined, desc.lifted_dim)}
        table = {(a, m): c for c, a, m in desc._energy}
        assert table.keys() == exact.keys()
        for key, c in table.items():
            assert c == pytest.approx(float(exact[key]), rel=1e-14)

    def test_single_chain_energy_is_the_exact_terms_scaled(self):
        sol = ev.chain_lift(eb.ModeSpec(9, 1), 2, ev.VELOCITY)
        desc = ev.ExteriorDescriptor(terms=((1.5, sol),), valid_radius=1.0)
        assert desc._energy == tuple(
            (1.5 * 1.5 * float(t.coeff), t.t_power, t.base_power) for t in ev.cone_energy_terms(sol)
        )


def one_chain(sol, R=1.0):
    """The descriptor of one chain with unit weight, valid beyond R."""
    return ev.ExteriorDescriptor(((1.0, sol),), R)


def chain_cone_energy(sol, R, t):
    """Energy of one chain outside the light cone {r > R + |t|}."""
    return one_chain(sol, R).exterior_energy(R + abs(t), t)


def combination_energy(terms, rho, t):
    """Energy of a weighted chain combination in {r > rho}, cross terms included."""
    return ev.ExteriorDescriptor(tuple(terms), rho).exterior_energy(rho, t)


class TestEvalExact:
    def test_static_values(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        vals = one_chain(sol).eval(2.0, 17.0)
        assert vals.u == 0.5
        assert vals.ut == 0.0
        assert vals.ur == -0.25

    def test_lifted_seven_at_unit_point(self):
        sol = ev.chain_lift(eb.ModeSpec(7, 0), 2, ev.POSITION)
        assert one_chain(sol).eval(1.0, 1.0).u == -2.0

    def test_velocity_chain_at_time_zero(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 1), 1, ev.VELOCITY)
        vals = one_chain(sol).eval(2.0, 0.0)
        assert vals.u == 0.0
        assert vals.ut == 0.125

    def test_rejects_nonpositive_radius(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        with pytest.raises(ValueError):
            one_chain(sol).eval(0.0, 1.0)

    def test_initial_data_pattern(self):
        r = np.linspace(0.5, 4.0, 9)
        for spec, k, kind in admissible_cases(range(3, 10), 3):
            sol = ev.chain_lift(spec, k, kind)
            vals = one_chain(sol).eval(r, 0.0)
            power = r ** (2 * k - spec.lifted_dim)
            if kind == ev.POSITION:
                np.testing.assert_allclose(vals.u, power, rtol=1e-14)
                np.testing.assert_allclose(vals.ut, 0.0, atol=0)
            else:
                np.testing.assert_allclose(vals.u, 0.0, atol=0)
                np.testing.assert_allclose(vals.ut, power, rtol=1e-14)

    def test_derivatives_match_finite_differences(self):
        sol = ev.chain_lift(eb.ModeSpec(9, 2), 3, ev.POSITION)
        r, t, h = 1.7, 0.9, 1e-6
        desc = one_chain(sol)
        vals = desc.eval(r, t)
        fd_t = (desc.eval(r, t + h).u - desc.eval(r, t - h).u) / (2 * h)
        fd_r = (desc.eval(r + h, t).u - desc.eval(r - h, t).u) / (2 * h)
        assert vals.ut == pytest.approx(fd_t, rel=1e-8)
        assert vals.ur == pytest.approx(fd_r, rel=1e-8)

    def test_vectorized_matches_scalar(self):
        sol = ev.chain_lift(eb.ModeSpec(11, 1), 3, ev.VELOCITY)
        rr = np.linspace(0.3, 5.0, 7)
        desc = one_chain(sol)
        vals = desc.eval(rr, 2.5)
        for i, r in enumerate(rr):
            one = desc.eval(float(r), 2.5)
            assert vals.u[i] == pytest.approx(one.u, rel=1e-15)
            assert vals.ut[i] == pytest.approx(one.ut, rel=1e-15)
            assert vals.ur[i] == pytest.approx(one.ur, rel=1e-15)


def quadrature_exterior_energy(terms, rho, t, n=200):
    """Independent check of the closed form: r = rho/u Gauss integral."""
    D = terms[0][1].lifted_dim
    rule = gauss_nodes(n).mapped(0.0, 1.0)
    u = rule.nodes
    r = rho / u
    w = rule.weights * rho / u**2
    desc = ev.ExteriorDescriptor(terms=tuple(terms), valid_radius=rho)
    vals = desc.eval(r, t)
    return float(np.sum(w * (vals.ut**2 + vals.ur**2) * r ** (D - 1)))


class TestConeEnergy:
    def test_static_example(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        assert chain_cone_energy(sol, 1.0, 0.0) == 1.0
        assert chain_cone_energy(sol, 1.0, 3.0) == 0.25

    def test_velocity_closed_form(self):
        # E(t) = (R+t)^-1 + 3 t^2 (R+t)^-3 for the lifted-five velocity chain
        sol = ev.chain_lift(eb.ModeSpec(3, 1), 1, ev.VELOCITY)
        assert chain_cone_energy(sol, 1.0, 0.0) == 1.0
        assert chain_cone_energy(sol, 1.0, 1.0) == 0.875
        for t in (0.3, 2.0, 7.5):
            rho = 1.0 + t
            expected = 1 / rho + 3 * t**2 / rho**3
            assert chain_cone_energy(sol, 1.0, t) == pytest.approx(expected, rel=1e-15)

    def test_monotone_tail_example(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 1), 1, ev.VELOCITY)
        vals = [chain_cone_energy(sol, 1.0, t) for t in (0, 1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_even_in_time_for_single_chain(self):
        sol = ev.chain_lift(eb.ModeSpec(9, 0), 2, ev.POSITION)
        for t in (0.5, 1.5, 4.0):
            assert chain_cone_energy(sol, 2.0, t) == pytest.approx(
                chain_cone_energy(sol, 2.0, -t), rel=1e-15
            )

    def test_growth_exponents_certify_vanishing_limit(self):
        # every collected term decays at least like 1/t, symbolically
        for spec, k, kind in admissible_cases():
            sol = ev.chain_lift(spec, k, kind)
            terms = ev.cone_energy_terms(sol)
            assert terms, (spec.d, spec.nu, k, kind)
            for term in terms:
                assert term.base_power <= -1
                assert term.growth_exponent <= -1

    def test_nonincreasing_in_abs_time(self):
        rng = np.random.default_rng(31)
        for spec, k, kind in admissible_cases(range(3, 10), 2):
            sol = ev.chain_lift(spec, k, kind)
            R = float(rng.uniform(0.5, 2.0))
            ts = np.linspace(0.0, 50.0, 200)
            vals = np.array([chain_cone_energy(sol, R, t) for t in ts])
            assert np.all(np.diff(vals) <= 1e-12 * vals[0])
            vals_neg = np.array([chain_cone_energy(sol, R, -t) for t in ts])
            assert np.all(np.diff(vals_neg) <= 1e-12 * vals[0])

    @pytest.mark.xfail(
        strict=True,
        reason="the slowest admissible chain has E(t) ~ 1/t, so at |t| = 1000 R "
        "the ratio to E(0) is about 1e-3, three orders short of 1e-6; the "
        "vanishing limit is certified symbolically instead",
    )
    def test_millionth_of_initial_at_thousand_radii(self):
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        R = 1.0
        assert chain_cone_energy(sol, R, 1000.0 * R) <= 1e-6 * chain_cone_energy(
            sol, R, 0.0
        )

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(17)
        for spec, k, kind in admissible_cases(range(3, 9), 2):
            sol = ev.chain_lift(spec, k, kind)
            t = float(rng.uniform(-3, 3))
            rho = abs(t) + float(rng.uniform(0.5, 2.0))
            exact = one_chain(sol).exterior_energy(rho, t)
            quad = quadrature_exterior_energy([(1.0, sol)], rho, t)
            assert exact == pytest.approx(quad, rel=1e-12)

    def test_combination_cross_terms(self):
        # position + velocity chains in the same lifted dimension: the
        # closed form must carry the odd-in-t cross contribution
        spec = eb.ModeSpec(5, 0)
        pos = ev.chain_lift(spec, 1, ev.POSITION)
        vel = ev.chain_lift(spec, 1, ev.VELOCITY)
        terms = [(1.0, pos), (1.0, vel)]
        for t in (-1.0, -0.25, 0.5, 2.0):
            rho = abs(t) + 1.0
            exact = combination_energy(terms, rho, t)
            quad = quadrature_exterior_energy(terms, rho, t)
            assert exact == pytest.approx(quad, rel=1e-12)
        # E(t) = rho^-1 + 3 (1+t)^2 rho^-3 here, hence asymmetric in t
        e_plus = combination_energy(terms, 2.0, 1.0)
        e_minus = combination_energy(terms, 2.0, -1.0)
        assert e_minus == pytest.approx(0.5, rel=1e-15)
        assert e_plus > e_minus

    def test_dimension_mismatch_rejected(self):
        pos3 = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        pos7 = ev.chain_lift(eb.ModeSpec(7, 0), 1, ev.POSITION)
        with pytest.raises(ValueError):
            combination_energy([(1.0, pos3), (1.0, pos7)], 1.0, 0.0)


class TestModeBridge:
    @pytest.mark.parametrize("d,nu", [(3, 0), (3, 2), (5, 1), (7, 0), (4, 2), (6, 3)])
    def test_descriptor_reproduces_lifted_data(self, d, nu):
        rng = np.random.default_rng(d * 10 + nu)
        spec = eb.ModeSpec(d, nu)
        data = eb.build_exterior_mode(
            spec,
            1.0,
            A=rng.uniform(-2, 2, size=spec.k1_max),
            B=rng.uniform(-2, 2, size=spec.k2_max),
        )
        desc = ev.descriptor_for_mode(data)
        r = np.linspace(1.1, 6.0, 11)
        vals = desc.eval(r, 0.0)
        prof = eb.eval_extended(data, r)
        np.testing.assert_allclose(vals.u, r ** (-nu) * prof.u0, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(vals.ut, r ** (-nu) * prof.u1, rtol=1e-12, atol=1e-14)

    def test_covers_geometry(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        desc = ev.descriptor_for_mode(data)
        assert desc.covers(3.0, 1.5)
        assert not desc.covers(2.0, 1.5)

    def test_empty_mode_descriptor(self):
        data = eb.build_exterior_mode(eb.ModeSpec(2, 0), 1.0)
        desc = ev.descriptor_for_mode(data)
        assert desc.terms == ()
        vals = desc.eval(np.array([2.0, 3.0]), 1.0)
        assert np.all(vals.u == 0) and np.all(vals.ut == 0)
        assert desc.exterior_energy(2.0, 1.0) == 0.0

    def test_descriptor_energy_decays(self):
        rng = np.random.default_rng(8)
        spec = eb.ModeSpec(5, 2)
        data = eb.build_exterior_mode(
            spec,
            1.0,
            A=rng.uniform(-1, 1, size=spec.k1_max),
            B=rng.uniform(-1, 1, size=spec.k2_max),
        )
        desc = ev.descriptor_for_mode(data)
        e0 = desc.exterior_energy(1.0, 0.0)
        e_far = desc.exterior_energy(1.0 + 1e7, 1e7)
        assert e_far <= 1e-6 * e0


class TestBoundary:
    """The fixed-radius ghost equals eval(r, t).u exactly, not approximately."""

    # D = 2 has no chain, D = 3..8 have one to three, D = 9 has four
    MODES = [(2, 0), (3, 0), (4, 0), (3, 1), (6, 0), (7, 0), (3, 2), (8, 0), (9, 0)]

    @pytest.mark.parametrize("d,nu", MODES)
    def test_equals_eval_at_the_solver_ghost(self, d, nu):
        from wavechannel.radial_solver import SolverConfig

        rng = np.random.default_rng(100 * d + nu)
        spec = eb.ModeSpec(d, nu)
        data = eb.build_exterior_mode(
            spec,
            float(rng.uniform(0.6, 1.7)),
            A=rng.uniform(-2, 2, size=spec.k1_max),
            B=rng.uniform(-2, 2, size=spec.k2_max),
        )
        full = ev.descriptor_for_mode(data)
        descs = [full]
        if len(full.terms) > 3:  # also its one- to three-chain prefixes
            descs += [ev.ExteriorDescriptor(full.terms[:n], data.R) for n in (1, 2, 3)]
        for n_r in (401, 801, 3601):
            cfg = SolverConfig(r_max=16.0, n_r=n_r, t_final=4.0)
            r = cfg.radial_grid()
            r_ghost = r[-1] + cfg.dr
            times = [n * cfg.dt for n in range(cfg.n_steps + 1)]
            for desc in descs:
                ghost = desc.boundary(r_ghost)
                got = [ghost(t) for t in times]
                want = [desc.eval(r_ghost, t).u for t in times]
                assert got == want, (n_r, len(desc.terms))

    def test_float_radius_and_negative_times(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 2), 1.0, A=[0.7, -1.3], B=[0.4])
        desc = ev.descriptor_for_mode(data)
        ghost = desc.boundary(5.37)
        for t in np.linspace(-3.0, 3.0, 61):
            assert ghost(float(t)) == desc.eval(5.37, float(t)).u

    def test_rejects_arrays_and_nonpositive_radii(self):
        desc = ev.descriptor_for_mode(eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0]))
        with pytest.raises(ValueError):
            desc.boundary(np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            desc.boundary(0.0)


@given(
    d=st.integers(min_value=3, max_value=13),
    nu=st.integers(min_value=0, max_value=6),
    kind=st.sampled_from([ev.POSITION, ev.VELOCITY]),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_residual_zero(d, nu, kind, data):
    spec = eb.ModeSpec(d, nu)
    kmax = ev.max_admissible_k(spec.lifted_dim, kind)
    if kmax < 1:
        return
    k = data.draw(st.integers(min_value=1, max_value=kmax))
    sol = ev.chain_lift(spec, k, kind)
    assert ev.wave_residual(sol) == {}
