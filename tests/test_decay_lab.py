import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavechannel import decay_lab as dl
from wavechannel import exterior_basis as eb
from wavechannel import radial_solver as rs

from oracles import worst_case_S_reference


class TestRecursionParams:
    def test_gamma_star(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.1)
        assert p.gamma_star == pytest.approx(0.8, rel=1e-15)

    def test_fixed_point_is_admissible(self):
        dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.8)

    @pytest.mark.parametrize(
        "alpha,l,gamma0",
        [
            (0.0, 5.0, 0.1),
            (-1.0, 5.0, 0.1),
            (1.0, 1.0, 0.1),
            (1.0, 0.5, 0.1),
            (1.0, 5.0, 0.0),
            (1.0, 5.0, 0.9),
            (1.0, 5.0, -0.1),
        ],
    )
    def test_rejects_bad_params(self, alpha, l, gamma0):
        with pytest.raises(ValueError):
            dl.RecursionParams(alpha=alpha, l=l, gamma0=gamma0)


class TestGammaSequence:
    def test_fixed_point_stays_put(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.8)
        seq = dl.gamma_sequence(p, 10)
        assert np.allclose(seq, 0.8, rtol=1e-14, atol=0)

    def test_converges_from_below(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.1)
        seq = dl.gamma_sequence(p, 50)
        assert abs(seq[-1] - 0.8) <= 1e-6
        assert np.all(np.diff(seq) >= 0)
        assert np.all(seq <= 0.8 + 1e-15)

    def test_interpolation_exponent_pair(self):
        # alpha = 5 kappa with kappa = 0.19 gives the limit 4 kappa
        p = dl.RecursionParams(alpha=0.95, l=5.0, gamma0=0.05)
        seq = dl.gamma_sequence(p, 200)
        assert seq[-1] == pytest.approx(0.76, abs=1e-9)

    def test_length_and_validation(self):
        p = dl.RecursionParams(alpha=2.0, l=3.0, gamma0=0.4)
        assert dl.gamma_sequence(p, 0).tolist() == [0.4]
        assert dl.gamma_sequence(p, 7).size == 8
        with pytest.raises(ValueError):
            dl.gamma_sequence(p, -1)

    @given(
        alpha=st.floats(0.1, 10.0),
        l=st.floats(1.1, 10.0),
        frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_contraction_identity(self, alpha, l, frac):
        gstar = (1 - 1 / l) * alpha
        p = dl.RecursionParams(alpha=alpha, l=l, gamma0=frac * gstar)
        seq = dl.gamma_sequence(p, 30)
        for k in range(30):
            lhs = gstar - seq[k + 1]
            rhs = alpha / (alpha + seq[k] * l) * (gstar - seq[k])
            assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, alpha))
        assert np.all(np.diff(seq) >= -1e-15 * alpha)
        assert np.all(seq <= gstar * (1 + 1e-12))


class TestFitExponent:
    def test_exact_power_law(self):
        r = np.geomspace(1.0, 100.0, 12)
        fit = dl.fit_exponent(np.column_stack([r, 1.0 / r]))
        assert fit.beta == pytest.approx(1.0, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_modulated_power_law(self):
        r = np.geomspace(1.0, 1000.0, 40)
        v = (1.0 / r) * (1 + 0.01 * np.sin(np.log(r)))
        fit = dl.fit_exponent(np.column_stack([r, v]))
        assert fit.beta == pytest.approx(1.0, abs=0.02)
        assert 0 < fit.residual < 0.02

    def test_constant_samples(self):
        r = np.geomspace(1.0, 50.0, 8)
        fit = dl.fit_exponent(np.column_stack([r, np.full(8, 3.7)]))
        assert fit.beta == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            dl.fit_exponent([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])
        with pytest.raises(ValueError):
            dl.fit_exponent([(1.0, 1.0), (2.0, 0.5), (4.0, 0.0), (8.0, 0.1)])
        with pytest.raises(ValueError):
            dl.fit_exponent([(1.0, 1.0), (-2.0, 0.5), (4.0, 0.2), (8.0, 0.1)])


class TestDecayReport:
    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(ValueError):
            dl.DecayReport(
                r=np.array([2.0, 1.0]),
                values=np.array([1.0, 1.0]),
                exponent=0.0,
                residual=0.0,
            )
        with pytest.raises(ValueError):
            dl.DecayReport(
                r=np.array([1.0, 2.0]),
                values=np.array([1.0, -1.0]),
                exponent=0.0,
                residual=0.0,
            )


class TestWorstCase:
    def test_canonical_exponent_band(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.1)
        rep = dl.worst_case_S(p, R=1.0, r_max=1e6)
        # the extremal sits at gamma* up to an O(1/log r) amplitude drift
        assert abs(rep.exponent - 0.8) <= 0.02
        assert rep.exponent >= 0.8 - 0.02
        assert np.all(np.diff(rep.values) <= 1e-15)
        assert np.all(rep.values <= 0.499 + 1e-15)

    def test_zero_seed_gives_pure_envelope(self):
        p = dl.RecursionParams(alpha=1.5, l=5.0, gamma0=0.1)
        x, S = dl._extremal_S(p, 1e6, dl.GRID_RATIO, 0.0)
        # with nothing to feed the S^l term the binding constraint is
        # the alpha envelope through the innermost admissible radius
        decade = x >= x[-1] / 10.0
        fit = dl.fit_exponent(np.column_stack([x[decade], S[decade]]))
        assert fit.beta == pytest.approx(1.5, rel=1e-9)
        assert fit.residual <= 1e-9
        far = x >= 16.0
        assert np.all(S[far] <= 0.5 * (4.0 / x[far]) ** 1.5 + 1e-15)

    def test_scale_invariance_in_R(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.1)
        a = dl.worst_case_S(p, R=1.0, r_max=1e6)
        b = dl.worst_case_S(p, R=2.0, r_max=2e6)
        assert b.exponent == pytest.approx(a.exponent, rel=1e-12)
        assert np.allclose(b.r, 2.0 * a.r)
        assert np.allclose(b.values, a.values)

    def test_second_parameter_point(self):
        p = dl.RecursionParams(alpha=0.5, l=3.0, gamma0=0.05)
        rep = dl.worst_case_S(p, R=1.0, r_max=1e6)
        assert abs(rep.exponent - p.gamma_star) <= 0.02

    def test_validation(self):
        p = dl.RecursionParams(alpha=1.0, l=5.0, gamma0=0.1)
        with pytest.raises(ValueError):
            dl.worst_case_S(p, R=1.0, r_max=100.0)
        with pytest.raises(ValueError):
            dl.worst_case_S(p, R=-1.0, r_max=1e6)


class TestEnvelopeOracle:
    """The block envelope equals the masked row-by-row loop, bit for bit."""

    @pytest.mark.parametrize("grid_ratio", [1.02, 1.05, 1.3, 4.5])
    @pytest.mark.parametrize("alpha,l", [(2.0, 3.0), (0.5, 1.5), (1.0, 5.0), (3.0, 1.2), (0.3, 8.0)])
    def test_equals_the_masked_loop(self, alpha, l, grid_ratio):
        p = dl.RecursionParams(alpha, l, 0.1 * (1 - 1 / l) * alpha)
        for R in (0.7, 1.0, 2.0):
            for seed in (0.499, 0.0):
                want = worst_case_S_reference(p, R, 1e6, grid_ratio, seed)
                x, S = dl._extremal_S(p, 1e6 / R, grid_ratio, seed)
                assert np.array_equal(x, grid_ratio ** np.arange(want.size))
                assert np.array_equal(S, want), (R, seed)
                if (grid_ratio, seed) == (dl.GRID_RATIO, dl.SEED_VALUE):
                    assert np.array_equal(dl.worst_case_S(p, R, 1e6).values, want)

    def test_capped_blocks_on_a_fine_grid(self):
        # 1.005 puts about 280 rows in a block, so the cell cap splits them
        p = dl.RecursionParams(1.0, 5.0, 0.08)
        want = worst_case_S_reference(p, 1.0, 1e5, 1.005)
        _, S = dl._extremal_S(p, 1e5, 1.005, 0.499)
        assert np.array_equal(S, want)


def one_over_r_field(r_max: float, n_r: int, A: float = 1.0) -> rs.RadialGridField:
    mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[A])
    cfg = rs.SolverConfig(r_max=r_max, n_r=n_r, t_final=1.0)
    return rs.lifted_field_from_mode(mode, cfg)


@pytest.fixture(scope="module")
def report():
    fld = one_over_r_field(72.0, 3601)
    probes = [2.0, 4.0, 8.0, 16.0, 32.0]
    return dl.nonlinear_decay_pipeline(
        fld, "defocusing_quintic", probe_radii=probes
    )


class TestPipeline:
    def test_radiation_tail_at_floor(self, report):
        # exterior 1/r data is non-radiative: S(r) vanishes past R
        assert np.max(report.s_report.values) <= 1e-9
        assert report.s_report.exponent == math.inf
        assert np.all(np.diff(report.s_report.values) <= 1e-15)

    def test_gradient_tail_matches_hand_integral(self, report):
        probes = report.dr_u0_report.r
        assert np.allclose(report.dr_u0_report.values, 1.0 / probes, rtol=1e-4)
        assert report.dr_u0_report.exponent == pytest.approx(1.0, abs=0.05)
        assert report.dr_u0_report.exponent == pytest.approx(1.0, abs=1e-3)

    def test_gradient_tail_agrees_with_exact_route(self, report):
        fld = one_over_r_field(72.0, 3601)
        desc = fld.descriptor
        exact = np.array(
            [desc.exterior_energy(float(p), 0.0) for p in report.dr_u0_report.r]
        )
        assert np.allclose(report.dr_u0_report.values, exact, rtol=1e-4)

    def test_sixth_power_tail_exponent(self, report):
        assert report.l6_report.exponent >= 1.8
        assert np.all(report.l6_report.values > 0)
        # static 1/r would give 4 pi / (3 r^3); the compactified run
        # matches it at the inner probes where the cutoff is invisible
        inner = report.l6_report.r[:2]
        expect = 4.0 * math.pi / (3.0 * inner**3)
        assert np.allclose(report.l6_report.values[:2], expect, rtol=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the cutoff cuts into the outer probes' windows, "
        "yet the l6 report says truncated: false",
    )
    def test_untruncated_tails_keep_their_initial_value(self, report):
        # each tail is a max over t that includes t = 0, where u0 = 1/r
        # outside R = 1 gives int_{|x|>rho} u0^6 dx = 4 pi / (3 rho^3)
        rho = report.l6_report.r
        bound = (1.0 - 1e-4) * 4.0 * math.pi / (3.0 * rho**3)
        assert np.all(report.l6_report.values >= bound), report.l6_report.values / bound

    def test_geometry_echo(self, report):
        c0, c1 = report.cutoff
        assert c0 > 32.0 and c1 > c0
        assert report.t_end >= 4.0

    def test_deterministic(self, report):
        fld = one_over_r_field(72.0, 3601)
        again = dl.nonlinear_decay_pipeline(
            fld, "defocusing_quintic", probe_radii=[2.0, 4.0, 8.0, 16.0, 32.0]
        )
        assert np.array_equal(again.l6_report.values, report.l6_report.values)
        assert np.array_equal(again.s_report.values, report.s_report.values)

    def test_gaussian_without_descriptor_refused(self):
        cfg = rs.SolverConfig(r_max=24.0, n_r=1201, t_final=1.0)
        r = cfg.radial_grid()
        fld = rs.RadialGridField(r=r, u=np.exp(-(r**2)), ut=np.zeros_like(r), lifted_dim=3)
        with pytest.raises(ValueError, match="no exterior descriptor"):
            dl.nonlinear_decay_pipeline(
                fld, "defocusing_quintic", probe_radii=[1.0, 1.5, 2.25, 3.375], t_final=2.0
            )

    def test_validation(self):
        fld = one_over_r_field(72.0, 3601)
        with pytest.raises(ValueError):
            dl.nonlinear_decay_pipeline(
                fld, "defocusing_quintic", probe_radii=[2.0, 4.0, 8.0]
            )
        with pytest.raises(ValueError):
            dl.nonlinear_decay_pipeline(
                fld, "defocusing_quintic", probe_radii=[2.0, 4.0, 8.0, 80.0]
            )
        with pytest.raises(ValueError):
            dl.nonlinear_decay_pipeline(
                fld, "defocusing_quintic", probe_radii=[4.0, 2.0, 8.0, 16.0]
            )
        small = one_over_r_field(40.0, 2001)
        with pytest.raises(ValueError, match="grid too small"):
            dl.nonlinear_decay_pipeline(
                small, "defocusing_quintic", probe_radii=[2.0, 4.0, 8.0, 16.0, 32.0]
            )

    def test_blowup_reported(self):
        fld = one_over_r_field(30.0, 901, A=2.0)
        with pytest.raises(rs.NumericalError, match="blew up"):
            dl.nonlinear_decay_pipeline(
                fld, "focusing_quintic", probe_radii=[1.0, 1.5, 2.25, 3.375], t_final=2.0
            )
