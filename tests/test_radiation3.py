import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from wavechannel import exterior_basis as eb
from wavechannel import radial_solver as rs
from wavechannel import radiation3 as rad

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import channel_balance  # noqa: E402  (criterion 07's data and config)


def gaussian_pair(n=4001, r_max=10.0):
    """u0 = exp(-r^2), u1 = r exp(-r^2), with exact du0."""
    r = np.linspace(0.0, r_max, n)
    u0 = np.exp(-(r**2))
    u1 = r * np.exp(-(r**2))
    du0 = -2.0 * r * np.exp(-(r**2))
    return r, u0, u1, du0


def band_limited_profile(rng, half_width=12.0, n=4801):
    """Random trigonometric packet under a Gaussian envelope, of any mean.

    channel_balance.band_limited_profile draws the same packet with its
    mean taken out.
    """
    s = np.linspace(-half_width, half_width, n)
    g = np.zeros_like(s)
    for k in range(1, 6):
        a, b = rng.normal(size=2)
        g += a * np.cos(0.5 * k * s) + b * np.sin(0.5 * k * s)
    g *= np.exp(-((s / 3.0) ** 2))
    return rad.RadiationProfile(s=s, g=g)


class TestGradient4:
    def test_fourth_order_on_sine(self):
        errs = []
        for n in (101, 201):
            x = np.linspace(0.0, 3.0, n)
            d = rad._gradient4(np.sin(x), x[1] - x[0])
            errs.append(np.max(np.abs(d - np.cos(x))))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] < 1e-7

    def test_rejects_short_arrays(self):
        with pytest.raises(ValueError):
            rad._gradient4(np.ones(5), 0.1)


class TestProfileBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            rad.RadiationProfile(s=np.array([0.0, 1.0, 1.0]), g=np.zeros(3))
        with pytest.raises(ValueError):
            rad.RadiationProfile(s=np.array([0.0, 1.0]), g=np.zeros(3))
        with pytest.raises(ValueError):
            rad.RadiationProfile(s=np.array([0.0, 1.0]), g=np.array([0.0, np.inf]))

    def test_gaussian_norms(self):
        s = np.linspace(-12.0, 12.0, 9601)
        p = rad.RadiationProfile(s=s, g=np.exp(-(s**2)))
        assert p.norm2() == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
        # int_{|s|>1} e^{-2 s^2} ds = sqrt(pi/2) erfc(sqrt(2))
        expect = math.sqrt(math.pi / 2) * erfc(math.sqrt(2.0))
        assert p.tail2(1.0) == pytest.approx(expect, rel=1e-10)
        assert rad.tail_S(p, 1.0) == pytest.approx(
            math.sqrt(4 * math.pi * expect), rel=1e-10
        )
        assert p.tail2(0.0) == p.norm2()

    def test_tail_cut_between_nodes(self):
        s = np.linspace(-2.0, 2.0, 11)
        p = rad.RadiationProfile(s=s, g=np.ones_like(s))
        # flat profile: tail mass is just the leftover length
        assert p.tail2(0.3) == pytest.approx(4.0 - 0.6, rel=1e-14)


class TestForwardMap:
    def test_gaussian_closed_form(self):
        r, u0, u1, du0 = gaussian_pair()
        p = rad.forward_map(r, u0, u1, du0=du0)
        # w0' = (1 - 2 r^2) e^{-r^2}, w1 = r^2 e^{-r^2}
        s = p.s
        w0p = (1 - 2 * s**2) * np.exp(-(s**2))
        w1 = s**2 * np.exp(-(s**2))
        expect = np.where(s >= 0, 0.5 * (w0p + w1), 0.5 * (w0p - w1))
        assert np.max(np.abs(p.g - expect)) < 1e-13

    def test_numerical_derivative_close_to_exact(self):
        r, u0, u1, du0 = gaussian_pair()
        exact = rad.forward_map(r, u0, u1, du0=du0)
        approx = rad.forward_map(r, u0, u1)
        assert np.max(np.abs(exact.g - approx.g)) < 1e-9

    def test_center_continuity(self):
        r, u0, u1, du0 = gaussian_pair(n=801)
        p = rad.forward_map(r, u0, u1, du0=du0)
        i0 = int(np.argmin(np.abs(p.s)))
        assert p.s[i0] == 0.0
        assert p.g[i0] == pytest.approx(0.5 * u0[0], rel=1e-12)

    def test_requires_uniform_grid(self):
        r = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.7])
        with pytest.raises(ValueError):
            rad.forward_map(r, np.ones(6), np.zeros(6))


class TestIsometry:
    def test_gaussian_both_sides_closed_form(self):
        r, u0, u1, du0 = gaussian_pair(n=8001, r_max=12.0)
        # int (u0'^2 + u1^2) r^2 dr = (15/32) sqrt(pi/2), both routes
        expect = (15.0 / 32.0) * math.sqrt(math.pi / 2.0)
        lhs = rad.data_norm2(r, u0, u1, du0=du0)
        p = rad.forward_map(r, u0, u1, du0=du0)
        assert lhs == pytest.approx(expect, rel=1e-12)
        assert 2 * p.norm2() == pytest.approx(expect, rel=1e-12)
        ratio = rad.isometry_ratio(p, r, u0, u1, du0=du0)
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert ratio == lhs / (2 * p.norm2())

    def test_random_band_limited(self):
        # zero-mean profiles: nonzero charge would park energy in the
        # 1/r far field, outside any truncated radial window
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = channel_balance.band_limited_profile(rng)
            data = rad.inverse_map(p)
            image = rad.forward_map(data.r, data.u0, data.u1)
            ratio = rad.isometry_ratio(image, data.r, data.u0, data.u1)
            assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_radiation_free_data_rejected(self):
        r = np.linspace(1.0, 10.0, 901)
        zero = np.zeros_like(r)
        image = rad.forward_map(r, zero, zero, du0=zero)
        with pytest.raises(ValueError):
            rad.isometry_ratio(image, r, zero, zero, du0=zero)


class TestInverseMap:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = band_limited_profile(rng)
            data = rad.inverse_map(p)
            back = rad.forward_map(data.r, data.u0, data.u1)
            g_back = np.interp(p.s, back.s, back.g)
            scale = np.max(np.abs(p.g))
            assert np.max(np.abs(g_back - p.g)) <= 1e-8 * scale

    def test_charge_matches_mean(self):
        rng = np.random.default_rng(9)
        p = band_limited_profile(rng)
        data = rad.inverse_map(p)
        assert data.charge == pytest.approx(p.mean(), abs=1e-10)
        # far field of u0 is charge / r
        assert data.r[-1] * data.u0[-1] == pytest.approx(data.charge, abs=1e-9)

    def test_zero_mean_gives_decaying_data(self):
        rng = np.random.default_rng(13)
        p = channel_balance.band_limited_profile(rng)
        data = rad.inverse_map(p)
        assert abs(data.charge) < 1e-10
        assert abs(data.r[-1] * data.u0[-1]) < 1e-9


class TestFieldFromProfile:
    def test_grid_off_the_origin_refused(self):
        p = channel_balance.band_limited_profile(np.random.default_rng(29))
        with pytest.raises(ValueError, match="start at r = 0"):
            rad.field_from_profile(p, np.linspace(0.01, 20.0, 1001))


class TestFuturePast:
    def test_time_reversal_reflects_profile(self):
        r, u0, u1, du0 = gaussian_pair()
        p = rad.forward_map(r, u0, u1, du0=du0)
        p_rev = rad.forward_map(r, u0, -u1, du0=du0)
        assert np.max(np.abs(p_rev.g - p.g[::-1])) < 1e-14


class TestModeRadiation:
    def test_blended_monopole_supported_inside_R(self):
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        r = np.linspace(0.005, 6.0, 1200)
        vals = eb.eval_extended(data, r)
        p = rad.forward_map(r, vals.u0, vals.u1, du0=vals.du0_dr)
        # exterior w0 is the constant A; float evaluation of u0 + r u0'
        # leaves only rounding crumbs there
        assert p.tail2(1.0) <= 1e-30
        assert p.norm2() > 1e-3
        outside = np.abs(p.s) > 1.0
        assert np.max(np.abs(p.g[outside])) <= 1e-15


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


class TestSimpsonPort:
    """radiation3._simpson returns scipy.integrate.simpson's bits, signed zeros included."""

    @staticmethod
    def scipy_simpson(y, x):
        return integrate.simpson(y, x=x)

    def test_random_nodes(self):
        rng = np.random.default_rng(2101)
        for n in range(4, 61):
            for _ in range(24):
                # spacings over three decades, so h0 / h1 ranges widely
                x = np.cumsum(10.0 ** rng.uniform(-3, 0, n)) - rng.uniform(0, 10)
                y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
                assert same_bits(rad._simpson(y, x), self.scipy_simpson(y, x)), (n, x, y)
            for y in (np.zeros(n), np.full(n, -0.0)):
                assert same_bits(rad._simpson(y, x), self.scipy_simpson(y, x)), (n, y[0])

    def test_clipped_windows(self, monkeypatch):
        # the windows _clipped_integral forms: a uniform grid with a cut
        # point inside a cell, on a node or past an end at each side
        port, checked = rad._simpson, []

        def against_scipy(y, x):
            got = port(y, x)
            assert same_bits(got, self.scipy_simpson(y, x)), (x, y)
            checked.append(y.size)
            return got

        monkeypatch.setattr(rad, "_simpson", against_scipy)
        rng = np.random.default_rng(2102)
        for n in range(4, 61):
            x = np.linspace(-rng.uniform(1, 12), rng.uniform(1, 12), n)
            f = np.exp(-rng.uniform(0.1, 3) * x**2)
            for _ in range(12):
                lo = rng.choice([rng.uniform(x[0], x[-1]), x[rng.integers(n)], x[0] - 1.0, -np.inf])
                hi = rng.choice([rng.uniform(x[0], x[-1]), x[rng.integers(n)], x[-1] + 1.0, np.inf])
                rad._clipped_integral(x, f, lo, hi)
        assert len(checked) > 400
        assert {size % 2 for size in checked} == {0, 1}

    def test_readme_radiation_tails(self, monkeypatch):
        # `wavechannel radiation --gaussian 1.0 1.5` at its default grid and radii
        r = np.linspace(0.0, 16.0, 1601)
        u0 = 1.0 * np.exp(-((r / 1.5) ** 2))
        profile = rad.forward_map(r, u0, np.zeros_like(r))
        radii = (1.0, 2.0, 4.0, 8.0)
        tails = [profile.tail2(x) for x in radii]
        monkeypatch.setattr(rad, "_simpson", self.scipy_simpson)
        assert all(same_bits(got, profile.tail2(x)) for got, x in zip(tails, radii))


class TestClippedIntegral:
    @staticmethod
    def sorted_window_integral(x, f, lo, hi):
        """The window as np.unique sorts it, every node interpolated."""
        lo, hi = max(lo, float(x[0])), min(hi, float(x[-1]))
        if hi <= lo:
            return 0.0
        xs = np.unique(np.concatenate([[lo], x[(x > lo) & (x < hi)], [hi]]))
        fs = np.interp(xs, x, f)
        if xs.size < 4:
            return float(np.trapezoid(fs, x=xs))
        return float(rad._simpson(fs, xs))

    def test_same_bits_as_the_sorted_window(self):
        # cuts inside a cell, on a node, past an end, and windows of 0 to 3 nodes
        rng = np.random.default_rng(2201)
        for n in (2, 3, 4, 5, 17, 200, 7201):
            x = np.linspace(-rng.uniform(1, 40), rng.uniform(1, 40), n)
            f = np.exp(-rng.uniform(0.01, 3) * x**2) * rng.standard_normal()
            for _ in range(60):
                lo, hi = (rng.choice([rng.uniform(x[0], x[-1]), x[rng.integers(n)], x[0] - 1.0, -np.inf])
                          for _ in range(2))
                hi = rng.choice([hi, lo + rng.uniform(0, 3) * (x[1] - x[0]), np.inf])
                got = rad._clipped_integral(x, f, lo, hi)
                assert same_bits(got, self.sorted_window_integral(x, f, lo, hi)), (n, lo, hi)


class TestExtrapolation:
    def test_exact_on_cubic(self):
        xs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        ys = [3.0 - 2 * x + 5 * x**2 + x**3 for x in xs]
        assert rad.extrapolate_to_zero(xs, ys) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            rad.extrapolate_to_zero([0.1, 0.1], [1.0, 2.0])


class TestChannelBalance:
    def test_monopole_basis_data_both_sides_vanish(self):
        mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        cfg = channel_balance.snapped_config(8.0, 401, 128.0)
        fld = rs.lifted_field_from_mode(mode, cfg)
        vals = eb.eval_extended(mode, fld.r)
        # d = 3 chains are even in t: the descriptor also covers the reversed run
        report = rad.channel_identity_check(fld, cfg, R=1.0, du0=vals.du0_dr)
        assert abs(report.rhs) <= 1e-20 * report.total
        assert report.total > 1.0
        assert abs(report.lhs) <= 1e-6 * report.total

    def test_random_radiating_data(self):
        rng = np.random.default_rng(23)
        p = channel_balance.band_limited_profile(rng)
        # r_max keeps the scheme's tiny superluminal leakage (front at
        # 12 + t, spread ~2 dr/step) out of the boundary-influence band
        # the contamination veto watches
        cfg = channel_balance.snapped_config(78.0, 3901, 16.0)
        fld = rad.field_from_profile(p, cfg.radial_grid())
        report = rad.channel_identity_check(fld, cfg, R=1.0)
        assert report.rhs > 1e-3 * report.total
        assert report.rel_gap <= 0.01

    @staticmethod
    def one_over_r_report(cfg):
        mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        fld = rs.lifted_field_from_mode(mode, cfg)
        return rad.channel_identity_check(fld, cfg, R=1.0, du0=eb.eval_extended(mode, fld.r).du0_dr)

    def test_snapshots_off_the_nodes_refused(self):
        # the energy subcommand's default grid stores t = 0.45 k, up to 4.05;
        # read at 4.05, 1.8, 0.9 and 0.45 as if at 4, 2, 1 and 0.5, the
        # A/r data's limit came out negative (-0.0311)
        cfg = rs.SolverConfig(r_max=16.0, n_r=801, t_final=4.0, store_every=50)
        with pytest.raises(rs.NumericalError, match="no stored snapshot at t=4;"):
            self.one_over_r_report(cfg)

    def test_snapshots_on_the_nodes(self):
        # the same grid with dt snapped to the nodes: the exterior energy
        # of A/r data is 1/(1 + t), whose limit through the nodes is 1/45
        report = self.one_over_r_report(channel_balance.snapped_config(16.0, 801, 4.0))
        nodes = [4.0, 2.0, 1.0, 0.5]
        want = rad.extrapolate_to_zero([1.0 / t for t in nodes], [1.0 / (1.0 + t) for t in nodes])
        assert want == pytest.approx(1.0 / 45.0, rel=1e-12)
        assert report.e_plus == report.e_minus
        assert abs(report.e_plus - want) <= 0.02 * want


def identity_by_hand(fld, cfg, R, du0=None):
    """channel_identity_check composed from two separate solves."""
    t_nodes = [cfg.t_final / 2**j for j in range(4)]
    limits = []
    for sign in (1.0, -1.0):
        data = rs.RadialGridField(r=fld.r, u=fld.u, ut=sign * fld.ut, lifted_dim=3, descriptor=fld.descriptor)
        traj = rs.solve_mode_linear(data, cfg)
        assert not traj.blown_up
        series = rs.cone_energy(traj, R)
        es = [series.values[rad._snapshot_index(traj.times, t)] for t in t_nodes]
        limits.append(rad.extrapolate_to_zero([1.0 / t for t in t_nodes], es))
    e_plus, e_minus = limits
    return rad.ChannelBalance(
        lhs=4.0 * math.pi * (e_plus + e_minus),
        rhs=2.0 * rad.tail_S(rad.forward_map(fld.r, fld.u, fld.ut, du0=du0), R) ** 2,
        e_plus=e_plus,
        e_minus=e_minus,
        total=4.0 * math.pi * rad.data_norm2(fld.r, fld.u, fld.ut, du0=du0),
    )


class TestChannelBatch:
    """channel_identity_check steps both directions in one batch, with the separate solves' floats."""

    def test_criterion_07_data_as_two_separate_solves(self):
        rng = np.random.default_rng(7)
        cfg = channel_balance.snapped_config(78.0, 3901, 16.0)
        r = cfg.radial_grid()
        for _ in range(2):
            fld = rad.field_from_profile(channel_balance.band_limited_profile(rng), r)
            assert rad.channel_identity_check(fld, cfg, R=1.0) == identity_by_hand(fld, cfg, 1.0)

    def test_basis_data_as_two_separate_solves(self):
        mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        cfg = channel_balance.snapped_config(8.0, 401, 128.0)
        fld = rs.lifted_field_from_mode(mode, cfg)
        du0 = eb.eval_extended(mode, fld.r).du0_dr
        assert rad.channel_identity_check(fld, cfg, R=1.0, du0=du0) == identity_by_hand(fld, cfg, 1.0, du0)

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_forward_refusal_comes_first(self, c):
        # both directions blow up, at different steps: with c = -0.5 the
        # reversed run stops first, and the forward run is still the one named
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1, blowup_threshold=0.6)
        r = cfg.radial_grid()
        j = np.arange(r.size)
        bump = np.where(j < 100, 0.5 * (1.0 - (j / 100) ** 2) ** 4 + 1e-3, 0.0)
        fld = rs.RadialGridField(r=r, u=bump, ut=c * bump, lifted_dim=3)
        forward, reversed_ = (
            rs.solve_mode_linear(rs.RadialGridField(r=r, u=bump, ut=sign * fld.ut, lifted_dim=3), cfg)
            for sign in (1.0, -1.0)
        )
        assert forward.blown_up and reversed_.blown_up
        assert forward.times[-1] != reversed_.times[-1]
        with pytest.raises(rs.NumericalError) as err:
            rad.channel_identity_check(fld, cfg, R=1.0)
        assert str(err.value) == f"the linear run blew up; last stored snapshot at t={float(forward.times[-1]):g}"

    def test_nonlinear_config_refused(self):
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=4.0, nonlinearity="defocusing_quintic")
        with pytest.raises(ValueError, match="linear solves take nonlinearity='none'"):
            rad.channel_identity_check(rs.gaussian_bump(cfg, 0.5, 1.5), cfg, R=1.0)
