import math

import numpy as np
import pytest

from wavechannel import exact_evolution as ev
from wavechannel import exterior_basis as eb
from wavechannel import radial_solver as rs
from wavechannel import radiation3 as rad

from oracles import centred_leapfrog, compact_bump, folded_leapfrog


def one_over_r_mode(R=1.0):
    return eb.build_exterior_mode(eb.ModeSpec(3, 0), R, A=[1.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=0.0, n_r=100, t_final=1.0)
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=10.0, n_r=4, t_final=1.0)
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=10.0, n_r=100, t_final=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=10.0, n_r=100, t_final=1.0, nonlinearity="cubic")
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=10.0, n_r=100, t_final=1.0, nonlinearity="custom")
        with pytest.raises(ValueError):
            rs.SolverConfig(r_max=10.0, n_r=100, t_final=-1.0)
        # a NaN or negative threshold would flag every run as blown up at its first step
        for threshold in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="blowup_threshold"):
                rs.SolverConfig(r_max=10.0, n_r=100, t_final=1.0, blowup_threshold=threshold)
        rs.SolverConfig(r_max=10.0, n_r=100, t_final=1.0, blowup_threshold=math.inf)

    def test_finite_numbers_and_integer_counts(self):
        base = dict(r_max=16.0, n_r=801, t_final=4.0)
        for key, bad in [
            ("r_max", math.inf), ("r_max", math.nan), ("t_final", math.inf), ("t_final", math.nan),
            ("cfl", math.nan), ("n_r", 800.5), ("n_r", 801.0), ("store_every", 2.5), ("store_every", True),
        ]:
            with pytest.raises(ValueError, match=key):
                rs.SolverConfig(**{**base, key: bad})
        cfg = rs.SolverConfig(**{**base, "n_r": np.int64(801), "store_every": np.int64(2), "t_final": np.float64(4.0)})
        assert cfg.n_steps == 444

    def test_grid_derivations(self):
        cfg = rs.SolverConfig(r_max=10.0, n_r=101, t_final=1.0, cfl=0.5)
        assert cfg.dr == pytest.approx(0.1)
        assert cfg.dt == pytest.approx(0.05)
        grid = cfg.radial_grid()
        assert grid[0] == 0.0 and grid[-1] == 10.0 and grid.size == 101


class TestField:
    def test_validation(self):
        r = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            rs.RadialGridField(r=r[::-1], u=np.zeros(11), ut=np.zeros(11), lifted_dim=3)
        with pytest.raises(ValueError):
            rs.RadialGridField(r=r, u=np.zeros(10), ut=np.zeros(11), lifted_dim=3)
        with pytest.raises(ValueError):
            rs.RadialGridField(r=r, u=np.full(11, np.nan), ut=np.zeros(11), lifted_dim=3)
        with pytest.raises(ValueError):
            rs.RadialGridField(r=r, u=np.zeros(11), ut=np.zeros(11), lifted_dim=1)
        bad = np.concatenate([np.linspace(0, 1, 10), [5.0]])
        with pytest.raises(ValueError):
            rs.RadialGridField(r=bad, u=np.zeros(11), ut=np.zeros(11), lifted_dim=3)

    def test_descriptor_shares_the_lifted_dimension(self):
        # a D = 3 A/r field paired with a D = 5 descriptor would step
        # with the wrong ghosts and report the wrong cone energy
        cfg = rs.SolverConfig(r_max=16.0, n_r=801, t_final=1.0)
        fld = rs.lifted_field_from_mode(one_over_r_mode(), cfg)
        d5 = ev.descriptor_for_mode(eb.build_exterior_mode(eb.ModeSpec(5, 0), 1.0, A=[1.0], B=[0.0]))
        with pytest.raises(ValueError, match="lifted dimension 5 on a field of lifted dimension 3"):
            rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=3, descriptor=d5)
        # an empty descriptor has no dimension and fits every field
        empty = ev.ExteriorDescriptor(terms=(), valid_radius=1.0)
        rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=5, descriptor=empty)

    @pytest.mark.parametrize("r_max", [16.0, 72.0, 128.0])
    def test_accepts_every_linspace_grid(self, r_max):
        # rounding in np.linspace jitters the steps by a few eps * r_max
        for n_r in range(801, 20002, 400):
            r = np.linspace(0.0, r_max, n_r)
            rs.RadialGridField(r=r, u=np.zeros(n_r), ut=np.zeros(n_r), lifted_dim=3)
        bent = r.copy()
        bent[n_r // 2] += 1e-6 * (r[1] - r[0])
        with pytest.raises(ValueError, match="uniform"):
            rs.RadialGridField(r=bent, u=np.zeros(n_r), ut=np.zeros(n_r), lifted_dim=3)

    def test_radial_derivative_second_order(self):
        # the derivative of a whole snapshot stack, row by row the 1-d call
        cfg = rs.SolverConfig(r_max=2.0, n_r=201, t_final=1.0)
        r = cfg.radial_grid()
        phases = np.linspace(0.0, 1.0, 5)[:, None]
        u = np.sin(r + phases)
        traj = rs.Trajectory(
            r=r, times=phases[:, 0], u=u, ut=np.zeros_like(u), lifted_dim=3,
            descriptor=None, config=cfg,
        )
        ur = traj.ur()
        assert np.max(np.abs(ur - np.cos(r + phases))) < 5e-5
        for got, row in zip(ur, u):
            assert np.array_equal(got, np.gradient(row, traj.dr, edge_order=2))
        with pytest.raises(ValueError, match="one row per stored time"):
            rs.Trajectory(
                r=r, times=phases[:, 0], u=u[:-1], ut=np.zeros_like(u), lifted_dim=3,
                descriptor=None, config=cfg,
            )


class TestStaticExterior:
    """Data 1/r outside R with a C1 interior blend: the exterior stays put."""

    def make_run(self, t_final=3.0):
        cfg = rs.SolverConfig(r_max=16.0, n_r=1601, t_final=t_final, store_every=100)
        fld = rs.lifted_field_from_mode(one_over_r_mode(), cfg)
        return cfg, rs.solve_mode_linear(fld, cfg)

    def test_exterior_drift_tiny(self):
        cfg, traj = self.make_run()
        t_end = traj.times[-1]
        # region numerically uninfluenced by the evolving interior blend
        r_safe = 1.0 + t_end / cfg.cfl + 3 * cfg.dr
        mask = traj.r > r_safe
        assert np.sum(mask) > 50
        drift = np.max(np.abs(traj.u[-1][mask] - 1.0 / traj.r[mask]))
        assert drift <= 1e-8
        assert np.max(np.abs(traj.ut[-1][mask])) <= 1e-8

    def test_cone_energy_tracks_exact(self):
        cfg, traj = self.make_run()
        series = rs.cone_energy(traj, R=1.0)
        assert not series.truncated
        sol = ev.chain_lift(eb.ModeSpec(3, 0), 1, ev.POSITION)
        desc = ev.ExteriorDescriptor(((1.0, sol),), 1.0)
        for t, e in zip(series.times, series.values):
            exact = desc.exterior_energy(1.0 + abs(float(t)), float(t))
            assert e == pytest.approx(exact, rel=1e-3)


class TestBoundaryIndependence:
    def test_uncontaminated_region_identical(self):
        # same run closed by extrapolated ghosts vs zero ghosts: values
        # inside the numerical domain of dependence must agree exactly
        cfg = rs.SolverConfig(r_max=10.0, n_r=501, t_final=4.0, store_every=10**9)
        a = compact_bump(cfg)
        traj_a = rs.solve_mode_linear(a, cfg)
        zero_desc = ev.ExteriorDescriptor(terms=(), valid_radius=1.0)
        b = rs.RadialGridField(
            r=a.r, u=a.u, ut=a.ut, lifted_dim=3, descriptor=zero_desc
        )
        traj_b = rs.solve_mode_linear(b, cfg)
        t_end = float(traj_a.times[-1])
        rc = traj_a.clean_radius(t_end)
        mask = traj_a.r < rc
        diff = np.max(np.abs(traj_a.u[-1][mask] - traj_b.u[-1][mask]))
        assert diff == 0.0


DESCRIPTOR_CASES = [(3, 0, [1.0], []), (5, 0, [0.8], [-1.2]), (3, 1, [1.0], [0.7])]


def descriptor_run(d, nu, A, B):
    data = eb.build_exterior_mode(eb.ModeSpec(d, nu), 1.0, A=A, B=B)
    cfg = rs.SolverConfig(r_max=8.0, n_r=201, t_final=4.0, store_every=7)
    return rs.lifted_field_from_mode(data, cfg), cfg


def extrapolated_run():
    cfg = rs.SolverConfig(r_max=16.0, n_r=201, t_final=12.0, store_every=5)
    return compact_bump(cfg, amplitude=0.5, support=4.0, lifted_dim=5), cfg


def radiating_run():
    """Radiating d = 3 data from a band-limited radiation profile."""
    s = np.linspace(-12.0, 12.0, 4801)
    g = (np.cos(0.5 * s) - 0.7 * np.sin(1.5 * s) + 0.4 * np.cos(2.5 * s)) * np.exp(-((s / 3.0) ** 2))
    cfg = rs.SolverConfig(r_max=40.0, n_r=1601, t_final=8.0, store_every=100)
    return rad.field_from_profile(rad.RadiationProfile(s=s, g=g), cfg.radial_grid()), cfg


def rows_bump(config, m, lifted_dim=3, velocity_only=False):
    """Data whose rows [0, m) are nonzero; from row m on u is +0 and u_t = -u/4 is -0.

    With velocity_only, u is +0 everywhere and u_t carries the bump.
    """
    r = config.radial_grid()
    j = np.arange(r.size)
    u = np.where(j < m, 0.5 * (1.0 - (j / max(m, 1)) ** 2) ** 4 + 1e-3, 0.0)
    if velocity_only:
        return rs.RadialGridField(r=r, u=np.zeros_like(r), ut=u, lifted_dim=lifted_dim)
    return rs.RadialGridField(r=r, u=u, ut=-0.25 * u, lifted_dim=lifted_dim)


def same_bits(a, b):
    # array_equal alone takes -0.0 for +0.0
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestReferenceStepper:
    """The solver's snapshots equal a plain leapfrog that steps every row and calls eval every step.

    With extrapolated ghosts the solver steps only a window of rows that
    follows the numerical domain of dependence; these runs pin that it
    changes no bit, signs of zeros included.
    """

    @staticmethod
    def assert_same_run(fld, cfg, blown_up=False):
        solve = rs.solve_mode_linear if cfg.nonlinearity == "none" else rs.solve_quintic
        traj = solve(fld, cfg)
        times, u, ut, ref_blown_up = folded_leapfrog(fld, cfg)
        assert traj.blown_up == ref_blown_up is blown_up
        assert same_bits(traj.times, times)
        assert same_bits(traj.u, u)
        assert same_bits(traj.ut, ut)

    @pytest.mark.parametrize("d,nu,A,B", DESCRIPTOR_CASES)
    def test_descriptor_ghost_bit_for_bit(self, d, nu, A, B):
        self.assert_same_run(*descriptor_run(d, nu, A, B))

    def test_extrapolated_ghost_bit_for_bit(self):
        self.assert_same_run(*extrapolated_run())

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_radiating_data(self, sign):
        fld, cfg = radiating_run()
        fld = rs.RadialGridField(r=fld.r, u=fld.u, ut=sign * fld.ut, lifted_dim=3)
        tail = fld.r > 13.0  # past the support of inverse_map's data
        assert np.all(fld.u[tail] == 0.0) and np.all(fld.ut[tail] == 0.0)
        # the time-reversed velocity's tail is -0.0
        assert np.all(np.signbit(fld.ut[tail]) == (sign < 0))
        self.assert_same_run(fld, cfg)

    @pytest.mark.parametrize("ut_zero", [0.0, -0.0])
    def test_all_zero_data(self, ut_zero):
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1)
        r = cfg.radial_grid()
        fld = rs.RadialGridField(r=r, u=np.zeros_like(r), ut=np.full_like(r, ut_zero), lifted_dim=3)
        self.assert_same_run(fld, cfg)

    # Rows [0, m) carry data and the first step reaches row m, so on
    # n_r = 201 nodes the window covers the grid from the first step once
    # m >= 133.  For m = 68, 69, 70 and 100 the front comes within three
    # rows of the edge at offsets 0, 63, 62 and 32 of a 64-step block; for
    # m = 7, 71 and 135 a window two rows narrower would end a block one
    # row short of the edge while the ghost reads the front.
    @pytest.mark.parametrize(
        "m", [1, 2, 7, 68, 69, 70, 71, 100, 131, 132, 133, 134, 135, 199, 200, 201]
    )
    @pytest.mark.parametrize("lifted_dim,velocity_only", [(3, False), (5, False), (3, True)])
    def test_window_reaching_the_edge(self, m, lifted_dim, velocity_only):
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1)
        self.assert_same_run(rows_bump(cfg, m, lifted_dim, velocity_only), cfg)

    def test_lifted_blow_up(self):
        # D = 7 is unstable next to the origin (ROADMAP item 1): the run
        # stops while the window is still far from the edge
        cfg = rs.SolverConfig(r_max=16.0, n_r=801, t_final=30.0, store_every=4)
        fld = compact_bump(cfg, amplitude=0.5, support=4.0, lifted_dim=7)
        self.assert_same_run(fld, cfg, blown_up=True)

    @pytest.mark.parametrize("nonlinearity", ["defocusing_quintic", "focusing_quintic"])
    def test_quintic_compact_gaussian(self, nonlinearity):
        # exp(-(r/1.5)^2) underflows to +0 past r = 41, so the window applies
        cfg = rs.SolverConfig(
            r_max=80.0, n_r=801, t_final=6.0, store_every=10, nonlinearity=nonlinearity
        )
        fld = rs.gaussian_bump(cfg, 0.5, 1.5)
        assert fld.u[-1] == 0.0 and not np.signbit(fld.u[-1])
        self.assert_same_run(fld, cfg)

    def test_quintic_readme_gaussian(self):
        # `wavechannel nlw --gaussian 0.5 1.5 --r-max 32`: nonzero on every row, full width
        cfg = rs.SolverConfig(
            r_max=32.0, n_r=801, t_final=4.0, store_every=50, nonlinearity="defocusing_quintic"
        )
        fld = rs.gaussian_bump(cfg, 0.5, 1.5)
        assert np.all(fld.u != 0.0)
        self.assert_same_run(fld, cfg)


class TestBatch:
    """Each trajectory of a batch is bit for bit its separate solve and the plain leapfrog.

    The runs share one interleaved stepper: one window over the union of
    their set bits, one health sum, and a stop for each run of its own.
    """

    @staticmethod
    def assert_same_batch(fields, cfg):
        batch = rs.solve_mode_linear(fields, cfg)
        assert isinstance(batch, rs.TrajectoryBatch) and len(batch) == len(fields)
        for fld, traj in zip(fields, batch):
            alone = rs.solve_mode_linear(fld, cfg)
            times, u, ut, blown_up = folded_leapfrog(fld, cfg)
            assert traj.blown_up == alone.blown_up == blown_up
            for run in (traj, alone):
                assert same_bits(run.times, times)
                assert same_bits(run.u, u)
                assert same_bits(run.ut, ut)
        return batch

    @pytest.mark.parametrize("d,nu,A,B", DESCRIPTOR_CASES)
    def test_shared_descriptor_ghosts(self, d, nu, A, B):
        fld, cfg = descriptor_run(d, nu, A, B)
        other = rs.RadialGridField(
            r=fld.r, u=0.5 * fld.u, ut=-fld.ut, lifted_dim=fld.lifted_dim, descriptor=fld.descriptor
        )
        self.assert_same_batch([fld, other, fld], cfg)

    # the window is taken over the union of the runs: a narrow run rides in
    # a wide one's window, and pairs with m = 135 or 201 are full width at once
    @pytest.mark.parametrize("m1,m2", [(1, 7), (7, 135), (68, 2), (100, 70), (201, 1)])
    @pytest.mark.parametrize("lifted_dim", [3, 5])
    def test_extrapolated_ghosts_in_the_window(self, m1, m2, lifted_dim):
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1)
        fields = [rows_bump(cfg, m1, lifted_dim), rows_bump(cfg, m2, lifted_dim, velocity_only=True)]
        self.assert_same_batch(fields, cfg)

    def test_time_reversed_pair(self):
        # the pair channel_identity_check builds; the reversed u_t tail is -0.0
        fld, cfg = radiating_run()
        fields = [rs.RadialGridField(r=fld.r, u=fld.u, ut=sign * fld.ut, lifted_dim=3) for sign in (1.0, -1.0)]
        tail = fld.r > 13.0
        assert np.all(np.signbit(fields[1].ut[tail])) and not np.any(np.signbit(fields[0].ut[tail]))
        self.assert_same_batch(fields, cfg)

    def test_runs_stop_at_their_own_step(self):
        # the threshold stops the wide bump at an early step; the narrow one runs to the end
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1, blowup_threshold=0.6)
        fields = [rows_bump(cfg, m, velocity_only=True) for m in (100, 40)]
        batch = self.assert_same_batch(fields, cfg)
        short, full = batch
        assert short.blown_up and not full.blown_up
        assert 1 < short.times.size < full.times.size == cfg.n_steps + 1
        assert same_bits(batch.times, full.times)

    def test_unstable_runs_stop_apart(self):
        # lifted D = 7 is unstable next to the origin (ROADMAP item 1); the
        # smaller bump takes longer to blow up
        cfg = rs.SolverConfig(r_max=16.0, n_r=801, t_final=30.0, store_every=4)
        fields = [compact_bump(cfg, amplitude, 4.0, lifted_dim=7) for amplitude in (1e-3, 0.5)]
        late, early = self.assert_same_batch(fields, cfg)
        assert late.blown_up and early.blown_up and early.times.size < late.times.size

    def test_stopped_run_with_descriptor_ghosts(self):
        # the loud run stops at its first step and is zeroed; the shared
        # ghost then feeds its last row, and the wave it sends in passes
        # the threshold again near the origin while the static run goes on
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        cfg = rs.SolverConfig(r_max=8.0, n_r=201, t_final=16.0, store_every=1, blowup_threshold=1.6)
        fld = rs.lifted_field_from_mode(data, cfg)
        loud = rs.RadialGridField(r=fld.r, u=10.0 * fld.u, ut=fld.ut, lifted_dim=3, descriptor=fld.descriptor)
        static, stopped = self.assert_same_batch([fld, loud], cfg)
        assert stopped.blown_up and stopped.times.size == 1
        assert not static.blown_up and static.times.size == cfg.n_steps + 1

    def test_sum_past_the_limit_stops_no_healthy_run(self):
        # each run stays within the threshold while the batch's sum of
        # squares exceeds it, so a sum taken as the verdict would stop both
        threshold = 1.1
        cfg = rs.SolverConfig(r_max=20.0, n_r=201, t_final=12.0, store_every=1, blowup_threshold=threshold)
        fields = [rows_bump(cfg, 100), rows_bump(cfg, 60, velocity_only=True)]
        batch = self.assert_same_batch(fields, cfg)
        assert not any(traj.blown_up for traj in batch)
        sum_of_squares = sum(np.sum(traj.u**2, axis=1) for traj in batch)
        assert np.all(sum_of_squares[1:100] > threshold**2)
        assert all(np.max(np.abs(traj.u)) <= threshold for traj in batch)

    def test_fields_must_share_grid_dimension_and_descriptor(self):
        fld, cfg = extrapolated_run()
        with pytest.raises(ValueError, match="at least one field"):
            rs.solve_mode_linear([], cfg)
        other_dim = rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=3)
        with pytest.raises(ValueError, match="share"):
            rs.solve_mode_linear([fld, other_dim], cfg)
        zero_desc = ev.ExteriorDescriptor(terms=(), valid_radius=1.0)
        with_desc = rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=5, descriptor=zero_desc)
        with pytest.raises(ValueError, match="share"):
            rs.solve_mode_linear([fld, with_desc], cfg)
        coarse = rs.SolverConfig(r_max=16.0, n_r=101, t_final=1.0)
        with pytest.raises(ValueError, match="does not match"):
            rs.solve_mode_linear([compact_bump(coarse), fld], cfg)


class TestCentredStencil:
    """The folded step rounds in another order than the centred stencil; snapshots agree to 1e-9."""

    @staticmethod
    def assert_close_run(fld, cfg):
        traj = rs.solve_mode_linear(fld, cfg)
        times, u, ut, blown_up = centred_leapfrog(fld, cfg)
        assert traj.blown_up == blown_up is False
        assert np.array_equal(traj.times, times)
        for got, ref in ((traj.u, u), (traj.ut, ut)):
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d,nu,A,B", DESCRIPTOR_CASES)
    def test_descriptor_ghost(self, d, nu, A, B):
        self.assert_close_run(*descriptor_run(d, nu, A, B))

    def test_extrapolated_ghost(self):
        self.assert_close_run(*extrapolated_run())

    def test_radiating_profile(self):
        self.assert_close_run(*radiating_run())


class TestStepperInternals:
    def test_grid_off_the_origin_refused(self):
        # the origin row is the parity closure, so every run's grid starts at r = 0
        cfg = rs.SolverConfig(r_max=10.0, n_r=201, t_final=1.0)
        r = np.linspace(0.05, 10.0, 201)
        fld = rs.RadialGridField(r=r, u=np.exp(-(r**2)), ut=np.zeros_like(r), lifted_dim=3)
        with pytest.raises(ValueError, match="does not match"):
            rs.solve_mode_linear(fld, cfg)

    @pytest.mark.parametrize("threshold", [1e8, 1.0, 3e-150, 1e150, 1e200])
    def test_health_filter_flags_every_value_past_the_threshold(self, threshold):
        healthy = rs._health_test(threshold)
        for u in (np.zeros(64), np.full(64, 0.1 * threshold)):
            assert healthy(u)
            for bad in (np.nextafter(threshold, np.inf), -np.nextafter(threshold, np.inf), np.nan, np.inf, -np.inf):
                v = u.copy()
                v[17] = bad
                assert not healthy(v), bad
        # sum(u^2) past threshold^2 but every node within it: the exact test decides
        v = np.full(64, threshold)
        assert healthy(v)

    def test_health_filter_without_threshold(self):
        healthy = rs._health_test(math.inf)
        assert healthy(np.array([0.0, 1e200, -1e300]))
        assert not healthy(np.array([0.0, np.inf]))
        assert not healthy(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1e-170])
    def test_health_filter_below_the_normal_range_is_exact(self, threshold):
        healthy = rs._health_test(threshold)
        assert healthy(np.zeros(8)) is (threshold >= 0)
        assert not healthy(np.full(8, 2e-170))

    @pytest.mark.parametrize(
        "u",
        [
            np.linspace(-1.3, 1.3, 1001),
            np.geomspace(1e-80, 1e-50, 1001),  # powers from normal values through subnormals to 0
            -np.geomspace(1e-80, 1e-50, 1001),
        ],
    )
    def test_powers_by_multiplication_match_pow(self, u):
        smallest = np.nextafter(0.0, 1.0)
        for got, ref in ((rs._fifth_power(u, np.empty_like(u)), u**5), (rs._sixth_power(u), u**6)):
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref) + 4 * smallest)


class TestQuintic:
    def test_zero_data_stays_zero(self):
        cfg = rs.SolverConfig(
            r_max=10.0, n_r=201, t_final=2.0, nonlinearity="defocusing_quintic"
        )
        fld = compact_bump(cfg, amplitude=0.0)
        traj = rs.solve_quintic(fld, cfg)
        assert not traj.blown_up
        assert np.all(traj.u == 0.0) and np.all(traj.ut == 0.0)

    def test_defocusing_energy_drift(self):
        cfg = rs.SolverConfig(
            r_max=30.0,
            n_r=1501,
            t_final=20.0,
            nonlinearity="defocusing_quintic",
            store_every=50,
        )
        fld = compact_bump(cfg, amplitude=0.8, support=3.0)
        traj = rs.solve_quintic(fld, cfg)
        assert not traj.blown_up
        energies = rs.energy_series(traj)
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift <= 1e-3
        # the quadrature over the whole stack equals the 1-d call on each snapshot
        for e, u, ut in zip(energies, traj.u, traj.ut):
            ur = np.gradient(u, traj.dr, edge_order=2)
            dens = (ut**2 + ur**2 + rs._sixth_power(u) / 3.0) * traj.r**2
            assert e == np.trapezoid(dens, dx=traj.dr)

    def test_linear_energy_drift(self):
        cfg = rs.SolverConfig(r_max=30.0, n_r=2501, t_final=20.0, store_every=50)
        fld = compact_bump(cfg, amplitude=0.8, support=3.0)
        traj = rs.solve_mode_linear(fld, cfg)
        energies = rs.energy_series(traj)
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift <= 1e-4

    def test_finite_propagation_speed(self):
        cfg = rs.SolverConfig(
            r_max=16.0, n_r=801, t_final=4.0, nonlinearity="defocusing_quintic",
            store_every=10**9,
        )
        fld = compact_bump(cfg, amplitude=1.0, support=3.0)
        traj = rs.solve_quintic(fld, cfg)
        t_end = float(traj.times[-1])
        # influence moves exactly one cell per step, so past the numerical
        # cone the field is untouched, and past the physical cone it is
        # scheme leakage that refines away
        numerical = traj.r > 3.0 + t_end / cfg.cfl + 2 * cfg.dr
        assert np.sum(numerical) > 50
        assert np.all(traj.u[-1][numerical] == 0.0)
        physical = traj.r > 3.0 + t_end + 4 * cfg.dr
        assert np.max(np.abs(traj.u[-1][physical])) <= 1e-6

    def test_focusing_blowup_flagged(self):
        cfg = rs.SolverConfig(
            r_max=8.0,
            n_r=401,
            t_final=6.0,
            nonlinearity="focusing_quintic",
            blowup_threshold=1e6,
            store_every=10,
        )
        fld = compact_bump(cfg, amplitude=4.0, support=2.0)
        traj = rs.solve_quintic(fld, cfg)
        assert traj.blown_up
        assert traj.times[-1] < cfg.t_final
        assert np.all(np.isfinite(traj.u))

    def test_overflow_flagged_without_threshold(self):
        # with no threshold only non-finite values can stop the run
        cfg = rs.SolverConfig(
            r_max=8.0,
            n_r=401,
            t_final=6.0,
            nonlinearity="focusing_quintic",
            blowup_threshold=math.inf,
            store_every=1,
        )
        fld = compact_bump(cfg, amplitude=4.0, support=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = rs.solve_quintic(fld, cfg)
        assert traj.blown_up
        assert traj.times[-1] < cfg.t_final
        assert np.all(np.isfinite(traj.u)) and np.all(np.isfinite(traj.ut))

    def test_quintic_requires_physical_dimension(self):
        cfg = rs.SolverConfig(
            r_max=10.0, n_r=201, t_final=1.0, nonlinearity="defocusing_quintic"
        )
        fld = compact_bump(cfg, lifted_dim=5)
        with pytest.raises(ValueError):
            rs.solve_quintic(fld, cfg)
        with pytest.raises(ValueError):
            rs.solve_mode_linear(compact_bump(cfg), cfg)

    def test_quintic_refuses_a_descriptor(self):
        # the free chain A/r is no ghost for the quintic flow, which moves A/r data
        cfg = rs.SolverConfig(
            r_max=10.0, n_r=201, t_final=1.0, nonlinearity="defocusing_quintic"
        )
        data = eb.build_exterior_mode(eb.ModeSpec(3, 0), 1.0, A=[1.0])
        fld = rs.lifted_field_from_mode(data, cfg)
        assert fld.descriptor is not None
        with pytest.raises(ValueError, match="descriptor"):
            rs.solve_quintic(fld, cfg)


class TestConeEnergy:
    def test_interior_data_zero_exterior_energy(self):
        cfg = rs.SolverConfig(r_max=24.0, n_r=801, t_final=5.0, store_every=100)
        fld = compact_bump(cfg, amplitude=1.0, support=4.0)
        traj = rs.solve_mode_linear(fld, cfg)
        series = rs.cone_energy(traj, R=6.0)
        assert series.truncated
        assert np.max(series.values) <= 1e-10

    def test_contaminated_cone_rejected(self):
        cfg = rs.SolverConfig(r_max=10.0, n_r=501, t_final=7.0, store_every=10**9)
        fld = compact_bump(cfg, amplitude=1.0, support=3.0)
        traj = rs.solve_mode_linear(fld, cfg)
        with pytest.raises(ValueError, match="contamination"):
            rs.cone_energy(traj, R=1.0)

    def test_rejects_bad_radius(self):
        cfg = rs.SolverConfig(r_max=10.0, n_r=201, t_final=1.0)
        traj = rs.solve_mode_linear(compact_bump(cfg), cfg)
        with pytest.raises(ValueError):
            rs.cone_energy(traj, R=0.0)

    @staticmethod
    def bump_run():
        cfg = rs.SolverConfig(r_max=24.0, n_r=801, t_final=5.0, store_every=20)
        return compact_bump(cfg, amplitude=1.0, support=4.0), cfg

    @pytest.mark.parametrize("run", ["descriptor", "extrapolated"])
    def test_rows_equal_the_stack_form(self, run):
        # the integrand formed row by row equals the whole stack's, bit for bit
        fld, cfg = descriptor_run(5, 0, [0.8], [-1.2]) if run == "descriptor" else self.bump_run()
        traj = rs.solve_mode_linear(fld, cfg)
        R = 1.0
        integrand = (traj.ut**2 + traj.ur() ** 2) * traj.r ** (traj.lifted_dim - 1)
        want = []
        for t, row in zip(traj.times, integrand):
            e = rs._moving_tail_integral(traj.r, R + abs(t), row)
            if traj.descriptor is not None:
                e += traj.descriptor.exterior_energy(max(traj.config.r_max, R + abs(t)), t)
            want.append(e)
        assert np.array_equal(rs.cone_energy(traj, R).values, np.asarray(want))


def frozen_one_over_r_trajectory(r_max=300.0, n_r=3001, t_half=16.0, n_t=161, lifted_dim=3):
    # 1/r is the stationary d=3 monopole mode, so every snapshot is the
    # data; its descriptor certifies the tail as exact so no outer-edge
    # contamination accounting applies.  The grid starts one step off the
    # origin, where 1/r is finite.
    cfg = rs.SolverConfig(r_max=r_max, n_r=n_r, t_final=t_half)
    r = np.linspace(r_max / (n_r - 1), r_max, n_r)
    u = np.tile(1.0 / r, (n_t, 1))
    return rs.Trajectory(
        r=r,
        times=np.linspace(-t_half, t_half, n_t),
        u=u,
        ut=np.zeros_like(u),
        lifted_dim=lifted_dim,
        descriptor=ev.descriptor_for_mode(one_over_r_mode()),
        config=cfg,
    )


class TestCriticalNormTails:
    def test_l6_frozen_closed_form(self):
        traj = frozen_one_over_r_trajectory()
        r = 2.0
        (val,) = rs.l6_tail(traj, [r])
        assert val == pytest.approx(4 * math.pi / (3 * r**3), rel=1e-2)

    def test_zero_trajectory(self):
        cfg = rs.SolverConfig(r_max=10.0, n_r=201, t_final=1.0)
        fld = compact_bump(cfg, amplitude=0.0)
        traj = rs.solve_mode_linear(fld, cfg)
        assert rs.l6_tail(traj, [1.0]).tolist() == [0.0]

    def test_requires_physical_dimension(self):
        lifted = frozen_one_over_r_trajectory(r_max=50.0, n_r=501, t_half=2.0, n_t=9, lifted_dim=5)
        with pytest.raises(ValueError):
            rs.l6_tail(lifted, [1.0])

    def test_l6_tail_decreasing_in_radius(self):
        cfg = rs.SolverConfig(
            r_max=40.0,
            n_r=1001,
            t_final=4.0,
            nonlinearity="defocusing_quintic",
            store_every=20,
        )
        fld = compact_bump(cfg, amplitude=0.8, support=3.0)
        traj = rs.solve_quintic(fld, cfg)
        radii = [1.0, 2.0, 4.0, 8.0, 16.0]
        tails = rs.l6_tail(traj, radii)
        for a, b in zip(tails, tails[1:]):
            assert b <= a + 1e-18
        # one pass over the snapshots gives each radius its own call's value
        assert tails.tolist() == [rs.l6_tail(traj, [r])[0] for r in radii]
        with pytest.raises(ValueError):
            rs.l6_tail(traj, [1.0, 0.0])


class TestSphereBridge:
    """Lifted solve of the nu = 2 mode (3, 2), sampled on nested exterior radii."""

    def recovered_error(self, n_r):
        spec = eb.ModeSpec(3, 2)
        data = eb.build_exterior_mode(spec, 1.0, A=[0.5, 1.0], B=[0.25])
        cfg = rs.SolverConfig(r_max=12.0, n_r=n_r, t_final=2.0, store_every=10**9)
        fld = rs.lifted_field_from_mode(data, cfg)
        traj = rs.solve_mode_linear(fld, cfg)
        t_end = float(traj.times[-1])
        idx = np.flatnonzero((traj.r > 1.0 + t_end + 0.5) & (traj.r < 11.0))
        idx = idx[:: max(1, idx.size // 10)]
        radii = traj.r[idx]
        w_num = traj.u[-1][idx]
        exact = np.array(
            [traj.descriptor.eval(float(rr), t_end).u for rr in radii]
        )
        return float(np.max(np.abs(w_num - exact)))

    def test_recovered_mode_converges_to_exact(self):
        e_coarse = self.recovered_error(401)
        e_fine = self.recovered_error(801)
        ratio = e_coarse / e_fine
        assert 3.4 <= ratio <= 4.6, (e_coarse, e_fine, ratio)


class TestDuhamel:
    def test_source_representation(self):
        # v - S_L(data) must equal the 1d Duhamel integral of r F(v)
        cfg_nl = rs.SolverConfig(
            r_max=16.0,
            n_r=801,
            t_final=4.0,
            nonlinearity="defocusing_quintic",
            store_every=2,
        )
        cfg_lin = rs.SolverConfig(r_max=16.0, n_r=801, t_final=4.0, store_every=2)
        fld = compact_bump(cfg_nl, amplitude=0.9, support=3.0)
        traj_nl = rs.solve_quintic(fld, cfg_nl)
        traj_lin = rs.solve_mode_linear(
            rs.RadialGridField(r=fld.r, u=fld.u, ut=fld.ut, lifted_dim=3), cfg_lin
        )
        assert np.allclose(traj_nl.times, traj_lin.times)
        r = traj_nl.r
        t_end = float(traj_nl.times[-1])
        dr = traj_nl.dr

        # cumulative integral K(x) = int_0^x rho F(rho, tau) d rho per snapshot
        Ks = []
        for u in traj_nl.u:
            g = r * -(u**5)
            K = np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) * 0.5 * dr)])
            Ks.append(K)

        def k_interp(K, x):
            # the source rho F is odd in rho, so its antiderivative is even
            return np.interp(np.abs(x), r, K)

        r_eval = r[(r > 0.2) & (r < 10.0)]
        duh = np.zeros_like(r_eval)
        taus = traj_nl.times
        dtau = taus[1] - taus[0]
        for i, tau in enumerate(taus):
            s = t_end - tau
            if s <= 0:
                continue
            contrib = 0.5 * (
                k_interp(Ks[i], r_eval + s) - k_interp(Ks[i], r_eval - s)
            )
            weight = dtau if 0 < i < len(taus) - 1 else dtau / 2
            duh += weight * contrib
        w_diff = r_eval * (
            np.interp(r_eval, r, traj_nl.u[-1])
            - np.interp(r_eval, r, traj_lin.u[-1])
        )
        scale = np.max(np.abs(w_diff))
        assert scale > 1e-3  # the nonlinearity actually did something
        assert np.max(np.abs(w_diff - duh)) <= 0.02 * scale
