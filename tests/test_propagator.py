"""Linearized evolution: per-mode dynamics, cloud, pair propagator, fluxes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmakin.dielectric import DielectricModel
from plasmakin.distributions import Maxwellian
from plasmakin.equilibrium import HSolution
from plasmakin.errors import InputError, StepSizeError, TruncationError
from plasmakin.kernel import TensorTable
from plasmakin.potentials import gaussian_soft
from plasmakin.propagator import (
    ALIAS_TARGET,
    MAX_NODES,
    BromwichContour,
    FluxEvaluator,
    GaussianTestFunction,
    ModeState,
    PairPropagator,
    SeparableGaussianPair,
    _duhamel_pole,
    _epsilon_contour_fn,
    bl_flux_vector,
    causal_gamma,
    contour_nodes,
    debye_cloud,
    evolve_density,
    flux_limit,
    landau_root,
    vlasov_laplace_eval,
    vlasov_laplace_residue_split,
    vlasov_step,
)

KZ = np.array([0.0, 0.0, 0.5])


def initial_profile(grid, amp=0.1, width2=1.5):
    return amp * np.exp(-0.5 * grid.points**2 / width2)


class TestModeEvolution:
    def test_free_transport_exact(self, model_zero):
        grid = model_zero.grid
        H0 = initial_profile(grid).astype(complex)
        state = ModeState(k=KZ, grid=grid, H=H0)
        for _ in range(50):
            state = vlasov_step(model_zero, state, 0.02)
        exact = np.exp(-1j * 0.5 * grid.points * 1.0) * H0
        assert np.max(np.abs(state.H - exact)) < 1e-13

    def test_step_size_guard(self, model_ms):
        grid = model_ms.grid
        state = ModeState(k=KZ, grid=grid, H=initial_profile(grid).astype(complex))
        with pytest.raises(StepSizeError):
            vlasov_step(model_ms, state, 1.0)

    def test_coulomb_rejected(self, model_mc):
        grid = model_mc.grid
        state = ModeState(k=KZ, grid=grid, H=initial_profile(grid).astype(complex))
        with pytest.raises(InputError):
            vlasov_step(model_mc, state, 0.01)

    def test_density_moment_consistency(self, model_ms):
        """∂_t ρ̂ = -i|k| ∫ u Ĥ du along the trajectory."""
        grid = model_ms.grid
        state = ModeState(k=KZ, grid=grid, H=initial_profile(grid).astype(complex))
        dt = 0.005
        s0 = state
        s1 = vlasov_step(model_ms, s0, dt)
        s2 = vlasov_step(model_ms, s1, dt)
        drho = (s2.rho - s0.rho) / (2 * dt)
        assert abs(drho - (-1j * 0.5 * s1.velocity_moment())) < 1e-5

    def test_landau_damping_envelope(self, model_ms):
        grid = model_ms.grid
        ts, rhos, _ = evolve_density(model_ms, KZ, initial_profile(grid), 30.0,
                                     dt=0.02, store_every=25)
        mags = np.abs(rhos)
        # envelope decreasing over successive windows
        w = len(mags) // 5
        peaks = [np.max(mags[i * w:(i + 1) * w]) for i in range(5)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] < 0.1 * peaks[0]


class TestLaplaceEval:
    def test_identity_at_t0(self, model_ms):
        grid = model_ms.grid
        H0 = initial_profile(grid)
        H, rho = vlasov_laplace_eval(model_ms, KZ, H0, 0.0)
        assert np.max(np.abs(H - H0)) < 1e-12
        assert abs(rho - np.trapezoid(H0, grid.points)) < 1e-10

    def test_free_case(self, model_zero):
        grid = model_zero.grid
        H0 = initial_profile(grid)
        H, _ = vlasov_laplace_eval(model_zero, KZ, H0, 2.5)
        exact = np.exp(-1j * 0.5 * grid.points * 2.5) * H0
        assert np.max(np.abs(H - exact)) < 1e-7

    def test_causality(self, model_ms):
        grid = model_ms.grid
        H, rho = vlasov_laplace_eval(model_ms, KZ, initial_profile(grid), -3.0)
        assert np.all(H == 0.0) and rho == 0.0

    def test_cross_method_agreement(self, model_ms):
        grid = model_ms.grid
        H0 = initial_profile(grid)
        ts, rhos, state = evolve_density(model_ms, KZ, H0, 10.0, dt=0.005,
                                         store_every=50)
        Hs, rho_l = vlasov_laplace_eval(model_ms, KZ, H0, ts)
        err = np.max(np.abs(rhos - rho_l)) / np.max(np.abs(rhos))
        assert err <= 1e-4
        # profile agreement at the final time
        assert np.max(np.abs(Hs[-1] - state.H)) / np.max(np.abs(state.H)) <= 1e-3

    def test_truncation_guard(self, model_ms):
        grid = model_ms.grid
        short = BromwichContour(gamma=0.5, height=100.0, n_nodes=1024)
        with pytest.raises(TruncationError):
            vlasov_laplace_eval(model_ms, KZ, initial_profile(grid), 50.0,
                                contour=short)

    def test_richardson_check_quiet(self, model_ms):
        grid = model_ms.grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vlasov_laplace_eval(model_ms, KZ, initial_profile(grid), 5.0,
                                richardson_check=True)

    def test_residue_split_matches_default(self, model_ms):
        grid = model_ms.grid
        H0 = initial_profile(grid)
        H0_analytic = lambda w: 0.1 * np.exp(-0.5 * w**2 / 1.5)
        ts = np.array([2.0, 5.0, 8.0])
        _, rho = vlasov_laplace_eval(model_ms, KZ, H0, ts)
        # deep shift crosses the Landau pole: explicit residues appear
        rho_split, info = vlasov_laplace_residue_split(
            model_ms, KZ, H0, ts, H0_analytic, shift_c=1.2
        )
        assert len(info["roots"]) >= 1
        assert np.max(np.abs(rho - rho_split)) / np.max(np.abs(rho)) < 1e-3
        # shallow shift crosses nothing and must agree too (plain contour sum,
        # no asymptotic subtractions, hence the looser bar)
        rho_shallow, info2 = vlasov_laplace_residue_split(
            model_ms, KZ, H0, ts, H0_analytic, shift_c=0.2
        )
        assert len(info2["roots"]) == 0
        assert np.max(np.abs(rho - rho_shallow)) / np.max(np.abs(rho)) < 5e-3

    @pytest.mark.parametrize("conjugate_mode", [False, True])
    def test_contour_epsilon_asymptotics_follow_k(self, conjugate_mode):
        """ε - 1 - a₂/z² - a₃/z³ is o(z⁻³) with the moments of k's direction."""
        model = DielectricModel(Maxwellian(drift=(0.0, 0.0, 0.5)), gaussian_soft())
        k = np.array([0.0, 0.0, 0.8])
        scaled = []
        for height in (80.0, 160.0):
            contour = BromwichContour(gamma=0.5, height=height, n_nodes=4096)
            fn = _epsilon_contour_fn(model, k, contour, conjugate_mode=conjugate_mode)
            z = contour.nodes
            top = np.argsort(np.abs(z))[-8:]
            rem = (fn.vals - 1.0 - fn.a[2] / z**2 - fn.a[3] / z**3) * z**3
            scaled.append(float(np.max(np.abs(rem[top]))))
        assert scaled[1] < 0.6 * scaled[0]
        assert scaled[1] < 0.05 * abs(fn.a[3])

    def test_landau_root_is_zero_of_continuation(self, model_ms):
        z0 = landau_root(model_ms, KZ)
        val = model_ms.epsilon_laplace(KZ, np.array([z0]))[0]
        assert abs(val) < 1e-10
        assert z0.real < 0  # damped


class TestDebyeCloud:
    def test_rest_cloud_matches_yukawa(self, model_mc):
        r = np.geomspace(0.5, 5.0, 25)
        res = debye_cloud(model_mc, sigma=1.0, r_values=r)
        yukawa = np.exp(-r) / (4 * np.pi * r)
        assert np.max(np.abs(res["rho"] / yukawa - 1.0)) <= 0.01
        assert abs(res["induced_charge"] - 1.0) <= 0.01

    def test_linearity_in_sigma(self, model_mc):
        r = np.geomspace(0.5, 4.0, 9)
        a = debye_cloud(model_mc, 1.0, r_values=r, epsilon_floor_scan=False)
        b = debye_cloud(model_mc, 2.0, r_values=r, epsilon_floor_scan=False)
        assert np.max(np.abs(b["rho"] - 2.0 * a["rho"])) < 1e-14

    def test_wake_and_resonance(self, model_mc):
        z = np.linspace(-10.0, 6.0, 33)
        res = debye_cloud(model_mc, 1.0, V0=np.array([0.0, 0.0, 3.0]), r_values=z)
        # |ε| floor markedly below the rest value near the Langmuir resonance
        assert res["epsilon_floor"] < 0.3 * res["epsilon_floor_at_rest"]
        # oscillatory wake: sign changes on the trailing side
        trailing = res["rho"][z > 1.0]
        assert np.sum(np.abs(np.diff(np.sign(trailing))) > 0) >= 1

    def test_soft_potential_rejected(self, model_ms):
        with pytest.raises(InputError):
            debye_cloud(model_ms, 1.0)


class TestPairPropagator:
    @pytest.fixture(scope="class")
    def pp(self, model_ms):
        return PairPropagator(model_ms, t_max=35.0)

    @pytest.fixture(scope="class")
    def test_fn(self):
        return GaussianTestFunction(1.5, 1.0, 1.0)

    def test_psi_zero_at_t0(self, pp, test_fn):
        val = pp.psi_pairing(test_fn, np.array([0.0]))[0]
        assert abs(val) < 1e-12

    def test_psi_converges_to_g_B(self, pp, test_fn, hsol_ms):
        ts = np.array([1.0, 30.0])
        vals = pp.psi_pairing(test_fn, ts)
        target = pp.g_B_pairing(test_fn, hsol_ms)
        assert abs(vals[1] - target) <= 0.05 * abs(vals[0] - target)
        assert abs(vals[1] - target) <= 0.01 * abs(target)

    def test_g_B_pairing_matches_debye_hueckel(self, pp, test_fn, hsol_ms, model_ms):
        from scipy.integrate import quad

        overlap = 0.5**1.5
        c = lambda k: np.exp(-(k**2) / 2) / (1 + np.exp(-(k**2) / 2))
        exact = -quad(lambda k: 4 * np.pi * k**2 * test_fn.x_hat(k) * c(k), 0, 12)[0]
        exact *= overlap**2
        got = pp.g_B_pairing(test_fn, hsol_ms).real
        assert abs(got / exact - 1.0) < 1e-3

    def test_lambda_initial_datum(self, pp, test_fn, model_ms):
        from scipy.integrate import quad

        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)

        def overlap3(sa, sb):
            s2 = 1.0 / (1.0 / sa**2 + 1.0 / sb**2)
            return (2 * np.pi * s2) ** 1.5

        kint = quad(lambda k: 4 * np.pi * k**2 * g0.x_hat(k) * test_fn.x_hat(k),
                    0.02, 6.0)[0]
        ref = kint * 0.5 * (
            overlap3(1.0, 1.0) * overlap3(1.2, 1.0)
            + overlap3(1.2, 1.0) * overlap3(1.0, 1.0)
        )
        got = pp.lambda_pairing(g0, test_fn, np.array([0.0]))[0].real
        assert abs(got / ref - 1.0) < 5e-3

    def test_lambda_decays(self, pp, test_fn):
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        vals = pp.lambda_pairing(g0, test_fn, np.array([0.0, 30.0]))
        assert abs(vals[1]) < 1e-3 * abs(vals[0])

    def test_lambda_linearity(self, pp, test_fn):
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        g0x2 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=1.0)
        ts = np.array([2.0, 7.0])
        a = pp.lambda_pairing(g0, test_fn, ts)
        b = pp.lambda_pairing(g0x2, test_fn, ts)
        assert np.max(np.abs(b - 2 * a)) < 1e-12 * np.max(np.abs(b))

    def test_coulomb_rejected(self, model_mc):
        with pytest.raises(InputError):
            PairPropagator(model_mc)


class TestFluxes:
    @pytest.fixture(scope="class")
    def mix_model(self, two_temperature, soft):
        return DielectricModel(two_temperature, soft)

    def test_maxwellian_limit_flux_vanishes(self, model_ms):
        table = TensorTable(model_ms, vperp_max=6.0)
        assert abs(bl_flux_vector(model_ms, 1.2, table)) < 1e-12

    def test_flux_converges_to_limit(self, mix_model):
        from plasmakin.propagator import FluxEvaluator

        Jinf = flux_limit(mix_model, 1.2)
        fe = FluxEvaluator(mix_model, t_max=35.0)
        ts = np.array([1.0, 30.0])
        Jt = fe.flux_J(ts, 1.2)
        assert abs(Jt[-1] - Jinf) <= 0.05 * abs(Jinf)

    def test_lambda_flux_decays(self, mix_model):
        from plasmakin.propagator import FluxEvaluator

        fe = FluxEvaluator(mix_model, t_max=35.0)
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.array([1.0, 10.0, 20.0, 30.0])
        Jl = fe.flux_lambda(g0, ts, 1.2)
        mags = np.abs(Jl)
        assert mags[-1] < 0.1 * mags[0]
        # after burn-in the envelope sits at the noise floor, far below initial
        assert np.all(mags[1:] < 0.01 * mags[0])

    def test_duhamel_pole_batches_rows(self):
        """One call over (speeds, μ) rates equals one call per speed."""
        phi = np.exp(-0.3 * np.arange(400) * 0.02) * (1.0 + 0.5j)
        mu, _ = np.polynomial.legendre.leggauss(24)
        speeds = np.array([1.12, 1.2, 1.28])
        a = 0.7
        y = _duhamel_pole(phi, 0.02, a * (speeds[:, None] * mu))
        assert y.shape == (3, 24, 400)
        for i, v in enumerate(speeds):
            assert np.array_equal(y[i], _duhamel_pole(phi, 0.02, a * (mu * v)))

    def test_speed_array_matches_single_speeds(self, mix_model):
        """Speeds passed together share each κ node's inversions, not the arithmetic."""
        from plasmakin.propagator import FluxEvaluator

        fe = FluxEvaluator(mix_model, t_max=8.0, k_nodes=4, n_nodes=4096)
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.array([1.0, 5.0])
        speeds = [1.12, 1.2, 1.28]
        psi = fe._psi_marginal_flux_scalar(speeds, ts)
        lam = fe.lambda_marginal_flux_scalar(g0, speeds, ts)
        assert psi.shape == lam.shape == (3, 2)
        for i, v in enumerate(speeds):
            assert np.array_equal(psi[i], fe._psi_marginal_flux_scalar(v, ts))
            assert np.array_equal(lam[i], fe.lambda_marginal_flux_scalar(g0, v, ts))


def _rel(got, ref):
    """Largest deviation relative to the reference's largest magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class TestContourSizing:
    """`contour_nodes` against the fixed 65536-node contours it replaces."""

    T35 = np.linspace(0.0, 35.0, 36)

    @pytest.fixture(scope="class")
    def mix_model(self, two_temperature, soft):
        return DielectricModel(two_temperature, soft)

    def test_contour_fields_validated(self):
        for bad in (dict(n_nodes=0), dict(n_nodes=1), dict(height=-5.0), dict(height=0.0),
                    dict(height=float("nan"))):
            with pytest.raises(InputError):
                BromwichContour(**bad)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 2000.0), st.sampled_from(["weak", "laplace"]))
    def test_rule(self, t_max, caller):
        """Smallest power of two that reaches t_max within the alias target, or TruncationError."""
        gamma = causal_gamma(t_max)
        height = 160.0 if caller == "weak" else 200.0

        def fits(n):
            c = BromwichContour(gamma, height, n)
            return c.n_nodes * c.dt >= t_max / 0.9 and c.reach >= t_max \
                and c.alias_bound(t_max) <= ALIAS_TARGET

        try:
            n = contour_nodes(gamma, height, t_max)
        except TruncationError:
            assert not fits(MAX_NODES)
            return
        assert n & (n - 1) == 0 and 2 <= n <= MAX_NODES
        assert fits(n)
        assert n == 2 or not fits(n // 2)

    def test_pair_propagator_matches_65536_nodes(self, model_ms):
        test = GaussianTestFunction(1.5, 1.0, 1.0)
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        sized = PairPropagator(model_ms, t_max=35.0, k_nodes=4)
        oracle = PairPropagator(model_ms, t_max=35.0, k_nodes=4, n_nodes=65536)
        assert sized.contour.n_nodes == 16384
        assert _rel(sized.psi_pairing(test, self.T35), oracle.psi_pairing(test, self.T35)) <= 1e-9
        assert _rel(sized.lambda_pairing(g0, test, self.T35),
                    oracle.lambda_pairing(g0, test, self.T35)) <= 1e-9

    def test_flux_evaluator_matches_65536_nodes(self, mix_model):
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = self.T35[1:]
        sized = FluxEvaluator(mix_model, t_max=35.0, k_nodes=3)
        oracle = FluxEvaluator(mix_model, t_max=35.0, k_nodes=3, n_nodes=65536)
        assert _rel(sized.flux_J(ts, 1.2), oracle.flux_J(ts, 1.2)) <= 1e-9
        assert _rel(sized.flux_lambda(g0, ts, 1.2), oracle.flux_lambda(g0, ts, 1.2)) <= 1e-9

    def test_laplace_eval_matches_65536_nodes(self, model_ms):
        """Against γ = 0.5, the former default, up to t = 10, and against the same γ up to 35.

        Past t ≈ 20 a γ = 0.5 contour is itself off by more than 1e-9: e^{γt}
        multiplies its height-truncation error (7e-7 of max|ρ̂| at t = 35, at
        any node count).
        """
        H0 = initial_profile(model_ms.grid)
        for ts, oracle in (
            (np.linspace(0.0, 10.0, 6), BromwichContour(n_nodes=65536)),
            (np.linspace(0.0, 35.0, 8), BromwichContour(causal_gamma(35.0), 200.0, 65536)),
        ):
            H, rho = vlasov_laplace_eval(model_ms, KZ, H0, ts)
            H_o, rho_o = vlasov_laplace_eval(model_ms, KZ, H0, ts, contour=oracle)
            assert _rel(rho, rho_o) <= 1e-9 and _rel(H, H_o) <= 1e-9

    def test_explicit_contour_too_short(self, mix_model):
        with pytest.raises(TruncationError):
            FluxEvaluator(mix_model, t_max=100.0, k_nodes=2, n_nodes=1024)

    def test_beyond_the_cap(self, model_ms):
        with pytest.raises(TruncationError):
            PairPropagator(model_ms, t_max=5000.0, k_nodes=2)

    def test_node_doubling_drift(self, model_ms):
        """The check compares n with 2n: quiet and returned when sized, loud when too small."""
        H0 = initial_profile(model_ms.grid)
        ts = np.linspace(0.0, 10.0, 11)
        _, rho, drift = vlasov_laplace_eval(model_ms, KZ, H0, ts, richardson_check=True)
        assert 0.0 <= drift <= 1e-9 * np.max(np.abs(rho))
        small = BromwichContour(causal_gamma(10.0), 200.0, 2048)
        with pytest.warns(UserWarning, match="^Bromwich node-doubling drift"):
            *_, drift = vlasov_laplace_eval(model_ms, KZ, H0, ts, contour=small,
                                            richardson_check=True)
        assert drift > 1e-6


class TestIsotropyRequired:
    def test_weak_form_refuses_drift(self, soft):
        """The weak form reads F along ẑ only, so a drifted F would be silently undrifted."""
        model = DielectricModel(Maxwellian(drift=(0.0, 0.0, 0.5)), soft)
        with pytest.raises(InputError):
            FluxEvaluator(model, t_max=8.0, k_nodes=2)
        with pytest.raises(InputError):
            PairPropagator(model, t_max=8.0, k_nodes=2)
