"""Linearized evolution: per-mode dynamics, cloud, pair propagator, fluxes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bl_flux_vector, epsilon_minus_k, vlasov_step
from plasmakin.dielectric import DielectricModel
from plasmakin.distributions import BumpMixture, Maxwellian
from plasmakin.equilibrium import HSolution
from plasmakin.errors import InputError, StepSizeError, TruncationError
from plasmakin.kernel import TensorTable
from plasmakin.potentials import gaussian_soft
from plasmakin.transforms import _interp_complex
from plasmakin.propagator import (
    ALIAS_TARGET,
    MAX_NODES,
    BromwichContour,
    FluxEvaluator,
    GaussianTestFunction,
    ModeState,
    PairPropagator,
    SeparableGaussianPair,
    UProfile,
    _epsilon_contour_fn,
    _grid_cauchy_moment,
    _radial_divergence,
    _radial_log_derivative,
    _stencil,
    causal_gamma,
    contour_nodes,
    debye_cloud,
    evolve_density,
    flux_limit,
    gaussian_radon,
    gaussian_weighted_profiles,
    radon_profile_of,
    vlasov_laplace_eval,
)

KZ = np.array([0.0, 0.0, 0.5])


def initial_profile(grid, amp=0.1, width2=1.5):
    return amp * np.exp(-0.5 * grid.points**2 / width2)


@pytest.fixture(scope="module")
def model_mix(two_temperature, soft):
    return DielectricModel(two_temperature, soft)


class TestModeEvolution:
    def test_free_transport_exact(self, model_zero):
        grid = model_zero.grid
        H0 = initial_profile(grid).astype(complex)
        *_, final = evolve_density(model_zero, KZ, H0, 1.0, dt=0.02)
        exact = np.exp(-1j * 0.5 * grid.points * 1.0) * H0
        assert np.max(np.abs(final.H - exact)) < 1e-13

    def test_step_size_guard(self, model_ms):
        with pytest.raises(StepSizeError):
            evolve_density(model_ms, KZ, initial_profile(model_ms.grid), 1.0, dt=1.0)

    def test_coulomb_rejected(self, model_mc):
        with pytest.raises(InputError):
            evolve_density(model_mc, KZ, initial_profile(model_mc.grid), 0.01, dt=0.01)

    def test_density_moment_consistency(self, model_ms):
        """∂_t ρ̂ = -i|k| ∫ u Ĥ du along the trajectory."""
        grid = model_ms.grid
        H0 = initial_profile(grid)
        dt = 0.005
        _, rhos, _ = evolve_density(model_ms, KZ, H0, 2 * dt, dt=dt)
        *_, s1 = evolve_density(model_ms, KZ, H0, dt, dt=dt)
        drho = (rhos[2] - rhos[0]) / (2 * dt)
        moment = np.trapezoid(grid.points * s1.H, dx=grid.spacing)
        assert abs(drho - (-1j * 0.5 * moment)) < 1e-5

    @pytest.mark.parametrize("kwargs, name", [
        (dict(t_max=np.nan), "t_max"),  # raised ValueError
        (dict(dt=0.0), "dt"),  # raised ZeroDivisionError
        (dict(store_every=0), "store_every"),  # raised ZeroDivisionError
    ], ids=["t_max-nan", "dt-zero", "store_every-zero"])
    def test_evolve_density_refusals(self, model_ms, kwargs, name):
        args = dict(t_max=1.0, dt=0.01) | kwargs
        with pytest.raises(InputError, match=name):
            evolve_density(model_ms, KZ, initial_profile(model_ms.grid), **args)

    @pytest.mark.parametrize("store_every", [1, 20, 25])
    @pytest.mark.parametrize("dt", [0.01, 0.02])
    @pytest.mark.parametrize("name", ["model_ms", "model_mix"])
    def test_evolve_density_equals_step_loop(self, name, dt, store_every, request):
        """The hoisted loop against `vlasov_step`, its oracle: the same floats."""
        model = request.getfixturevalue(name)
        H0 = initial_profile(model.grid)
        ts, rhos, final = evolve_density(model, KZ, H0, 2.0, dt=dt, store_every=store_every)
        state = ModeState(k=KZ, grid=model.grid, H=H0.astype(complex))
        ref_ts, ref_rhos = [0.0], [state.rho]
        for i in range(round(2.0 / dt)):
            state = vlasov_step(model, state, dt)
            if (i + 1) % store_every == 0:
                ref_ts.append(state.time)
                ref_rhos.append(state.rho)
        assert np.array_equal(ts, ref_ts) and np.array_equal(rhos, ref_rhos)
        assert np.array_equal(final.H, state.H) and final.time == state.time

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

    def test_closed_form_moment_matches_sampled(self, model_ms):
        """A `UProfile` Ĥ₀ (closed-form m_{Ĥ₀}) against its samples (grid quadrature).

        Per node the trapezoid sum of Ĥ₀/(z + i|k|u) has no discretization
        error worth naming (the pole sits γ/|k| off the real axis, so it is
        O(e^{-2πγ/(|k|h)})); it carries the grid's tail mass / γ and
        n_u·ε·m₀/γ of rounding.  The inversion maps a moment error δ to at
        most e^{γt}·(height/π)·max|1/ε|·δ in ρ̂, and Ĥ then moves by at most
        |k|·φ̂·max|∂_uF|·t·max|Δρ̂|.
        """
        from scipy.special import erfc

        grid, a = model_ms.grid, 0.5
        amp, s = 0.1 * np.sqrt(3.0 * np.pi), np.sqrt(1.5)
        profile = UProfile([(amp, s, 0)])
        samples = profile.values(grid.points)
        ts = np.linspace(0.0, 10.0, 11)
        c = BromwichContour(causal_gamma(10.0), 200.0, contour_nodes(causal_gamma(10.0), 200.0,
                                                                    10.0))
        delta = (grid.n * np.finfo(float).eps * amp + amp * erfc(grid.u_max / (np.sqrt(2) * s))) \
            / c.gamma
        m_grid = _grid_cauchy_moment(grid, samples.astype(complex), c, a)
        assert np.max(np.abs(m_grid.vals - profile.cauchy_moment(c, a).vals)) <= delta
        inv_eps = np.max(np.abs(1.0 / _epsilon_contour_fn(model_ms, KZ, c).vals))
        rho_bound = np.exp(c.gamma * ts[-1]) * (c.height / np.pi) * inv_eps * delta
        H_p, rho_p = vlasov_laplace_eval(model_ms, KZ, profile, ts)
        H_s, rho_s = vlasov_laplace_eval(model_ms, KZ, samples, ts)
        assert np.max(np.abs(rho_p - rho_s)) <= rho_bound
        dF = np.max(np.abs(model_ms.dF(KZ, grid.points)))
        W = float(model_ms.potential.fourier(np.asarray(a)))
        assert np.max(np.abs(H_p - H_s)) <= a * W * dF * ts[-1] * rho_bound

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

    @pytest.mark.parametrize("conjugate_mode", [False, True])
    def test_contour_epsilon_asymptotics_follow_k(self, conjugate_mode):
        """ε - 1 - a₂/z² - a₃/z³ is o(z⁻³) with the moments of k's direction;
        `conjugate_mode` takes ε(-k, ·) as the reflection of ε(k, ·)."""
        model = DielectricModel(Maxwellian(drift=(0.0, 0.0, 0.5)), gaussian_soft())
        k = np.array([0.0, 0.0, 0.8])
        scaled = []
        for height in (80.0, 160.0):
            contour = BromwichContour(gamma=0.5, height=height, n_nodes=4096)
            fn = _epsilon_contour_fn(model, k, contour)
            if conjugate_mode:
                fn = fn.reflected(np.conj(model.epsilon_laplace(k, np.conj(contour.nodes[:1])))[0])
            z = contour.nodes
            top = np.argsort(np.abs(z))[-8:]
            rem = (fn.vals - 1.0 - fn.a[2] / z**2 - fn.a[3] / z**3) * z**3
            scaled.append(float(np.max(np.abs(rem[top]))))
        assert scaled[1] < 0.6 * scaled[0]
        assert scaled[1] < 0.05 * abs(fn.a[3])

class TestDebyeCloud:
    def test_rest_cloud_matches_yukawa(self, model_mc):
        r = np.geomspace(0.5, 5.0, 25)
        res = debye_cloud(model_mc, sigma=1.0, r_values=r)
        yukawa = np.exp(-r) / (4 * np.pi * r)
        assert np.max(np.abs(res["rho"] / yukawa - 1.0)) <= 0.01
        assert abs(res["induced_charge"] - 1.0) <= 0.01

    def test_linearity_in_sigma(self, model_mc):
        r = np.geomspace(0.5, 4.0, 9)
        a = debye_cloud(model_mc, 1.0, r_values=r)
        b = debye_cloud(model_mc, 2.0, r_values=r)
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

    @pytest.mark.parametrize("V0", [[0.1, 0.2], [0.0, np.nan, 0.3]], ids=["2-vector", "nan"])
    def test_velocity_must_be_a_finite_3_vector(self, model_mc, V0):
        """A 2-vector ran, read as a speed along ẑ."""
        with pytest.raises(InputError, match="V0"):
            debye_cloud(model_mc, 1.0, V0=V0)

    @pytest.mark.parametrize("sigma, kwargs, name", [
        (np.nan, {}, "sigma"),  # returned a NaN profile
        (np.inf, {}, "sigma"),
        (1.0, dict(V0=[0.0, 0.0, 0.5], r_values=[]), "r_values"),  # numpy's zero-size ValueError
    ], ids=["sigma-nan", "sigma-inf", "moving-r_values-empty"])
    def test_refused(self, model_mc, sigma, kwargs, name):
        with pytest.raises(InputError, match=name):
            debye_cloud(model_mc, sigma, **kwargs)


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

    @pytest.mark.parametrize("sigmas", [(1.5, 1.0, 1.0), (1.5, 0.8, 1.3)])
    def test_pairings_match_reference(self, model_ms, sigmas):
        """Reflected ε̃ and moments, one time integral, against the former
        per-term path; they differ by rounding, within n_t·ε of the
        largest value (see `test_batched_scalars_match_loop_reference`)."""
        pp = PairPropagator(model_ms, t_max=8.0, k_nodes=4, n_nodes=4096)
        test = GaussianTestFunction(*sigmas)
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.linspace(0.0, 8.0, 9)
        psi_ref, lam_ref = _pairings_reference(pp, test, g0, ts)
        tol = pp._n_t * np.finfo(float).eps
        assert _rel(pp.psi_pairing(test, ts), psi_ref) <= tol
        assert _rel(pp.lambda_pairing(g0, test, ts), lam_ref) <= tol


class TestFluxes:
    @pytest.fixture(scope="class")
    def mix_model(self, two_temperature, soft):
        return DielectricModel(two_temperature, soft)

    def test_maxwellian_limit_flux_vanishes(self, model_ms):
        table = TensorTable(model_ms, vperp_max=6.0)
        assert abs(bl_flux_vector(model_ms, 1.2, table)) < 1e-12

    @pytest.mark.parametrize("mixture", ["two_temperature", "screening_mixture"])
    def test_flux_limit_is_pi_times_bl_flux_divergence(self, mixture, soft, request):
        """`flux_limit` against its oracle J_∞ = π·∇·(A v̂), A from `bl_flux_vector`.

        The table's linear |v_⊥| interpolation sets the bar: with 96 nodes
        the two agree within 3e-4, with the default 24 within 4e-3.
        """
        model = DielectricModel(request.getfixturevalue(mixture), soft)
        table = TensorTable(model, vperp_max=6.0, n_vp=96)
        for v in (0.8, 1.2, 2.0):
            A = np.array([bl_flux_vector(model, s, table) for s in _stencil(v, 0.08)])
            J_inf = flux_limit(model, v, dv=0.08)
            assert abs(J_inf / (np.pi * _radial_divergence(A, v, 0.08)) - 1.0) <= 5e-3

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

    def test_batched_scalars_match_loop_reference(self, mix_model):
        """(speed, μ) arrays against the former per-(speed, μ) loops.

        The two differ by rounding: reflected against direct ε̃ and
        moments (≤ 1e-14 relative, `TestSchwarzReflection`) and reordered
        sums, each cumulative one of n_t terms carrying ≤ n_t·ε of its
        running magnitude.
        """
        fe = FluxEvaluator(mix_model, t_max=8.0, k_nodes=4, n_nodes=4096)
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.linspace(0.5, 7.5, 8)
        speeds = np.array([1.12, 1.2, 1.28])
        psi_ref, lam_ref = _flux_scalars_reference(fe, g0, speeds, ts)
        tol = fe._n_t * np.finfo(float).eps
        assert _rel(fe._psi_marginal_flux_scalar(speeds, ts), psi_ref) <= tol
        assert _rel(fe.lambda_marginal_flux_scalar(g0, speeds, ts), lam_ref) <= tol

    @pytest.mark.parametrize("n_mu", [5, 25])
    def test_kernels_of_odd_rules_match_loop_reference(self, mix_model, n_mu):
        """An odd rule's μ = 0 node, which the kernels leave out, adds nothing
        to the reference's sums; the tolerance is the one above."""
        fe = FluxEvaluator(mix_model, t_max=8.0, k_nodes=4, n_nodes=4096, n_mu=n_mu)
        assert 0.0 in fe.mu and np.array_equal(fe.mu, -fe.mu[::-1])
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.linspace(0.5, 7.5, 8)
        speeds = np.array([1.12, 1.2, 1.28])
        psi_ref, lam_ref = _flux_scalars_reference(fe, g0, speeds, ts)
        tol = fe._n_t * np.finfo(float).eps
        assert _rel(fe._psi_marginal_flux_scalar(speeds, ts), psi_ref) <= tol
        assert _rel(fe.lambda_marginal_flux_scalar(g0, speeds, ts), lam_ref) <= tol

    def test_flux_J_peak_memory(self, mix_model):
        """The `relaxation` benchmark's criterion-6 call holds one κ node's
        contour arrays at a time and no (speed, μ, t) array, whose cumulative
        sums took its peak to 22 MiB."""
        import tracemalloc

        tracemalloc.start()
        try:
            FluxEvaluator(mix_model, t_max=35.0).flux_J(np.array([30.0]), 1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestSharedZPass:
    """ε and m_F of each κ node come from one `gaussian_cauchy` pass."""

    @pytest.mark.parametrize("name", ["model_ms", "model_mix"])
    def test_equals_separate_evaluations(self, name, request):
        """Bit for bit, down to a = 0.44, where the degree-1 series serves |ζ| ≥ 30."""
        model = request.getfixturevalue(name)
        fe = FluxEvaluator(model, t_max=8.0, k_nodes=4)
        c = fe.contour
        for a, _, W, inv_eps, inv_eps_m, m_F, mt_F in fe._kappa_nodes():
            kv = np.array([0.0, 0.0, a])
            C_F, C_dF = fe._F.cauchy_with_derivative(1j * c.nodes / a)
            assert np.array_equal(1.0 - W * C_dF, model.epsilon_laplace(kv, c.nodes))
            eps = _epsilon_contour_fn(model, kv, c)
            first = np.conj(model.epsilon_laplace(kv, np.conj(c.nodes[:1]))[0])
            ref_F = fe._F.cauchy_moments(c, a)
            for got, ref in zip((inv_eps, inv_eps_m, m_F, mt_F),
                                (eps.reciprocal(), eps.reflected(first).reciprocal(), *ref_F)):
                assert np.array_equal(got.vals, ref.vals) and got.a == ref.a


class TestSchwarzReflection:
    """ε(-k, ·) and m_{g,-a} as the reflections of ε(k, ·) and m_{g,a}."""

    CONTOUR = BromwichContour(causal_gamma(35.0), 160.0, 16384)

    @pytest.mark.parametrize("dist, k", [
        (BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]), (0.0, 0.0, 0.8)),
        (Maxwellian(drift=(0.0, 0.0, 0.5)), (0.0, 0.0, 0.8)),
        (Maxwellian(drift=(0.2, 0.0, 0.5)), (0.3, 0.4, 0.5)),
    ])
    def test_epsilon(self, dist, k, soft):
        """At every node, whatever the mean of F: both sides evaluate one
        closed form at mirror-image points, so they differ by rounding."""
        model = DielectricModel(dist, soft)
        k = np.array(k)
        direct = epsilon_minus_k(model, k, self.CONTOUR)
        reflected = _epsilon_contour_fn(model, k, self.CONTOUR).reflected(direct.vals[0])
        assert np.max(np.abs(reflected.vals - direct.vals)) <= 1e-14 * np.max(np.abs(direct.vals))
        assert reflected.a == direct.a

    @pytest.mark.parametrize("a", [0.8, 6.0])
    def test_cauchy_moment(self, a, two_temperature):
        for g in (radon_profile_of(two_temperature),
                  *gaussian_weighted_profiles(two_temperature, 1.0)):
            m, reflected = g.cauchy_moments(self.CONTOUR, a)
            direct = g.cauchy_moment(self.CONTOUR, -a)
            assert np.array_equal(m.vals, g.cauchy_moment(self.CONTOUR, a).vals)
            assert np.max(np.abs(reflected.vals - direct.vals)) \
                <= 1e-14 * np.max(np.abs(direct.vals))
            assert reflected.a == direct.a

    def test_cauchy_moment_at_small_a(self, two_temperature):
        """Against quadrature where the direct -a formula cancels.

        At a = 0.02 the direct formula evaluates C_g at Im w = -γ/a = -5.7,
        where the continued Z and the jump 2πi·g(w) are each about
        e^{(γ/a)²/2s²} (1e14 for the ψ-weighted s = 0.71) and cancel.  The
        reflection stays at Im w = +5.7, where wofz is good to about 1e-13
        and 1 + w·C_N cancels by at most |w|² ≈ 33 for the degree-1 part.
        """
        import mpmath as mp

        _, g = gaussian_weighted_profiles(two_temperature, 1.0)
        a, c = 0.02, self.CONTOUR
        _, reflected = g.cauchy_moments(c, a)
        direct = g.cauchy_moment(c, -a)
        for j in (c.n_nodes // 2, c.n_nodes // 2 + 7):
            z = complex(c.nodes[j])

            def integrand(u, z=z):
                dens = sum(amp * u * mp.exp(-0.5 * (u / s) ** 2) / (s * mp.sqrt(2 * mp.pi))
                           for amp, s, _ in g.comps)
                return dens / (z - 1j * a * u)

            with mp.workdps(30):
                ref = complex(mp.quad(integrand, [-mp.inf, -2, 0, 2, mp.inf]))
            assert abs(reflected.vals[j] - ref) <= 1e-11 * abs(ref)
            if j == c.n_nodes // 2:
                assert abs(direct.vals[j] - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("tau", [-82.0, -160.0])
    def test_cauchy_moment_far_from_the_axis(self, tau, two_temperature):
        """At a = 0.02 a node at τ is at |w| = |τ|/a: 1 + ζZ(ζ) of the degree-1
        ψ-weighted profile cancels to O(ζ⁻²) there, so it is summed as its
        asymptotic series."""
        _, g = gaussian_weighted_profiles(two_temperature, 1.0)
        a, c = 0.02, self.CONTOUR
        j = int(np.argmin(np.abs(c.tau - tau)))
        ref = _weighted_moment_reference(g, complex(c.nodes[j]), a)
        assert abs(g.cauchy_moment(c, a).vals[j] - ref) <= 1e-13 * abs(ref)


class TestHalfContour:
    """Cauchy transforms of mean-zero Gaussian profiles on nodes 0 … n/2,
    mirrored to the rest, equal the evaluation at every node bit for bit:
    wofz obeys w(-z̄) = conj w(z) exactly, and the arithmetic after it is
    sign-symmetric under IEEE rounding."""

    @settings(max_examples=60, deadline=None)
    @given(degree=st.sampled_from([0, 1, "mixed"]),
           comps=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.2, 3.0)),
                          min_size=1, max_size=3),
           a=st.floats(0.02, 8.0), a_sign=st.sampled_from([1.0, -1.0]),
           log_n=st.integers(6, 14), gamma=st.floats(0.02, 2.0), height=st.floats(5.0, 400.0))
    def test_cauchy_moment(self, degree, comps, a, a_sign, log_n, gamma, height):
        g = UProfile([(amp, s, i % 2 if degree == "mixed" else degree)
                      for i, (amp, s) in enumerate(comps)])
        c = BromwichContour(gamma, height, 2**log_n)
        a = a_sign * a
        every_node = (-1j / a) * g.cauchy(1j * c.nodes / a)
        assert np.array_equal(g.cauchy_moment(c, a).vals, every_node)

    @pytest.mark.parametrize("dist", ["maxwellian", "two_temperature", "screening_mixture"])
    def test_kappa_nodes(self, dist, soft, request):
        """C_F (even F) takes -conj and C[∂_uF] +conj at the mirror nodes."""
        model = DielectricModel(request.getfixturevalue(dist), soft)
        fe = FluxEvaluator(model, t_max=35.0, k_nodes=5)
        c = fe.contour
        for a, _, W, inv_eps, _, m_F, _ in fe._kappa_nodes():
            C_F, C_dF = fe._F.cauchy_with_derivative(1j * c.nodes / a)
            assert np.array_equal(inv_eps.vals, 1.0 / (1.0 - W * C_dF))
            assert np.array_equal(m_F.vals, (-1j / a) * C_F)

    def test_invert_returns_its_first_times(self, model_ms):
        """`invert(n_t)` is the full inversion's first n_t times."""
        fe = FluxEvaluator(model_ms, t_max=8.0, k_nodes=2)
        for _, _, _, inv_eps, _, m_F, _ in fe._kappa_nodes():
            fn = m_F * inv_eps
            full, first = fn.invert(), fn.invert(fe._n_t)
            assert np.array_equal(first.t, full.t[: fe._n_t])
            assert np.array_equal(first.values, full.values[: fe._n_t])

    def test_odd_node_count_refused(self):
        """Node j pairs with node n - 1 - j when n is odd, so the reflection
        and the mirror would read the wrong partner."""
        with pytest.raises(InputError, match="n_nodes"):
            BromwichContour(0.3, 160.0, 1025)


class TestWeakFormRefusals:
    """What the weak-form evaluators and `flux_limit` cannot compute raises
    InputError naming the argument, at construction or entry."""

    @pytest.mark.parametrize("cls, kwargs, name", [
        (FluxEvaluator, dict(t_max=-1.0), "t_max"),
        (PairPropagator, dict(t_max=0.0), "t_max"),
        (PairPropagator, dict(t_max=np.nan), "t_max"),
        (PairPropagator, dict(t_max=5.0, k_range=(6.0, 0.02)), "k_range"),
        (FluxEvaluator, dict(t_max=5.0, k_nodes=0), "k_nodes"),
        (FluxEvaluator, dict(t_max=5.0, n_mu=0), "n_mu"),
    ], ids=["flux-t_max-negative", "pair-t_max-zero", "pair-t_max-nan", "pair-k_range-reversed",
            "flux-k_nodes-zero", "flux-n_mu-zero"])
    def test_constructor(self, model_ms, cls, kwargs, name):
        with pytest.raises(InputError, match=name):
            cls(model_ms, **kwargs)

    @pytest.mark.parametrize("v_mag", [0.0, np.nan])
    def test_flux_limit_speed(self, model_ms, v_mag):
        with pytest.raises(InputError, match="v_mag"):
            flux_limit(model_ms, v_mag)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(k_range=(8.0, 0.02)), "k_range"),  # returned the flux with its sign flipped
        (dict(n_k=0), "n_k"),
        (dict(n_mu=0), "n_mu"),
    ], ids=["k_range-reversed", "n_k-zero", "n_mu-zero"])
    def test_flux_limit_rule(self, model_ms, kwargs, name):
        with pytest.raises(InputError, match=name):
            flux_limit(model_ms, 1.2, **kwargs)

    def test_laplace_eval_refuses_no_time(self, model_ms):
        """An empty t ended in numpy's zero-size ValueError."""
        with pytest.raises(InputError, match="^t must"):
            vlasov_laplace_eval(model_ms, KZ, initial_profile(model_ms.grid), [])


def _weighted_moment_reference(g, z, a):
    """m_g(z) = ∫ g(u)/(z + i·a·u) du of a degree-1 `UProfile` by mpmath quadrature."""
    import mpmath as mp

    def integrand(u):
        dens = sum(amp * u * mp.exp(-0.5 * (u / s) ** 2) / (s * mp.sqrt(2 * mp.pi))
                   for amp, s, _ in g.comps)
        return dens / (z + 1j * a * u)

    with mp.workdps(30):
        return complex(mp.quad(integrand, [-mp.inf, -2, 0, 2, mp.inf]))


def _duhamel_pole_reference(phi, dt, au):
    """y(t) = ∫₀^t e^{-i·au·(t-s)} φ(s) ds by the trapezoid rule as the step
    recursion y_{m+1} = E·y_m + dt/2·(E·φ_m + φ_{m+1}), E = e^{-i·au·dt}."""
    au = np.asarray(au, dtype=float)
    E = np.exp(-1j * au * dt)
    y = np.zeros(au.shape + (len(phi),), dtype=complex)
    for m in range(len(phi) - 1):
        y[..., m + 1] = E * y[..., m] + 0.5 * dt * (E * phi[m] + phi[m + 1])
    return y


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

    def test_arrays_are_computed_once(self):
        """Every read returns the same read-only array, equal to a fresh evaluation."""
        c = BromwichContour(0.2, 160.0, 64)
        for name in ("tau", "nodes", "t_grid", "time_scale"):
            arr = getattr(c, name)
            assert arr is getattr(c, name) and not arr.flags.writeable
        z = c.gamma + 1j * (np.arange(64) - 32) * c.dtau
        assert np.array_equal(c.nodes, z)
        assert all(np.array_equal(p, q) for p, q in zip(c.node_powers, (z**2, z**3)))

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

    @pytest.mark.parametrize("t, error", [(6.0, TruncationError), (500.0, TruncationError),
                                          (-0.5, InputError), (np.nan, InputError)])
    def test_weak_form_refuses_times_off_its_grid(self, model_ms, t, error):
        """The time grid ends one step past t_max, and reading it at a later
        time would return the value there, whatever t."""
        pp = PairPropagator(model_ms, t_max=5.0, k_nodes=2)
        fe = FluxEvaluator(model_ms, t_max=5.0, k_nodes=2)
        test = GaussianTestFunction()
        g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
        ts = np.array([1.0, t])
        for call in (lambda: pp.psi_pairing(test, ts), lambda: pp.lambda_pairing(g0, test, ts),
                     lambda: fe.flux_J(ts, 1.2), lambda: fe.flux_lambda(g0, ts, 1.2)):
            with pytest.raises(error):
                call()

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


def _cumulative_product_integral(dt, *series):
    """∫₀^t Πᵢ seriesᵢ(τ) dτ on the common grid (cumulative trapezoid)."""
    prod = np.prod(np.array(series), axis=0)
    return np.concatenate([[0.0], np.cumsum((prod[1:] + prod[:-1]) / 2.0)]) * dt


def _pairings_reference(pp, test, g0, t_values):
    """The former `psi_pairing` and `lambda_pairing`: ε(-k, ·) and every
    moment at -a evaluated directly, each term's time integral on its own."""
    c, t, dt, model = pp.contour, pp._t, pp._t[1], pp.model
    G0_1, G1_1 = gaussian_weighted_profiles(model.distribution, test.sigma_v1)
    G0_2, G1_2 = gaussian_weighted_profiles(model.distribution, test.sigma_v2)
    psi = np.zeros(len(t), dtype=complex)
    lam = np.zeros_like(psi)
    for a, kw in zip(pp.k_q, pp.k_w):
        W = float(model.potential.fourier(np.asarray(a)))
        kv = np.array([0.0, 0.0, a])
        inv_eps = _epsilon_contour_fn(model, kv, c).reciprocal()
        inv_eps_m = epsilon_minus_k(model, kv, c).reciprocal()
        m_F, mt_F = pp._F.cauchy_moment(c, a), pp._F.cauchy_moment(c, -a)
        m_G11, mt_G12 = G1_1.cauchy_moment(c, a), G1_2.cauchy_moment(c, -a)
        P1 = pp._invert(m_G11 * m_F * inv_eps)
        P2 = pp._invert(mt_G12 * inv_eps_m)
        P3 = pp._invert(m_G11 * inv_eps)
        P4 = pp._invert(mt_G12 * mt_F * inv_eps_m)
        per_k = ((a * W) ** 2 * (_cumulative_product_integral(dt, P1, P2)
                                 + _cumulative_product_integral(dt, P3, P4))
                 - 1j * a * W * _cumulative_product_integral(dt, G0_1.fourier(a * t), P2)
                 + 1j * a * W * _cumulative_product_integral(dt, P3, G0_2.fourier(-a * t)))
        psi += kw * 4 * np.pi * a**2 * test.x_hat(a) * per_k
        per_k = np.zeros_like(psi)
        for sa, sb in g0.orderings():
            sa1 = 1.0 / np.sqrt(sa**-2 + test.sigma_v1**-2)
            sb2 = 1.0 / np.sqrt(sb**-2 + test.sigma_v2**-2)
            free_a = gaussian_radon(sa1).fourier(a * t)
            free_b = gaussian_radon(sb2).fourier(-a * t)
            coll_a = pp._invert(m_G11 * gaussian_radon(sa).cauchy_moment(c, a) * inv_eps)
            coll_b = pp._invert(mt_G12 * gaussian_radon(sb).cauchy_moment(c, -a) * inv_eps_m)
            per_k += 0.5 * (free_a * free_b + (a * W) ** 2 * coll_a * coll_b
                            - 1j * a * W * free_a * coll_b + 1j * a * W * coll_a * free_b)
        lam += kw * 4 * np.pi * a**2 * g0.x_hat(a) * test.x_hat(a) * per_k
    return _interp_complex(t_values, t, psi), _interp_complex(t_values, t, lam)


def _flux_scalars_reference(fe, g0, speeds, t_values):
    """The former per-(speed, μ) loops of both flux scalars.

    ε(-k, ·) and every moment at -a are evaluated directly, not reflected,
    and the Duhamel poles come from the step recursion.
    """
    c, t, dt, model = fe.contour, fe._t, fe._t[1], fe.model
    psi_out = np.zeros((len(speeds), len(t_values)), dtype=complex)
    lam_out = np.zeros_like(psi_out)
    for a, kw in zip(fe.k_q, fe.k_w):
        W = float(model.potential.fourier(np.asarray(a)))
        kv = np.array([0.0, 0.0, a])
        inv_eps = _epsilon_contour_fn(model, kv, c).reciprocal()
        inv_eps_m = epsilon_minus_k(model, kv, c).reciprocal()
        excess_m = inv_eps_m - 1.0
        gam = fe._invert(excess_m)
        dlt = fe._invert(fe._F.cauchy_moment(c, -a) * excess_m)
        phiF = fe._invert(fe._F.cauchy_moment(c, a) * inv_eps)
        q_eps = fe._invert(inv_eps - 1.0)
        F_hat_free = fe._F.fourier(-a * t)
        sides = []
        for sa, sb in g0.orderings():
            delta_b = fe._invert(excess_m * gaussian_radon(sb).cauchy_moment(c, -a))
            phi_Ra = fe._invert(gaussian_radon(sa).cauchy_moment(c, a) * inv_eps)
            sides.append((sa, delta_b, phi_Ra, gaussian_radon(sb).fourier(a * t)))
        for i, v in enumerate(speeds):
            f_v, g_r = _radial_log_derivative(model.distribution, v)
            au = a * v * fe.mu
            alpha = _duhamel_pole_reference(phiF, dt, au)
            beta_q = _duhamel_pole_reference(q_eps, dt, au)
            alpha_R = [_duhamel_pole_reference(s[2], dt, au) for s in sides]
            psi = np.zeros((len(fe.mu), len(t)), dtype=complex)
            lam = np.zeros_like(psi)
            for j, mu in enumerate(fe.mu):
                free = np.exp(-1j * au[j] * t)
                beta = free + beta_q[j]
                Q1 = a * W * mu * g_r
                psi[j] = (1j * Q1 * (_cumulative_product_integral(dt, alpha[j], gam)
                                     + _cumulative_product_integral(dt, beta, dlt))
                          + f_v * _cumulative_product_integral(dt, free, gam)
                          + 1j * Q1 * _cumulative_product_integral(dt, beta, F_hat_free))
                for (sa, delta_b, _, Rb_hat), alpha_Ra in zip(sides, alpha_R):
                    Ga = np.exp(-0.5 * (v / sa) ** 2)
                    lam[j] += 0.5 * (Ga * free * Rb_hat + 1j * Q1 * alpha_Ra[j] * delta_b
                                     + Ga * free * delta_b + 1j * Q1 * alpha_Ra[j] * Rb_hat)
            wm = fe.wmu * fe.mu
            psi_out[i] += kw * _interp_complex(t_values, t, -2j * np.pi * a**3 * W * (wm @ psi))
            lam_out[i] += kw * _interp_complex(
                t_values, t, -2j * np.pi * a**3 * W * g0.x_hat(a) * (wm @ lam))
    return psi_out, lam_out
