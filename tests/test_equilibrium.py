"""Oberman-Williams-Lenard chain and real-space correlation diagnostics."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.spatial.transform import Rotation

from plasmakin.dielectric import DielectricModel, alpha_tail
from plasmakin.equilibrium import (
    _IN_PLANE,
    _LINE_POINTS,
    _SLICE_BLOCK,
    _Z_HAT,
    HSolution,
    _h_hat_formula,
    _marginal_fan,
    _subtract_poles,
    correlation_line,
    fit_decay_slope,
    g_B_eval,
    g_B_on_ray,
    g_hat,
    gamma_hat,
    h_equation_residual,
    h_hat,
    h_realspace,
    impact_geometry,
    marginal_check,
    solve_H,
)
from plasmakin.errors import InputError, SingularConfigurationError
from plasmakin.potentials import zero_potential
from plasmakin.propagator import GaussianTestFunction, PairPropagator, flux_limit
from plasmakin.transforms import _panel_nodes, perpendicular_unit

V1 = np.array([0.6, 0.0, 0.0])
V2 = np.array([-0.6, 0.0, 0.0])


class TestSolveH:
    def test_zero_potential_gives_zero(self, model_zero):
        sl = solve_H(model_zero, 1.0)
        assert np.max(np.abs(sl.H_B)) < 1e-12
        assert sl.residual_l2 < 1e-12

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_fixed_point_residual(self, model_mc, k):
        sl = solve_H(model_mc, k)
        assert sl.residual_l2 <= 1e-5

    def test_fixed_point_residual_soft(self, model_ms):
        assert solve_H(model_ms, 1.0).residual_l2 <= 1e-5

    def test_H_real(self, model_mc):
        sl = solve_H(model_mc, 1.0)
        assert np.max(np.abs(np.imag(sl.H_B))) <= 1e-10

    def test_k_zero_rejected(self, model_mc):
        with pytest.raises(InputError):
            solve_H(model_mc, 0.0)


class TestHSolutionArguments:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_k=1), "n_k"),
        (dict(k_min=0.0), "k_min"),
        (dict(k_min=5.0, k_max=1.0), "k_min must be below k_max"),
        (dict(k_min=float("nan")), "k_min"),
    ], ids=["n_k-1", "k_min-0", "reversed", "k_min-nan"])
    def test_bad_kappa_grid_refused_by_name(self, model_ms, kwargs, name):
        """A κ grid HSolution cannot build is refused at construction, naming
        the argument."""
        with pytest.raises(InputError, match=name):
            HSolution(model_ms, **kwargs)

    @pytest.mark.parametrize("evaluate, name", [
        (lambda sol: h_realspace(sol, np.array([0.0, 0.0, 0.5]), []), "r_values"),
        (lambda sol: marginal_check(sol, x_magnitudes=()), "x_magnitudes"),
    ], ids=["h_realspace-no-r", "marginal_check-no-x"])
    def test_empty_evaluation_set_refused_by_name(self, hsol_ms, evaluate, name):
        """Both ended in numpy's zero-size-array ValueError."""
        with pytest.raises(InputError, match=name):
            evaluate(hsol_ms)


class TestHhat:
    def test_zero_potential(self, model_zero):
        sol = HSolution(model_zero, k_max=10.0, n_k=40)
        assert h_hat(sol, np.array([0, 0, 1.0]), np.array([0.3, 0.1, -0.2])) == 0.0

    def test_exponential_velocity_decay(self, hsol_mc):
        k = np.array([0.0, 0.0, 1.0])
        mags = np.linspace(0.0, 6.0, 13)
        vals = np.array([abs(h_hat(hsol_mc, k, np.array([0, 0, m]))) for m in mags])
        bound = vals[0] * np.exp(-mags) * 40.0  # C(k) e^{-|v|} envelope
        assert np.all(vals[1:] <= bound[1:])

    def test_directional_marginal_matches_H(self, hsol_mc, model_mc):
        """∫ ĥ_B δ(u - ω·v) dv over the plane equals Ĥ_B(k,u) (2D quadrature)."""
        k = np.array([0.0, 0.0, 1.0])
        sl = solve_H(model_mc, 1.0)
        u_grid = model_mc.grid.points
        x, w = np.polynomial.legendre.leggauss(64)
        half = 7.0
        s = half * x
        ws = half * w
        S, T = np.meshgrid(s, s, indexing="ij")
        W2 = np.outer(ws, ws)
        for u_test in (-1.5, 0.0, 0.8):
            pts = np.stack(
                [S, T, np.full_like(S, u_test)], axis=-1
            )  # plane ω·v = u, ω = ẑ
            dist = model_mc.distribution
            f_v = dist.density(pts)
            og = dist.gradient(pts)[..., 2]
            hv = hsol_mc.h_hat_values(
                np.full_like(S, 1.0), np.full_like(S, u_test), f_v, og
            )
            got = np.sum(W2 * hv)
            ref = np.interp(u_test, u_grid, np.real(sl.H_B))
            assert abs(got - ref) <= 1e-4

    @pytest.mark.parametrize("u", [-40.0, -20.0, 20.0, 40.0])
    def test_alpha_beyond_grid(self, hsol_mc, model_mc, u):
        """Past ±u_max α is its 1/u² expansion, as in `DielectricModel.alpha`,
        not the spline's cubic extrapolation (-0.30 instead of 6.3e-4 at 40).

        With f = 1 and ω·∇f = 0, ĥ_B = (1 - ε)/ε, so ε = 1/(1 + ĥ_B).
        """
        kappa = np.array(1.0)
        eps = 1.0 / (1.0 + complex(hsol_mc.h_hat_values(kappa, np.array(u), 1.0, 0.0)))
        ref = complex(model_mc.epsilon(np.array([0.0, 0.0, 1.0]), np.array([u]))[0])
        assert abs(eps - ref) <= 1e-12 * abs(ref)

    def test_maxwellian_debye_hueckel_collapse(self, hsol_ms, model_ms):
        """Exact identity for Maxwellian f: ĥ_B = -f(v) φ̂/(1+φ̂)."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = rng.normal(size=3)
            v = rng.normal(size=3)
            W = float(model_ms.potential.fourier(np.linalg.norm(k)))
            f_v = float(model_ms.distribution.density(v))
            got = h_hat(hsol_ms, k, v)
            assert abs(got - (-f_v * W / (1 + W))) < 1e-6


class TestGamma:
    def test_zero_potential(self, model_zero):
        sol = HSolution(model_zero, k_max=10.0, n_k=40)
        vec = gamma_hat(sol, np.array([0, 0, 1.0]), V1, V2)
        assert np.max(np.abs(vec)) == 0.0

    def test_vector_antisymmetry(self, hsol_mc, rng):
        for _ in range(5):
            k = rng.normal(size=3)
            v1, v2 = rng.normal(size=3), rng.normal(size=3)
            a = gamma_hat(hsol_mc, k, v1, v2)
            b = gamma_hat(hsol_mc, -k, v2, v1)
            assert np.max(np.abs(a + b)) < 1e-10 * max(np.max(np.abs(a)), 1e-300)

    def test_exchange_symmetry_of_g_hat(self, hsol_mc, rng):
        errs = []
        for _ in range(8):
            k = rng.normal(size=3) * 0.8
            v1, v2 = rng.normal(size=3), rng.normal(size=3)
            a = g_hat(hsol_mc, k, v1, v2)
            b = g_hat(hsol_mc, -k, v2, v1)
            errs.append(abs(a - b) / max(abs(a), 1e-300))
        assert max(errs) <= 1e-8

    def test_singular_configuration(self, hsol_mc):
        with pytest.raises(SingularConfigurationError):
            g_hat(hsol_mc, np.array([0.0, 0.0, 1.0]), V1, V1)


class TestGeometry:
    def test_parallel(self):
        b, d, dm = impact_geometry([2.0, 0, 0], [1.0, 0, 0], [0, 0, 0])
        assert np.allclose(b, 0.0) and d == pytest.approx(2.0) and dm == 0.0

    def test_perpendicular(self):
        b, d, dm = impact_geometry([0, 3.0, 0], [1.0, 0, 0], [0, 0, 0])
        assert np.allclose(b, [0, 3.0, 0]) and d == 0.0 and dm == 0.0

    def test_negative_part(self):
        _, d, dm = impact_geometry([-2.0, 0, 0], [1.0, 0, 0], [0, 0, 0])
        assert d == pytest.approx(-2.0) and dm == pytest.approx(2.0)
        _, d, dm = impact_geometry([2.0, 0, 0], [1.0, 0, 0], [0, 0, 0])
        assert dm == 0.0

    def test_pythagoras(self, rng):
        for _ in range(20):
            x, v1, v2 = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
            b, d, _ = impact_geometry(x, v1, v2)
            assert abs(x @ x - (b @ b + d * d)) < 1e-12
            assert abs(b @ (v1 - v2)) < 1e-12

    def test_coincident_velocities(self):
        with pytest.raises(SingularConfigurationError):
            impact_geometry([1.0, 0, 0], V1, V1)


class TestRealSpaceCorrelation:
    def test_ray_decay(self, hsol_ms, line_kw):
        taus = np.linspace(0.0, 20.0, 21)
        vals = g_B_on_ray(hsol_ms, np.array([1.0, 0.8, 0.0]), V1, V2, taus, **line_kw)
        mags = np.abs(vals)
        assert mags[-1] < 0.1 * mags[0]
        # envelope decreasing: running maxima of the tail stay below the head
        assert np.max(mags[10:]) < 0.1 * mags[0]

    def test_sample_geometry_and_reality(self, hsol_ms, line_kw):
        s = g_B_eval(hsol_ms, np.array([1.0, 0.5, 0.3]), V1, V2, **line_kw)
        assert abs(s.b @ (V1 - V2)) < 1e-12
        assert s.d_minus == max(0.0, -s.d)
        assert abs(s.value.imag) <= 1e-6 * abs(s.value)

    def test_soft_bound_sweep(self, hsol_ms, line_kw):
        vals = []
        for bmag in (0.5, 2.0, 4.0):
            for dm in (0.0, 2.0, 4.0):
                x = np.array([-dm, bmag, 0.0])  # v_r along x̂
                s = g_B_eval(hsol_ms, x, V1, V2, **line_kw)
                vals.append(abs(s.value) * (1 + bmag + dm) ** 1.5)
        assert max(vals) < 50 * min(max(vals[:1]), 1.0)  # bounded, no blow-up
        assert np.isfinite(vals).all()

    def test_window_doubling_truncation(self, hsol_ms, line_kw):
        x = np.array([1.0, 0.5, 0.3])
        a = g_B_eval(hsol_ms, x, V1, V2, **line_kw)
        kw2 = dict(line_kw)
        kw2["n_s"] = 2 * line_kw["n_s"]  # doubles the ξ window at fixed ds
        b = g_B_eval(hsol_ms, x, V1, V2, **kw2)
        assert abs(a.value - b.value) <= 0.01 * abs(a.value)

    def test_exchange_symmetry_real_space(self, hsol_ms, line_kw):
        x = np.array([0.7, 0.4, -0.2])
        a = g_B_eval(hsol_ms, x, V1, V2, **line_kw)
        b = g_B_eval(hsol_ms, -x, V2, V1, **line_kw)
        assert abs(a.value - b.value) <= 1e-8 * abs(a.value)

    def test_line_rejects_bad_b(self, hsol_ms):
        with pytest.raises(InputError):
            correlation_line(hsol_ms, np.array([1.0, 0, 0]), V1, V2)


class TestMarginalIdentity:
    def test_soft_maxwellian(self, hsol_ms, line_kw):
        rep = marginal_check(
            hsol_ms, x_magnitudes=(1.0, 3.0), v1_magnitude=0.5,
            n_q=10, n_phi=8, **line_kw,
        )
        assert rep["max_rel_dev"] <= 0.05

    def test_refinement_improves(self, hsol_ms, line_kw):
        coarse = marginal_check(hsol_ms, x_magnitudes=(3.0,), v1_magnitude=0.5,
                                n_q=5, n_phi=4, **line_kw)
        fine = marginal_check(hsol_ms, x_magnitudes=(3.0,), v1_magnitude=0.5,
                              n_q=10, n_phi=8, **line_kw)
        assert fine["max_rel_dev"] < coarse["max_rel_dev"]

    def test_zero_potential_both_sides_zero(self, model_zero):
        sol = HSolution(model_zero, k_max=10.0, n_k=40)
        h = h_realspace(sol, np.array([0, 0, 0.5]), np.array([1.0, 3.0]), k_max=8.0)
        assert np.max(np.abs(h)) < 1e-12


class TestSpectralField:
    def test_hermitian_symmetry(self, hsol_mc):
        """conj ĥ_B(κ, u) = ĥ_B(κ, -u) on the (κ grid, ±u) set, u = 1.2μ."""
        v = np.array([0.0, 0.0, 1.2])
        dist = hsol_mc.model.distribution
        f_v, g_r = float(dist.density(v)), float(v @ dist.gradient(v)) / 1.2
        u = 1.2 * np.linspace(-1.0, 1.0, 49)[None, :]
        vals = hsol_mc.h_hat_values(hsol_mc.k_grid[:, None], u, f_v, (u / 1.2) * g_r)
        assert np.max(np.abs(np.conj(vals) - vals[:, ::-1])) < 1e-10

    def test_realspace_h_is_real(self, hsol_ms):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Hermiticity warning would fail
            h = h_realspace(hsol_ms, np.array([0, 0, 1.2]),
                            np.geomspace(1.0, 10.0, 8), k_max=15.0)
        assert np.all(np.isfinite(h))


class TestDecaySlopes:
    def test_fit_rejects_sparse_window(self):
        from plasmakin.errors import ResolutionError

        with pytest.raises(ResolutionError):
            fit_decay_slope(np.array([1.0, 2.0]), np.array([1.0, 0.5]), window=(5, 20))

    def test_soft_slope_band(self, screening_mixture, soft):
        model = DielectricModel(screening_mixture, soft)
        sol = HSolution(model, k_max=20.0, n_k=160)
        r = np.geomspace(4.5, 21.5, 14)
        h = h_realspace(sol, np.array([0, 0, 1.2]), r, k_max=15.0)
        slope, resid = fit_decay_slope(r, h)
        assert 2.5 <= slope <= 3.5
        assert resid < 0.5


# ---------------------------------------------------------------------------
# oracles for the fast real-space evaluators
# ---------------------------------------------------------------------------

def _line_reference(sol, b_vec, v1, v2, s_max=12.0, n_s=512, n_theta=None,
                    r_nodes=(16, 16, 32)):
    """G_b(s) of `correlation_line` by the full-grid plane quadrature.

    Every s row is evaluated, with one ĥ pass per velocity.
    """
    v_r = v1 - v2
    nr = np.linalg.norm(v_r)
    e = v_r / nr
    bnorm = np.linalg.norm(b_vec)
    e1 = b_vec / bnorm if bnorm > 0 else perpendicular_unit(e)
    e2 = np.cross(e, e1)

    if n_theta is None:
        n_theta = max(32, int(1.4 * s_max * bnorm) + 16)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    w_theta = 2 * np.pi / n_theta
    x1, w1 = np.polynomial.legendre.leggauss(r_nodes[0])
    x2, w2 = np.polynomial.legendre.leggauss(r_nodes[1])
    x3, w3 = np.polynomial.legendre.leggauss(r_nodes[2])
    seg = [(1e-6, 0.15, x1, w1), (0.15, 1.0, x2, w2), (1.0, s_max, x3, w3)]
    r = np.concatenate([(a + b) / 2 + (b - a) / 2 * x for a, b, x, _ in seg])
    wr = np.concatenate([(b - a) / 2 * w for a, b, _, w in seg])

    s = (np.arange(n_s) - n_s // 2) * (2.0 * s_max / n_s)

    dist = sol.model.distribution
    f1 = float(dist.density(v1))
    f2 = float(dist.density(v2))
    g1 = dist.gradient(v1)
    g2 = dist.gradient(v2)
    a_vec = g1 * f2 - f1 * g2

    cth, sth = np.cos(theta), np.sin(theta)
    K1 = r[:, None] * cth[None, :]
    K2 = r[:, None] * sth[None, :]
    phase = np.exp(1j * K1 * bnorm)
    u1_perp = (K1 * (e1 @ v1) + K2 * (e2 @ v1))
    u2_perp = (K1 * (e1 @ v2) + K2 * (e2 @ v2))
    ka_perp = (K1 * (e1 @ a_vec) + K2 * (e2 @ a_vec))
    kg1_perp = (K1 * (e1 @ g1) + K2 * (e2 @ g1))
    kg2_perp = (K1 * (e1 @ g2) + K2 * (e2 @ g2))

    G_b = np.empty(n_s, dtype=complex)
    chunk = 32
    for i0 in range(0, n_s, chunk):
        sb = s[i0 : i0 + chunk][:, None, None]
        kappa = np.sqrt(sb**2 + r[None, :, None] ** 2)
        kappa = np.maximum(kappa, 1e-9)
        u1 = (sb * (e @ v1) + u1_perp[None, :, :]) / kappa
        u2 = (sb * (e @ v2) + u2_perp[None, :, :]) / kappa
        h1 = sol.h_hat_values(kappa, u1, f1, (sb * (e @ g1) + kg1_perp[None]) / kappa)
        h2 = sol.h_hat_values(kappa, u2, f2, (sb * (e @ g2) + kg2_perp[None]) / kappa)
        W = sol.model.potential.fourier(kappa)
        k_dot_a = sb * (e @ a_vec) + ka_perp[None]
        k_dot_g1 = sb * (e @ g1) + kg1_perp[None]
        k_dot_g2 = sb * (e @ g2) + kg2_perp[None]
        Gam = W * (k_dot_a + k_dot_g1 * np.conj(h2) - k_dot_g2 * h1)
        G_b[i0 : i0 + chunk] = w_theta * np.einsum(
            "srt,r->s", Gam * phase[None, :, :], wr * r
        )
    return G_b


def _plane_spectrum(line, s_max, n_s):
    """G_b recovered from a line's Γ samples by inverting its zero-padded DFT."""
    n_pad = len(line.gamma_line)
    scale = (2 * np.pi) ** -1.5 * (2.0 * s_max / n_s) * n_pad
    G_pad = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(line.gamma_line / scale)))
    lo = (n_pad - n_s) // 2
    return G_pad[lo : lo + n_s]


def _alpha_reference(sol, u):
    """α built apart from the library's evaluator: a `CubicSpline` of the
    cached node values inside the grid, `alpha_tail` beyond ±u_max."""
    cache = sol.model.direction_cache(_Z_HAT)
    u = np.asarray(u, dtype=float)
    outside = np.abs(u) > sol.grid.u_max
    return np.where(outside, alpha_tail(cache.moments, np.where(outside, u, 1.0)),
                    CubicSpline(sol.grid.points, cache.alpha)(u))


def _A_minus_exact_reference(sol, kappas, u_eval):
    """A⁻ by the subtracted trapezoid sum, one κ at a time."""
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    u_eval = np.asarray(u_eval, dtype=float)
    u = sol.grid.points
    h = sol.grid.spacing
    w_tr = np.ones(sol.grid.n)
    w_tr[0] = w_tr[-1] = 0.5
    dist = sol.model.distribution
    F_eval = np.asarray(dist.radon_profile(_Z_HAT, u_eval), dtype=float)
    dF_eval = np.asarray(dist.radon_profile_derivative(_Z_HAT, u_eval))
    W_eval = sol.model.potential.fourier(kappas[:, None])
    eps_eval = 1.0 - W_eval * (_alpha_reference(sol, u_eval) - 1j * np.pi * dF_eval)
    log_end = np.log((u[-1] - u_eval) / (u_eval - u[0]))
    diff = u[None, :] - u_eval[:, None]
    hit = np.argwhere(diff == 0.0)
    safe = np.where(diff == 0.0, 1.0, diff)
    out = np.empty((len(kappas), len(u_eval)), dtype=complex)
    for i, kap in enumerate(kappas):
        eps_g = sol.model.epsilon_at(sol.model.potential.fourier(kap))
        poles = sol._resonance_poles([kap])[0]
        g, _ = _subtract_poles(poles, u, sol._F / np.abs(eps_g) ** 2)
        g_e, pole_c = _subtract_poles(poles, u_eval, F_eval / np.abs(eps_eval[i]) ** 2)
        quot = (g[None, :] - g_e[:, None]) / safe
        if hit.size:
            dg = np.gradient(g, h)
            quot[hit[:, 0], hit[:, 1]] = dg[hit[:, 1]]
        P_g = h * (quot @ w_tr) + g_e * log_end
        out[i] = eps_eval[i] * (P_g - 1j * np.pi * g_e + pole_c)
    return out


def _rel_to_row_max(got, ref):
    return float(np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


CRITERION_5 = ("soft-mixture", "coulomb-mixture", "coulomb-exponential")


@pytest.fixture(scope="module")
def criterion_5_chains(screening_mixture, exp_tail, soft, coulomb):
    """The chains of acceptance criterion 5 (the Coulomb ones at the CLI's
    k_max = 45, n_k = 240), each with the κ_max that h_realspace uses."""
    return {
        "soft-mixture": (
            HSolution(DielectricModel(screening_mixture, soft), k_max=20.0, n_k=160), 15.0),
        "coulomb-mixture": (
            HSolution(DielectricModel(screening_mixture, coulomb), k_max=45.0, n_k=240), 44.0),
        "coulomb-exponential": (HSolution(DielectricModel(exp_tail, coulomb)), 44.0),
    }


class TestCorrelationLineMirror:
    @pytest.mark.parametrize("which", ["soft-maxwellian", "coulomb-mixture"])
    def test_reference_obeys_mirror_identity(self, which, hsol_ms, criterion_5_chains,
                                             line_kw):
        """G_b(-s) = -conj G_b(s) on the full grid, row j against row n_s - j."""
        sol = hsol_ms if which == "soft-maxwellian" else criterion_5_chains[which][0]
        G = _line_reference(sol, np.array([0.0, 0.8, 0.3]), V1, V2, **line_kw)
        half = len(G) // 2
        defect = np.max(np.abs(G[1:half] + np.conj(G[:half:-1])))
        assert defect <= 1e-13 * np.max(np.abs(G))

    @pytest.mark.parametrize("bmag, n_theta", [
        (0.0, None), (0.8, None), (3.0, None),
        (2.5, None),  # the default rule gives 51 nodes
        (2.5, 7),     # explicit and odd; too coarse for 7 and 8 nodes to agree
    ])
    def test_line_matches_reference(self, hsol_ms, line_kw, bmag, n_theta):
        b = np.array([0.0, bmag, 0.0])
        n_ref = n_theta or max(32, int(1.4 * line_kw["s_max"] * bmag) + 16)
        ref = _line_reference(hsol_ms, b, V1, V2, n_theta=n_ref + n_ref % 2, **line_kw)
        line = correlation_line(hsol_ms, b, V1, V2, n_theta=n_theta, **line_kw)
        got = _plane_spectrum(line, line_kw["s_max"], line_kw["n_s"])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@contextmanager
def _h_hat_points(sol):
    """Count the points `sol.h_hat_values` is asked for while the block runs
    (count[0]) and the calls that ask for them (count[1])."""
    count = [0, 0]
    inner = sol.h_hat_values

    def counting(kappa, u, *args, **kwargs):
        count[0] += np.broadcast(kappa, u).size
        count[1] += 1
        return inner(kappa, u, *args, **kwargs)

    sol.h_hat_values = counting
    try:
        yield count
    finally:
        del sol.h_hat_values


def _line_points(line_kw, n_col):
    """ĥ points of one line: evaluated s rows (s ≥ 0 and s = -s_max) × radial
    nodes × θ columns × two velocities; n_col is n_θ/2 + 1 on the half circle."""
    return (line_kw["n_s"] // 2 + 1) * sum(line_kw["r_nodes"]) * n_col * 2


class TestCorrelationLineHalfCircle:
    """The θ mirror of `correlation_line` for x, v₁, v₂ in one plane."""

    @settings(max_examples=12, deadline=None)
    @given(pts=st.tuples(*[st.floats(-1.5, 1.5)] * 6), x=st.tuples(*[st.floats(-3.0, 3.0)] * 2),
           rotvec=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    def test_rotation_invariance(self, hsol_ms, line_kw, pts, x, rotvec):
        """For isotropic f, g_B(Rx, Rv₁, Rv₂) = g_B(x, v₁, v₂).  The rotated
        inputs have e₂·v of about 1e-17 instead of 0 and still take the
        half circle."""
        v1 = np.array([pts[0], pts[1], 0.0])
        v2 = np.array([pts[2], pts[3], 0.0])
        x = np.array([x[0], x[1], 0.0])
        assume(np.linalg.norm(v1 - v2) > 0.2)
        b, _, _ = impact_geometry(x, v1, v2)
        assume(np.linalg.norm(b) > 0.1)  # b̂ fixes e₁; at b = 0 it is any e ⊥ v_r
        R = Rotation.from_rotvec(rotvec).as_matrix()
        with _h_hat_points(hsol_ms) as count:
            line = correlation_line(hsol_ms, b, v1, v2, n_theta=32, **line_kw)
            rot = correlation_line(hsol_ms, impact_geometry(R @ x, R @ v1, R @ v2)[0],
                                   R @ v1, R @ v2, n_theta=32, **line_kw)
        assert count[0] == 2 * _line_points(line_kw, 32 // 2 + 1)
        assert np.max(np.abs(rot.g - line.g)) <= 1e-12 * np.max(np.abs(line.g))

    def test_off_plane_line_keeps_full_circle(self, hsol_ms, line_kw):
        b = np.array([0.0, 0.8, 0.3])
        v1, v2 = np.array([0.6, 0.2, 0.1]), np.array([-0.6, 0.2, 0.1])
        ref = _line_reference(hsol_ms, b, v1, v2, **line_kw)
        with _h_hat_points(hsol_ms) as count:
            line = correlation_line(hsol_ms, b, v1, v2, **line_kw)
        assert count[0] == _line_points(line_kw, 32)
        got = _plane_spectrum(line, line_kw["s_max"], line_kw["n_s"])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("past, n_col", [(0.5, 17), (2.0, 32)])
    def test_in_plane_tolerance_boundary(self, hsol_ms, line_kw, past, n_col):
        """v₁, v₂ at e₂·v = `past`·`_IN_PLANE`·|v|, |v₁| = |v₂|: inside the
        tolerance the line takes the half circle, just past it the full one;
        both agree with the full-grid reference."""
        b = np.array([0.0, 0.8, 0.0])  # e = x̂, e₁ = ŷ, e₂ = ẑ
        tilt = past * _IN_PLANE * np.hypot(0.6, 0.2)
        v1, v2 = np.array([0.6, 0.2, tilt]), np.array([-0.6, 0.2, tilt])
        ref = _line_reference(hsol_ms, b, v1, v2, **line_kw)
        with _h_hat_points(hsol_ms) as count:
            line = correlation_line(hsol_ms, b, v1, v2, **line_kw)
        assert count[0] == _line_points(line_kw, n_col)
        got = _plane_spectrum(line, line_kw["s_max"], line_kw["n_s"])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rotvec", [(0.0, 0.0, 0.0), (0.4, -1.1, 0.7)])
    def test_coplanar_line_point_count(self, hsol_ms, line_kw, rotvec):
        """A coplanar line asks `h_hat_values` for rows × n_r × (n_θ/2 + 1) × 2
        points, rotated off the coordinate planes or not."""
        R = Rotation.from_rotvec(rotvec).as_matrix()
        with _h_hat_points(hsol_ms) as count:
            correlation_line(hsol_ms, R @ np.array([0.0, 0.8, 0.0]), R @ V1, R @ V2, **line_kw)
        assert count[0] == _line_points(line_kw, 32 // 2 + 1)


def _default_n_theta(s_max, bnorm):
    """`correlation_line`'s θ rule at |b|, rounded up to even."""
    n_theta = max(32, int(1.4 * s_max * bnorm) + 16)
    return n_theta + n_theta % 2


class TestMarginalFan:
    """The lines of one φ node of `marginal_check` as one fan, against
    per-line `g_B_eval`."""

    @settings(max_examples=6, deadline=None)
    @example(phi=1.2, qs=[0.5, 2.0, 5.0], rs=[1.0, 3.0, 5.0])  # criterion 4's |x|
    @example(phi=3.0, qs=[1.0], rs=[4.0])  # samples far below their lines' |g|
    @example(phi=2.75, qs=[1.0], rs=[4.5, 5.0])
    @given(phi=st.floats(0.05, np.pi - 0.05),
           qs=st.lists(st.floats(0.2, 6.0), min_size=1, max_size=3, unique=True),
           rs=st.lists(st.floats(0.3, 5.0), min_size=1, max_size=3, unique=True))
    def test_fan_matches_per_line(self, hsol_ms, line_kw, phi, qs, rs):
        """Lines whose own θ rule gives the fan's n_θ agree to rounding; a
        line the fan sums on a finer θ grid agrees to rounding with its own
        line on that grid, and within the criterion-4 tolerance, 5 %, with
        its own line on its default grid.

        Each per-line value is `g_B_eval`'s, the line of
        `impact_geometry`'s b read at d.  That b̂ and the fan's shared one
        differ in the last bits, so rounding is measured, as in
        `test_rotation_invariance`, against the largest |g| of the lines:
        near φ = 0 or π a sample can sit a thousand times below it."""
        v1 = np.array([0.0, 0.0, 0.5])
        n_hat = np.array([np.sin(phi), 0.0, np.cos(phi)])
        fan = _marginal_fan(hsol_ms, v1, phi, np.array(qs), np.array(rs), **line_kw)
        n_fan = _default_n_theta(line_kw["s_max"], max(rs) * np.sin(phi))

        def per_line(r, **kw):
            """g_B_eval's value of each q's line at x = r ẑ, and the largest |g|
            of those lines."""
            x, values, g_max = np.array([0.0, 0.0, r]), [], 0.0
            for q in qs:
                v2 = v1 + q * n_hat
                b, d, _ = impact_geometry(x, v1, v2)
                line = correlation_line(hsol_ms, b, v1, v2, **kw, **line_kw)
                values.append(line.at(d).real)
                g_max = max(g_max, np.max(np.abs(line.g)))
            return np.array(values), g_max

        for r, got in zip(rs, fan):
            own, g_max = per_line(r)
            if _default_n_theta(line_kw["s_max"], r * np.sin(phi)) == n_fan:
                assert np.max(np.abs(got - own)) <= 1e-12 * g_max
            else:
                fine, g_max = per_line(r, n_theta=n_fan)
                assert np.max(np.abs(got - fine)) <= 1e-12 * g_max
                assert np.max(np.abs(got - own)) <= 0.05 * np.max(np.abs(own))

    @pytest.mark.parametrize("n_q", [1, 4])
    def test_fan_point_count(self, hsol_ms, line_kw, n_q):
        """A fan of m members asks `h_hat_values` for (m + 1) × rows × n_r ×
        n_col points: per chunk of rows one call for the shared v₁ plane and
        one per member.  The |x| values add no points."""
        v1, phi, q = np.array([0.0, 0.0, 0.5]), 0.9, np.linspace(0.5, 3.0, n_q)
        counts = []
        for rs in ((1.0, 3.0, 5.0), (5.0,)):
            with _h_hat_points(hsol_ms) as count:
                _marginal_fan(hsol_ms, v1, phi, q, np.array(rs), **line_kw)
            counts.append(count)
        n_col = _default_n_theta(line_kw["s_max"], 5.0 * np.sin(phi)) // 2 + 1
        rows = line_kw["n_s"] // 2 + 1
        chunk = _LINE_POINTS // (2 * sum(line_kw["r_nodes"]) * n_col)
        assert counts[0] == counts[1]
        assert counts[0][0] == (n_q + 1) * _line_points(line_kw, n_col) // 2
        assert counts[0][1] == (n_q + 1) * -(-rows // chunk)


class TestAMinusExact:
    def test_h_hat_axial_exact_takes_eps_from_A_minus(self, model_mc):
        """ĥ_B on the exact path has the bits of the closed formula with ε
        evaluated afresh on the (κ, u*) set: reusing A⁻'s ε changes nothing.
        The κ span three `A_minus_exact` blocks, split ones among them."""
        sol = HSolution(model_mc)
        kappas = np.geomspace(0.01, 5.0, 300)
        u = np.concatenate([np.linspace(-3.0, 3.0, 13), sol.grid.points[[500, 700]]])
        got = sol.h_hat_axial_exact(kappas, u, 0.3, -0.2)
        W = model_mc.potential.fourier(kappas[:, None])
        ref = _h_hat_formula(model_mc.epsilon_at(W, u), W, sol.A_minus_exact(kappas, u), 0.3,
                             (u * -0.2)[None, :])
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", CRITERION_5)
    def test_h_realspace_inputs(self, criterion_5_chains, name):
        sol, k_max = criterion_5_chains[name]
        kappas, *_ = _panel_nodes(float(sol.k_grid[0]), k_max, 21.5)
        u_eval = 1.2 * np.polynomial.legendre.leggauss(48)[0]
        ref = _A_minus_exact_reference(sol, kappas, u_eval)
        assert _rel_to_row_max(sol.A_minus_exact(kappas, u_eval), ref) <= 1e-9

    @pytest.mark.parametrize("name", CRITERION_5)
    def test_grid_nodes(self, criterion_5_chains, name):
        sol, _ = criterion_5_chains[name]
        kappas = np.geomspace(sol.k_grid[0], sol.k_grid[-1], 16)
        u_eval = sol.grid.points[1:-1]
        ref = _A_minus_exact_reference(sol, kappas, u_eval)
        assert _rel_to_row_max(sol.A_minus_exact(kappas, u_eval), ref) <= 1e-12

    @pytest.mark.parametrize("name", CRITERION_5)
    def test_near_nodes(self, criterion_5_chains, name):
        sol, _ = criterion_5_chains[name]
        kappas = np.geomspace(sol.k_grid[0], sol.k_grid[-1], 16)
        nodes = np.linspace(40, sol.grid.n - 41, 24).astype(int)
        u_eval = sol.grid.points[nodes] + 1e-9 * sol.grid.spacing
        ref = _A_minus_exact_reference(sol, kappas, u_eval)
        assert _rel_to_row_max(sol.A_minus_exact(kappas, u_eval), ref) <= 1e-9


# ---------------------------------------------------------------------------
# oracle for the fused ĥ_B kernel
# ---------------------------------------------------------------------------

def _h_hat_values_reference(sol, kappa, u, f_v, omega_grad_f):
    """ĥ_B by the former four-corner bilinear A⁻ lookup and the closed formula,
    with α from `_alpha_reference`."""
    kappa = np.asarray(kappa, dtype=float)
    u = np.asarray(u, dtype=float)
    table = np.stack([s.A_minus for s in sol.slices])
    n_k, n_u = table.shape
    lk = np.log(np.maximum(kappa, 1e-300))
    fi = np.clip((lk - sol._logk0) / sol._dlogk, 0.0, n_k - 1.000001)
    fj = np.clip((u - sol.grid.points[0]) / sol.grid.spacing, 0.0, n_u - 1.000001)
    i0 = fi.astype(np.intp)
    j0 = fj.astype(np.intp)
    fi = fi - i0
    fj = fj - j0
    flat = table.ravel()
    base = i0 * n_u + j0
    A = (
        flat[base] * (1 - fi) * (1 - fj)
        + flat[base + 1] * (1 - fi) * fj
        + flat[base + n_u] * fi * (1 - fj)
        + flat[base + n_u + 1] * fi * fj
    )
    W = sol.model.potential.fourier(kappa)
    dF = sol.model.distribution.radon_profile_derivative(_Z_HAT, u)
    eps = 1.0 - W * (_alpha_reference(sol, u) - 1j * np.pi * dF)
    return f_v * (1.0 - eps) / eps - W * A / eps * omega_grad_f


class TestHHatKernel:
    """`h_hat_values` against the former lookup, on the shapes its callers use."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans(),
           which=st.sampled_from(["soft", "coulomb"]))
    def test_matches_reference(self, hsol_ms, hsol_mc, seed, stacked, which):
        # κ beyond both table ends for the soft chain (|ε| ≥ 0.75 everywhere);
        # the Coulomb chain from κ = 0.5 up, where |ε| ≥ 0.3: nearer its
        # Langmuir root 1/|ε| amplifies the last-bit differences of the two
        # evaluation orders of α and A⁻ past the bound
        sol, k_lo = (hsol_ms, 2e-4) if which == "soft" else (hsol_mc, 0.5)
        rng = np.random.default_rng(seed)
        shape_k, shape_u = ((3, 5, 1), (2, 3, 5, 6)) if stacked else ((), ())
        kappa = np.exp(rng.uniform(np.log(k_lo), np.log(3 * sol.k_grid[-1]), shape_k))
        nodes, h, u_max = sol.grid.points, sol.grid.spacing, sol.grid.u_max
        on_node = nodes[rng.integers(0, sol.grid.n, shape_u)]
        between = nodes[rng.integers(0, sol.grid.n - 1, shape_u)] + h * rng.uniform(0, 1, shape_u)
        beyond = rng.choice([-1.0, 1.0], shape_u) * rng.uniform(u_max, 4 * u_max, shape_u)
        u = np.choose(rng.integers(0, 3, shape_u), [on_node, between, beyond])
        f_v = rng.uniform(0.0, 0.4, (2, 1, 1, 1) if stacked else ())
        og = rng.normal(size=shape_u)
        got = sol.h_hat_values(kappa, u, f_v, og)
        ref = _h_hat_values_reference(sol, kappa, u, f_v, og)
        assert got.shape == ref.shape == np.broadcast_shapes(shape_k, shape_u)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_grid_ends_and_nodes(self, hsol_ms):
        """Every node, the two ends included, and points just inside and past ±u_max."""
        sol = hsol_ms
        eps = 1e-9 * sol.grid.spacing
        u_max = sol.grid.u_max
        u = np.concatenate([sol.grid.points, [-u_max + eps, u_max - eps, -u_max - eps,
                                              u_max + eps]])[None, :]
        kappa = np.concatenate([sol.k_grid, [sol.k_grid[0] / 2, 2 * sol.k_grid[-1]]])[:, None]
        got = sol.h_hat_values(kappa, u, 0.3, 0.7)
        ref = _h_hat_values_reference(sol, kappa, u, 0.3, 0.7)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the A⁻ table is solved on first read
# ---------------------------------------------------------------------------

def _count_slice_solves(sol):
    """Count the κ rows that `sol._solve_block` solves from here on."""
    calls = [0]
    inner = sol._solve_block

    def counting(kappas):
        calls[0] += len(kappas)
        return inner(kappas)

    sol._solve_block = counting
    return calls


class TestLazyTable:
    @pytest.mark.parametrize("reader", ["A_minus_exact", "h_hat_axial_exact", "g_B_pairing",
                                        "flux_limit"])
    def test_exact_paths_solve_no_slice(self, model_ms, reader):
        """The exact paths never read the table; reading `slices` afterwards
        solves it, bit for bit as a slice-by-slice build over `k_grid`."""
        sol = HSolution(model_ms, k_max=10.0, n_k=40)
        calls = _count_slice_solves(sol)
        kappas, u = np.array([0.1, 1.0, 4.0]), np.linspace(-2.0, 2.0, 9)
        if reader == "A_minus_exact":
            sol.A_minus_exact(kappas, u)
        elif reader == "h_hat_axial_exact":
            sol.h_hat_axial_exact(kappas, u, 0.3, -0.2)
        elif reader == "g_B_pairing":
            PairPropagator(model_ms, t_max=35.0).g_B_pairing(GaussianTestFunction(1.5, 1.0, 1.0), sol)
        else:
            flux_limit(model_ms, 1.2, sol)
        assert calls[0] == 0

        slices = sol.slices
        assert calls[0] == len(sol.k_grid)
        eager = HSolution(model_ms, k_max=10.0, n_k=40)
        eager = [eager._solve_slice(kk) for kk in eager.k_grid]
        for got, ref in zip(slices, eager, strict=True):
            assert got.kappa == ref.kappa and got.split == ref.split
            assert np.array_equal(got.A_minus, ref.A_minus)
            assert np.array_equal(got.H_B, ref.H_B)
        table = np.stack([s.A_minus for s in eager]).ravel()
        assert np.array_equal(sol._A_planes[0], table.real)
        assert np.array_equal(sol._A_planes[1], table.imag)
        assert calls[0] == len(sol.k_grid)

    def test_slice_bits_do_not_depend_on_the_block(self, model_mc):
        """A κ's slice has the same bits solved in its `slices` block, alone, or
        in a block that starts elsewhere; Langmuir-split slices included."""
        sol = HSolution(model_mc, n_k=40)
        shift = 5
        shifted = sol._solve_block(sol.k_grid[shift : shift + _SLICE_BLOCK])
        assert any(s.split for s in sol.slices) and not all(s.split for s in sol.slices)
        for i, (kk, got) in enumerate(zip(sol.k_grid, sol.slices, strict=True)):
            refs = [sol._solve_slice(kk)]
            if 0 <= i - shift < len(shifted):
                refs.append(shifted[i - shift])
            for ref in refs:
                assert got.kappa == ref.kappa and got.split == ref.split
                assert np.array_equal(got.A_minus, ref.A_minus)
                assert np.array_equal(got.H_B, ref.H_B)
