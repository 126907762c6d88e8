"""Singular-integral primitives against closed-form oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from oracles import pv_fft_padded, pv_quadrature
from plasmakin.distributions import BumpMixture, ExponentialFamily, Maxwellian, Tabulated
from plasmakin.errors import DomainError, InputError, PreconditionError
from plasmakin.transforms import (
    DEFAULT_ENDPOINT_TOL,
    LineProfile,
    UGrid,
    _panel_nodes,
    _pv_kernel,
    _smooth_cutoff,
    axial_inverse_transform,
    perpendicular_unit,
    plemelj_minus,
    pv_transform,
    pv_transform_rows,
    radial_inverse_transform,
    spherical_jn_orders,
    taper_window,
)

GRID = UGrid(12.0, 1024)
U = GRID.points
CHI = np.array([0.0, 0.0, 1.0])


def gaussian_profile(center=0.0, width=1.0, amp=1.0):
    return LineProfile(GRID, amp * np.exp(-0.5 * ((U - center) / width) ** 2))


class TestRadon:
    """The distributions' Radon profiles F(χ,u) = ∫_{χ·v=u} f dv and ∂_uF."""

    def test_maxwellian_is_standard_normal(self):
        prof = Maxwellian().radon_profile(CHI, U)
        oracle = np.exp(-0.5 * U**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(prof - oracle)) < 1e-14

    @pytest.mark.parametrize(
        "dist",
        [Maxwellian(), ExponentialFamily(gamma=1), ExponentialFamily(gamma=2, modulation=0.3),
         BumpMixture([(0.6, (0, 0, 1.0), 1.0), (0.4, (0, 0, -1.5), 0.8)])],
        ids=["maxwellian", "exp1", "exp2mod", "bumps"],
    )
    def test_unit_mass(self, dist):
        grid = UGrid(26.0, 2048)
        prof = dist.radon_profile(CHI, grid.points)
        assert abs(np.trapezoid(prof, grid.points) - 1.0) < 1e-6

    def test_isotropy(self):
        for dist in (Maxwellian(), ExponentialFamily(gamma=1)):
            a = dist.radon_profile(CHI, U)
            chi2 = np.array([1.0, 2.0, -0.5])
            chi2 /= np.linalg.norm(chi2)
            b = dist.radon_profile(chi2, U)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_mixture_linearity(self, rng):
        comps = [(0.3, rng.normal(size=3), 0.9), (0.7, rng.normal(size=3), 1.2)]
        mix = BumpMixture(comps)
        chi = rng.normal(size=3)
        chi /= np.linalg.norm(chi)
        whole = mix.radon_profile(chi, U)
        parts = sum(w * BumpMixture([(1.0, c, s)]).radon_profile(chi, U) for w, c, s in comps)
        assert np.max(np.abs(whole - parts)) < 1e-12

    def test_tabulated_matches_closed_form(self):
        ax = np.linspace(-8.0, 8.0, 81)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        m = Maxwellian()
        vals = m.density(np.stack([X, Y, Z], axis=-1))
        tab = Tabulated((ax, ax, ax), vals)
        grid = UGrid(6.0, 64)
        got = tab.radon_profile(CHI, grid.points)
        oracle = np.exp(-0.5 * grid.points**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(got - oracle)) < 2e-3  # lattice-interpolation limited

    def test_errors(self):
        """A tabulated profile beyond the lattice's support is refused."""
        ax = np.linspace(-2.0, 2.0, 9)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        tab = Tabulated((ax, ax, ax), np.exp(-(X**2 + Y**2 + Z**2)))
        with pytest.raises(DomainError):
            tab.radon_profile(CHI, UGrid(6.0, 64).points)

    def test_derivative_matches_finite_difference(self):
        dprof = Maxwellian().radon_profile_derivative(CHI, U)
        fd = np.gradient(Maxwellian().radon_profile(CHI, U), GRID.spacing)
        assert np.max(np.abs(dprof[2:-2] - fd[2:-2])) < 5e-4

    def test_perpendicular_unit_batches(self, rng):
        e = rng.normal(size=(4, 5, 3))
        e[0, 0] = [0.95, 0.1, 0.0]  # near x̂: the ŷ trial vector
        e /= np.linalg.norm(e, axis=-1, keepdims=True)
        p = perpendicular_unit(e)
        assert p.shape == e.shape
        assert np.max(np.abs(np.sum(p * e, axis=-1))) < 1e-14
        assert np.max(np.abs(np.linalg.norm(p, axis=-1) - 1.0)) < 1e-14
        assert np.array_equal(perpendicular_unit(e[2, 3]), p[2, 3])


class TestPrincipalValue:
    def test_zero_profile(self):
        p = LineProfile(GRID, np.zeros(GRID.n))
        assert np.all(pv_transform(p).values == 0.0)

    def test_even_profile_vanishes_at_origin(self):
        p = gaussian_profile()
        P = pv_transform(p).values
        # grid has no u=0 node: P must be odd, so interpolation at 0 vanishes
        assert abs(np.interp(0.0, U, P.real)) < 1e-10

    def test_gaussian_against_dawson(self):
        p = LineProfile(GRID, np.exp(-0.5 * U**2) / np.sqrt(2 * np.pi))
        exact = -np.sqrt(2.0) * dawsn(U / np.sqrt(2.0))
        assert np.max(np.abs(pv_transform(p).values - exact)) < 5e-8
        idx = np.arange(1, GRID.n - 1, 7)
        assert np.max(np.abs(pv_quadrature(p, idx) - exact[idx])) < 1e-7

    def test_lorentzian_closed_form(self):
        grid = UGrid(800.0, 65536)
        u = grid.points
        p = LineProfile(grid, 1.0 / (1.0 + u**2))
        got = pv_transform(p).values
        exact = -np.pi * u / (1.0 + u**2)
        sel = np.abs(u) <= 6.0
        assert np.max(np.abs(got[sel] - exact[sel])) < 1e-7

    @pytest.mark.parametrize("case", ["gaussian", "lorentzian", "bump"])
    def test_fft_vs_quadrature(self, case):
        if case == "gaussian":
            grid, vals = GRID, np.exp(-0.5 * (U - 1.3) ** 2)
        elif case == "lorentzian":
            grid = UGrid(800.0, 65536)
            vals = 1.0 / (1.0 + grid.points**2)
        else:
            grid = GRID
            x = np.clip(1 - (U / 4.0) ** 2, 1e-300, None)
            vals = np.where(np.abs(U) < 4.0, np.exp(-1.0 / x), 0.0)
        p = LineProfile(grid, vals)
        fft_path = pv_transform(p).values
        idx = np.arange(1, grid.n - 1, max(1, grid.n // 256))
        # the endpoint-log correction of the oracle degenerates at the very
        # grid edge; the corpus agreement is over the working region
        idx = idx[np.abs(grid.points[idx]) <= 0.75 * grid.u_max]
        quad_path = pv_quadrature(p, idx)
        assert np.max(np.abs(fft_path[idx] - quad_path)) < 1e-6

    def test_linearity(self, rng):
        p = LineProfile(GRID, np.exp(-0.5 * U**2) * (1 + 0.5j))
        q = LineProfile(GRID, np.exp(-0.25 * (U - 1) ** 2) * (0.3 - 1j))
        a = 0.7 - 2.3j
        combo = LineProfile(GRID, a * p.values + q.values)
        lhs = pv_transform(combo).values
        rhs = a * pv_transform(p).values + pv_transform(q).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_decay_flag_precondition(self):
        p = LineProfile(GRID, 1.0 / (1.0 + U**2))  # fat tails on a narrow grid
        assert not p.decay_flag
        with pytest.raises(PreconditionError):
            pv_transform(p)


def _fft_rounding_bound(grid, x):
    """A bound on |2n-point route - 8n-point route| from FFT rounding alone,
    for the tapered profile x.

    A length-M FFT has a relative 2-norm error of at most log₂M·η, with
    η = μ + γ₄(√2 + μ) ≈ 7ε for twiddle factors accurate to μ ≈ ε (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §24.1).  Both
    routes compute the same restricted convolution as IFFT(FFT(x)·m):
    - the 8n route with the exact multiplier |m| = π: error at most
      (2·log₂8n·η + ε)·π·‖x‖₂;
    - the 2n route with m = FFT_2n of the lags of IFFT_8n(iπ·sign ξ): error at
      most (2·log₂2n·η + ε)·max|m|·‖x‖₂ plus ‖Δm‖∞·‖x‖₂, where
      ‖Δm‖∞ ≤ ‖Δm‖₂ ≤ √(2n)·π·(log₂8n + log₂2n)·η (the lags' 2-norm is at
      most π).
    Both then add the same moment corrections, one rounding each of the
    result's size.
    """
    eps = np.finfo(float).eps
    eta = eps + 4 * eps / (1 - 4 * eps) * (np.sqrt(2) + eps)
    l8, l2 = np.log2(8 * grid.n), np.log2(2 * grid.n)
    m_max = float(np.max(np.abs(_pv_kernel(grid)[0])))
    scale = np.max(np.abs(x), axis=-1, keepdims=True)  # ‖x‖₂ without underflow
    norm = scale * np.linalg.norm(x / np.where(scale > 0, scale, 1.0), axis=-1, keepdims=True)
    return norm * ((2 * l8 * eta + eps) * np.pi + (2 * l2 * eta + eps) * m_max
                   + np.sqrt(2 * grid.n) * np.pi * (l8 + l2) * eta)


class TestBlockedPV:
    """The 2n-point blocked route against the 8n-point zero-padded oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        log_n=st.integers(6, 11),
        bumps=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.3, 1.5),
                                 st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=4),
        rows=st.integers(1, 3),
        is_complex=st.booleans(),
    )
    def test_rows_match_the_zero_padded_oracle(self, log_n, bumps, rows, is_complex):
        grid = UGrid(12.0, 2**log_n)
        u = grid.points
        profiles = []
        for r in range(rows):
            vals = sum((a + 1j * b * is_complex) * np.exp(-0.5 * ((u - c - r) / w) ** 2)
                       for c, w, a, b in bumps)
            profiles.append(vals if is_complex else np.real(vals))
        # a bump near ±u_max leaves an endpoint above the tolerance, which the
        # rows refuse (`test_rows_refuse_what_a_profile_refuses`)
        assume(np.max(np.abs(np.array(profiles)[:, [0, -1]])) <= DEFAULT_ENDPOINT_TOL)
        got = pv_transform_rows(grid, np.array(profiles))
        ref = np.array([pv_fft_padded(LineProfile(grid, p)) for p in profiles])
        bound = _fft_rounding_bound(grid, np.array(profiles) * taper_window(grid))
        bound = bound + 2 * np.finfo(float).eps * np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= bound)
        for p, row in zip(profiles, got):
            assert np.array_equal(pv_transform(LineProfile(grid, p)).values, row)

    def test_rows_refuse_what_a_profile_refuses(self):
        ok = np.exp(-0.5 * U**2)
        with pytest.raises(PreconditionError):
            pv_transform_rows(GRID, np.array([ok, 1.0 / (1.0 + U**2)]))
        with pytest.raises(InputError, match="non-finite"):
            pv_transform_rows(GRID, np.array([ok, np.where(U > 0, np.nan, ok)]))
        with pytest.raises(InputError):
            pv_transform_rows(GRID, ok)


class TestPlemelj:
    def test_reconstruction_identity(self, rng):
        for _ in range(4):
            c = rng.normal() + 1j * rng.normal()
            vals = c * np.exp(-0.5 * ((U - rng.normal()) / (1 + rng.random())) ** 2)
            p = LineProfile(GRID, vals)
            plus = pv_transform(p).values + 1j * np.pi * vals  # P⁺ = P + iπp
            rec = (plus - plemelj_minus(p).values) / (2j * np.pi)
            assert np.max(np.abs(rec - vals)) < 1e-8

    def test_plus_is_conjugate_of_minus_for_real(self):
        p = gaussian_profile(center=0.7, width=1.4)
        plus = pv_transform(p).values + 1j * np.pi * p.values  # P⁺ = P + iπp
        minus = plemelj_minus(p).values
        assert np.max(np.abs(plus - np.conj(minus))) < 1e-12

    def test_maxwellian_slope_value_at_origin(self):
        # P⁻[∂_uF](0) = -∫F = -1 for the unit Maxwellian, zero imaginary part
        from scipy.interpolate import CubicSpline

        dF = LineProfile(GRID, -U * np.exp(-0.5 * U**2) / np.sqrt(2 * np.pi))
        minus = plemelj_minus(dF).values
        val = complex(CubicSpline(U, minus.real)(0.0)) + 1j * complex(
            CubicSpline(U, minus.imag)(0.0)
        )
        assert abs(val - (-1.0)) < 1e-6


class TestGridValidation:
    def test_grid_invariants(self):
        with pytest.raises(InputError):
            UGrid(12.0, 8)
        with pytest.raises(InputError):
            UGrid(-1.0, 64)
        UGrid(12.0, 1000).require_power_of_two  # attribute exists
        with pytest.raises(InputError):
            UGrid(12.0, 1000).require_power_of_two()

    def test_radial_transform_yukawa(self):
        fn = lambda k: (2 * np.pi) ** -1.5 / (1.0 + k**2)
        r = np.array([0.5, 1.0, 2.0, 5.0])
        got = radial_inverse_transform(fn, r, k_max=300.0, k_roll=200.0)
        exact = np.exp(-r) / (4 * np.pi * r)
        assert np.max(np.abs(got / exact - 1.0)) < 1e-4


# ---------------------------------------------------------------------------
# inverse transforms against per-r loops on the one max|r| rule
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _radial_reference(fn, r_values, k_min=1e-4, k_max=60.0, k_roll=40.0):
    """The panel rule of max r, and one sum per r; also each r's Σ|term|."""
    k, w, *_ = _panel_nodes(k_min, k_max, max(r_values))
    vals = np.asarray(fn(k), dtype=float) * _smooth_cutoff(k, k_roll, k_max)
    out = np.empty(len(r_values))
    size = np.empty(len(r_values))
    for i, r in enumerate(r_values):
        scale = 4 * np.pi / ((2 * np.pi) ** 1.5 * r)
        out[i] = np.sum(w * vals * k * np.sin(k * r)) * scale
        size[i] = np.sum(np.abs(w * vals * k * scale))
    return out, size


def _axial_reference(fn, r_values, k_min=3e-3, k_max=40.0, k_roll=28.0, n_mu=48, n_leg=32):
    """The panel rule of max |r|, and one `spherical_jn` call per order per r;
    also each r's Σ|term| (the same for every r, as |j_n| ≤ 1)."""
    from numpy.polynomial import legendre as npleg
    from scipy.special import spherical_jn

    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    P = np.stack([npleg.legval(mu, [0.0] * n + [1.0]) for n in range(n_leg)])
    proj = (2 * np.arange(n_leg) + 1)[:, None] / 2.0 * (P * wmu[None, :])
    k, w, *_ = _panel_nodes(k_min, k_max, max(abs(r) for r in r_values))
    cn = proj @ np.asarray(fn(k[:, None], mu[None, :]), dtype=complex).T
    cut = _smooth_cutoff(k, k_roll, k_max)
    out = np.empty(len(r_values), dtype=complex)
    for i, r in enumerate(r_values):
        modes = np.array([np.sum(w * cut * k**2 * cn[n] * spherical_jn(n, k * abs(r)))
                          for n in range(n_leg)])
        # mode n carries 2iⁿ, and (-1)ⁿ for r < 0
        weight = np.array([2.0 * 1j**n * ((-1.0) ** n if r < 0 else 1.0) for n in range(n_leg)])
        out[i] = modes @ weight / np.sqrt(2.0 * np.pi)
    size = np.sum(np.abs(w * cut * k**2 * cn) * 2.0) / np.sqrt(2.0 * np.pi)
    return out, np.full(len(r_values), size)


class _Counted:
    """A spectrum that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


# the largest |r| sets the one panel rule; the values repeat and come out of order
R_MIXED = np.array([0.3, 9.0, 2.0, 6.25, 7.0, 0.3, 12.5, 1.0, 7.0, 4.0, 30.0])


class TestInverseTransformsAgainstPerRLoops:
    """The transforms sum the per-r references' terms in another order, so
    each r may differ by the rounding of a reordered sum, 8·eps·Σ|term|."""

    def test_radial(self):
        fn = _Counted(lambda k: (2 * np.pi) ** -1.5 / (1.0 + k**2) * np.cos(0.3 * k))
        got = radial_inverse_transform(fn, R_MIXED, k_max=300.0, k_roll=200.0)
        ref, size = _radial_reference(fn.fn, R_MIXED, k_max=300.0, k_roll=200.0)
        assert np.all(np.abs(got - ref) <= 8 * EPS * size)
        assert fn.calls == 1

    def test_radial_rejects_nonpositive_r(self):
        with pytest.raises(InputError):
            radial_inverse_transform(lambda k: 1.0 / (1.0 + k**2), np.array([1.0, 0.0]))

    def test_axial_with_negative_r(self):
        def G(kappa, mu):  # not even in μ, so the parity of negative r matters
            return (1.0 + 0.4j * mu + 0.2 * mu**2) / (1.0 + kappa**2 + 0.3 * kappa * mu)

        fn = _Counted(G)
        r = np.concatenate([R_MIXED, -R_MIXED[:6], [0.0]])
        got = axial_inverse_transform(fn, r)
        ref, size = _axial_reference(G, r)
        assert np.all(np.abs(got - ref) <= 8 * EPS * size)
        assert fn.calls == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("transform", ["radial", "axial"])
    def test_rejects_non_finite_r(self, transform, bad):
        if transform == "radial":
            call = lambda r: radial_inverse_transform(lambda k: 1.0 / (1.0 + k**2), r)
        else:
            call = lambda r: axial_inverse_transform(lambda k, mu: 1.0 / (1.0 + k**2 + 0 * mu), r)
        with pytest.raises(InputError, match=str(bad)):
            call(np.array([1.0, bad, 2.0]))


# odd and even |r|, on both sides of every split κ|r| = 32 of the default rule
R_AXIAL = np.array([-20.0, -7.5, -2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 6.0, 12.0, 20.0])


class TestAxialClosedForms:
    """F⁻¹[e^{−κ²/2}](rẑ) = e^{−r²/2} and F⁻¹[iκμ·e^{−κ²/2}](rẑ) = −r·e^{−r²/2}.

    The transform omits κ < k_min; that piece, (2π)^{-3/2}·2π∫κ²g(κ)∫e^{iκrμ}μ^p dμ dκ,
    is (2/π)^{1/2}∫κ²g j₀(κr) for the even field and −(2/π)^{1/2}∫κ³g j₁(κr)
    for the odd one, about 7e-9 and r·1.3e-14: taken by an 8-point Gauss rule
    on [0, k_min] with the closed forms of j₀ and j₁, and subtracted.  Both
    fields have Legendre modes 0 and 1 only, which the 48-point μ rule
    projects exactly, and past k_roll = 28, where the roll-off acts, both
    are below e^{−392}.  The 8-point rule on panels of half-width h = 0.0625
    (|r| ≤ 20) errs by at most (64/15)·h·M·ρ^{−16}/(ρ²−1) per panel for an
    integrand bounded by M on the Bernstein ellipse ρ = 16, where
    |e^{iκrμ}| ≤ e^{8h|r|} ≤ 2.2e4: below PANEL_BOUND = 1e-16 in all.  What
    is left is the rounding of 32 modes' projections and sums: n_leg·eps
    per unit of (2/π)^{1/2}∫κ²|G|dκ.
    """

    K_MIN = 3e-3  # the transform's default
    PANEL_BOUND = 1e-16

    def _omitted(self, power):
        x, w = np.polynomial.legendre.leggauss(8)
        k, w = 0.5 * self.K_MIN * (x + 1.0), 0.5 * self.K_MIN * w
        z = np.abs(R_AXIAL)[None, :] * k[:, None]
        zs = np.where(z > 0, z, 1.0)  # j₀(0) = 1, j₁(0) = 0
        j0 = np.where(z > 0, np.sin(zs) / zs, 1.0)
        j1 = np.where(z > 0, (j0 - np.cos(zs)) / zs, 0.0) * np.sign(R_AXIAL)
        g = w * k**2 * np.exp(-(k**2) / 2)
        if power == 0:
            return np.sqrt(2 / np.pi) * g @ j0
        return -np.sqrt(2 / np.pi) * (g * k) @ j1

    def test_gaussian(self):
        got = axial_inverse_transform(lambda k, mu: np.exp(-(k**2) / 2) + 0.0 * mu, R_AXIAL)
        want = np.exp(-(R_AXIAL**2) / 2) - self._omitted(0)
        # (2/π)^{1/2}∫κ²e^{−κ²/2}dκ = 1
        assert np.max(np.abs(got - want)) <= 32 * EPS * 1.0 + self.PANEL_BOUND

    def test_gaussian_gradient(self):
        got = axial_inverse_transform(lambda k, mu: 1j * k * mu * np.exp(-(k**2) / 2), R_AXIAL)
        want = -R_AXIAL * np.exp(-(R_AXIAL**2) / 2) - self._omitted(1)
        # (2/π)^{1/2}∫κ³e^{−κ²/2}dκ = 2(2/π)^{1/2}
        assert np.max(np.abs(got - want)) <= 32 * EPS * 2.0 * np.sqrt(2 / np.pi) + self.PANEL_BOUND


class TestSphericalBesselOrders:
    """`spherical_jn_orders` against scipy's `spherical_jn` (the test oracle)."""

    X = np.unique(np.concatenate([
        [0.0, 1e-300, 1e-8],
        np.geomspace(1e-6, 2000.0, 1500),
        np.arange(1, 65) - 1e-3,
        np.arange(1, 65) + 1e-3,
    ]))

    def test_against_scipy(self):
        from scipy.special import spherical_jn

        ref = spherical_jn(np.arange(64)[:, None], self.X[None, :])
        for n in range(1, 65):  # every split x = n of the two recurrences
            got = spherical_jn_orders(n, self.X)
            assert got.shape == (n, self.X.size)
            assert np.max(np.abs(got - ref[:n])) <= 1e-14, n

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), x=st.floats(0.0, 2000.0))
    def test_sum_rule(self, n, x):
        """Σ_{m<n}(2m+1)j_m(x)² is a partial sum of Σ(2m+1)j_m² = 1, and for
        n ≥ 16, x ≤ n/4 its tail (2n+1)j_n(x)² + … is below 1e-16."""
        s = float(np.sum((2 * np.arange(n) + 1) * spherical_jn_orders(n, np.array([x]))[:, 0] ** 2))
        assert s <= 1.0 + 1e-13
        if n >= 16 and x <= n / 4:
            assert abs(s - 1.0) <= 1e-12
