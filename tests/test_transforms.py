"""Singular-integral primitives against closed-form oracles."""

import numpy as np
import pytest
from scipy.special import dawsn

from plasmakin.distributions import BumpMixture, ExponentialFamily, Maxwellian, Tabulated
from plasmakin.errors import DomainError, InputError, PreconditionError
from plasmakin.transforms import (
    LineProfile,
    UGrid,
    _panel_nodes,
    _smooth_cutoff,
    axial_inverse_transform,
    perpendicular_unit,
    plemelj_minus,
    plemelj_plus,
    pv_quadrature,
    pv_transform,
    radial_inverse_transform,
    radon,
    radon_derivative,
)

GRID = UGrid(12.0, 1024)
U = GRID.points
CHI = np.array([0.0, 0.0, 1.0])


def gaussian_profile(center=0.0, width=1.0, amp=1.0):
    return LineProfile(GRID, amp * np.exp(-0.5 * ((U - center) / width) ** 2))


class TestRadon:
    def test_maxwellian_is_standard_normal(self):
        prof = radon(Maxwellian(), CHI, GRID)
        oracle = np.exp(-0.5 * U**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(prof.values - oracle)) < 1e-14

    @pytest.mark.parametrize(
        "dist",
        [Maxwellian(), ExponentialFamily(gamma=1), ExponentialFamily(gamma=2, modulation=0.3),
         BumpMixture([(0.6, (0, 0, 1.0), 1.0), (0.4, (0, 0, -1.5), 0.8)])],
        ids=["maxwellian", "exp1", "exp2mod", "bumps"],
    )
    def test_unit_mass(self, dist):
        grid = UGrid(26.0, 2048)
        prof = radon(dist, CHI, grid)
        assert abs(np.trapezoid(prof.values, grid.points) - 1.0) < 1e-6

    def test_isotropy(self):
        for dist in (Maxwellian(), ExponentialFamily(gamma=1)):
            a = radon(dist, CHI, GRID).values
            chi2 = np.array([1.0, 2.0, -0.5])
            chi2 /= np.linalg.norm(chi2)
            b = radon(dist, chi2, GRID).values
            assert np.max(np.abs(a - b)) < 1e-10

    def test_mixture_linearity(self, rng):
        comps = [(0.3, rng.normal(size=3), 0.9), (0.7, rng.normal(size=3), 1.2)]
        mix = BumpMixture(comps)
        chi = rng.normal(size=3)
        chi /= np.linalg.norm(chi)
        whole = radon(mix, chi, GRID).values
        parts = sum(
            w * radon(BumpMixture([(1.0, c, s)]), chi, GRID).values
            for w, c, s in comps
        )
        assert np.max(np.abs(whole - parts)) < 1e-12

    def test_tabulated_matches_closed_form(self):
        ax = np.linspace(-8.0, 8.0, 81)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        m = Maxwellian()
        vals = m.density(np.stack([X, Y, Z], axis=-1))
        tab = Tabulated((ax, ax, ax), vals)
        grid = UGrid(6.0, 64)
        got = radon(tab, CHI, grid).values
        oracle = np.exp(-0.5 * grid.points**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(got - oracle)) < 2e-3  # lattice-interpolation limited

    def test_errors(self):
        with pytest.raises(InputError):
            radon(Maxwellian(), [0.0, 0.0, 2.0], GRID)
        ax = np.linspace(-2.0, 2.0, 9)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        tab = Tabulated((ax, ax, ax), np.exp(-(X**2 + Y**2 + Z**2)))
        with pytest.raises(DomainError):
            radon(tab, CHI, UGrid(6.0, 64))

    def test_derivative_matches_finite_difference(self):
        dprof = radon_derivative(Maxwellian(), CHI, GRID)
        prof = radon(Maxwellian(), CHI, GRID)
        fd = np.gradient(prof.values, GRID.spacing)
        assert np.max(np.abs(dprof.values[2:-2] - fd[2:-2])) < 5e-4

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


class TestPlemelj:
    def test_reconstruction_identity(self, rng):
        for _ in range(4):
            c = rng.normal() + 1j * rng.normal()
            vals = c * np.exp(-0.5 * ((U - rng.normal()) / (1 + rng.random())) ** 2)
            p = LineProfile(GRID, vals)
            rec = (plemelj_plus(p).values - plemelj_minus(p).values) / (2j * np.pi)
            assert np.max(np.abs(rec - vals)) < 1e-8

    def test_plus_is_conjugate_of_minus_for_real(self):
        p = gaussian_profile(center=0.7, width=1.4)
        plus = plemelj_plus(p).values
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

def _radial_reference(fn, r_values, k_min=1e-4, k_max=60.0, k_roll=40.0):
    """The panel rule of max r, and one sum per r."""
    k, w = _panel_nodes(k_min, k_max, max(r_values))
    vals = np.asarray(fn(k), dtype=float) * _smooth_cutoff(k, k_roll, k_max)
    out = np.empty(len(r_values))
    for i, r in enumerate(r_values):
        out[i] = np.sum(w * vals * k * np.sin(k * r)) * 4 * np.pi / ((2 * np.pi) ** 1.5 * r)
    return out


def _axial_reference(fn, r_values, k_min=3e-3, k_max=40.0, k_roll=28.0, n_mu=48, n_leg=32):
    """The panel rule of max |r|, and one `spherical_jn` call per order per r."""
    from numpy.polynomial import legendre as npleg
    from scipy.special import spherical_jn

    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    P = np.stack([npleg.legval(mu, [0.0] * n + [1.0]) for n in range(n_leg)])
    proj = (2 * np.arange(n_leg) + 1)[:, None] / 2.0 * (P * wmu[None, :])
    k, w = _panel_nodes(k_min, k_max, max(abs(r) for r in r_values))
    cn = proj @ np.asarray(fn(k[:, None], mu[None, :]), dtype=complex).T
    cut = _smooth_cutoff(k, k_roll, k_max)
    out = np.empty(len(r_values), dtype=complex)
    for i, r in enumerate(r_values):
        modes = np.array([np.sum(w * cut * k**2 * cn[n] * spherical_jn(n, k * abs(r)))
                          for n in range(n_leg)])
        # mode n carries 2iⁿ, and (-1)ⁿ for r < 0
        weight = np.array([2.0 * 1j**n * ((-1.0) ** n if r < 0 else 1.0) for n in range(n_leg)])
        out[i] = modes @ weight / np.sqrt(2.0 * np.pi)
    return out


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


class TestInverseTransformsBitForBit:
    def test_radial(self):
        fn = _Counted(lambda k: (2 * np.pi) ** -1.5 / (1.0 + k**2) * np.cos(0.3 * k))
        got = radial_inverse_transform(fn, R_MIXED, k_max=300.0, k_roll=200.0)
        assert np.array_equal(got, _radial_reference(fn.fn, R_MIXED, k_max=300.0, k_roll=200.0))
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
        assert np.array_equal(got, _axial_reference(G, r))
        assert fn.calls == 1
