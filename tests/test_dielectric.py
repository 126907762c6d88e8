"""Dielectric function, stability checks and unit scaling."""

import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline, RegularGridInterpolator
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.spatial.transform import Rotation
from scipy.special import wofz

from plasmakin.dielectric import (
    MAX_CACHED_DIRECTIONS,
    DielectricModel,
    _bounded_minimum,
    _bracketed_roots,
    _critical_points,
    alpha_tail,
    debye_rescale,
    penrose_check,
    not_a_knot_cubic,
    penrose_functional,
    sphere_lattice_directions,
)
from plasmakin.distributions import (
    AnisotropicGaussian,
    BumpMixture,
    ExponentialFamily,
    Maxwellian,
    Tabulated,
)
from plasmakin.errors import DegenerateDielectricError, InputError, RootNotFoundError
from plasmakin.potentials import CoulombPotential, gaussian_soft, zero_potential
from plasmakin.transforms import UGrid

from oracles import far_root_brent

KZ = np.array([0.0, 0.0, 1.0])


class TestEpsilon:
    def test_maxwellian_coulomb_static(self, model_mc):
        for k in (0.3, 0.7, 1.0, 2.5):
            got = model_mc.epsilon(k * KZ, 0.0)
            assert abs(got - (1.0 + 1.0 / k**2)) < 1e-6

    def test_large_k_limit(self, model_mc):
        for u in (-2.0, 0.37, 5.0):
            assert abs(model_mc.epsilon(1e3 * KZ, u) - 1.0) < 1e-4

    def test_zero_potential(self, model_zero):
        u = np.linspace(-5, 5, 11)
        assert np.max(np.abs(model_zero.epsilon(0.8 * KZ, u) - 1.0)) == 0.0

    def test_k_zero_rejected(self, model_mc):
        with pytest.raises(InputError):
            model_mc.epsilon(np.zeros(3), 0.5)

    @pytest.mark.parametrize("call", [
        lambda m: m.epsilon((0.0, 0.0, np.nan), 0.5),  # returned NaN
        lambda m: m.dispersion_roots((0.0, 0.0, np.nan)),  # raised IndexError
        lambda m: m.epsilon(np.inf, 0.5),
    ], ids=["epsilon-nan", "dispersion-roots-nan", "epsilon-scalar-inf"])
    def test_non_finite_k_refused(self, model_mc, call):
        with pytest.raises(InputError, match="k must be finite"):
            call(model_mc)

    def test_nan_u_gives_nan(self, model_mc):
        """The cell lookup of α raised IndexError at a NaN u; now NaN gives
        NaN and the other points keep their values."""
        u = np.array([0.5, np.nan, 13.0])
        eps = model_mc.epsilon(KZ, u)
        assert np.isnan(eps[1]) and np.isnan(model_mc.epsilon(KZ, np.nan))
        assert np.array_equal(eps[[0, 2]], model_mc.epsilon(KZ, u[[0, 2]]))
        alpha = model_mc.direction_cache(KZ).alpha_at(u, derivative=True)
        assert np.isnan(alpha[1]) and np.all(np.isfinite(alpha[[0, 2]]))

    def test_imaginary_part_identity(self, model_mc):
        u = np.linspace(-4, 4, 41)
        k = 0.9
        eps = model_mc.epsilon(k * KZ, u)
        dF = model_mc.dF(KZ, u)
        target = np.pi * (1.0 / k**2) * np.asarray(dF)
        assert np.max(np.abs(eps.imag - target.imag - target)) < 1e-8

    def test_conjugate_symmetry(self, model_mc):
        u = np.linspace(-4, 4, 17)
        eps = model_mc.epsilon(0.7 * KZ, u)
        # P⁺ side: conj(ε) = 1 - φ̂ P⁺[∂_uF]
        plus = model_mc.alpha(KZ, u) + 1j * np.pi * np.asarray(model_mc.dF(KZ, u))
        assert np.max(np.abs(np.conj(eps) - (1.0 - plus / 0.49))) < 1e-8

    def test_alpha_is_even_for_even_F(self, model_mc):
        u = np.linspace(0.3, 5.0, 13)
        assert np.max(np.abs(model_mc.alpha(KZ, u) - model_mc.alpha(KZ, -u))) < 1e-9


def _bits(z):
    """The float64 bits of the real and imaginary parts, signs of zero included."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag]).view(np.int64)


class TestEpsilonAt:
    """`epsilon_at` is 1 - W·P⁻[∂_uF] bit for bit, the sign of a zero
    imaginary part included."""

    @pytest.mark.parametrize("dist, chi", [
        (Maxwellian(), KZ),
        (BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]), KZ),
        (Maxwellian(drift=(0.3, -0.2, 0.4), temperature=1.2), np.array([0.48, -0.6, 0.64])),
        (ExponentialFamily(gamma=1, modulation=0.3), KZ),
    ], ids=["maxwellian", "two-temperature", "drifted-off-z", "exponential"])
    def test_bits_of_one_minus_W_times_plemelj_minus(self, dist, chi):
        model = DielectricModel(dist, gaussian_soft())
        grid = model.grid
        nodes = grid.points[::97]
        between = nodes[:-1] + 0.37 * grid.spacing
        beyond = np.array([1.0, -1.0, 1.5, -3.0]) * grid.u_max
        u = np.concatenate([nodes, between, beyond, [0.0, -0.0]])
        # W = 0 (zero potential) rounds 0·π∂_uF to either sign of zero too
        W = np.append(0.0, model.potential.fourier(np.array([0.05, 0.4, 1.0, 3.0])))[:, None]
        k = 0.7 * chi
        eps = model.epsilon_at(W, u, k)
        assert eps.shape == (W.size, u.size)
        assert np.array_equal(_bits(eps), _bits(1.0 - W * model.plemelj_minus_dF(k, u)))
        cache = model.direction_cache(k)
        on_nodes = 1.0 - W * (cache.alpha - 1j * np.pi * cache.dF.values)
        assert np.array_equal(_bits(model.epsilon_at(W, k=k)), _bits(on_nodes))

    def test_exponential_family_at_rest_has_plus_zero_imaginary_part(self, exp_tail):
        model = DielectricModel(exp_tail, CoulombPotential())
        assert np.signbit(model.distribution.radon_profile_derivative(KZ, np.zeros(1)))[0]
        eps = model.epsilon_at(1.0, 0.0)
        assert eps.imag == 0.0 and not np.signbit(eps.imag)
        assert _bits(model.epsilon(KZ, 0.0)).tolist() == _bits(eps).tolist()


def _epsilon_drifted_reference(chi, drift, k, u, variance=1.0):
    """ε of a drifted Gaussian, Coulomb weight, in mpmath.

    F(χ,·) is the Gaussian of the given variance σ² about χ·drift, so with
    ζ = (u - χ·drift)/(√2σ) the upper boundary value of C[∂_uF] is
    -(1 + ζZ(ζ))/σ², Z(ζ) = i√π e^{-ζ²} erfc(-iζ), and P⁻[∂_uF] is its
    complex conjugate.
    """
    zeta = mpmath.mpf(u - float(chi @ drift)) / mpmath.sqrt(2 * variance)
    Z = 1j * mpmath.sqrt(mpmath.pi) * mpmath.exp(-zeta**2) * mpmath.erfc(-1j * zeta)
    return complex(1 + mpmath.conj(1 + zeta * Z) / (variance * k**2))


ANISO_COV = np.array([[1.2, 0.3, 0.1], [0.3, 0.9, -0.2], [0.1, -0.2, 1.5]])
ANISO_DRIFT = np.array([0.2, -0.4, 0.6])


class TestExactDirection:
    """Anisotropic kinds evaluate ε at the exact χ = k/|k|, caching each χ on first use."""

    DRIFT = np.array([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("theta, phi", [(0.3, 0.0), (0.3, 1.1), (1.2, 2.5), (2.0, -0.7)])
    def test_drifted_maxwellian_matches_closed_form(self, coulomb, theta, phi):
        model = DielectricModel(Maxwellian(drift=self.DRIFT), coulomb)
        chi = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        for k in (0.5, 1.0, 2.0):
            for u in (-1.3, 0.5, 2.0):
                ref = _epsilon_drifted_reference(chi, self.DRIFT, k, u)
                assert abs(model.epsilon(k * chi, u) - ref) <= 1e-6 * abs(ref)

    @pytest.mark.parametrize("theta, phi", [(0.3, 0.0), (0.3, 1.1), (1.2, 2.5), (2.0, -0.7)])
    def test_anisotropic_gaussian_matches_closed_form(self, coulomb, theta, phi):
        """F(χ,·) of an `AnisotropicGaussian` is the Gaussian of variance χᵀΣχ about χ·drift."""
        dist = AnisotropicGaussian(ANISO_COV, drift=ANISO_DRIFT)
        model = DielectricModel(dist, coulomb)
        chi = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        variance = float(chi @ ANISO_COV @ chi)
        for k in (0.5, 1.0, 2.0):
            for u in (-1.3, 0.5, 2.0):
                ref = _epsilon_drifted_reference(chi, ANISO_DRIFT, k, u, variance)
                assert abs(model.epsilon(k * chi, u) - ref) <= 1e-6 * abs(ref)

    @settings(max_examples=25, deadline=None)
    @given(
        drift=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
        rotvec=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        k=st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda k: np.linalg.norm(k) > 0.2),
        u=st.floats(-3.0, 3.0),
    )
    def test_rotation_covariance(self, coulomb, drift, rotvec, k, u):
        """ε(Rk, u) under drift Rd equals ε(k, u) under drift d."""
        R = Rotation.from_rotvec(rotvec).as_matrix()
        d, k = np.array(drift), np.array(k)
        eps = DielectricModel(Maxwellian(drift=d), coulomb).epsilon(k, u)
        eps_rot = DielectricModel(Maxwellian(drift=R @ d), coulomb).epsilon(R @ k, u)
        assert abs(eps_rot - eps) <= 1e-10 * max(1.0, abs(eps))

    def test_tabulated_builds_directions_on_first_use(self, coulomb):
        # coarse on purpose: this checks the caching, not the quadrature
        ax = np.linspace(-60.0, 60.0, 31)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = Maxwellian(drift=(0.5, 0.0, 0.0), temperature=4.0).density(
            np.stack([X, Y, Z], axis=-1))
        model = DielectricModel(Tabulated((ax, ax, ax), vals, plane_nodes=16), coulomb)
        assert np.array_equal(model.directions, [KZ])
        chi = np.array([0.6, 0.0, 0.8])
        model.epsilon(2.0 * chi, 0.3)
        model.epsilon(0.5 * chi, -0.1)
        model.epsilon(KZ, 0.0)
        np.testing.assert_allclose(model.directions, [KZ, chi], rtol=0, atol=1e-15)

    def test_narrow_tabulated_matches_maxwellian(self, soft):
        """A ±8 lattice builds a model, and its ε along ẑ tracks the analytic one.

        Trilinear interpolation makes the lattice's Radon profile F piecewise
        linear between lattice planes (spacing h): ∂_uF is off by up to
        (h/2)·max|F''| inside a cell and jumps by up to h·max|F''| at each
        plane, with max|F''| = 1/√(2π) for the unit Maxwellian.  So
        |Δ Im ε| = π φ̂ |Δ∂_uF| ≤ φ̂ (π/2) h max|F''|, and in Re ε = −φ̂ α each
        jump adds a logarithm to the principal value α, cut at the model's
        u-spacing Δu: |Δ Re ε| ≤ φ̂ h max|F''| (1 + ln(h/Δu)).
        """
        ax = np.linspace(-8.0, 8.0, 33)
        h = ax[1] - ax[0]
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = Maxwellian().density(np.stack([X, Y, Z], axis=-1))
        grid = UGrid(6.0, 256)
        model = DielectricModel(Tabulated((ax, ax, ax), vals, plane_nodes=32), soft, grid=grid)
        exact = DielectricModel(Maxwellian(), soft, grid=grid)
        k = 0.7 * KZ
        u = np.linspace(-5.0, 5.0, 201)
        diff = model.epsilon(k, u) - exact.epsilon(k, u)
        scale = float(soft.fourier(np.asarray(0.7))) * h / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(diff.imag)) <= scale * np.pi / 2
        assert np.max(np.abs(diff.real)) <= scale * (1.0 + np.log(h / grid.spacing))

    def test_cache_is_bounded(self, coulomb):
        model = DielectricModel(Maxwellian(drift=self.DRIFT), coulomb)
        phis = np.linspace(0.0, 2.0 * np.pi, MAX_CACHED_DIRECTIONS + 1, endpoint=False)
        chis = [np.array([0.6 * np.cos(p), 0.6 * np.sin(p), 0.8]) for p in phis]
        for chi in chis:
            model.alpha(chi, 0.5)
        np.testing.assert_allclose(model.directions, chis[1:], rtol=0, atol=1e-15)


class TestTabulatedGradient:
    def test_central_differences_exact_for_a_quadratic(self):
        """∇f is the central difference of the lattice, exact for a quadratic
        f at interior nodes; zero outside the lattice."""
        axes = (np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 1.0, 11), np.linspace(-1.0, 2.0, 7))
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        f = 5.0 + 0.3 * X**2 + 0.2 * Y**2 + 0.1 * Z**2 + 0.05 * X * Y + 0.2 * X - 0.1 * Z
        tab = Tabulated(axes, f)
        interior = np.stack([X, Y, Z], axis=-1)[1:-1, 1:-1, 1:-1]
        x, y, z = np.moveaxis(interior, -1, 0)
        exact = np.stack([0.6 * x + 0.05 * y + 0.2, 0.4 * y + 0.05 * x, 0.2 * z - 0.1], axis=-1)
        got = tab.gradient(interior)
        assert got.shape == interior.shape
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.array_equal(tab.gradient(np.array([[2.5, 0.0, 0.0], [0.0, 0.0, -1.5]])),
                              np.zeros((2, 3)))

    def test_matches_one_interpolator_per_component(self, rng):
        """The stacked interpolator gives the bits of three scalar ones."""
        ax = np.linspace(-8.0, 8.0, 17)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        f = Maxwellian(drift=(0.3, 0.0, 0.0)).density(np.stack([X, Y, Z], axis=-1))
        v = rng.uniform(-10.0, 10.0, (2000, 3))
        ref = np.stack([RegularGridInterpolator((ax, ax, ax), g, bounds_error=False,
                                                fill_value=0.0)(v)
                        for g in np.gradient(f, ax, ax, ax)], axis=-1)
        assert np.array_equal(Tabulated((ax, ax, ax), f).gradient(v), ref)

    def test_density_matches_interpolator(self, rng):
        """The trilinear kernel gives the bits of `RegularGridInterpolator` on an
        uneven lattice: inside, on nodes and faces, and 0 outside."""
        axes = (np.linspace(-3.0, 3.0, 13), np.geomspace(0.5, 4.0, 9) - 2.0,
                np.linspace(-1.0, 2.0, 7))
        f = rng.uniform(0.0, 1.0, tuple(len(a) for a in axes))
        lo = np.array([a[0] for a in axes])
        hi = np.array([a[-1] for a in axes])
        v = rng.uniform(lo - 0.5, hi + 0.5, (3000, 3))
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        v = np.concatenate([v, nodes, np.array([lo, hi, [hi[0], 0.0, lo[2]]])])
        ref = RegularGridInterpolator(axes, f, bounds_error=False, fill_value=0.0)(v)
        got = Tabulated(axes, f).density(v.reshape(-1, 1, 3))
        assert got.shape == (len(v), 1)
        assert np.array_equal(got[:, 0], ref)


class TestPenrose:
    def test_maxwellian_stable(self, maxwellian, coulomb):
        assert penrose_check(maxwellian, coulomb).verdict == "STABLE"

    def test_drifted_maxwellian_stable(self, coulomb):
        for drift in ([0.5, -1.0, 2.0], [0.0, 0.0, 3.0]):
            rep = penrose_check(Maxwellian(drift=drift), coulomb)
            assert rep.verdict == "STABLE"

    def test_two_bump_unstable(self, coulomb):
        bump = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])
        rep = penrose_check(bump, coulomb)
        assert rep.verdict == "UNSTABLE"
        # independent oracle: Penrose integral at the central minimum
        alpha_c = penrose_functional(bump, KZ, 0.0)
        assert alpha_c > 0.05
        offender_u = [abs(o["u"]) for o in rep.offenders if abs(o["chi"][2]) > 0.99]
        assert min(offender_u) < 0.2  # central critical point found

    def test_two_bump_soft_depends_on_amplitude(self):
        bump = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])
        weak = gaussian_soft(amplitude=1.0)
        strong = gaussian_soft(amplitude=50.0)
        assert penrose_check(bump, weak).verdict == "STABLE"
        assert penrose_check(bump, strong).verdict == "UNSTABLE"

    @pytest.mark.parametrize("directions", [
        [[0.0, 0.0, 0.0]],  # reported STABLE
        [[0.0, 0.0, 2.0]],  # read the profile of an unnormalised projection
        [[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]],
        [[0.0, 0.0, 1.0 + 1e-11]],
    ], ids=["zero", "non-unit", "non-finite", "non-unit-1e-11"])
    def test_bad_directions_refused(self, maxwellian, coulomb, directions):
        with pytest.raises(InputError, match="directions"):
            penrose_check(maxwellian, coulomb, directions=directions)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(u_max=np.nan), "u_max"),  # reported STABLE with 0 critical points
        (dict(u_max=-14.0), "u_max"),
        (dict(n=1), "n"),  # reported STABLE with 0 critical points
        (dict(n=4097.5), "n"),
    ], ids=["u_max-nan", "u_max-negative", "n-1", "n-fractional"])
    def test_bad_scan_refused(self, maxwellian, coulomb, kwargs, name):
        with pytest.raises(InputError, match=f"^{name} must be"):
            penrose_check(maxwellian, coulomb, **kwargs)

    def test_unit_directions_to_1e_12_accepted(self, maxwellian, coulomb):
        chi = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
        rep = penrose_check(maxwellian, coulomb, directions=[chi, [0.0, 0.0, -1.0]])
        assert rep.verdict == "STABLE" and rep.details["directions"] == 2

    def test_coarse_tabulated_inconclusive(self):
        ax = np.linspace(-8.0, 8.0, 7)  # too coarse: verdict flips on coarsening
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        bump = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])
        vals = bump.density(np.stack([X, Y, Z], axis=-1))
        tab = Tabulated((ax, ax, ax), vals, plane_nodes=16)
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                         [0.0, 1.0, 1.0] / np.sqrt(2.0)])
        rep = penrose_check(tab, CoulombPotential(), u_max=6.0, n=65, directions=dirs)
        assert rep.verdict == "INCONCLUSIVE"


def _critical_points_reference(distribution, chi, u_max, n):
    """The former per-interval scan of ∂_uF: the oracle of `_critical_points`."""
    u = np.linspace(-u_max, u_max, n)
    dF = np.asarray(distribution.radon_profile_derivative(chi, u), dtype=float)
    crits = []
    scale = float(np.max(np.abs(dF))) or 1.0
    for i in range(len(u) - 1):
        a, b = dF[i], dF[i + 1]
        if a == 0.0 and abs(u[i]) < u_max - 1e-9:
            crits.append(float(u[i]))
        elif a * b < 0:
            fn = lambda x: float(distribution.radon_profile_derivative(chi, np.array([x]))[0])
            crits.append(float(brentq(fn, u[i], u[i + 1], xtol=1e-12)))
    crits = sorted(crits)
    merged = []
    for c in crits:
        if not merged or c - merged[-1] > 1e-6:
            merged.append(c)
    F = np.asarray(distribution.radon_profile(chi, np.array(merged)), dtype=float)
    return [c for c, Fc in zip(merged, F) if Fc > 1e-10 * scale]


def _penrose_functional_truncated(distribution, chi, u_c, u_max=40.0, n=40001):
    """The former Penrose functional: trapezoid on [-u_max, u_max], tail dropped."""
    u = np.linspace(-u_max, u_max, n)
    F = np.asarray(distribution.radon_profile(chi, u), dtype=float)
    Fc = float(distribution.radon_profile(chi, np.array([u_c]))[0])
    d = u - u_c
    q = np.empty_like(u)
    near = np.abs(d) < 1e-7
    q[~near] = (F[~near] - Fc) / d[~near] ** 2
    if np.any(near):
        h = 1e-4
        Fp, Fm = distribution.radon_profile(chi, np.array([u_c + h, u_c - h]))
        q[near] = 0.5 * (Fp - 2 * Fc + Fm) / h**2
    return float(np.trapezoid(q, u))


def _penrose_reference(distribution, potential, u_max=14.0, n=4097):
    """(verdict, offender u, critical-point count) from the former scan and functional."""
    dirs = [KZ] if distribution.is_isotropic else sphere_lattice_directions()
    sup_w = None if potential.is_coulomb else potential.fourier_sup()
    offender_u, n_critical = [], 0
    for chi in dirs:
        crits = _critical_points_reference(distribution, chi, u_max, n)
        n_critical += len(crits)
        for u_c in crits:
            a_c = _penrose_functional_truncated(distribution, chi, u_c)
            if a_c > 1e-8 if sup_w is None else sup_w > 0 and a_c * sup_w >= 1.0:
                offender_u.append(u_c)
    return ("UNSTABLE" if offender_u else "STABLE"), offender_u, n_critical


TWO_BUMP = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])


def _tabulated_two_bump(n_axis=7):
    ax = np.linspace(-8.0, 8.0, n_axis)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    return Tabulated((ax, ax, ax), TWO_BUMP.density(np.stack([X, Y, Z], axis=-1)), plane_nodes=16)


class TestPenroseOracle:
    """The array scan against the former loop; the functional against closed forms."""

    SWEEP_FAMILIES = [
        Maxwellian(drift=(0.3, -0.2, 0.4), temperature=1.2),
        Maxwellian(drift=(-0.1, 0.5, 0.05), temperature=1.35),
        BumpMixture([(0.7, (0, 0, 0), 0.9), (0.3, (0, 0, 0), 1.4)]),
        ExponentialFamily(gamma=1, modulation=0.3),
        ExponentialFamily(gamma=2, modulation=0.2),
    ]

    @staticmethod
    def _assert_scan_matches_reference(distribution, dirs, u_max, n, noise_per_F=0.0):
        """Equal counts per direction, and each root within Brent's stop
        (xtol + 4ε|u|, xtol = 1e-12) plus the batched solver's
        (4ε·max(|u|, 1)) of the `brentq` root.  Where |∂_uF| is at most
        `noise_per_F`·max F at both ends of the root's scan cell, its sign
        there is rounding and every point of the cell is a root of the
        computed ∂_uF: such a root is held to its cell."""
        u = np.linspace(-u_max, u_max, n)
        h = u[1] - u[0]
        for chi, crits in zip(dirs, _critical_points(distribution, dirs, u_max, n)):
            ref = _critical_points_reference(distribution, chi, u_max, n)
            assert len(crits) == len(ref), (chi, crits, ref)
            dF = np.abs(distribution.radon_profile_derivative(chi, u))
            noise = noise_per_F * np.max(distribution.radon_profile(chi, u))
            for x, r in zip(crits, ref):
                j = min(int((r + u_max) / h), n - 2)
                bound = h if max(dF[j], dF[j + 1]) <= noise else (
                    1e-12 + 4 * _EPS * abs(r) + 4 * _EPS * max(abs(r), 1.0))
                assert abs(x - r) <= bound, (chi, x, r)

    @pytest.mark.parametrize("distribution", SWEEP_FAMILIES + [TWO_BUMP])
    def test_scan_matches_reference(self, distribution):
        dirs = [KZ] if distribution.is_isotropic else sphere_lattice_directions()
        assert len(dirs) == (1 if distribution.is_isotropic else 26)
        self._assert_scan_matches_reference(distribution, dirs, 14.0, 4097)

    def test_scan_matches_reference_tabulated(self):
        """A lattice's ∂_uF is a central difference, step 1e-3, of plane sums
        of 16² nonnegative terms, so its rounding is below 256ε·max F/1e-3;
        along ŷ the two-bump lattice's ∂_uF is that rounding alone."""
        tab = _tabulated_two_bump()
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0] / np.sqrt(2.0)])
        for dist in (tab, tab.coarsened()):
            self._assert_scan_matches_reference(dist, dirs, 0.999 * 8.0, 257,
                                                noise_per_F=256 * _EPS / 1e-3)

    def test_drifted_maxwellian_off_axis(self):
        drift, temperature = np.array([0.3, -0.5, 0.8]), 1.3
        dist = Maxwellian(drift=drift, temperature=temperature)
        chi = np.array([0.48, 0.6, 0.64])
        assert abs(penrose_functional(dist, chi, float(chi @ drift)) + 1.0 / temperature) <= 1e-8

    @pytest.mark.parametrize("d", [2e-7, 1e-6, 1e-5])
    def test_critical_point_near_a_node(self, d):
        """u_c = d lies d from the node u = 0, where F(u) - F(u_c) cancels
        (formerly 2e-5 off at d = 2e-7 and 3.9e-7 at 1e-6)."""
        dist = Maxwellian(drift=(0.0, 0.0, d))
        assert abs(penrose_functional(dist, KZ, d) + 1.0) <= 1e-8

    @pytest.mark.parametrize("distribution", [
        BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]),
        TWO_BUMP,
    ])
    def test_mixtures_match_cauchy(self, distribution):
        """At u_c, PV∫∂_uF/(u - u_c) du = ∫(F - F(u_c))/(u - u_c)² du = Re C[∂_uF](u_c)."""
        crits = _critical_points(distribution, [KZ], 14.0, 4097)[0]
        assert len(crits) == (1 if distribution.is_isotropic else 3)  # two-bump: peaks and centre
        for u_c in crits:
            ref = float(distribution.cauchy_dF(KZ, np.array([u_c + 0j]))[0].real)
            assert abs(penrose_functional(distribution, KZ, u_c) - ref) <= 1e-8

    def test_anisotropic_gaussian(self):
        dist = AnisotropicGaussian(ANISO_COV, drift=ANISO_DRIFT)
        for chi in sphere_lattice_directions()[::5]:
            got = penrose_functional(dist, chi, float(chi @ ANISO_DRIFT))
            assert abs(got + 1.0 / float(chi @ ANISO_COV @ chi)) <= 1e-8

    @pytest.mark.parametrize("gamma, modulation", [(1, 0.0), (1, 0.3), (2, 0.0), (2, 0.3)])
    def test_exponential_family_matches_quad(self, gamma, modulation):
        dist = ExponentialFamily(gamma=gamma, modulation=modulation)
        Fc = float(dist.radon_profile(KZ, np.array([0.0]))[0])

        def integrand(u):  # even in u
            return (float(dist.radon_profile(KZ, np.array([u]))[0]) - Fc) / u**2

        ref = 2.0 * (quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
                     + quad(integrand, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0])
        assert abs(penrose_functional(dist, KZ, 0.0) - ref) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.sampled_from([1, 2]), modulation=st.floats(0.0, 1.0, exclude_max=True))
    def test_mass_rule_matches_quad(self, gamma, modulation):
        """The Gauss rule of the normalization against adaptive quadrature in r.

        At quad's default tolerances (1.5e-8) the reference itself is off by
        2.3e-11 at γ = 2, modulation = 0.5; at epsrel 1e-14 it is within
        4e-16 of mpmath, and quad warns only that it cannot do better.
        """
        dist = ExponentialFamily(gamma=gamma, modulation=modulation)

        def integrand(r):
            return 4 * np.pi * r**2 * (1 + modulation / (2 + r**2)) * np.exp(-(1 + r**2) ** (gamma / 2))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            ref = quad(integrand, 0.0, np.inf, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
        assert abs(dist._unnormalized_mass() - ref) <= 1e-14 * ref

    def test_mass_rule_closed_forms(self):
        """Unmodulated, the mass is 4πK₂(1) at γ = 1 (r = sinh t and
        sinh²t cosh t = (cosh 3t - cosh t)/4) and π^{3/2}/e at γ = 2."""
        exact = {1: 4 * mpmath.pi * mpmath.besselk(2, 1), 2: mpmath.pi**1.5 / mpmath.e}
        for gamma, ref in exact.items():
            got = ExponentialFamily(gamma=gamma)._unnormalized_mass()
            assert abs(got - float(ref)) <= 1e-15 * float(ref)

    def test_critical_point_outside_window_rejected(self):
        with pytest.raises(InputError):
            penrose_functional(Maxwellian(), KZ, 40.0)
        tab = _tabulated_two_bump()
        with pytest.raises(InputError):
            penrose_functional(tab, KZ, 0.9995 * tab.half_width)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["drifted", "two-temperature"]),
        a=st.tuples(*[st.floats(-0.6, 0.6)] * 3),
        b=st.tuples(st.floats(0.55, 0.9), st.floats(0.8, 1.0), st.floats(1.1, 1.6)),
        soft=st.none() | st.tuples(st.floats(0.3, 1.0), st.floats(0.8, 1.5)),
    )
    def test_verdicts_match_reference(self, kind, a, b, soft):
        if kind == "drifted":
            dist = Maxwellian(drift=a, temperature=b[2])
        else:
            dist = BumpMixture([(b[0], (0, 0, 0), b[1]), (1.0 - b[0], (0, 0, 0), b[2])])
        potential = CoulombPotential() if soft is None else gaussian_soft(*soft)
        rep = penrose_check(dist, potential)
        verdict, offender_u, n_critical = _penrose_reference(dist, potential)
        assert rep.verdict == verdict
        assert [o["u"] for o in rep.offenders] == offender_u
        assert rep.details["critical_points"] == n_critical


class TestInfimum:
    def test_positive_and_reproducible(self, model_mc):
        a = model_mc.epsilon_infimum(k_range=(0.5, 50.0), u_max=3.0, n_u=401)
        b = model_mc.epsilon_infimum(k_range=(0.5, 50.0), u_max=3.0, n_u=801)
        assert a > 0
        assert abs(a - b) / b < 0.01  # two significant digits across refinement
        assert model_mc.lower_bound_estimate == b

    def test_soft_global(self, model_ms):
        val = model_ms.epsilon_infimum(k_range=(1e-3, 30.0), u_max=6.0)
        assert val > 0.1

    def test_zero_potential_unity(self, model_zero):
        assert model_zero.epsilon_infimum() == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_u=0), "n_u"),  # ended in numpy's "argmin of an empty sequence"
        (dict(n_u=1), "n_u"),
        (dict(u_max=np.nan), "u_max"),
        (dict(u_max=0.0), "u_max"),
    ], ids=["n_u-0", "n_u-1", "u_max-nan", "u_max-0"])
    def test_bad_scan_refused(self, model_mc, kwargs, name):
        with pytest.raises(InputError, match=f"^{name} must be"):
            model_mc.epsilon_infimum(**kwargs)

    def test_floor_error(self):
        bump = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])
        model = DielectricModel(bump, CoulombPotential())
        with pytest.raises(DegenerateDielectricError):
            model.epsilon_infimum(k_range=(0.05, 1.0), u_max=1.0)


def _scan_infimum(model, k_range=(0.5, 50.0), u_max=3.0):
    """Reference infimum of |ε| along ẑ: (k, u) grid scan, local refinement, simplex polish."""
    best, arg = np.inf, None

    def scan(ks, us):
        nonlocal best, arg
        for kk in ks:
            vals = np.abs(model.epsilon(kk * KZ, us))
            j = int(np.argmin(vals))
            if vals[j] < best:
                best, arg = float(vals[j]), (float(kk), float(us[j]))

    scan(np.geomspace(k_range[0], k_range[1], 400), np.linspace(-u_max, u_max, 801))
    k0, u0 = arg
    scan(np.linspace(max(k_range[0], 0.7 * k0), min(k_range[1], 1.4 * k0), 60),
         np.linspace(max(-u_max, u0 - 0.2), min(u_max, u0 + 0.2), 241))

    def objective(p):
        kk = min(max(p[0], k_range[0]), k_range[1])
        uu = min(max(p[1], -u_max), u_max)
        return float(np.abs(model.epsilon(kk * KZ, uu)))

    res = minimize(objective, x0=np.array(arg), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400})
    return min(best, float(res.fun))


class TestInfimumOracle:
    @pytest.mark.parametrize("distribution, potential, kwargs", [
        (Maxwellian(), CoulombPotential(), {}),
        (Maxwellian(), gaussian_soft(), {}),
        (Maxwellian(), gaussian_soft(), dict(k_range=(1e-3, 30.0), u_max=6.0)),
        (Maxwellian(), gaussian_soft(amplitude=5.0), {}),
        (BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]), CoulombPotential(), {}),
        (ExponentialFamily(gamma=1), CoulombPotential(), {}),
        (ExponentialFamily(gamma=2), CoulombPotential(), {}),
        (Maxwellian(drift=(0.0, 0.0, 0.5)), CoulombPotential(), {}),
        (Maxwellian(), zero_potential(), {}),
    ], ids=["mc", "ms", "ms-wide", "ms-amp5", "two-temp", "exp1", "exp2", "drift", "zero"])
    def test_matches_scan(self, distribution, potential, kwargs):
        model = DielectricModel(distribution, potential)
        ref = _scan_infimum(model, **kwargs)
        assert abs(model.epsilon_infimum(**kwargs) - ref) <= 1e-8 * ref

    @settings(max_examples=20, deadline=None)
    @given(
        temperature=st.floats(0.5, 2.5),
        amplitude=st.floats(0.2, 8.0),
        width=st.floats(0.3, 3.0),
        samples=st.lists(st.tuples(st.floats(0.5, 50.0), st.floats(-3.0, 3.0)),
                         min_size=1, max_size=50),
    )
    def test_no_sample_below(self, temperature, amplitude, width, samples):
        model = DielectricModel(Maxwellian(temperature=temperature),
                                gaussian_soft(amplitude, width))
        inf = model.epsilon_infimum()
        for k, u in samples:
            assert abs(model.epsilon(k * KZ, u)) >= inf * (1.0 - 1e-12)


class TestDispersionRoots:
    def test_small_k_asymptote(self, model_mc):
        r = model_mc.dispersion_roots(0.1 * KZ)
        assert abs(r.u0_plus - 10.0) / 10.0 < 0.2
        assert r.residual_plus < 1e-10

    def test_symmetry_for_even_F(self, model_mc):
        r = model_mc.dispersion_roots(0.2 * KZ)
        assert abs(r.u0_plus + r.u0_minus) < 1e-9

    def test_bound_sweep(self, model_mc):
        for k in (0.05, 0.1, 0.2, 0.3):
            r = model_mc.dispersion_roots(k * KZ)
            assert abs(r.u0_plus) <= 1.6 / k

    def test_no_root_above_alpha_max(self, model_mc):
        with pytest.raises(RootNotFoundError):
            model_mc.dispersion_roots(0.8 * KZ)

    @pytest.mark.parametrize("nk", [0.5, 1.0])
    def test_exact_zero_at_the_first_scan_point(self, nk):
        """α(±4/|k|) = |k|² exactly at the window's far end: that point is the root.

        On a narrow grid (u_max = 3) whose tail is set to 16/u², the tail at
        u = ±4/|k| is |k|² in exact arithmetic and in floating point."""
        model = DielectricModel(Maxwellian(temperature=0.05), CoulombPotential(), UGrid(3.0, 256))
        cache = dataclasses.replace(model.direction_cache(KZ), moments=(16.0, 0.0, 0.0))
        assert cache.alpha_at(4.0 / nk) == cache.alpha_at(-4.0 / nk) == nk**2
        assert cache.far_roots(nk).tolist() == [[4.0 / nk, -4.0 / nk]]

    @pytest.mark.parametrize("k", [0.01, 0.02, 0.05])
    def test_root_past_the_grid_reads_the_tail(self, model_mc, k):
        """Past ±u_max the root, its residual and the α′ in L± all come from the
        1/u² tail, here m0/u² + 3m2/u⁴ with m0 = m2 = 1 (unit Maxwellian)."""
        r = model_mc.dispersion_roots(k * KZ)
        assert r.u0_plus > model_mc.grid.u_max
        assert max(r.residual_plus, r.residual_minus) <= 1e-12
        for u0, L, dalpha in ((r.u0_plus, r.L_plus, r.dalpha_plus),
                              (r.u0_minus, r.L_minus, r.dalpha_minus)):
            tail_dalpha = -2.0 / u0**3 - 12.0 / u0**5
            assert abs(dalpha - tail_dalpha) <= 1e-12 * abs(tail_dalpha)
            dF = float(Maxwellian().radon_profile_derivative(KZ, np.array([u0]))[0])
            assert abs(L - dF / tail_dalpha) <= 1e-12 * abs(dF / tail_dalpha)


_EPS = np.finfo(float).eps
_ROOT_KINDS = {
    "maxwellian": (Maxwellian(), KZ),
    "mixture": (BumpMixture([(0.75, (0, 0, 0), 1.0), (0.25, (0, 0, 0), 1.35)]), KZ),
    "exponential": (ExponentialFamily(gamma=1), KZ),
    "drifted": (Maxwellian(drift=(0.3, 0.0, 0.5)), np.array([0.36, 0.48, 0.8])),
}


def _root_bound(cache, u, kappa, xtol=1e-14):
    """How far the batched far root may lie from Brent's at u.

    Brent stops within xtol + 4ε|u| of a sign change of its α - κ².  Either
    evaluation of α - κ² near the root is off by at most E: Horner's rule on
    the cell's cubic (6ε·Σ|c_k| + ε(|α| + κ²)) with t = (u - u_j)/h off by
    3ε(|u| + u_max)/h, or the tail's terms and its quartic κ²u⁴ - m0u² -
    2m1u - 3m2 (8ε times the terms' absolute sum).  Each sign change then
    lies within E/|α′| of the exact one.  `_bracketed_roots` stops within
    4ε·max(|x|, 1) of its own, in x = t on a cell (t ≤ 1, so 4ε·h in u)
    and x = u beyond the grid.
    """
    u_max, h = cache.grid.u_max, cache.grid.spacing
    slope = abs(float(cache.alpha_at(u, derivative=True)))
    if abs(u) > u_max:
        m0, m1, m2 = cache.moments
        size = abs(m0) / u**2 + 2 * abs(m1) / abs(u) ** 3 + 3 * abs(m2) / u**4 + kappa**2
        rounding = 8 * _EPS * size / slope
    else:
        j = min(int((u + u_max) / h), cache.grid.n - 2)
        size = float(np.sum(np.abs(cache.alpha_cubic[max(j - 1, 0) : j + 2]), axis=1).max())
        rounding = (7 * _EPS * (size + kappa**2)) / slope + 3 * _EPS * (abs(u) + u_max)
    stop = 4 * _EPS * (h if abs(u) <= u_max else max(abs(u), 1.0))
    return xtol + 4 * _EPS * abs(u) + 2 * rounding + stop


def _assert_far_roots_match_brent(cache, kappas):
    got = cache.far_roots(kappas)
    for kappa, row in zip(kappas, got):
        for side, u in zip((1, -1), row):
            ref = far_root_brent(cache, kappa, side)
            assert np.isnan(u) == np.isnan(ref), (kappa, side, u, ref)
            if np.isnan(u):
                continue
            assert abs(u - ref) <= _root_bound(cache, ref, kappa), (kappa, side, u, ref)
            if abs(u) != cache.grid.u_max:  # not the step from the spline to the tail
                res, res_ref = (abs(float(cache.alpha_at(x)) - kappa**2) for x in (u, ref))
                assert res <= res_ref + 16 * _EPS * (abs(float(cache.alpha_at(ref))) + kappa**2)


class TestFarRoots:
    """The far roots read from α's cells, against scalar Brent on a fine scan."""

    @pytest.mark.parametrize("kind", list(_ROOT_KINDS))
    def test_match_brent_over_the_range(self, kind):
        dist, k_hat = _ROOT_KINDS[kind]
        cache = DielectricModel(dist, CoulombPotential()).direction_cache(k_hat)
        u = cache.grid.points
        # κ² at α's largest node value on the side where it is lower
        top = np.sqrt(min(np.max(cache.alpha[u > 0]), np.max(cache.alpha[u < 0])))
        u_max = cache.grid.u_max
        step = 0.5 * (float(cache.alpha_at(u_max)) + alpha_tail(cache.moments, u_max))
        kappas = np.concatenate([np.geomspace(1e-3, 1.1 * top, 40),
                                 top * np.sqrt(1.0 - np.array([1e-2, 1e-4, 1e-7])),
                                 [np.sqrt(step)]])
        _assert_far_roots_match_brent(cache, kappas)
        # κ² between the spline's α at u_max and the tail's just past it: the step is the root
        assert cache.far_roots(np.sqrt(step))[0, 0] == u_max

    def test_two_crossings_in_adjacent_cells(self, model_mc):
        """κ² just below α's largest node value crosses α in the cells on both
        sides of that node; the far root is the outer crossing."""
        cache = model_mc.direction_cache(KZ)
        u, alpha = cache.grid.points, cache.alpha
        j = int(np.argmax(np.where(u > 0, alpha, -np.inf)))
        side_max = max(alpha[j - 1], alpha[j + 1])
        kappa = np.sqrt(side_max + 0.5 * (alpha[j] - side_max))
        assert alpha[j - 1] < kappa**2 < alpha[j] and alpha[j + 1] < kappa**2
        u0 = cache.far_roots(kappa)[0]
        assert u[j] < u0[0] < u[j + 1] and -u[j + 1] < u0[1] < -u[j]
        _assert_far_roots_match_brent(cache, [kappa])

    @settings(max_examples=20, deadline=None)
    @given(weight=st.floats(0.05, 0.95), sigma=st.floats(0.6, 1.6),
           fraction=st.floats(0.0, 1.0))
    def test_mixture_draw(self, weight, sigma, fraction):
        dist = BumpMixture([(weight, (0, 0, 0), 1.0), (1.0 - weight, (0, 0, 0), sigma)])
        cache = DielectricModel(dist, CoulombPotential()).direction_cache(KZ)
        top = np.sqrt(np.max(cache.alpha))
        _assert_far_roots_match_brent(cache, [2e-3 * (top / 2e-3) ** (0.999 * fraction)])


def _alpha_reference(components, u, order=0):
    """The order-th u-derivative of α for a centred isotropic Gaussian mixture.

    A component of weight w and standard deviation σ gives
    α = w·Re Z′(ζ)/(2σ²), ζ = u/(√2σ), since Z′ = -2(1 + ζZ) and
    Re C[∂_uF] = -Re(1 + ζZ)/σ² (`_epsilon_drifted_reference`); its
    derivatives follow from Z⁽ⁿ⁺¹⁾ = -2(nZ⁽ⁿ⁻¹⁾ + ζZ⁽ⁿ⁾).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for w, s in components:
        zeta = u / (np.sqrt(2.0) * s)
        Z = [1j * np.sqrt(np.pi) * wofz(zeta)]
        Z.append(-2.0 * (1.0 + zeta * Z[0]))
        for n in range(1, order + 1):
            Z.append(-2.0 * (n * Z[n - 1] + zeta * Z[n]))
        out += w * Z[order + 1].real / (2.0 * s**2 * (np.sqrt(2.0) * s) ** order)
    return out


class TestAlphaEvaluator:
    """α and α′ of a direction cache against the plasma-Z oracle: at the nodes,
    mid-cells, across the switch at ±u_max, and beyond it on the tail."""

    @pytest.mark.parametrize("name, components", [
        ("maxwellian", [(1.0, 1.0)]),
        ("two_temperature", [(0.85, 1.0), (0.15, 1.3)]),
    ])
    def test_matches_plasma_z(self, name, components, request, coulomb):
        dist = request.getfixturevalue(name)
        model = DielectricModel(dist, coulomb)
        cache = model.direction_cache(KZ)
        nodes, h, u_max = model.grid.points, model.grid.spacing, model.grid.u_max
        assert abs(dist.cauchy_dF(KZ, 0.7 + 0j).real - _alpha_reference(components, 0.7)) <= 1e-15

        # Inside the grid the evaluator is the not-a-knot spline of the node
        # values.  It carries their error E (from the PV transform) times the
        # spline's Lebesgue constants on this grid, 1.97 for values and 8.6/h
        # for slopes (largest in the end cells), plus the interpolation error
        # of a smooth α, 5/384·h⁴·max|α⁗| and (√3/216 + 1/24)·h³·max|α⁗|
        # (Hall & Meyer, J. Approx. Theory 16 (1976) 105, for the clamped
        # spline; the end conditions differ only where α⁗ is tiny), the
        # maximum taken within ten cells, past which a spline's error weight
        # has decayed by (2 - √3)¹⁰ ≈ 2e-6.
        E = float(np.max(np.abs(cache.alpha - _alpha_reference(components, nodes))))
        assert E <= 1e-6  # the multiplier route's agreement target
        band = u_max - h * np.linspace(0.0, 3.0, 61)
        u = np.concatenate([nodes, nodes[:-1] + h / 2, band, -band])
        window = u[:, None] + h * np.linspace(-10.0, 10.0, 81)
        a4 = np.max(np.abs(_alpha_reference(components, window, order=4)), axis=1)
        err = np.abs(model.alpha(KZ, u) - _alpha_reference(components, u))
        assert np.all(err <= 2.0 * E + 5.0 / 384.0 * h**4 * a4)
        err = np.abs(cache.alpha_at(u, derivative=True) - _alpha_reference(components, u, 1))
        assert np.all(err <= 9.0 * E / h + (np.sqrt(3.0) / 216.0 + 1.0 / 24.0) * h**3 * a4)

        # Beyond ±u_max the tail omits 5M₄/u⁶ + 7M₆/u⁸ + …, all positive; the
        # ratio of consecutive terms is at most (2j + 3)σ²/u², 0.11 for the
        # first one at σ = 1.3 and |u| = 12, so twice 7M₆/u⁸ covers the rest.
        far = np.concatenate([u_max + h * np.array([1e-9, 0.5, 1.0, 3.0]),
                              np.geomspace(13.0, 4.0 * u_max, 8)])
        far = np.concatenate([far, -far])
        m4 = sum(w * 3.0 * s**4 for w, s in components)
        m6 = sum(w * 15.0 * s**6 for w, s in components)
        err = np.abs(model.alpha(KZ, far) - _alpha_reference(components, far))
        assert np.all(err <= 5.0 * m4 / far**6 + 2.0 * 7.0 * m6 / far**8)
        err = np.abs(cache.alpha_at(far, derivative=True) - _alpha_reference(components, far, 1))
        assert np.all(err <= 30.0 * m4 / np.abs(far) ** 7 + 2.0 * 56.0 * m6 / np.abs(far) ** 9)


def _not_a_knot_matrix(n):
    """The not-a-knot system of `not_a_knot_cubic` in t units, dense."""
    M = np.zeros((n, n))
    i = np.arange(1, n - 1)
    M[i, i - 1], M[i, i], M[i, i + 1] = 1.0, 4.0, 1.0
    M[0, :2] = 1.0, 2.0
    M[-1, -2:] = 2.0, 1.0
    return M


def _smooth_samples(rng, n):
    t = np.linspace(-1.0, 1.0, n)
    return (np.sin(rng.uniform(1.0, 8.0) * t + rng.uniform(0.0, 6.0))
            * np.exp(-rng.uniform(0.0, 5.0) * t**2) + rng.uniform(-1.0, 1.0) * t**3)


class TestInPackageSolvers:
    """The in-package batched root finder, bounded minimiser and not-a-knot
    spline against the scipy routines they replace or stand beside."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(0.5, 20.0), st.floats(0.0, 6.3), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
        st.floats(-6.0, 0.7), st.floats(0.0, 1.0), st.booleans(), st.floats(-15.0, -2.0)),
        max_size=48))
    def test_bracketed_roots_match_brentq(self, rows):
        """Lanes f = sin(ωx + φ) + c·x³ + s on [a, b], all in one call, with
        s putting a root at a drawn point of the bracket (a and b drawn in
        either order).

        Where f is monotone on [a, b] (|f′| at the middle above the
        half-width times max|f″| ≤ ω² + 6|c|·max(|a|, |b|)) and changes
        sign, the root is unique, and each solver stops within its stop of
        a sign change of the computed f: `brentq` within xtol + 4ε|x|,
        `_bracketed_roots` within 4ε·max(|x|, 1).  Such a sign change lies
        within E/min|f′| of the root, E = 4ε(1 + |ωx| + |φ| + |cx³| + |s|)
        bounding f's rounding.  Every lane's result lies in its bracket;
        where the ends share a sign it is the end with the smaller |f|.
        """
        omega, phase, cubic, lo, log_width, at, flip, log_xtol = (
            np.array(rows, dtype=float).reshape(-1, 8).T)
        hi = lo + 10.0**log_width
        shift = -(np.sin(omega * (lo + at * (hi - lo)) + phase) + cubic * (lo + at * (hi - lo))**3)
        a, b = np.where(flip == 1.0, hi, lo), np.where(flip == 1.0, lo, hi)

        def f(x, lanes=slice(None)):
            return np.sin(omega[lanes] * x + phase[lanes]) + cubic[lanes] * x**3 + shift[lanes]

        fa, fb = f(a), f(b)
        got = _bracketed_roots(f, a, b, fa, fb)
        assert got.shape == a.shape
        assert np.all((lo <= got) & (got <= hi))
        same = np.sign(fa) * np.sign(fb) > 0
        assert np.array_equal(got[same], np.where(np.abs(fb) < np.abs(fa), b, a)[same])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        slope = (np.abs(omega * np.cos(omega * mid + phase) + 3 * cubic * mid**2)
                 - half * (omega**2 + 6 * np.abs(cubic) * np.maximum(np.abs(lo), np.abs(hi))))
        for lane in np.flatnonzero((fa * fb < 0) & (slope > 0)):
            w, p, c, s = omega[lane], phase[lane], cubic[lane], shift[lane]
            xtol = 10.0 ** log_xtol[lane]
            ref = brentq(lambda x: np.sin(w * x + p) + c * x**3 + s, a[lane], b[lane], xtol=xtol)
            rounding = 4 * _EPS * (1 + abs(w * ref) + p + abs(c * ref**3) + abs(s)) / slope[lane]
            bound = xtol + 4 * _EPS * abs(ref) + 4 * _EPS * max(abs(ref), 1.0) + 2 * rounding
            assert abs(got[lane] - ref) <= bound, (rows[lane], got[lane], ref)

    def test_bracketed_roots_edge_lanes(self):
        """An end value 0 is the root.  Ends that share a sign, as where a
        scan's end value and f round to opposite sides of a root at that end
        (here 1e-17 where f is 0), give the end with the smaller |f|, inside
        the bracket.  Zero lanes call nothing."""
        def f(x, lanes):
            return x - np.array([0.25, 0.25, 0.5, 0.7])[lanes]

        a, b = np.array([0.25, -1.0, 0.5, 0.0]), np.array([1.0, 0.25, 1.0, 1.0])
        fa = np.array([0.0, -1.25, 1e-17, -0.7])
        fb = np.array([0.75, 0.0, 0.5, 0.3])
        got = _bracketed_roots(f, a, b, fa, fb)
        assert got[:3].tolist() == [0.25, 0.25, 0.5]
        assert abs(got[3] - 0.7) <= 4 * _EPS
        none = np.array([])
        assert _bracketed_roots(None, none, none, none, none).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(0.5, 10.0), phase=st.floats(0.0, 6.3), quadratic=st.floats(-2.0, 2.0),
           a=st.floats(-3.0, 3.0), width=st.floats(1e-6, 4.0), log_xatol=st.floats(-12.0, -3.0))
    def test_bounded_minimum_matches_minimize_scalar(self, omega, phase, quadratic, a, width,
                                                     log_xatol):
        def f(x):
            return float(np.cos(omega * x + phase) + quadratic * x**2)

        xatol = 10.0**log_xatol
        res = minimize_scalar(f, bounds=(a, a + width), method="bounded",
                              options={"xatol": xatol})
        assert _bounded_minimum(f, a, a + width, xatol) == (res.x, res.fun)

    @pytest.mark.parametrize("n", [16, 17, 1024, 2048])
    def test_not_a_knot_matches_cubic_spline(self, rng, n):
        """Against `CubicSpline` on the unit-spaced abscissa, where t = u - u_j.

        Both solve the same system backward-stably, so each set of node
        slopes σ is within about κ∞(M)·ε·‖σ‖ of the exact one, and a
        coefficient adds at most three of them (c₀ = σ_j + σ_j+1 - 2Δ_j):
        the bound is 2·3·κ∞(M)·ε·max|c| (κ∞ ≈ 22.4 here)."""
        kappa = np.linalg.cond(_not_a_knot_matrix(n), np.inf)
        samples = [_smooth_samples(rng, n) for _ in range(3)]
        if n == 1024:
            samples.append(DielectricModel(Maxwellian(), CoulombPotential()).direction_cache(KZ).alpha)
        if n == 2048:
            model = DielectricModel(ExponentialFamily(gamma=1), CoulombPotential())
            assert model.grid.n == 2048
            samples.append(model.direction_cache(KZ).alpha)
        for y in samples:
            ref = CubicSpline(np.arange(n, dtype=float), y).c.T
            got = not_a_knot_cubic(y)
            assert got.shape == (n - 1, 4)
            assert np.max(np.abs(got - ref)) <= 6.0 * kappa * np.finfo(float).eps * np.max(np.abs(ref))

    def test_not_a_knot_conditions(self, rng):
        """The spline interpolates, is C² at every knot and C³ at the second
        and the last but one (not-a-knot), independently of any oracle."""
        y = _smooth_samples(rng, 64)
        c = not_a_knot_cubic(y)
        ends = c.sum(axis=1)  # the cubic at t = 1
        slopes = 3 * c[:, 0] + 2 * c[:, 1] + c[:, 2]
        curvatures = 6 * c[:, 0] + 2 * c[:, 1]
        tol = 1e-13 * np.max(np.abs(c))
        assert np.array_equal(c[:, 3], y[:-1])
        assert np.max(np.abs(ends - y[1:])) <= tol
        assert np.max(np.abs(slopes[:-1] - c[1:, 2])) <= tol
        assert np.max(np.abs(curvatures[:-1] - 2 * c[1:, 1])) <= tol
        assert abs(c[0, 0] - c[1, 0]) <= tol and abs(c[-1, 0] - c[-2, 0]) <= tol


class TestAlphaAsymptotics:
    def test_maxwellian(self, model_mc):
        rep = model_mc.alpha_asymptotics_check(u_range=(8.0, 11.5))
        assert rep["stable"]
        assert rep["constant_n200"] < 5.0

    def test_mixture_same_asymptote(self, screening_mixture, coulomb):
        model = DielectricModel(screening_mixture, coulomb)
        rep = model.alpha_asymptotics_check(u_range=(8.0, 11.5))
        assert rep["stable"]


class TestStrongStability:
    def test_c0_is_the_minimum_over_the_strip(self, model_mc):
        """c0 is min |ε| over every line passed, not over the last one: for the
        Coulomb Maxwellian the c = 0 line holds the minimum (0.0143), well
        below the last line's (0.1258)."""
        rep = model_mc.strong_stability_check()
        ys = np.linspace(-30.0, 30.0, 601)
        minima = [min(float(np.min(np.abs(model_mc.epsilon_laplace(kk * KZ, (-c + 1j * ys) * kk))))
                      for kk in (0.25, 0.5, 1.0, 2.0))
                  for c in np.linspace(0.0, rep["c"], 9)]
        assert rep["c"] == 0.4
        assert rep["c0"] == min(minima) == minima[0] < 0.5 * minima[-1]

    def test_maxwellian_checkable(self, model_ms):
        rep = model_ms.strong_stability_check()
        assert rep["status"] == "checked"
        assert rep["c"] > 0
        assert rep["c0"] > 1e-3

    def test_exponential_not_checkable(self, exp_tail, soft):
        model = DielectricModel(exp_tail, soft)
        assert model.strong_stability_check()["status"] == "not checkable"


def _strong_stability_per_k(model, k_values=(0.25, 0.5, 1.0, 2.0), c_max=0.4, floor=1e-3):
    """`strong_stability_check` as one `epsilon_laplace` line per (c, |k|),
    and the number of c lines it reached; c0 is the minimum over every line
    passed."""
    best_c, c0 = 0.0, None
    ys = np.linspace(-30.0, 30.0, 601)
    for n_c, c in enumerate(np.linspace(0.0, c_max, 9), start=1):
        m = np.inf
        for kk in k_values:
            z = (-c + 1j * ys) * kk
            m = min(m, float(np.min(np.abs(model.epsilon_laplace(np.array([0, 0, kk]), z)))))
            if m < floor:
                return {"status": "checked", "c": best_c, "c0": c0}, n_c
        best_c, c0 = float(c), m if c0 is None else min(c0, m)
    return {"status": "checked", "c": best_c, "c0": c0}, n_c


class TestStrongStabilityStrip:
    """One Cauchy line per c, shared by the four |k|."""

    @pytest.mark.parametrize("dist, potential, floor, n_c", [
        (Maxwellian(), CoulombPotential(), 1e-3, 9),
        (BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]), CoulombPotential(),
         1e-3, 9),
        (Maxwellian(drift=(0.3, 0.0, 0.5), temperature=0.5), CoulombPotential(), 1e-3, 9),
        # min |ε| falls through 0.3 at c = 0.25: the scan stops on its sixth line
        (Maxwellian(drift=(0.3, 0.0, 0.5), temperature=0.5), gaussian_soft(), 0.3, 6),
    ], ids=["maxwellian", "two-temperature", "drifted", "drifted-soft-early-exit"])
    def test_matches_per_k_loop(self, dist, potential, floor, n_c):
        model = DielectricModel(dist, potential)
        calls = []
        inner = dist.cauchy_dF

        def counting(chi, w):
            calls.append(np.shape(w))
            return inner(chi, w)

        dist.cauchy_dF = counting
        try:
            rep = model.strong_stability_check(floor=floor)
        finally:
            del dist.cauchy_dF
        ref, ref_n_c = _strong_stability_per_k(model, floor=floor)
        assert rep == ref
        # one 601-point line per c reached, not one per (c, |k|)
        assert ref_n_c == n_c
        assert calls == [(601,)] * n_c


def _dF_exponential(dist, u, lib=np):
    """∂_uF of an `ExponentialFamily` profile at complex u; lib is numpy or mpmath."""
    norm = 2 * lib.pi * dist._norm
    if dist.gamma == 1:
        m = lib.sqrt(1 + u * u)
        return -norm * u * lib.exp(-m) * (1 + dist.modulation / (1 + m * m))
    return -norm * u * lib.exp(-(1 + u * u)) * (1 + dist.modulation / (2 + u * u))


class TestLaplaceSide:
    """ε(k, -iz) off the real axis: the Z-function sum and the grid quadrature."""

    @pytest.mark.parametrize("w", [4100 + 5.7j, 400 + 0.5j])
    def test_cauchy_dF_far_from_the_axis(self, maxwellian, w):
        """Where 1 + ζZ(ζ) cancels to O(ζ⁻²), against mpmath quadrature."""
        def integrand(u):
            return -u * mpmath.exp(-0.5 * u * u) / (mpmath.sqrt(2 * mpmath.pi) * (u - w))

        with mpmath.workdps(30):
            ref = complex(mpmath.quad(integrand, [-mpmath.inf, -2, 0, 2, mpmath.inf]))
        got = complex(maxwellian.cauchy_dF(KZ, w))
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("gamma, modulation", [(2, 0.0), (1, 0.3)])
    def test_grid_fallback_matches_quadrature(self, gamma, modulation, soft):
        """A kind without continuation against mpmath quadrature of ∂_uF/(u - w).

        The trapezoid sum of f = ∂_uF/(u - w) on the grid (spacing h, n
        nodes, window ±u_max) errs by at most: its rounding, n·ε·h·Σ|f|; the
        tails it leaves out, twice ∫ |f| beyond ±(u_max - h); and the error of
        the infinite sum of an f analytic in the strip |Im u| < d,
        2M/(e^{2πd/h} - 1) with M = ∫ |f| along Im u = ±d (Trefethen &
        Weideman, SIAM Rev. 56 (2014) 385, Thm 5.1).  d is half the distance
        to the nearer of the pole w and ∂_uF's singularities (±i for γ = 1).
        """
        dist = ExponentialFamily(gamma=gamma, modulation=modulation)
        model = DielectricModel(dist, soft)
        a = 0.5
        W = float(soft.fourier(np.asarray(a)))
        u, h, n = model.grid.points, model.grid.spacing, model.grid.n
        z = 0.25 + 1j * np.array([0.0, 3.0, -20.0])
        got = model.epsilon_laplace(a * KZ, z)
        for zj, ej in zip(z, got):
            w = 1j * zj / a
            d = 0.5 * min(w.imag, 1.0 if gamma == 1 else np.sqrt(2.0))
            x = np.linspace(-80.0, 80.0, 160001)
            M = max(np.trapezoid(np.abs(_dF_exponential(dist, x + 1j * b) / (x + 1j * b - w)), x)
                    for b in (-d, d))

            def f(t, lib=mpmath):
                return _dF_exponential(dist, t, lib) / (t - w)

            with mpmath.workdps(30):
                ref = 1.0 - W * complex(mpmath.quad(f, [-mpmath.inf, -2, 0, 2, mpmath.inf]))
                tail = 2.0 * float(sum(mpmath.quad(lambda t: abs(f(t)), ends) for ends in
                                       ([-mpmath.inf, -model.grid.u_max + h],
                                        [model.grid.u_max - h, mpmath.inf])))
            rounding = n * np.finfo(float).eps * h * np.sum(np.abs(f(u, np)))
            strip = 2.0 * M / np.expm1(2.0 * np.pi * d / h)
            bound = W * (rounding + tail + strip) + 4.0 * np.finfo(float).eps * abs(ref)
            assert abs(ej - ref) <= bound

    def test_grid_fallback_memory(self, soft):
        """One (nodes × u) complex array of an 8192-node contour would be 128 MiB."""
        import tracemalloc

        model = DielectricModel(ExponentialFamily(gamma=2), soft)
        z = 0.5 + 1j * np.linspace(-200.0, 200.0, 8192)
        tracemalloc.start()
        try:
            model.epsilon_laplace(0.5 * KZ, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20


class TestScaling:
    def test_identity(self):
        s = debye_rescale(1.0, 1.0, 1.0)
        assert s.debye_length == 1.0
        assert s.rescaled_density == 1.0
        assert s.rescaled_coupling == 1.0

    def test_formula(self):
        s = debye_rescale(1.0, 1e6, 1e-2)
        assert s.debye_length == pytest.approx(1e-2)
        assert s.rescaled_density == pytest.approx(1.0)
        assert s.rescaled_coupling == pytest.approx(1.0)

    def test_product_identity(self, rng):
        for _ in range(10):
            T, N, sig = rng.uniform(0.1, 10, 3)
            s = debye_rescale(T, N, sig)
            assert s.rescaled_density * s.rescaled_coupling == pytest.approx(1.0)

    def test_roundtrip(self, rng):
        T, N, sig = 2.0, 3e4, 7e-3
        back = debye_rescale(T, N, sig).invert()
        assert np.allclose(back, (T, N, sig))

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            debye_rescale(0.0, 1.0, 1.0)


_LATTICE_AXES = (np.linspace(-2.0, 2.0, 9),) * 3


class TestConstructorRefusals:
    """Parameters a distribution, potential or grid cannot compute with are
    refused at construction, naming the parameter; each was accepted before."""

    @pytest.mark.parametrize("make, name", [
        (lambda: Maxwellian(temperature=np.nan), "temperature"),
        (lambda: Maxwellian(temperature=np.inf), "temperature"),
        (lambda: Maxwellian(drift=(0.0, 1.0)), "drift"),  # failed at its first density call
        (lambda: BumpMixture([(0.5, (0, 0, 1.0), np.nan), (0.5, (0, 0, -1.0), 1.0)]), "sigma"),
        (lambda: gaussian_soft(amplitude=np.nan), "amplitude"),
        (lambda: UGrid(np.nan, 1024), "u_max"),
        (lambda: UGrid(12.0, 1024.5), "integer n"),
        (lambda: Tabulated(_LATTICE_AXES, np.full((9, 9, 9), np.nan)), "values"),  # NaN density
        (lambda: Tabulated(_LATTICE_AXES, np.full((9, 9, 9), np.inf)), "values"),
    ], ids=["maxwellian-temperature-nan", "maxwellian-temperature-inf", "maxwellian-drift-2",
            "bumps-sigma-nan", "gaussian-soft-amplitude-nan", "grid-u_max-nan",
            "grid-n-fractional", "tabulated-values-nan", "tabulated-values-inf"])
    def test_refused(self, make, name):
        with pytest.raises(InputError, match=name):
            make()
