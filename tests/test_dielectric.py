"""Dielectric function, stability checks and unit scaling."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize
from scipy.spatial.transform import Rotation

from plasmakin.dielectric import (
    MAX_CACHED_DIRECTIONS,
    DielectricModel,
    _critical_points,
    debye_rescale,
    penrose_check,
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

    def test_report_serializes(self, maxwellian, coulomb):
        import json

        rep = penrose_check(maxwellian, coulomb)
        parsed = json.loads(rep.to_json())
        assert parsed["verdict"] == "STABLE"

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

    @pytest.mark.parametrize("distribution", SWEEP_FAMILIES + [TWO_BUMP])
    def test_scan_matches_reference(self, distribution):
        dirs = [KZ] if distribution.is_isotropic else sphere_lattice_directions()
        assert len(dirs) == (1 if distribution.is_isotropic else 26)
        for chi in dirs:
            assert _critical_points(distribution, chi, 14.0, 4097) == (
                _critical_points_reference(distribution, chi, 14.0, 4097))

    def test_scan_matches_reference_tabulated(self):
        tab = _tabulated_two_bump()
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0] / np.sqrt(2.0)])
        for dist in (tab, tab.coarsened()):
            for chi in dirs:
                assert _critical_points(dist, chi, 0.999 * 8.0, 257) == (
                    _critical_points_reference(dist, chi, 0.999 * 8.0, 257))

    def test_drifted_maxwellian_off_axis(self):
        drift, temperature = np.array([0.3, -0.5, 0.8]), 1.3
        dist = Maxwellian(drift=drift, temperature=temperature)
        chi = np.array([0.48, 0.6, 0.64])
        assert abs(penrose_functional(dist, chi, float(chi @ drift)) + 1.0 / temperature) <= 1e-8

    @pytest.mark.parametrize("distribution", [
        BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)]),
        TWO_BUMP,
    ])
    def test_mixtures_match_cauchy(self, distribution):
        """At u_c, PV∫∂_uF/(u - u_c) du = ∫(F - F(u_c))/(u - u_c)² du = Re C[∂_uF](u_c)."""
        crits = _critical_points(distribution, KZ, 14.0, 4097)
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

    def test_psi_map_is_affine(self, model_mc):
        r = model_mc.dispersion_roots(0.15 * KZ)
        y = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(r.psi_plus(y), r.u0_plus + y * r.L_plus)


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
    def test_maxwellian_checkable(self, model_ms):
        rep = model_ms.strong_stability_check()
        assert rep["status"] == "checked"
        assert rep["c"] > 0
        assert rep["c0"] > 1e-3

    def test_exponential_not_checkable(self, exp_tail, soft):
        model = DielectricModel(exp_tail, soft)
        assert model.strong_stability_check()["status"] == "not checkable"


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
