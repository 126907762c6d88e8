"""Dielectric function, stability checks and unit scaling."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from plasmakin.dielectric import (
    MAX_CACHED_DIRECTIONS,
    DielectricModel,
    debye_rescale,
    penrose_check,
    penrose_functional,
)
from plasmakin.distributions import BumpMixture, ExponentialFamily, Maxwellian, Tabulated
from plasmakin.errors import DegenerateDielectricError, InputError, RootNotFoundError
from plasmakin.potentials import CoulombPotential, gaussian_soft, zero_potential

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


def _epsilon_drifted_reference(chi, drift, k, u):
    """ε of a unit-temperature drifted Maxwellian, Coulomb weight, in mpmath.

    F(χ,·) is the unit Gaussian about χ·drift, so with ζ = (u - χ·drift)/√2
    the upper boundary value of C[∂_uF] is -(1 + ζZ(ζ)), Z(ζ) =
    i√π e^{-ζ²} erfc(-iζ), and P⁻[∂_uF] is its complex conjugate.
    """
    zeta = mpmath.mpf(u - float(chi @ drift)) / mpmath.sqrt(2)
    Z = 1j * mpmath.sqrt(mpmath.pi) * mpmath.exp(-zeta**2) * mpmath.erfc(-1j * zeta)
    return complex(1 + mpmath.conj(1 + zeta * Z) / k**2)


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
