"""Balescu-Lenard tensor structure, Landau limit, collision right-hand side."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plasmakin.dielectric import DielectricModel
from plasmakin.distributions import AnisotropicGaussian, Maxwellian
from plasmakin.equilibrium import HSolution
from plasmakin import kernel
from plasmakin.errors import InputError, ResolutionError, SingularConfigurationError
from plasmakin.kernel import (
    LOG_FLOOR,
    TensorTable,
    VelocityGridField,
    _gauss_legendre,
    _pair_flux,
    _plane_components,
    bl_rhs,
    bl_tensor,
    collision_diagnostics,
    landau_limit,
    maxwellian_field,
)
from plasmakin.transforms import perpendicular_unit

W = np.array([0.8, -0.3, 0.5])
V = np.array([0.4, 0.2, 0.1])


class TestTensor:
    def test_annihilates_w(self, model_mc, rng):
        for _ in range(5):
            w = rng.normal(size=3)
            v = rng.normal(size=3)
            t = bl_tensor(model_mc, w, v, K_max=100.0)
            assert np.linalg.norm(t.matrix @ w) <= 1e-8 * np.linalg.norm(t.matrix)

    def test_positive_semidefinite(self, model_mc, rng):
        for _ in range(5):
            t = bl_tensor(model_mc, rng.normal(size=3), rng.normal(size=3), K_max=50.0)
            assert np.min(t.eigenvalues()) >= -1e-10 * np.trace(t.matrix)

    def test_soft_cutoff_convergence(self, model_ms):
        t1 = bl_tensor(model_ms, W, V, K_max=10.0)
        t2 = bl_tensor(model_ms, W, V, K_max=20.0)
        assert np.max(np.abs(t1.matrix - t2.matrix)) <= 1e-6

    def test_coulomb_requires_cutoff(self, model_mc):
        with pytest.raises(InputError):
            bl_tensor(model_mc, W, V, K_max=None)

    def test_w_zero_singular(self, model_mc):
        with pytest.raises(SingularConfigurationError):
            bl_tensor(model_mc, np.zeros(3), V, K_max=10.0)

    def test_reflection_invariance(self, model_mc):
        a = bl_tensor(model_mc, W, V, K_max=100.0).matrix
        b = bl_tensor(model_mc, -W, V, K_max=100.0).matrix
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_rotation_equivariance(self, model_mc):
        from scipy.spatial.transform import Rotation

        R = Rotation.from_rotvec([0.3, 0.5, -0.2]).as_matrix()
        a = bl_tensor(model_mc, W, V, K_max=100.0).matrix
        b = bl_tensor(model_mc, R @ W, R @ V, K_max=100.0).matrix
        assert np.max(np.abs(b - R @ a @ R.T)) <= 1e-6 * np.max(np.abs(a))

    @settings(max_examples=30, deadline=None)
    @given(
        coulomb=st.booleans(),
        K=st.sampled_from([20.0, 100.0, 1000.0]),
        w=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        v=st.tuples(*[st.floats(-4.0, 4.0)] * 3),
    )
    @example(coulomb=False, K=20.0, w=(1.0, 2.0, -1.0), v=(-2.0, -4.0 + 1e-13, 2.0))
    @example(coulomb=True, K=1000.0, w=(0.0, 0.0, 1.0), v=(0.0, 0.0, 2.5))
    def test_psd_and_annihilates_w_property(self, model_ms, model_mc, coulomb, K, w, v):
        """a(w, v) is PSD with a·w = 0 at random (w, v), to 1e-12 of its size,
        at every angle between v and w, parallel and nearly parallel included
        (e₁ is projected off ŵ twice)."""
        w, v = np.array(w), np.array(v)
        assume(np.linalg.norm(w) > 1e-2)
        t = bl_tensor(model_mc if coulomb else model_ms, w, v, K_max=K if coulomb else None)
        scale = np.linalg.norm(t.matrix)
        assert np.linalg.norm(t.matrix @ w) <= 1e-12 * scale * np.linalg.norm(w)
        assert np.min(t.eigenvalues()) >= -1e-12 * np.trace(t.matrix)

    @pytest.mark.parametrize("delta", [1e-8, 1e-10, 1e-12])
    def test_nearly_parallel_v(self, model_mc, delta):
        """v within δ of 3w: e₁ = v̂_⊥ must not keep v_⊥'s rounding along ŵ."""
        w = np.array([0.3, -0.7, 0.5])
        v = 3.0 * w + delta * np.array([0.7, 0.3, 0.0])
        t = bl_tensor(model_mc, w, v, K_max=100.0)
        scale = np.linalg.norm(t.matrix)
        assert np.linalg.norm(t.matrix @ w) <= 1e-12 * scale * np.linalg.norm(w)
        assert np.min(t.eigenvalues()) >= -1e-12 * np.trace(t.matrix)

    def test_continuity_in_w(self, model_ms):
        h = 1e-3
        a = bl_tensor(model_ms, W, V).matrix
        b = bl_tensor(model_ms, W + np.array([h, 0, 0]), V).matrix
        assert np.max(np.abs(a - b)) <= 50 * h * np.max(np.abs(a))

    def test_radial_rule_built_once(self):
        """The plane quadrature's Gauss-Legendre rule is cached read-only per node count."""
        x, w = _gauss_legendre(64)
        assert _gauss_legendre(64)[0] is x and not (x.flags.writeable or w.flags.writeable)
        ref = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])


class TestLandauLimit:
    @pytest.fixture(scope="class")
    def report(self, model_mc):
        return landau_limit(model_mc, W, V, K_max_list=(1e2, 1e3))

    def test_transverse_eigenvalues_equal(self, report):
        assert 0.99 <= report["transverse_ratio"] <= 1.01

    def test_longitudinal_suppressed(self, report):
        assert report["longitudinal_over_transverse"] <= 0.05

    def test_normalized_drift(self, report):
        assert report["normalized_drift"] <= 0.05

    def test_needs_coulomb(self, model_ms):
        with pytest.raises(InputError):
            landau_limit(model_ms, W, V)


class TestMaxwellianField:
    def test_peak_value(self):
        f = maxwellian_field(1.0, 1.0, n=21)
        assert f.values[10, 10, 10] == pytest.approx((2 * np.pi) ** -1.5, rel=1e-6)

    def test_second_moment(self):
        f = maxwellian_field(1.0, 1.0, n=25)
        X, Y, Z = np.meshgrid(f.axis, f.axis, f.axis, indexing="ij")
        for A in (X, Y, Z):
            assert abs(np.sum(f.values * f.cell_volume * A**2) - 1.0) < 1e-3

    def test_mass_vs_box(self):
        a = maxwellian_field(1.0, 1.0, half_width=6.0, n=21)
        b = maxwellian_field(1.0, 1.0, half_width=12.0, n=41)
        assert abs(a.mass() - 1.0) < 1e-12  # renormalized
        # raw tail mass beyond default width is tiny: doubling changes the
        # pre-normalization mass by ≤ 1e-6
        ax = b.axis
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        raw = (2 * np.pi) ** -1.5 * np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        assert abs(np.sum(raw) * b.cell_volume - 1.0) < 2e-3

    def test_small_box_rejected(self):
        with pytest.raises(ResolutionError):
            maxwellian_field(1.0, 1.0, half_width=2.0, n=15)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            maxwellian_field(-1.0, 1.0)

    def test_mass_defect_blames_lattice_or_box(self):
        """The default box misses 1 - erf(6/√2)³ = 5.9e-9 of the mass: a
        three-node lattice fails on its spacing, a box of half-width 2 on its size."""
        with pytest.raises(ResolutionError, match="lattice too coarse") as err:
            maxwellian_field(1.0, 1.0, n=3)
        assert "box" not in str(err.value)
        with pytest.raises(ResolutionError, match="box too small"):
            maxwellian_field(1.0, 1.0, half_width=2.0, n=15)


class TestVelocityGridField:
    @pytest.mark.parametrize("half_width", [0.0, -1.0, np.nan, np.inf])
    def test_bad_half_width_rejected(self, half_width):
        with pytest.raises(InputError):
            VelocityGridField(half_width, 5, np.ones((5, 5, 5)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_points_rejected(self, n):
        """np.gradient's second-order edges need three points per axis."""
        with pytest.raises(InputError):
            VelocityGridField(1.0, n, np.ones((n, n, n)))

    def test_three_points_accepted(self, model_ms):
        field = VelocityGridField(1.0, 3, np.full((3, 3, 3), 0.1))
        assert np.all(np.isfinite(bl_rhs(model_ms, field)))


class TestCollisionRHS:
    @pytest.fixture(scope="class")
    def soft_model(self, model_ms):
        return model_ms

    @pytest.fixture(scope="class")
    def field17(self):
        return maxwellian_field(1.0, 1.0, n=17)

    @pytest.fixture(scope="class")
    def dtf17(self, soft_model, field17):
        return bl_rhs(soft_model, field17)

    def test_maxwellian_steady(self, field17, dtf17):
        d = collision_diagnostics(field17, dtf17)
        assert d["max_rate"] <= 1e-3 * d["max_f"]

    def test_mass_conservation(self, field17, dtf17):
        d = collision_diagnostics(field17, dtf17)
        assert abs(d["mass_rate"]) <= 1e-8 * d["max_f"]

    def test_perturbed_entropy_and_momentum(self, soft_model, field17):
        ax = field17.axis
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        r2 = X**2 + Y**2 + Z**2
        pert = field17.values * (1.0 + 0.08 * np.exp(-0.5 * r2) * (r2 - 1.5))
        from plasmakin.kernel import VelocityGridField

        f2 = VelocityGridField(field17.half_width, field17.n, np.maximum(pert, 0.0))
        dtf = bl_rhs(soft_model, f2)
        d = collision_diagnostics(f2, dtf)
        assert d["entropy_production"] >= -1e-6
        assert d["entropy_production"] > 0  # strictly produced off equilibrium
        assert all(abs(p) <= 1e-5 * d["max_f"] for p in d["momentum_rate"])
        assert abs(d["mass_rate"]) <= 1e-8 * d["max_f"]

    def test_grid_size_guard(self, soft_model):
        with pytest.raises(InputError):
            bl_rhs(soft_model, maxwellian_field(1.0, 1.0, n=41))

    def test_table_reuse_consistent(self, soft_model, field17, dtf17):
        table = TensorTable(soft_model, vperp_max=np.sqrt(3) * field17.half_width)
        dtf2 = bl_rhs(soft_model, field17, table=table)
        assert np.max(np.abs(dtf2 - dtf17)) <= 1e-14


def _perturbed(field, amplitude=0.08):
    ax = field.axis
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = X**2 + Y**2 + Z**2
    values = field.values * (1.0 + amplitude * np.exp(-0.5 * r2) * (r2 - 1.5))
    return VelocityGridField(field.half_width, field.n, np.maximum(values, 0.0))


def _row_pair_flux_reference(v, f, glog, table):
    """One row per iteration against all later points: the oracle of `_pair_flux`.

    Row i visits j > i only, adding each pair's term to row i and
    subtracting it from row j.  With u = v_⊥ and the bracket B,
    a·B = [A22 (B - w(w·B)/|w|²) + (A11 - A22) u(u·B)/|u|²]/|w|; the u term
    gets weight 0 at |u| < 1e-12, where A11 - A22 → 0.
    """
    X, Y, Z = v
    GX, GY, GZ = glog
    flux = np.zeros((3, len(f)))
    for i in range(len(f) - 1):
        j = slice(i + 1, None)
        px, py, pz = X[i], Y[i], Z[i]
        wx, wy, wz = px - X[j], py - Y[j], pz - Z[j]
        nw2 = wx * wx + wy * wy + wz * wz
        q = (wx * px + wy * py + wz * pz) / nw2
        ux, uy, uz = px - q * wx, py - q * wy, pz - q * wz
        vp2 = ux * ux + uy * uy + uz * uz
        A11, A22 = table.components(np.sqrt(vp2))
        ff = f[i] * f[j]
        bx, by, bz = ff * (GX[i] - GX[j]), ff * (GY[i] - GY[j]), ff * (GZ[i] - GZ[j])
        nw = np.sqrt(nw2)
        c_b = A22 / nw
        c_w = c_b * (wx * bx + wy * by + wz * bz) / nw2
        c_u = np.where(vp2 > 1e-24, (A11 - A22) / (np.maximum(vp2, 1e-24) * nw), 0.0)
        c_u *= ux * bx + uy * by + uz * bz
        for k, (b, w, u) in enumerate(((bx, wx, ux), (by, wy, uy), (bz, wz, uz))):
            term = c_b * b - c_w * w + c_u * u
            flux[k, i] += term.sum()
            flux[k, j] -= term
    return flux


def _pair_sum_inputs(field):
    """The flat velocities, f and ∇ln f that `bl_rhs` hands to `_pair_flux`."""
    ax = field.axis
    v = [A.ravel() for A in np.meshgrid(ax, ax, ax, indexing="ij")]
    f = np.maximum(field.values, LOG_FLOOR)
    glog = [g.ravel() for g in np.gradient(np.log(f), field.spacing, edge_order=2)]
    return v, f.ravel(), glog


def _assert_matches_row_reference(field, table, bound=1e-13):
    args = _pair_sum_inputs(field)
    reference = _row_pair_flux_reference(*args, table)
    flux = _pair_flux(*args, table)
    assert np.max(np.abs(flux - reference)) <= bound * np.max(np.abs(reference))


def _direct_sum_rhs(field, table):
    """Row-by-row double sum over all ordered pairs: the oracle of `bl_rhs`.

    Each row applies the tensor in the (e1, e2 = ŵ×e1) basis, with
    `perpendicular_unit` standing in for e1 when v_⊥ vanishes; the table
    holds no A12, which vanishes for isotropic models.
    """
    n = field.n
    ax = field.axis
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    f = np.maximum(field.values, LOG_FLOOR)
    h = field.spacing
    glog = np.stack(np.gradient(np.log(f), h, edge_order=2), axis=-1).reshape(-1, 3)
    fflat = f.reshape(-1)
    flux = np.zeros((len(pts), 3))
    for i in range(len(pts)):
        w = pts[i] - pts
        nw2 = np.sum(w * w, axis=1)
        ok = nw2 > 1e-20
        nw = np.sqrt(nw2[ok])
        what = w[ok] / nw[:, None]
        vperp = pts[i][None, :] - (pts[i] @ what.T)[:, None] * what
        vp = np.linalg.norm(vperp, axis=1)
        e1 = vperp / np.maximum(vp, 1e-300)[:, None]
        small = vp < 1e-12
        e1[small] = perpendicular_unit(what[small])
        e2 = np.cross(what, e1)
        A11, A22 = table.components(vp)
        bracket = fflat[ok, None] * fflat[i] * (glog[i][None, :] - glog[ok])
        b1 = np.sum(bracket * e1, axis=1)
        b2 = np.sum(bracket * e2, axis=1)
        flux[i] = field.cell_volume * ((A11 * b1 / nw) @ e1 + (A22 * b2 / nw) @ e2)
    div = np.zeros((n, n, n))
    for axis in range(3):
        padded = np.zeros((n + 2, n + 2, n + 2))
        padded[1:-1, 1:-1, 1:-1] = flux[:, axis].reshape(n, n, n)
        hi = [slice(1, -1)] * 3
        lo = [slice(1, -1)] * 3
        hi[axis] = slice(2, None)
        lo[axis] = slice(0, -2)
        div += (padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h)
    return div


def _assert_matches_direct_sum(field, table):
    oracle = _direct_sum_rhs(field, table)
    fast = bl_rhs(table.model, field, table=table)
    assert np.max(np.abs(fast - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestPairSum:
    @pytest.fixture(scope="class")
    def field9(self):
        return maxwellian_field(1.0, 1.0, n=9)

    @pytest.fixture(scope="class")
    def soft_table(self, model_ms, field9):
        return TensorTable(model_ms, np.sqrt(3) * field9.half_width)

    @pytest.fixture(scope="class")
    def coulomb_table(self, model_mc, field9):
        return TensorTable(model_mc, np.sqrt(3) * field9.half_width, K_max=1000.0)

    def test_matches_direct_sum_soft(self, field9, soft_table):
        _assert_matches_direct_sum(_perturbed(field9), soft_table)

    def test_matches_direct_sum_coulomb(self, field9, coulomb_table):
        _assert_matches_direct_sum(_perturbed(field9), coulomb_table)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
    def test_matches_direct_sum_random_positive(self, field9, soft_table, seed, amplitude):
        """f times 1 + a bounded random perturbation on every interior node.

        Every node is perturbed, so the rate stays well above the rounding
        level of a Maxwellian, against which a relative bound means nothing.
        """
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (7, 7, 7))
        values = field9.values.copy()
        values[1:-1, 1:-1, 1:-1] *= 1.0 + amplitude * noise
        _assert_matches_direct_sum(VelocityGridField(field9.half_width, 9, values), soft_table)

    @pytest.fixture(scope="class")
    def wide_tables(self, model_ms, model_mc):
        """Tables reaching the largest |v_⊥| of every lattice drawn below."""
        reach = np.sqrt(3) * 8.0
        return TensorTable(model_ms, reach), TensorTable(model_mc, reach, K_max=1000.0)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(3, 9), st.floats(0.5, 8.0), st.integers(0, 2**32 - 1), st.booleans())
    @example(9, 6.0, 1, False)
    @example(4, 0.5, 2, True)
    def test_blocked_flux_matches_row_reference(self, wide_tables, n, half_width, seed, coulomb):
        """The blocked sum against `_row_pair_flux_reference` on random positive f.

        n runs over 3…9, so n³ - 1 columns split into blocks of changing
        row counts, ragged last blocks included.  Every lattice holds v and
        -v, and odd ones hold 0: pairs on lines through the origin, where
        |v_⊥| = 0 and the u term must drop out.
        """
        values = np.random.default_rng(seed).uniform(0.05, 1.0, (n, n, n))
        field = VelocityGridField(half_width, n, values)
        _assert_matches_row_reference(field, wide_tables[coulomb])

    @pytest.mark.parametrize("budget", [64, 700])
    def test_blocks_wider_than_the_budget(self, monkeypatch, wide_tables, budget):
        """Past n = 25 the first blocks are single rows wider than `_BLOCK_PAIRS`."""
        monkeypatch.setattr(kernel, "_BLOCK_PAIRS", budget)
        values = np.random.default_rng(budget).uniform(0.05, 1.0, (7, 7, 7))
        _assert_matches_row_reference(VelocityGridField(3.0, 7, values), wide_tables[0])

    def test_blocked_flux_matches_row_reference_n17(self, model_ms):
        """At n = 17 the first blocks hold 3 rows of 4912 columns, the last 32."""
        field = _perturbed(maxwellian_field(1.0, 1.0, n=17))
        table = TensorTable(model_ms, np.sqrt(3) * field.half_width)
        _assert_matches_row_reference(field, table)

    def test_table_of_another_model_rejected(self, model_ms, field9, coulomb_table):
        with pytest.raises(InputError):
            bl_rhs(model_ms, field9, table=coulomb_table)

    def test_table_of_another_cutoff_rejected(self, model_mc, field9, coulomb_table):
        with pytest.raises(InputError):
            bl_rhs(model_mc, field9, K_max=10.0, table=coulomb_table)
        same = bl_rhs(model_mc, field9, K_max=1000.0, table=coulomb_table)
        assert np.array_equal(same, bl_rhs(model_mc, field9, table=coulomb_table))

    def test_short_table_rejected(self, model_ms, field9):
        """`components` clamps past its grid; the lattice reaches √3·half_width."""
        reach = np.sqrt(3) * field9.half_width
        for vperp_max in (1.0, reach * (1.0 - 1e-12)):
            with pytest.raises(InputError):
                bl_rhs(model_ms, field9, table=TensorTable(model_ms, vperp_max))
        rounded = TensorTable(model_ms, np.nextafter(reach, 0.0))
        assert np.all(np.isfinite(bl_rhs(model_ms, field9, table=rounded)))

    def test_nearly_isotropic_covariance_rejected(self, coulomb):
        """Isotropy is exact: a covariance 5e-6 off c·I takes no isotropic path."""
        assert AnisotropicGaussian(1.3 * np.eye(3)).is_isotropic
        dist = AnisotropicGaussian(np.diag([1.0, 1.0, 1.0 + 5e-6]))
        assert not dist.is_isotropic
        model = DielectricModel(dist, coulomb)
        with pytest.raises(InputError):
            bl_tensor(model, W, V, K_max=100.0)
        with pytest.raises(InputError):
            TensorTable(model, 6.0, K_max=100.0)
        with pytest.raises(InputError):
            HSolution(model)

    def test_coulomb_maxwellian_mass_rate(self, model_mc, field9, coulomb_table):
        d = collision_diagnostics(field9, bl_rhs(model_mc, field9, table=coulomb_table))
        assert abs(d["mass_rate"]) <= 1e-8 * d["max_f"]

    @pytest.mark.parametrize("name, K", [("model_ms", 20.0), ("model_mc", 1000.0)])
    def test_a12_vanishes(self, request, name, K):
        """The table drops A12: the θ → -θ symmetry of the plane rule zeroes it."""
        model = request.getfixturevalue(name)
        A = np.array([_plane_components(model, vp, K) for vp in np.linspace(0.0, 9.0, 7)])
        assert np.max(np.abs(A[:, 2])) <= 1e-12 * np.max(np.abs(A[:, 0]))

    def test_components_interpolate_linearly(self, soft_table):
        grid = soft_table.vp_grid
        nodes = np.array([_plane_components(soft_table.model, vp, soft_table.K)[:2]
                          for vp in grid[:2]])
        at_nodes = np.array(soft_table.components(grid[:2])).T
        assert np.allclose(at_nodes, nodes, rtol=1e-14, atol=0.0)
        mid = np.array(soft_table.components(0.5 * (grid[0] + grid[1])))
        assert np.allclose(mid, nodes.mean(axis=0), rtol=1e-14, atol=0.0)
        beyond = np.array(soft_table.components(grid[-1] + 1.0))
        assert np.array_equal(beyond, np.array(soft_table.components(grid[-1])))

    def test_anisotropic_model_rejected(self, coulomb):
        model = DielectricModel(Maxwellian(drift=(0.0, 0.0, 0.8)), coulomb)
        with pytest.raises(InputError):
            bl_tensor(model, W, V, K_max=100.0)
        with pytest.raises(InputError):
            TensorTable(model, 6.0, K_max=100.0)
