"""Balescu-Lenard diffusion tensor, Coulomb-log Landau limit, collision RHS.

    a_{ij}(w,v) = ∫ k_i k_j δ(k·w) |φ̂(k)|² / |ε(k, k·v)|² dk

The δ collapses the integral to the plane k ⊥ w with Jacobian 1/|w|; the
plane integral is polar Gauss-Legendre in log r times a uniform θ rule.
On the plane, ω·v depends only on the component of v orthogonal to w, so
for isotropic models the tensor is a function of (|w|, |v_⊥|) in the
(v̂_⊥, ŵ×v̂_⊥) eigenbasis; `TensorTable` caches that map for the double
velocity-grid quadrature of the collision integral.  The off-diagonal
A12 vanishes by the reflection symmetry θ → -θ of the plane rule, so
a = [A22 (I - ŵŵ) + (A11 - A22) e₁e₁]/|w| with e₁ = v̂_⊥, and the table
keeps A11 and A22 only.

The collision bracket is discretized in log form,
(∇-∇')(ff') = f f' (∇ln f - ∇'ln f'), with second-order differences at
the interior nodes and on the lattice faces alike; both are exact on the
Maxwellian's quadratic exponent, so the discrete Maxwellian is a steady
state to rounding, and the symmetrized entropy production inherits
positive semidefiniteness from the tensor.  The two velocities of a pair
share v_⊥ and the bracket is antisymmetric, so the lattice sum visits each
unordered pair once and adds its flux to one end and subtracts it from the
other.  Mass is conserved up to the flux through the lattice faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError, SingularConfigurationError
from .transforms import perpendicular_unit

LOG_FLOOR = 1e-300


@dataclass
class DiffusionTensor:
    w: np.ndarray
    v: np.ndarray
    matrix: np.ndarray
    cutoff: float

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def validate(self, tol_perp=1e-8, tol_psd=1e-10):
        nw = np.linalg.norm(self.w)
        scale = np.linalg.norm(self.matrix) or 1.0
        if np.linalg.norm(self.matrix @ self.w) > tol_perp * scale * max(nw, 1.0):
            raise InputError("tensor does not annihilate w")
        if np.min(self.eigenvalues()) < -tol_psd * np.trace(self.matrix):
            raise InputError("tensor not positive semidefinite")
        return self


def _auto_cutoff(model, requested):
    """Resolve K_max; Coulomb requires a finite cutoff (log divergence)."""
    if requested is not None and np.isfinite(requested):
        return float(requested)
    if model.potential.is_coulomb:
        raise InputError("Coulomb tensor diverges logarithmically: pass finite K_max")
    k = np.geomspace(1.0, 1e4, 200)
    W = np.abs(model.potential.fourier(k))
    W0 = max(float(np.abs(model.potential.fourier(np.array(0.5)))), LOG_FLOOR)
    idx = np.nonzero(W > 1e-15 * W0)[0]
    return float(k[idx[-1]] * 2.0) if idx.size else 10.0


def _plane_components(model, v_perp_mag, K_max, n_r=64, n_theta=32, epsilon_sign=-1.0):
    """(A11, A22, A12) of ∫ k̂_i k̂_j r³ |φ̂|²/|ε|² dr dθ on the k ⊥ w plane.

    e1 is aligned with v_⊥; u(θ) = |v_⊥| cosθ is the phase velocity of the
    dielectric on the plane.  epsilon_sign=-1 matches ε(k, k·v) literally
    through the def:eps frequency mapping; for isotropic models |ε| is even
    in u and the sign is immaterial.  ε is taken at k ∥ ẑ, which stands for
    every k on the plane only when the model is isotropic; anisotropic
    models are refused.
    """
    if not model.distribution.is_isotropic:
        raise InputError("the Balescu-Lenard tensor needs an isotropic distribution")
    x, wr = np.polynomial.legendre.leggauss(n_r)
    s0, s1 = np.log(1e-4), np.log(K_max)
    s = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * x
    ws = 0.5 * (s1 - s0) * wr
    r = np.exp(s)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    wt = 2 * np.pi / n_theta
    W = model.potential.fourier(r)
    W2 = np.abs(W) ** 2
    u = epsilon_sign * v_perp_mag * np.cos(theta)
    # ε = 1 - φ̂(r) P⁻[∂_uF](u): P⁻ does not depend on r
    P = model.plemelj_minus_dF(np.array([0.0, 0.0, 1.0]), u)
    eps2 = np.abs(1.0 - W[:, None] * P[None, :]) ** 2
    radial = (ws * r**4 * W2)[:, None] / eps2  # r³ dr = r⁴ ds in log vars
    c, sn = np.cos(theta), np.sin(theta)
    A11 = wt * float(np.sum(radial * c**2))
    A22 = wt * float(np.sum(radial * sn**2))
    A12 = wt * float(np.sum(radial * c * sn))
    return A11, A22, A12


def bl_tensor(model, w, v, K_max=None, n_r=64, n_theta=32, epsilon_sign=-1.0) -> DiffusionTensor:
    """Shielded diffusion tensor a(w, v) by direct plane quadrature."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    nw = np.linalg.norm(w)
    if nw == 0.0:
        raise SingularConfigurationError("w = 0: delta collapse undefined")
    what = w / nw
    K = _auto_cutoff(model, K_max)
    v_perp = v - (v @ what) * what
    vp = np.linalg.norm(v_perp)
    e1 = v_perp / vp if vp > 1e-14 else perpendicular_unit(what)
    e2 = np.cross(what, e1)
    A11, A22, A12 = _plane_components(model, vp, K, n_r, n_theta, epsilon_sign)
    mat = (
        A11 * np.outer(e1, e1)
        + A22 * np.outer(e2, e2)
        + A12 * (np.outer(e1, e2) + np.outer(e2, e1))
    ) / nw
    return DiffusionTensor(w=w, v=v, matrix=mat, cutoff=K).validate()


def landau_limit(model, w, v, K_max_list=(1e2, 1e3), **kw):
    """Coulomb-log normalization check: a(K)/log(K) → c (I - ŵ⊗ŵ)/|w|.

    Reports the transverse eigenvalue ratio, the longitudinal/transverse
    ratio, and the drift of the log-normalized transverse eigenvalue
    across the cutoff list.
    """
    if not model.potential.is_coulomb:
        raise InputError("the Coulomb-log limit needs the Coulomb weight")
    return _landau_summary([bl_tensor(model, w, v, K_max=K, **kw) for K in K_max_list])


def _landau_summary(tensors):
    """`landau_limit`'s report from the tensors of one (w, v) at increasing cutoffs."""
    w = tensors[0].w
    what = w / np.linalg.norm(w)
    rows = []
    for t in tensors:
        K = t.cutoff
        lam, vecs = np.linalg.eigh(t.matrix)
        # longitudinal eigenvalue = the one whose eigenvector is closest to ŵ
        align = np.abs(vecs.T @ what)
        i_long = int(np.argmax(align))
        lam_long = lam[i_long]
        lam_perp = np.delete(lam, i_long)
        norm = np.log(K)
        rows.append(
            {
                "K_max": float(K),
                "transverse": sorted(float(x) / norm for x in lam_perp),
                "longitudinal": float(lam_long) / norm,
            }
        )
    t_last = rows[-1]["transverse"]
    ratio = t_last[1] / t_last[0] if t_last[0] != 0 else np.inf
    long_over_trans = abs(rows[-1]["longitudinal"]) / t_last[1]
    drift = abs(rows[-1]["transverse"][1] - rows[0]["transverse"][1]) / rows[-1]["transverse"][1]
    return {
        "rows": rows,
        "transverse_ratio": float(ratio),
        "longitudinal_over_transverse": float(long_over_trans),
        "normalized_drift": float(drift),
    }


class TensorTable:
    """|v_⊥| lookup of the plane components (A11, A22) for isotropic models.

    The plane integral does not depend on |w| (the 1/|w| Jacobian is applied
    at evaluation), so a 1D table suffices.
    """

    def __init__(self, model, vperp_max, K_max=None, n_vp=24, **kw):
        self.model = model
        self.K = _auto_cutoff(model, K_max)
        self.vp_grid = np.linspace(0.0, max(vperp_max, 1e-3), n_vp)
        A = np.array([_plane_components(model, vp, self.K, **kw)[:2] for vp in self.vp_grid])
        self._A = A.T.copy()  # rows A11, A22
        self._dA = np.diff(self._A, axis=1)
        self._inv_step = 1.0 / (self.vp_grid[1] - self.vp_grid[0])

    def components(self, vp):
        """(A11, A22) at |v_⊥| = vp: linear on the uniform grid, clamped at its ends."""
        x = np.clip(np.asarray(vp, dtype=float) * self._inv_step, 0.0, self.vp_grid.size - 1)
        idx = np.minimum(x.astype(np.intp), self.vp_grid.size - 2)
        t = x - idx
        return tuple(A[idx] + t * dA[idx] for A, dA in zip(self._A, self._dA))


@dataclass
class VelocityGridField:
    """f sampled on a cubic velocity lattice."""

    half_width: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.n, self.n, self.n):
            raise InputError("values shape mismatch")
        if np.min(self.values) < 0:
            raise InputError("f must be nonnegative")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)

    @property
    def spacing(self) -> float:
        return 2 * self.half_width / (self.n - 1)

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    def mass(self) -> float:
        return float(np.sum(self.values) * self.cell_volume)

    def second_moment_per_axis(self):
        ax = self.axis
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        w = self.values * self.cell_volume
        return tuple(float(np.sum(w * A**2)) for A in (X, Y, Z))


def maxwellian_field(mass_m, temperature, half_width=None, n=21) -> VelocityGridField:
    """Sampled Maxwellian (m/2πT)^{3/2} e^{-m|v|²/2T}, discrete mass renormalized."""
    if mass_m <= 0 or temperature <= 0:
        raise InputError("m and T must be positive")
    vth = np.sqrt(temperature / mass_m)
    if half_width is None:
        half_width = 6.0 * vth
    field = VelocityGridField(half_width, n, np.zeros((n, n, n)))
    ax = field.axis
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = X**2 + Y**2 + Z**2
    vals = (mass_m / (2 * np.pi * temperature)) ** 1.5 * np.exp(
        -0.5 * mass_m * r2 / temperature
    )
    raw_mass = float(np.sum(vals)) * field.cell_volume
    if abs(raw_mass - 1.0) > 1e-3:
        raise ResolutionError(
            f"box too small: discrete mass defect {abs(raw_mass-1):.2e} > 1e-3"
        )
    field.values = vals / raw_mass
    return field


def _pair_flux(v, f, glog, table):
    """Σ_j a(vᵢ - vⱼ, vᵢ) fᵢfⱼ(∇ln fᵢ - ∇ln fⱼ) at each lattice point, as (3, N).

    v and glog hold the x, y, z components of the velocities and of ∇ln f
    as flat arrays.  Row i visits j > i only, adding each pair's term to
    row i and subtracting it from row j.  With u = v_⊥ and the bracket B,
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


def bl_rhs(model, field: VelocityGridField, K_max=None, table=None, epsilon_sign=-1.0):
    """∂_t f = ∇·( Σ_{v'} a(v-v', v) f f' (∇ln f - ∇'ln f') Δv³ ).

    The v' = v cell is skipped (measure-zero after the δ collapse).
    Returns the time-derivative samples on raw lattice.
    """
    n = field.n
    if n**3 > 33**3:
        raise InputError("grid larger than 33³; the double sum is O(n⁶)")
    ax = field.axis
    v = [A.ravel() for A in np.meshgrid(ax, ax, ax, indexing="ij")]
    f = np.maximum(field.values, LOG_FLOOR)
    h = field.spacing
    glog = [g.ravel() for g in np.gradient(np.log(f), h, edge_order=2)]
    if table is None:
        table = TensorTable(model, np.sqrt(3) * field.half_width,
                            K_max=K_max, epsilon_sign=epsilon_sign)
    flux = field.cell_volume * _pair_flux(v, f.ravel(), glog, table)
    # central divergence with zero-flux ghost cells: the lattice sum
    # telescopes to the flux on the faces, so mass changes by that alone
    div = np.zeros((n, n, n))
    for axis, F in enumerate(flux.reshape(3, n, n, n)):
        padded = np.zeros((n + 2, n + 2, n + 2))
        padded[1:-1, 1:-1, 1:-1] = F
        sl_hi = [slice(1, -1)] * 3
        sl_lo = [slice(1, -1)] * 3
        sl_hi[axis] = slice(2, None)
        sl_lo[axis] = slice(0, -2)
        div += (padded[tuple(sl_hi)] - padded[tuple(sl_lo)]) / (2.0 * h)
    return div


def collision_diagnostics(field: VelocityGridField, dtf: np.ndarray):
    """Mass, momentum and entropy-production functionals of ∂_t f."""
    cell = field.cell_volume
    ax = field.axis
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    f = np.maximum(field.values, LOG_FLOOR)
    return {
        "mass_rate": float(np.sum(dtf) * cell),
        "momentum_rate": [
            float(np.sum(dtf * A) * cell) for A in (X, Y, Z)
        ],
        "entropy_production": float(-np.sum(dtf * (1.0 + np.log(f))) * cell),
        "max_rate": float(np.max(np.abs(dtf))),
        "max_f": float(np.max(field.values)),
    }
