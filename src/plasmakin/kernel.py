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
other.  Mass is conserved up to the flux through the lattice faces.  The
sum takes a block of rows against all later columns at a time, with its
dot products and its row and column sums as 3-deep matrix products
(`_pair_flux`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError, SingularConfigurationError
from .transforms import perpendicular_unit

LOG_FLOOR = 1e-300
MAX_LATTICE_N = 33  # largest lattice side `bl_rhs` sums over
# `_pair_flux` blocks: at most this many stacked pairs per block, so its ten
# (rows × columns) work planes take about 1.3 MB and stay in cache, and at
# most this many rows, since the masked j ≤ i half of a near-square block
# is wasted work
_BLOCK_PAIRS = 16384
_BLOCK_ROWS = 32


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


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1]; built once per n, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _plane_components(model, v_perp_mag, K_max, n_r=64, n_theta=32):
    """(A11, A22, A12) of ∫ k̂_i k̂_j r³ |φ̂|²/|ε|² dr dθ on the k ⊥ w plane.

    e1 is aligned with v_⊥; u(θ) = -|v_⊥| cosθ is the phase velocity of the
    dielectric on the plane, the sign matching ε(k, k·v) literally through
    the def:eps frequency mapping (for isotropic models |ε| is even in u).
    ε is taken at k ∥ ẑ, which stands for every k on the plane only when
    the model is isotropic; anisotropic models are refused.
    """
    if not model.distribution.is_isotropic:
        raise InputError("the Balescu-Lenard tensor needs an isotropic distribution")
    x, wr = _gauss_legendre(n_r)
    s0, s1 = np.log(1e-4), np.log(K_max)
    s = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * x
    ws = 0.5 * (s1 - s0) * wr
    r = np.exp(s)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    wt = 2 * np.pi / n_theta
    W = model.potential.fourier(r)
    W2 = np.abs(W) ** 2
    u = -v_perp_mag * np.cos(theta)
    eps2 = np.abs(model.epsilon_at(W[:, None], u)) ** 2
    radial = (ws * r**4 * W2)[:, None] / eps2  # r³ dr = r⁴ ds in log vars
    c, sn = np.cos(theta), np.sin(theta)
    A11 = wt * float(np.sum(radial * c**2))
    A22 = wt * float(np.sum(radial * sn**2))
    A12 = wt * float(np.sum(radial * c * sn))
    return A11, A22, A12


def bl_tensor(model, w, v, K_max=None, n_r=64, n_theta=32) -> DiffusionTensor:
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
    if vp > 1e-14:
        # v_⊥ keeps a rounding part of about ε|v| along ŵ, large against a
        # small |v_⊥|: a second projection leaves e₁ ⊥ ŵ to rounding
        e1 = v_perp / vp
        e1 = e1 - (e1 @ what) * what
        e1 /= np.linalg.norm(e1)
    else:
        e1 = perpendicular_unit(what)
    e2 = np.cross(what, e1)
    A11, A22, A12 = _plane_components(model, vp, K, n_r, n_theta)
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
        # A22 and (A11 - A22)/step² per node for `_pair_flux`, with one more
        # node of zero slope: a clipped cell lookup then clamps at the top
        # as `components` does
        nodes = np.stack([A[:, 1], (A[:, 0] - A[:, 1]) * self._inv_step**2])
        self._pair_nodes = np.hstack([nodes, nodes[:, -1:]])
        self._pair_slopes = np.hstack([np.diff(nodes, axis=1), np.zeros((2, 2))])

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
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise InputError(f"half_width must be finite and positive, got {self.half_width}")
        if self.n < 3:
            raise InputError(f"the lattice needs n >= 3 points per axis, got {self.n}")
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


def maxwellian_field(mass_m, temperature, half_width=None, n=21) -> VelocityGridField:
    """Sampled Maxwellian (m/2πT)^{3/2} e^{-m|v|²/2T}, discrete mass renormalized.

    A discrete mass more than 1e-3 off 1 raises `ResolutionError`: "lattice
    too coarse" when the box holds all but 1e-3 of the continuous mass,
    erf(half_width/(√2 v_th))³, and "box too small" otherwise.
    """
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
        missed = 1.0 - math.erf(half_width / (math.sqrt(2.0) * vth)) ** 3
        culprit = (f"lattice too coarse (the continuous mass within ±{half_width:g} misses "
                   f"only {missed:.2g})" if missed <= 1e-3 else "box too small")
        raise ResolutionError(f"{culprit}: discrete mass defect {abs(raw_mass-1):.2e} > 1e-3")
    field.values = vals / raw_mass
    return field


def _pair_flux(v, f, glog, table):
    """Σ_j a(vᵢ - vⱼ, vᵢ) fᵢfⱼ(∇ln fᵢ - ∇ln fⱼ) at each lattice point, as (3, N).

    v and glog hold the x, y, z components of the velocities and of ∇ln f
    as flat arrays.  Each unordered pair is visited once: its term is added
    to row i and subtracted from row j > i.  With p = vᵢ, w = p - vⱼ,
    G = ∇ln f, q = w·p/|w|² and u = p - q w = v_⊥,

        a·B/(fᵢfⱼ) = s (Gᵢ - Gⱼ) + e p + d vⱼ,   s = A22/|w|,
        d = c_w + q c_u,  e = c_u - d,
        c_w = s w·(Gᵢ - Gⱼ)/|w|²,  c_u = (A11 - A22) u·(Gᵢ - Gⱼ)/(|u|²|w|),

    and c_u = 0 at |u|² ≤ 1e-24, where A11 - A22 → 0.

    One iteration takes a block of rows against all later columns, so s, d
    and e are (rows × columns) planes.  Each dot product with one velocity
    from each end (p·vⱼ, p·Gⱼ, Gᵢ·vⱼ) is a 3-deep matrix product; w·p,
    w·(Gᵢ - Gⱼ) and u·(Gᵢ - Gⱼ) follow by broadcasting with |vⱼ|² and vⱼ·Gⱼ
    taken once per call.  |u|² is |p × vⱼ|²/|w|², from one more matrix
    product, since |p|² - (w·p)²/|w|² cancels on lines through the origin
    (v and -v).  The row sums are products of the planes with fⱼ(1, Gⱼ, vⱼ);
    the column sums, products of fᵢ(1, Gᵢ, pᵢ) with the planes, accumulate
    over the blocks and take fⱼ at the end.  One cell lookup per pair reads
    A22 and (A11 - A22) from `TensorTable`.  Pairs j ≤ i inside a block get
    1/|w|² = 0, which zeroes their three planes.  Blocks hold at most
    `_BLOCK_PAIRS` pairs and `_BLOCK_ROWS` rows, and reuse their buffers.

    Against the former one-row-per-iteration sum, kept in the tests as the
    oracle, the flux agrees within 2.1e-14 of max|flux| over 60 random
    lattices (n = 3…9, random half-widths, random positive f).  One sum at
    n = 17 takes 0.37–0.47 s instead of 0.95–1.36 s (2-vCPU VM, BLAS on
    one thread).
    """
    X, G = np.array(v), np.array(glog)
    N = len(f)
    x2 = np.einsum("kn,kn->n", X, X)
    xg = np.einsum("kn,kn->n", X, G)
    FG = np.vstack([f, f * G])          # f and f G per point
    FX = f * X
    inv = table._inv_step
    # (p × x)_k/step = Σ_ab ε_kab p_a x_b/step: the rows of [p]ₓ/step from p
    cross = np.zeros((3, 3, 3))
    cross[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = inv
    cross[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -inv
    left = np.empty((5, _BLOCK_ROWS, 3))
    lower = np.tri(_BLOCK_ROWS, _BLOCK_ROWS, -1, dtype=bool)   # j ≤ i in a block
    floor = 1e-24 * inv**2
    size = max(_BLOCK_PAIRS, N)
    q_buf, a_buf, work = np.empty(5 * size), np.empty(2 * size), np.empty((2, size))
    cell, small = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    row_flux = np.zeros((3, N))
    col_sums = np.zeros((8, N))         # Σᵢ fᵢ s (1, Gᵢ), Σᵢ fᵢ e pᵢ, Σᵢ fᵢ d
    i0 = 0
    while i0 < N - 1:
        M = N - 1 - i0
        R = min(_BLOCK_ROWS, max(1, _BLOCK_PAIRS // M), M)
        rows, cols = slice(i0, i0 + R), slice(i0 + 1, N)
        n_pairs = R * M
        # rows p, G and [p]ₓ/step: one matrix product against the columns
        # gives p·vⱼ, G·vⱼ and (p × vⱼ)/step
        L = left[:, :R]
        L[0], L[1] = X[:, rows].T, G[:, rows].T
        np.einsum("kab,ai->kib", cross, X[:, rows], out=L[2:])
        Q = np.matmul(L.reshape(5 * R, 3), X[:, cols], out=q_buf[:5 * n_pairs].reshape(5 * R, M))
        pX, GX, C = Q[:R], Q[R:2 * R], Q[2 * R:].reshape(3, R, M)
        q = np.subtract(x2[rows, None], pX, out=work[0, :n_pairs].reshape(R, M))  # w·p, then q
        inw2 = np.subtract(q, pX, out=pX)
        inw2 += x2[cols]
        inw2[:, :R][lower[:R, :R]] = np.inf
        np.reciprocal(inw2, out=inw2)   # 1/|w|², 0 for j ≤ i
        q *= inw2
        x2u = np.einsum("kij,kij->ij", C, C, out=work[1, :n_pairs].reshape(R, M))
        x2u *= inw2                     # (|u|/step)²
        x = np.sqrt(x2u, out=C[0])      # |u|/step, then its cell and fraction
        idx = cell[:n_pairs].reshape(R, M)
        np.copyto(idx, x, casting="unsafe")
        x -= idx
        A = np.take(table._pair_slopes, idx, axis=1, mode="clip",
                    out=a_buf[:2 * n_pairs].reshape(2, R, M))
        A *= x
        A += np.take(table._pair_nodes, idx, axis=1, mode="clip", out=C[1:])
        s, cu = A                       # A22, (A11 - A22)/step²
        inw = np.sqrt(inw2, out=C[1])
        s *= inw
        pG = np.matmul(X[:, rows].T, G[:, cols], out=C[2])
        np.subtract(xg[rows, None], pG, out=pG)         # p·(Gᵢ - Gⱼ)
        wG = np.subtract(pG, GX, out=GX)
        wG += xg[cols]                                  # w·(Gᵢ - Gⱼ)
        cw = np.multiply(wG, s, out=C[0])
        cw *= inw2
        wG *= q
        uG = np.subtract(pG, wG, out=pG)                # u·(Gᵢ - Gⱼ)
        # weight 0 for the u term at |u|² ≤ 1e-24, where A11 - A22 → 0
        zero_u = np.less_equal(x2u, floor, out=small[:n_pairs].reshape(R, M))
        np.copyto(x2u, np.inf, where=zero_u)
        cu *= uG
        cu *= inw
        cu /= x2u
        d = np.multiply(cu, q, out=wG)
        d += cw
        e = np.subtract(cu, d, out=cu)
        fi, fj = f[rows], f[cols]
        rs = s @ FG[:, cols].T
        row_flux[:, rows] += fi * (G[:, rows] * rs[:, 0] - rs[:, 1:].T
                                   + X[:, rows] * (e @ fj) + (d @ FX[:, cols].T).T)
        col_sums[:4, cols] += FG[:, rows] @ s
        col_sums[4:7, cols] += FX[:, rows] @ e
        col_sums[7, cols] += fi @ d
        i0 += R
    return row_flux - f * (col_sums[1:4] - G * col_sums[0] + col_sums[4:7] + X * col_sums[7])


def bl_rhs(model, field: VelocityGridField, K_max=None, table=None):
    """∂_t f = ∇·( Σ_{v'} a(v-v', v) f f' (∇ln f - ∇'ln f') Δv³ ).

    The v' = v cell is skipped (measure-zero after the δ collapse).
    Returns the time-derivative samples on raw lattice.  A caller's table
    must belong to `model`, have the cutoff K_max if one is given, and reach
    the lattice's largest |v_⊥|, √3·half_width, since
    `TensorTable.components` clamps beyond its grid.
    """
    n = field.n
    if n > MAX_LATTICE_N:
        raise InputError(f"grid larger than {MAX_LATTICE_N}³; the double sum is O(n⁶)")
    reach = np.sqrt(3) * field.half_width
    if table is not None:
        if table.model is not model:
            raise InputError("the tensor table was built for another model")
        if K_max is not None and _auto_cutoff(model, K_max) != table.K:
            raise InputError(f"the tensor table has K_max = {table.K:g}, not {K_max:g}")
        if table.vp_grid[-1] < reach * (1.0 - 4 * np.finfo(float).eps):
            raise InputError(f"the tensor table reaches |v_⊥| = {table.vp_grid[-1]:.6g}, "
                             f"the lattice √3·half_width = {reach:.6g}")
    ax = field.axis
    v = [A.ravel() for A in np.meshgrid(ax, ax, ax, indexing="ij")]
    f = np.maximum(field.values, LOG_FLOOR)
    h = field.spacing
    glog = [g.ravel() for g in np.gradient(np.log(f), h, edge_order=2)]
    if table is None:
        table = TensorTable(model, reach, K_max=K_max)
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
