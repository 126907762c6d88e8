"""Oberman-Williams-Lenard solution chain for the equilibrium correlations.

Per wavenumber κ the chain builds

    B⁻ = φ̂ P⁻[∂_uF],    A⁻ = (1 - B⁻) P⁻[F/|ε|²],
    Ĥ_B = -Im(A⁻)/π - F,
    ĥ_B(k,v) = f(v)(1-ε)/ε - φ̂ A⁻(κ, ω·v)/ε · (ω·∇f(v)),

and the pair correlation in Fourier variables

    ĝ_B(k,v₁,v₂) = k·V̂ / (k·v_r - i0),
    V̂ = φ̂(k) [ (∇₁-∇₂)(ff) + ∇f(v₁) conj(ĥ_B)(k,v₂) - ∇f(v₂) ĥ_B(k,v₁) ].

For the Coulomb weight at small κ, F/|ε|² develops Langmuir spikes at the
dispersion roots ±u₀(κ) whose width π|F'|/|α'| is far below any grid
spacing.  P⁻[F/|ε|²] is therefore assembled as the FFT route applied to
(g - Lorentzian model) plus the closed-form Cauchy transform of the model
(simple poles at u₀ ± iγ), which is exact whenever the remainder is grid
resolvable and loses only an odd sub-grid dipole otherwise.

Real space: g_B(x,v₁,v₂) = (i/|v_r|) ∫_{-∞}^{x·v̂_r} Γ(b + ξ v̂_r) dξ with
Γ = F⁻¹[k·V̂]; the half-line integral realizes the -i0 prescription and the
Bogolyubov pre-collision boundary condition exactly.  f is isotropic, so
∇f(v) = c(|v|) v and

    k·V̂ = φ̂ [c₁ (k·v₁)(f₂ + conj ĥ_B(k,v₂)) - c₂ (k·v₂)(f₁ + ĥ_B(k,v₁))]

needs only the projections k·v₁ and k·v₂.  When b lies in the plane of v₁
and v₂, Γ is even under the reflection of k across that plane, and a line's
plane quadrature sums half its θ circle (`correlation_line`).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from .dielectric import DielectricModel, EPSILON_FLOOR, _complex
from .errors import (
    ConsistencyError,
    DegenerateDielectricError,
    InputError,
    ResolutionError,
    SingularConfigurationError,
)
from .transforms import (
    LineProfile,
    axial_inverse_transform,
    _interp_complex,
    perpendicular_unit,
    pv_transform,
    pv_transform_rows,
)

GAMMA_SPLIT_SPACINGS = 10.0  # split when γ is below this many grid spacings
_KAPPA_BLOCK = 128  # κ rows per matrix product in A_minus_exact (bounds its memory)
_SLICE_BLOCK = 16  # κ rows per block of `slices`: 0.5 MB per complex (κ × 2n) buffer at n = 1024
_NEAR_NODE = 1e-3  # u* this many spacings from a node keeps the subtracted PV form
_LINE_POINTS = 20480  # ĥ points per pass of a g_B fan, v₁ and one v₂ plane (15 rows at n_θ 32)
_Z_HAT = np.array([0.0, 0.0, 1.0])  # the isotropic chain's direction
_IN_PLANE = 1e-14  # largest |e₂·v|/max(|v₁|, |v₂|) a g_B line counts as in-plane
_XI_PAD = 4  # zero-padding factor of a line's s → ξ transform


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def impact_geometry(x, v1, v2):
    """Orthogonal decomposition (b, d, d₋) of x along v_r = v1 - v2."""
    x = np.asarray(x, dtype=float)
    v_r = np.asarray(v1, dtype=float) - np.asarray(v2, dtype=float)
    nr = np.linalg.norm(v_r)
    if nr == 0.0:
        raise SingularConfigurationError("v1 == v2: relative velocity vanishes")
    e = v_r / nr
    d = float(x @ e)
    b = x - d * e
    return b, d, max(0.0, -d)


@dataclass
class CorrelationSample:
    x: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    value: complex
    b: np.ndarray
    d: float
    d_minus: float
    v_r: float

    @property
    def real(self) -> float:
        return float(np.real(self.value))


# ---------------------------------------------------------------------------
# per-kappa slice
# ---------------------------------------------------------------------------

@dataclass
class HSlice:
    kappa: float
    A_minus: np.ndarray
    H_B: np.ndarray
    residual_l2: float | None = None
    split: bool = False


class HSolution:
    """A⁻, Ĥ_B caches over a log κ-grid for one stable model.

    Construction binds the ẑ profiles, α and the far-root bound.  The per-κ
    slices and the A⁻ table are solved on first read (`slices`, and the
    table lookup of `h_hat_values`); the exact paths (`A_minus_exact`,
    `h_hat_axial_exact`) never read them.
    """

    def __init__(self, model: DielectricModel, k_min=3e-3, k_max=45.0, n_k=240):
        if not model.distribution.is_isotropic:
            raise InputError("the equilibrium chain uses the isotropic fast path")
        if not (isinstance(n_k, (int, np.integer)) and n_k >= 2):
            raise InputError(f"n_k must be an integer >= 2, got {n_k!r}")
        for name, value in (("k_min", k_min), ("k_max", k_max)):
            if not (np.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and positive, got {value}")
        if not k_min < k_max:
            raise InputError(f"k_min must be below k_max, got k_min = {k_min}, k_max = {k_max}")
        self.model = model
        self.grid = model.grid
        self._u = self.grid.points
        self._cache = model.direction_cache(_Z_HAT)
        self._F = self._cache.F.values
        self._dF = self._cache.dF.values
        self._alpha = self._cache.alpha
        # κ above which α(u) = κ² has no far root (no Langmuir resonance)
        self._k_root_max = np.sqrt(max(float(np.max(self._alpha)), 0.0)) * 1.02 + 1e-9
        self.k_grid = np.geomspace(k_min, k_max, n_k)
        self._logk0 = float(np.log(self.k_grid[0]))
        self._dlogk = float(np.log(self.k_grid[1]) - np.log(self.k_grid[0]))

    @functools.cached_property
    def slices(self) -> list[HSlice]:
        """One solved slice per κ of `k_grid`, solved `_SLICE_BLOCK` κ at a time."""
        return [sl for b0 in range(0, len(self.k_grid), _SLICE_BLOCK)
                for sl in self._solve_block(self.k_grid[b0 : b0 + _SLICE_BLOCK])]

    @functools.cached_property
    def _A_planes(self):
        """The A⁻ table on the (log κ, u) grid as flat real and imaginary planes."""
        table = np.stack([s.A_minus for s in self.slices]).ravel()
        return table.real.copy(), table.imag.copy()

    # -- construction --------------------------------------------------------
    def _resonance_poles(self, kappas):
        """Per κ, the Lorentzian parameters (mass, u0, gamma, height A) of its spikes.

        The far roots of every κ below the far-root bound come from one
        `DirectionCache.far_roots` call; a κ without a root on a side has no
        spike there.
        """
        kappas = np.asarray(kappas, dtype=float)
        poles = [[] for _ in kappas]
        if not self.model.potential.is_coulomb:
            return poles
        low = np.flatnonzero(kappas < self._k_root_max)
        u0 = self._cache.far_roots(kappas[low])
        row, side = np.nonzero(np.isfinite(u0))
        at = u0[row, side]
        dist = self.model.distribution
        dF0 = np.asarray(dist.radon_profile_derivative(_Z_HAT, at), dtype=float)
        da = np.abs(self._cache.alpha_at(at, derivative=True))
        with np.errstate(divide="ignore"):
            gamma = np.pi * np.abs(dF0) / np.where(dF0 != 0.0, da, 1.0)
        keep = (gamma < GAMMA_SPLIT_SPACINGS * self.grid.spacing) & (da >= 1e-12)
        row, at, gamma, da = row[keep], at[keep], gamma[keep], da[keep]
        mass = kappas[low[row]] ** 4 * np.abs(dist.radon_ratio(_Z_HAT, at)) / da
        height = mass * gamma / np.pi  # A in A/(s²+γ²)
        for r, pole in zip(row, zip(mass, at, gamma, height)):
            poles[low[r]].append(tuple(float(x) for x in pole))
        return poles

    def _solve_slice(self, kappa) -> HSlice:
        """The slice of one κ: the one-row case of `_solve_block`."""
        return self._solve_block(np.array([float(kappa)]))[0]

    def _solve_block(self, kappas) -> list[HSlice]:
        """The slices of a block of κ, bit for bit as solved one at a time.

        ε = 1 - φ̂(κ) P⁻[∂_uF] is one (κ × u) array, refused where |ε| falls
        below the floor (naming the first such κ); G = F/|ε|², less each κ's
        Langmuir Lorentzians, takes one blocked PV transform.
        """
        W = self.model.potential.fourier(kappas)[:, None]
        eps = self.model.epsilon_at(W)
        abs_eps = np.abs(eps)
        low = np.flatnonzero(np.min(abs_eps, axis=1) < EPSILON_FLOOR)
        if low.size:
            raise DegenerateDielectricError(f"|ε| below floor at κ = {kappas[low[0]]}")
        G = self._F / abs_eps**2
        pole_cauchy = np.zeros(G.shape, dtype=complex)
        poles = self._resonance_poles(kappas)
        for i, p in enumerate(poles):
            if p:
                G[i], pole_cauchy[i] = _subtract_poles(p, self._u, G[i])
        P_g = pv_transform_rows(self.grid, G, endpoint_tol=1e-4) - 1j * np.pi * G + pole_cauchy
        A_minus = eps * P_g
        H_B = -np.imag(A_minus) / np.pi - self._F
        return [HSlice(kappa=float(kk), A_minus=A_minus[i], H_B=H_B[i], split=bool(poles[i]))
                for i, kk in enumerate(kappas)]

    # -- exact (interpolation-free) evaluation --------------------------------
    def A_minus_exact(self, kappas, u_eval):
        """A⁻ at arbitrary (κ, u*) without the (log κ, u) interpolant.

        P⁻[g](u*) is the off-grid subtracted trapezoid sum with the pole model
        added in closed form; g(u*) is evaluated from closed-form profiles, so
        the result carries no interpolation wiggle (the oscillatory transforms
        amplify such wiggles into r-independent noise floors).

        The subtracted sum is evaluated for many κ at once through

            Σⱼ wⱼ(gⱼ - g_e)/(uⱼ - u_e) = (G·C)[κ, e] - g_e c_e,
            C[j, e] = wⱼ/(uⱼ - u_e),    c_e = Σⱼ C[j, e],

        with C built once per call and one real matrix product per block of
        `_KAPPA_BLOCK` κ.  The rows of G are F/|ε|² on the nodes, with ε the
        outer product 1 - φ̂(κ) ⊗ P⁻[∂_uF].  Only κ that carry Langmuir poles
        (Coulomb, κ below the far-root bound) subtract them row by row.  A u*
        on a node takes g' there from the node gradient; a u* closer than
        `_NEAR_NODE` spacings to a node keeps the subtracted form, because the
        split form cancels there.
        """
        return self._A_minus_and_eps(kappas, u_eval)[0]

    def _A_minus_and_eps(self, kappas, u_eval):
        """`A_minus_exact` and the ε on the (κ, u*) set it is built from."""
        kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
        u_eval = np.asarray(u_eval, dtype=float)
        u = self._u
        h = self.grid.spacing
        w_tr = np.ones(self.grid.n)
        w_tr[0] = w_tr[-1] = 0.5
        F_eval = np.asarray(self.model.distribution.radon_profile(_Z_HAT, u_eval), dtype=float)
        log_end = np.log((u[-1] - u_eval) / (u_eval - u[0]))
        diff = u[None, :] - u_eval[:, None]
        hit_e, hit_j = np.nonzero(diff == 0.0)
        near_e = np.flatnonzero(np.any((np.abs(diff) < _NEAR_NODE * h) & (diff != 0.0), axis=1))
        C = w_tr / np.where(diff == 0.0, np.inf, diff)
        C[near_e] = 0.0
        C = C.T
        c = C.sum(axis=0)
        out = np.empty((len(kappas), len(u_eval)), dtype=complex)
        eps = np.empty_like(out)
        for b0 in range(0, len(kappas), _KAPPA_BLOCK):
            kb = kappas[b0 : b0 + _KAPPA_BLOCK]
            W = self.model.potential.fourier(kb)[:, None]
            eps_e = eps[b0 : b0 + len(kb)]
            eps_e[...] = self.model.epsilon_at(W, u_eval)
            G = self._F / np.abs(self.model.epsilon_at(W)) ** 2
            g_e = F_eval / np.abs(eps_e) ** 2
            pole_c = np.zeros(g_e.shape, dtype=complex)
            for i, poles in enumerate(self._resonance_poles(kb)):
                if poles:
                    G[i], _ = _subtract_poles(poles, u, G[i])
                    g_e[i], pole_c[i] = _subtract_poles(poles, u_eval, g_e[i])
            S = G @ C - g_e * c
            if hit_e.size:
                S[:, hit_e] += w_tr[hit_j] * np.gradient(G, h, axis=1)[:, hit_j]
            for e in near_e:
                S[:, e] = ((G - g_e[:, e, None]) / diff[e]) @ w_tr
            P_g = h * S + g_e * log_end
            out[b0 : b0 + len(kb)] = eps_e * (P_g - 1j * np.pi * g_e + pole_c)
        return out, eps

    # -- interpolated ingredient evaluations ---------------------------------
    def h_hat_values(self, kappa, u, f_v, omega_grad_f, W=None):
        """Batch ĥ_B(k, v) given f(v) and ω·∇f(v) per evaluation point.

        One pass over the points: the u-cell (index j, fraction t) of each
        point serves both the A⁻ lookup on the uniform (log κ, u) table,
        linear in u and then in log κ, and α(u), which the direction cache's
        evaluator reads on that cell (the 1/u² tail beyond ±u_max).  The
        log-κ index and fraction and φ̂(κ) are computed at κ's own shape and
        broadcast over u; a caller that already holds φ̂(κ) at that shape
        passes it as W.  The table lookup is held constant beyond its κ and
        u ranges.
        """
        kappa = np.asarray(kappa, dtype=float)
        u = np.asarray(u, dtype=float)
        n_k, n_u = len(self.k_grid), self.grid.n
        fi = np.clip((np.log(np.maximum(kappa, 1e-300)) - self._logk0) / self._dlogk,
                     0.0, n_k - 1.000001)
        i0 = fi.astype(np.intp)
        fi = fi - i0
        fu = (u - self._u[0]) / self.grid.spacing
        fj = np.clip(fu, 0.0, n_u - 1.000001)
        j0 = fj.astype(np.intp)
        t = fj - j0
        base = i0 * n_u + j0
        A_re, A_im = (
            _lerp(_lerp(np.take(plane, base), np.take(plane[1:], base), t),
                  _lerp(np.take(plane[n_u:], base), np.take(plane[n_u + 1:], base), t), fi)
            for plane in self._A_planes
        )
        if W is None:
            W = self.model.potential.fourier(kappa)
        eps = self.model.epsilon_at(W, u, cell=(j0, fu - j0))
        return _h_hat_formula(eps, W, _complex(A_re, A_im), f_v, omega_grad_f)

    def h_hat_axial_exact(self, kappas, u_eval, f_v, g_r_over_v):
        """ĥ_B on a (κ, u) product set via the exact A⁻ path, with the ε that
        A⁻ was built from."""
        kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
        u_eval = np.asarray(u_eval, dtype=float)
        A, eps = self._A_minus_and_eps(kappas, u_eval)
        W = self.model.potential.fourier(kappas[:, None])
        return _h_hat_formula(eps, W, A, f_v, (u_eval * g_r_over_v)[None, :])


def _h_hat_formula(eps, W, A, f_v, omega_grad_f):
    """ĥ_B = (f(1-ε) - φ̂ A⁻ (ω·∇f))/ε; |ε| below the floor is refused.

    One division, over the whole numerator: the form (f - φ̂ A⁻ ω·∇f)/ε - f
    cancels where |ĥ_B| ≪ f.
    """
    if np.any(np.abs(eps) < EPSILON_FLOOR):
        raise DegenerateDielectricError("|ε| below floor in h_hat evaluation")
    return (f_v * (1.0 - eps) - A * (W * omega_grad_f)) / eps


def _lerp(a, b, t):
    """a + t·(b - a), written into b."""
    b -= a
    b *= t
    b += a
    return b


def _subtract_poles(poles, u, g):
    """g minus the poles' Lorentzians, and the poles' closed-form Cauchy sum at u."""
    cauchy = np.zeros_like(u, dtype=complex)
    for mass, u0, gamma, height in poles:
        if height > 0.0:
            g = g - height / ((u - u0) ** 2 + gamma**2)
        cauchy = cauchy + mass / (u0 - u + 1j * max(gamma, 1e-13))
    return g, cauchy


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solve_H(model: DielectricModel, k, validate=True, tol=1e-5) -> HSlice:
    """Single-κ OWL solve with the eq:H1 fixed-point residual check."""
    k = np.asarray(k, dtype=float)
    kappa = float(np.linalg.norm(k)) if k.ndim else float(abs(k))
    if kappa == 0.0:
        raise InputError("k = 0")
    sol = HSolution(model)
    sl = sol._solve_slice(kappa)
    sl.residual_l2 = h_equation_residual(sol, sl)
    if validate and sl.residual_l2 > tol:
        raise ConsistencyError(
            f"OWL fixed-point residual {sl.residual_l2:.3e} above {tol:.1e} at κ={kappa}"
        )
    return sl


def h_equation_residual(sol: HSolution, sl: HSlice) -> float:
    """L² residual of the closed Ĥ_B fixed-point equation."""
    u = sol._u
    W = float(sol.model.potential.fourier(np.asarray(sl.kappa)))
    H = np.real(sl.H_B)
    P_minus_F = pv_transform(sol._cache.F).values - 1j * np.pi * sol._F
    P_minus_dF = sol._alpha - 1j * np.pi * sol._dF
    prof_H = LineProfile(sol.grid, H, endpoint_tol=1e-3)
    P_minus_H = pv_transform(prof_H).values - 1j * np.pi * H
    rhs = -W * (
        sol._dF * P_minus_F
        - P_minus_dF * sol._F
        + sol._dF * P_minus_H
        - P_minus_dF * H
    )
    return float(np.sqrt(np.trapezoid(np.abs(H - rhs) ** 2, u)))


def h_hat(sol: HSolution, k, v) -> complex:
    """ĥ_B(k, v) by the closed formula with interpolated A⁻."""
    k = np.asarray(k, dtype=float)
    kappa = np.linalg.norm(k)
    if kappa == 0.0:
        raise InputError("k = 0")
    v = np.asarray(v, dtype=float)
    omega = k / kappa
    u = float(omega @ v)
    f_v = float(sol.model.distribution.density(v))
    og = float(omega @ sol.model.distribution.gradient(v))
    return complex(sol.h_hat_values(np.array(kappa), np.array(u), f_v, og))


def gamma_hat(sol: HSolution, k, v1, v2) -> np.ndarray:
    """Flux-numerator vector V̂; the scalar in ĝ_B is k·V̂."""
    k = np.asarray(k, dtype=float)
    kappa = np.linalg.norm(k)
    if kappa == 0.0:
        raise InputError("k = 0")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    dist = sol.model.distribution
    W = float(sol.model.potential.fourier(np.asarray(kappa)))
    g1 = dist.gradient(v1)
    g2 = dist.gradient(v2)
    f1 = float(dist.density(v1))
    f2 = float(dist.density(v2))
    h1 = h_hat(sol, k, v1)
    h2 = h_hat(sol, k, v2)
    return W * ((g1 * f2 - f1 * g2) + g1 * np.conj(h2) - g2 * h1)


def g_hat(sol: HSolution, k, v1, v2) -> complex:
    """ĝ_B(k,v₁,v₂) away from the singular set k·v_r = 0."""
    k = np.asarray(k, dtype=float)
    v_r = np.asarray(v1, float) - np.asarray(v2, float)
    denom = float(k @ v_r)
    if denom == 0.0:
        raise SingularConfigurationError("k·v_r = 0: use the half-line representation")
    return complex(k @ gamma_hat(sol, k, v1, v2)) / denom


# -- real-space correlation ---------------------------------------------------

@functools.lru_cache(maxsize=16)
def _radial_rule(r_nodes, s_max):
    """Radial nodes and weights of `correlation_line`'s plane quadrature:
    Gauss-Legendre panels on [1e-6, 0.15], [0.15, 1] and [1, s_max] with
    r_nodes nodes each; built once per (r_nodes, s_max), read-only."""
    seg = [(a, b, *np.polynomial.legendre.leggauss(n))
           for (a, b), n in zip(((1e-6, 0.15), (0.15, 1.0), (1.0, s_max)), r_nodes)]
    r = np.concatenate([(a + b) / 2 + (b - a) / 2 * x for a, b, x, _ in seg])
    wr = np.concatenate([(b - a) / 2 * w for a, b, _, w in seg])
    r.setflags(write=False)
    wr.setflags(write=False)
    return r, wr


@dataclass
class CorrelationLine:
    """g_B on the line {b + ξ v̂_r} for fixed (v₁, v₂)."""

    xi: np.ndarray
    g: np.ndarray          # cumulative (i/|v_r|) ∫_{-∞}^{ξ} Γ
    gamma_line: np.ndarray
    b: np.ndarray
    e: np.ndarray
    v_r: float

    def at(self, d: float) -> complex:
        return complex(_interp_complex(d, self.xi, self.g))


def correlation_line(
    sol: HSolution,
    b_vec,
    v1,
    v2,
    s_max=12.0,
    n_s=512,
    n_theta=None,
    r_nodes=(16, 16, 32),
) -> CorrelationLine:
    """Compute Γ on a line along v̂_r and its half-line cumulative integral.

    The plane integral over k ⊥ v̂_r is polar Gauss-Legendre (split radial
    panels toward k=0 for the Coulomb weight); the s → ξ transform is a DFT
    on the conjugate grid.  With k = s e + K₁ e₁ + K₂ e₂, e = v̂_r, e₁ = b̂
    (any unit vector ⊥ e if b = 0) and e₂ = e × e₁, the node (s, r, θ) has
    K₁ = r cos θ, K₂ = r sin θ.

    f is isotropic, so ∇f(v) = c(|v|) v and Γ needs only the projections
    k·v₁ and k·v₂:

        Γ = φ̂(κ) [c₁ (k·v₁)(f₂ + conj ĥ₂) - c₂ (k·v₂)(f₁ + ĥ₁)].

    When v₁ and v₂ lie in the (e, e₁) plane, k·v₁, k·v₂ and the phase
    e^{iK₁|b|} are even in θ, and so is Γ.  The θ grid is closed under
    θ → -θ, so only the columns θ_0 … θ_{n_θ/2} are evaluated and the
    interior ones count twice.  "In the plane" means |e₂·v| ≤
    `_IN_PLANE`·max(|v₁|, |v₂|) for both velocities; other lines sum the
    full circle.  x, v₁ and v₂ in one plane with b ≠ 0, as in
    `marginal_check`, always qualify.

    g_B is real, so Γ̂(-k) = -conj Γ̂(k).  The point (-s, r, θ) is -k of
    (s, r, θ + π), and the phase e^{iK₁|b|} conjugates under θ → θ + π, so
    the plane sums obey G_b(-s) = -conj G_b(s).  Only the rows with s ≥ 0
    and the unpaired row s = -s_max are evaluated; the mirror rows are
    filled from their partners.  Both mirrors need a θ grid closed under
    θ → θ + π, so n_theta (given or from the default rule) is rounded up
    to even.

    The line is the one-member, one-|b| fan of `_correlation_fan`.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    v_r = v1 - v2
    nr = np.linalg.norm(v_r)
    if nr == 0.0:
        raise SingularConfigurationError("v1 == v2")
    e = v_r / nr
    b_vec = np.asarray(b_vec, dtype=float)
    if abs(b_vec @ e) > 1e-10 * max(1.0, np.linalg.norm(b_vec)):
        raise InputError("b must be orthogonal to v_r")
    bnorm = np.linalg.norm(b_vec)
    e1 = b_vec / bnorm if bnorm > 0 else perpendicular_unit(e)
    xi, gamma_line, g = _correlation_fan(sol, e, e1, v1, [v2], [bnorm], s_max=s_max, n_s=n_s,
                                         n_theta=n_theta, r_nodes=r_nodes)
    return CorrelationLine(xi=xi, g=g[0, 0], gamma_line=gamma_line[0, 0], b=b_vec, e=e,
                           v_r=nr)


def _correlation_fan(sol, e, e1, v1, v2s, bnorms, s_max=12.0, n_s=512, n_theta=None,
                     r_nodes=(16, 16, 32)):
    """`correlation_line` for every line of a fan: (ξ, Γ, g) with Γ and g of
    shape (members, |b| values, ξ nodes).  The keywords are
    `correlation_line`'s.

    A fan is the set of lines that share v₁ and the frame (e, e₁, e₂): each
    member v₂ has v₁ - v₂ along +e, and each line runs through b = |b| e₁.
    κ, φ̂(κ), k·v₁ and the ĥ_B(κ, k·v₁/κ) plane depend on the frame alone, so
    each chunk of (s, r, θ) rows evaluates them once; a member adds its own
    ĥ_B(k·v₂/κ), Γ and plane sums.  |b| enters only through the phase
    e^{iK₁|b|}, so each |b| is one column of quadrature weights over the Γ
    shared by all |b|.  n_θ, when not given, is the default rule's at the
    largest |b|; a smaller |b| then sums on a finer θ grid than its own
    line would.  The fan takes the half circle when every member's line
    would.
    """
    e2 = np.cross(e, e1)
    n1 = np.linalg.norm(v1)
    if n_theta is None:
        n_theta = max(32, int(1.4 * s_max * max(bnorms)) + 16)
    n_theta += n_theta % 2
    in_plane = all(max(abs(e2 @ v1), abs(e2 @ v2)) <= _IN_PLANE * max(n1, np.linalg.norm(v2))
                   for v2 in v2s)
    n_col = n_theta // 2 + 1 if in_plane else n_theta
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)[:n_col]
    # the n_θ - n_col columns left out mirror columns 1 … n_θ - n_col
    w_col = np.full(n_col, 2 * np.pi / n_theta)
    w_col[1 : n_theta - n_col + 1] *= 2.0
    r, wr = _radial_rule(tuple(r_nodes), float(s_max))

    s = (np.arange(n_s) - n_s // 2) * (2.0 * s_max / n_s)
    half = n_s // 2
    lo = 2 * half - n_s + 1  # rows j < lo have no mirror row 2·half - j
    rows = np.r_[0:lo, half:n_s]

    K1 = r[:, None] * np.cos(theta)[None, :]
    K2 = r[:, None] * np.sin(theta)[None, :]
    # quadrature weights with the phase, per (r, θ) column, one vector per |b|
    weights = [((wr * r)[:, None] * w_col[None, :] * np.exp(1j * K1 * b)).ravel()
               for b in bnorms]

    dist = sol.model.distribution

    def velocity_terms(v):
        """f(v), c in ∇f(v) = c v, and k·v = s (e·v) + k_⊥·v as (e·v, k_⊥·v)."""
        # any c serves where |v|² underflows, as k·v ≈ 0 there
        c = float(dist.gradient(v) @ v / (v @ v)) if v @ v > 0.0 else 0.0
        return float(dist.density(v)), c, e @ v, K1 * (e1 @ v) + K2 * (e2 @ v)

    f1, c1, par1, perp1 = velocity_terms(v1)
    members = [velocity_terms(v2) for v2 in v2s]

    G_b = np.empty((len(v2s), len(bnorms), n_s), dtype=complex)
    # a pass holds the shared v₁ plane and one member's plane
    chunk = max(1, _LINE_POINTS // (2 * K1.size))
    for i0 in range(0, len(rows), chunk):
        idx = rows[i0 : i0 + chunk]
        sb = s[idx][:, None, None]
        kappa = np.sqrt(sb**2 + r[None, :, None] ** 2)
        kappa = np.maximum(kappa, 1e-9)
        W = sol.model.potential.fourier(kappa)
        k_dot1 = sb * par1 + perp1
        u1 = k_dot1 / kappa
        fh1 = sol.h_hat_values(kappa, u1, f1, c1 * u1, W=W) + f1
        wk1 = W * (c1 * k_dot1)
        for m, (f2, c2, par2, perp2) in enumerate(members):
            k_dot2 = sb * par2 + perp2
            u2 = k_dot2 / kappa
            h2 = sol.h_hat_values(kappa, u2, f2, c2 * u2, W=W)
            Gam = ((np.conj(h2) + f2) * wk1 - fh1 * (W * (c2 * k_dot2))).reshape(len(idx), -1)
            for j, weight in enumerate(weights):
                G_b[m, j, idx] = Gam @ weight
    G_b[..., lo:half] = -np.conj(G_b[..., 2 * half - lo : half : -1])

    # s -> xi DFT on the conjugate grid: Γ(ξ_m) = (2π)^{-3/2} ds Σ_j G(s_j) e^{i s_j ξ_m}.
    # Zero-padding by `_XI_PAD` refines the ξ sampling (sinc-exact since G_b
    # is compactly supported) without extra plane-quadrature work.
    ds = 2.0 * s_max / n_s
    n_pad = _XI_PAD * n_s
    G_pad = np.zeros(G_b.shape[:-1] + (n_pad,), dtype=complex)
    G_pad[..., (n_pad - n_s) // 2 : (n_pad + n_s) // 2] = G_b
    xi = (np.arange(n_pad) - n_pad // 2) * (2 * np.pi / (n_pad * ds))
    gamma_line = (2 * np.pi) ** -1.5 * ds * n_pad * np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(G_pad, axes=-1)), axes=-1
    )
    cum = np.concatenate(
        [np.zeros(G_b.shape[:-1] + (1,)),
         np.cumsum((gamma_line[..., 1:] + gamma_line[..., :-1]) / 2.0, axis=-1)], axis=-1
    ) * (xi[1] - xi[0])
    nr = np.linalg.norm(v1 - np.asarray(v2s, dtype=float), axis=1)
    g = 1j / nr[:, None, None] * cum
    return xi, gamma_line, g


def g_B_eval(sol: HSolution, x, v1, v2, **line_kw) -> CorrelationSample:
    """g_B(x, v₁, v₂) with attached impact geometry."""
    x = np.asarray(x, dtype=float)
    b, d, d_minus = impact_geometry(x, v1, v2)
    line = correlation_line(sol, b, v1, v2, **line_kw)
    val = line.at(d)
    return CorrelationSample(
        x=x,
        v1=np.asarray(v1, float),
        v2=np.asarray(v2, float),
        value=val,
        b=b,
        d=d,
        d_minus=d_minus,
        v_r=line.v_r,
    )


def g_B_on_ray(sol: HSolution, x, v1, v2, taus, **line_kw):
    """g_B(x - τ v_r, v₁, v₂) for all τ at the cost of one line solve."""
    x = np.asarray(x, dtype=float)
    b, d, _ = impact_geometry(x, v1, v2)
    line = correlation_line(sol, b, v1, v2, **line_kw)
    taus = np.asarray(taus, dtype=float)
    return np.array([line.at(d - t * line.v_r) for t in taus])


# -- real-space marginal -------------------------------------------------------

def h_realspace(sol: HSolution, v, r_values, k_max=None, n_leg=32):
    """h_B(r x̂, v) for x̂ ∥ v (any axis if v = 0), self-part excluded.

    Inverse transform of the axisymmetric spectral field ĥ_B(κ, |v|μ) via
    the Legendre/spherical-Bessel path.  Returns real values.
    """
    if np.size(r_values) == 0:
        raise InputError("r_values must hold at least one r")
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    dist = sol.model.distribution
    f_v = float(dist.density(v))
    if nv > 0:
        g_r = float((v / nv) @ dist.gradient(v))
    else:
        g_r = 0.0
    if k_max is None:
        k_max = float(sol.k_grid[-1]) - 1.0

    g_r_over_v = g_r / nv if nv > 0 else 0.0

    def G(kappa, mu):
        return sol.h_hat_axial_exact(kappa.ravel(), nv * mu.ravel(), f_v, g_r_over_v)

    vals = axial_inverse_transform(
        G, r_values, k_min=float(sol.k_grid[0]), k_max=k_max, k_roll=0.7 * k_max,
        n_leg=n_leg,
    )
    imag = float(np.max(np.abs(vals.imag)))
    scale = float(np.max(np.abs(vals.real))) or 1.0
    if imag > 1e-6 * scale:
        warnings.warn(f"h_realspace Hermiticity defect {imag:.2e}")
    return vals.real


def fit_decay_slope(r, h, window=(5.0, 20.0)):
    """Least-squares slope of log|h| vs log|r| over the window, with residual."""
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    sel = (r >= window[0]) & (r <= window[1]) & (np.abs(h) > 0)
    if np.count_nonzero(sel) < 3:
        raise ResolutionError("too few points in the slope window")
    X = np.log(r[sel])
    Y = np.log(np.abs(h[sel]))
    A = np.stack([X, np.ones_like(X)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - Y) ** 2)))
    return -float(coef[0]), resid


def marginal_check(
    sol: HSolution,
    x_magnitudes=(1.0, 3.0, 5.0),
    v1_magnitude=0.5,
    n_q=12,
    n_phi=10,
    q_max=7.0,
    **line_kw,
):
    """Compare ∫ g_B(x,v₁,v₂) dv₂ against h_B(x,v₁) for x ∥ v₁.

    The v₂ integral is axisymmetric about the x ∥ v₁ axis and is done in
    polar coordinates centered at v₂ = v₁ (the 1/|v_r| singularity is
    integrable; the Jacobian q²sinφ removes it).  The samples of one φ node
    form one fan (`_marginal_fan`).
    """
    if np.size(x_magnitudes) == 0:
        raise InputError("x_magnitudes must hold at least one |x|")
    v1 = np.array([0.0, 0.0, v1_magnitude])
    xq, wq = np.polynomial.legendre.leggauss(n_q)
    q = q_max / 2 * (xq + 1.0)
    wq = q_max / 2 * wq
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    phi = np.pi / 2 * (xp + 1.0)
    wp = np.pi / 2 * wp

    r_vals = np.asarray(x_magnitudes, dtype=float)
    h_ref = h_realspace(sol, v1, r_vals)
    fans = [_marginal_fan(sol, v1, pj, q, r_vals, **line_kw) for pj in phi]
    rows = []
    for i, (r, h0) in enumerate(zip(r_vals, h_ref)):
        total = 0.0
        for iq, (qi, wqi) in enumerate(zip(q, wq)):
            for pj, wpj, fan in zip(phi, wp, fans):
                total += wqi * wpj * 2 * np.pi * qi**2 * np.sin(pj) * fan[i, iq]
        rows.append({"r": float(r), "marginal": total, "h_B": float(h0),
                     "rel_dev": abs(total - h0) / max(abs(h0), 1e-300)})
    return {
        "samples": rows,
        "max_rel_dev": max(row["rel_dev"] for row in rows),
        "v1": [0.0, 0.0, float(v1_magnitude)],
    }


def _marginal_fan(sol, v1, phi, q, r_vals, **line_kw):
    """Re g_B(r ẑ, v₁, v₁ + q n̂) with n̂ = (sin φ, 0, cos φ), for every r and q,
    as an array (r, q); line_kw are `correlation_line`'s keywords.

    v̂_r = -n̂ for every q, and x = r ẑ has b = r sin φ (-cos φ, 0, sin φ) and
    d = x·v̂_r = -r cos φ, so b̂ is common to every r: all the lines are one
    fan of `_correlation_fan`.
    """
    n_hat = np.array([np.sin(phi), 0.0, np.cos(phi)])
    v2s = [v1 + qi * n_hat for qi in q]
    e1 = np.array([-np.cos(phi), 0.0, np.sin(phi)])
    xi, _, g = _correlation_fan(sol, -n_hat, e1, v1, v2s, r_vals * np.sin(phi), **line_kw)
    return np.array([[np.interp(-r * np.cos(phi), xi, g_m.real) for g_m in g[:, j]]
                     for j, r in enumerate(r_vals)])
