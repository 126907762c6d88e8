"""Linearized Vlasov and Bogolyubov evolution.

Per mode k the linear dynamics closes on the velocity-projection profile
Ĥ(t,u) = ∫ ĥ(t,v) δ(u - ω·v) dv:

    ∂_t Ĥ = -i|k|u Ĥ + i|k| φ̂(|k|) ∂_uF(u) ρ̂(t),   ρ̂ = ∫ Ĥ du,

integrated either in the time domain (RK4 in the interaction picture) or
by numerical Bromwich inversion of

    ρ̃(z) = m_{Ĥ₀}(z) / ε(k,-iz),    m_g(z) := ∫ g(u)/(z + i|k|u) du.

All Laplace-side quantities are `ContourFn`s carrying their large-z
asymptotics; inversion subtracts up to three asymptotic orders (whose
inverses are exact) so the contour truncation error is O(height⁻³) and
causality at t ≤ 0 is exact.

The two-particle propagator G(t)[g₀] = V₁V₂[S + g₀] - T(t)[S] is evaluated
in weak form against separable Gaussian test functions.  Every pairing
reduces to one-dimensional inverse Laplace transforms of products of
Cauchy moments m_g over 1/ε factors, coupled at equal times through
cumulative Duhamel integrals (1/(z+z') = ∫₀^∞ e^{-s(z+z')} ds plus
causality).  The t → ∞ limits reproduce the Balescu-Lenard flux and the
equilibrium pair correlation of the `equilibrium` module, which serves as
the cross-machinery oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dielectric import DielectricModel
from .distributions import _GaussianMixtureBase, _plasma_z
from .equilibrium import HSolution
from .errors import (
    InputError,
    StepSizeError,
    TruncationError,
)
from .kernel import TensorTable
from .transforms import (
    LineProfile,
    UGrid,
    _interp_complex,
    axial_inverse_transform,
    pv_transform,
    radial_inverse_transform,
)

# ---------------------------------------------------------------------------
# contour machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BromwichContour:
    """Vertical line Re z = gamma sampled uniformly for FFT inversion.

    The n nodes span |Im z| < height, so the time step is π/height whatever
    n is, and n sets the period T = n·π/height.  The inversion is a Fourier
    series: its error at t is the sum of aliased copies
    Σ_{m≥1} r(t + mT) e^{−γmT} of the inverted remainder r (Dubner & Abate,
    J. ACM 15 (1968) 115; Abate & Whitt, Queueing Systems 10 (1992) 5).
    `ContourFn.invert` subtracts a₁ + a₂t + a₃t²/2, so once the transient
    has decayed r grows like a₃t²/2, and for t ≤ t_max the error is at most
    about |a₃|·`alias_bound`(t_max) ≈ |a₃|(t_max + T)²/2 · e^{−γT}.  That
    polynomial factor is why measured errors run 100–400× the bare
    e^{−γ(T − t_max)}.  `contour_nodes` sizes n from it; times may be read
    up to `reach`, 90 % of the grid.
    """

    gamma: float = 0.5
    height: float = 200.0
    n_nodes: int = 32768

    def __post_init__(self):
        if self.gamma <= 0:
            raise InputError("causal inversion needs gamma > 0")
        if not self.height > 0:
            raise InputError("contour height must be positive")
        if not self.n_nodes >= 2:
            raise InputError("a contour needs at least 2 nodes")

    @property
    def dtau(self) -> float:
        return 2.0 * self.height / self.n_nodes

    @property
    def tau(self) -> np.ndarray:
        return (np.arange(self.n_nodes) - self.n_nodes // 2) * self.dtau

    @property
    def nodes(self) -> np.ndarray:
        return self.gamma + 1j * self.tau

    @property
    def dt(self) -> float:
        return 2.0 * np.pi / (self.n_nodes * self.dtau)

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt

    @property
    def reach(self) -> float:
        """The largest time the inversion may be read at: 90 % of the grid."""
        return 0.9 * ((self.n_nodes - 1) * self.dt)

    def alias_bound(self, t_max) -> float:
        """Σ_{m≥1} (t_max + mT)²/2 · e^{−γmT}: the aliasing error per unit |a₃|."""
        T = self.n_nodes * self.dt
        q = np.exp(-self.gamma * T)
        p = -np.expm1(-self.gamma * T)  # 1 − q
        s0 = q / p
        s1 = q / p**2
        s2 = q * (1.0 + q) / p**3
        return 0.5 * (t_max**2 * s0 + 2.0 * t_max * T * s1 + T**2 * s2)

    def check_reach(self, t_max):
        """Raise TruncationError when t_max lies beyond `reach`."""
        if t_max > self.reach:
            raise TruncationError("requested time beyond the contour's alias-free range")


# `contour_nodes` keeps `alias_bound` below ALIAS_TARGET with at most MAX_NODES.
# Against 65536-node results at t_max 35 the target gives 16384 nodes and
# changes of ≤ 3.9e-11 of the maximum (`PairPropagator`, `FluxEvaluator`);
# 8192 nodes (bound 2e-4) changed `psi_pairing` by 6.4e-5.
ALIAS_TARGET = 1e-10
MAX_NODES = 2**20


def causal_gamma(t_max) -> float:
    """γ = min(0.5, 4/t_max): e^{γt}, which multiplies every rounding and
    height-truncation error of the inversion, stays below e⁴ up to t_max."""
    return min(0.5, 4.0 / max(t_max, 1.0))


def contour_nodes(gamma, height, t_max) -> int:
    """The smallest power of two n whose contour reaches t_max within ALIAS_TARGET.

    Raises TruncationError when no n ≤ MAX_NODES does.
    """
    t_max = max(float(t_max), 0.0)
    n = 2
    while n <= MAX_NODES:
        c = BromwichContour(gamma, height, n)
        if c.reach >= t_max and c.alias_bound(t_max) <= ALIAS_TARGET:
            return n
        n *= 2
    raise TruncationError(
        f"t = {t_max:g} needs more than {MAX_NODES} contour nodes "
        f"at gamma = {gamma:g}, height = {height:g}"
    )


@dataclass
class ContourFn:
    """Samples of F(z) on a contour plus large-z asymptotics Σ a_m/z^m."""

    contour: BromwichContour
    vals: np.ndarray
    a: tuple = (0.0, 0.0, 0.0, 0.0)  # a0, a1, a2, a3

    def __mul__(self, other):
        if isinstance(other, ContourFn):
            a, b = self.a, other.a
            prod = (
                a[0] * b[0],
                a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
                a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
            )
            return ContourFn(self.contour, self.vals * other.vals, prod)
        return ContourFn(self.contour, self.vals * other, tuple(other * x for x in self.a))

    __rmul__ = __mul__

    def __sub__(self, c):
        """F - c for a constant c."""
        return ContourFn(self.contour, self.vals - c, (self.a[0] - c,) + self.a[1:])

    def reciprocal(self):
        a0, a1, a2, a3 = self.a
        if a0 == 0:
            raise InputError("reciprocal needs a nonzero constant term")
        b0 = 1.0 / a0
        b1 = -a1 / a0**2
        b2 = (a1**2 - a0 * a2) / a0**3
        b3 = (-(a1**3) + 2 * a0 * a1 * a2 - a0**2 * a3) / a0**4
        return ContourFn(self.contour, 1.0 / self.vals, (b0, b1, b2, b3))

    def invert(self) -> "TimeSeries":
        """L⁻¹ on the contour's natural time grid (causal, t ≥ 0)."""
        if self.a[0] != 0.0:
            raise InputError("a0 ≠ 0: distributional δ(t) part; subtract it first")
        c = self.contour
        z = c.nodes
        rem = self.vals - self.a[1] / z - self.a[2] / z**2 - self.a[3] / z**3
        # ρ(t_m) = (e^{γt}/2π) dτ Σ_j rem(γ+iτ_j) e^{iτ_j t_m}
        spec = np.fft.ifft(np.fft.ifftshift(rem)) * c.n_nodes
        t = c.t_grid
        vals = (c.dtau / (2 * np.pi)) * np.exp(c.gamma * t) * spec
        vals = vals + self.a[1] + self.a[2] * t + 0.5 * self.a[3] * t**2
        return TimeSeries(t=t, values=vals)


@dataclass
class TimeSeries:
    t: np.ndarray
    values: np.ndarray

    def at(self, t_req):
        t_req = np.asarray(t_req, dtype=float)
        out = _interp_complex(t_req, self.t, self.values)
        return np.where(t_req < 0, 0.0, out) if out.ndim else (0.0 if t_req < 0 else complex(out))


def _cumulative_product_integral(dt, *series):
    """∫₀^t Πᵢ seriesᵢ(τ) dτ on the common grid (cumulative trapezoid)."""
    prod = series[0].copy()
    for s in series[1:]:
        prod = prod * s
    out = np.concatenate([[0.0], np.cumsum((prod[1:] + prod[:-1]) / 2.0)]) * dt
    return out


def _duhamel_pole(phi, dt, au):
    """y(t) = ∫₀^t e^{-i·au·(t-s)} φ(s) ds for each au, via the exact recursion.

    Returns an array of shape au.shape + (n_t,).
    """
    au = np.asarray(au, dtype=float)
    E = np.exp(-1j * au * dt)
    n_t = len(phi)
    y = np.zeros(au.shape + (n_t,), dtype=complex)
    half = 0.5 * dt
    for m in range(n_t - 1):
        y[..., m + 1] = E * y[..., m] + half * (E * phi[m] + phi[m + 1])
    return y


# ---------------------------------------------------------------------------
# reduced Gaussian u-profiles with closed-form Cauchy moments
# ---------------------------------------------------------------------------


@dataclass
class UProfile:
    """Σ amp·N(u;s) or Σ amp·u·N(u;s) components (deg 0 or 1)."""

    comps: list  # (amp, s, deg)

    def values(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for amp, s, deg in self.comps:
            base = np.exp(-0.5 * (u / s) ** 2) / (s * np.sqrt(2 * np.pi))
            out = out + amp * (u * base if deg else base)
        return out

    def moments(self):
        m0 = sum(amp for amp, s, deg in self.comps if deg == 0)
        m1 = sum(amp * s**2 for amp, s, deg in self.comps if deg == 1)
        m2 = sum(amp * s**2 for amp, s, deg in self.comps if deg == 0)
        return m0, m1, m2

    def fourier(self, y):
        """∫ g(u) e^{-iuy} du."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y, dtype=complex)
        for amp, s, deg in self.comps:
            env = np.exp(-0.5 * (s * y) ** 2)
            out = out + amp * ((-1j * s**2 * y) * env if deg else env)
        return out

    def cauchy(self, w):
        """∫ g(u)/(u - w) du (the true Cauchy integral, both half-planes).

        The Z-function formula is the continuation from Im w > 0; on the
        lower half-plane the integral differs from it by the jump
        -2πi·g(w) (g entire for Gaussian components).
        """
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        lower = w.imag < 0
        for amp, s, deg in self.comps:
            zeta = w / (np.sqrt(2.0) * s)
            CN = _plasma_z(zeta) / (np.sqrt(2.0) * s)
            comp = amp * ((1.0 + w * CN) if deg else CN)
            if np.any(lower):
                gw = amp * np.exp(-0.5 * (w / s) ** 2) / (s * np.sqrt(2 * np.pi))
                if deg:
                    gw = gw * w
                comp = np.where(lower, comp - 2j * np.pi * gw, comp)
            out = out + comp
        return out

    def cauchy_moment(self, contour: BromwichContour, a_signed: float) -> ContourFn:
        """m_g(z) = ∫ g(u)/(z + i·a·u) du = (-i/a)·C_g(iz/a) as a ContourFn."""
        z = contour.nodes
        vals = (-1j / a_signed) * self.cauchy(1j * z / a_signed)
        m0, m1, m2 = self.moments()
        return ContourFn(contour, vals, (0.0, m0, -1j * a_signed * m1, -(a_signed**2) * m2))


def gaussian_weighted_profiles(dist, sigma_psi):
    """Radon profiles of f·ψ and (ω·∇f)·ψ for ψ = e^{-|v|²/2σ²}.

    Requires a zero-mean Gaussian-mixture distribution; returns (G0, G1)
    as UProfiles:  G0 = Σ w' N(u;s'),  G1 = -Σ (w'/s²) u N(u;s'),
    with s'⁻² = s⁻² + σ⁻² and w' = w (s'/s)³.
    """
    if not isinstance(dist, _GaussianMixtureBase):
        raise InputError("weak-pairing path needs a Gaussian-mixture distribution")
    w, mu, s = dist._components(np.array([0.0, 0.0, 1.0]))
    if any(abs(m) > 0 for m in mu):
        raise InputError("weak-pairing path assumes zero-mean components")
    g0, g1 = [], []
    for wi, si in zip(w, s):
        sp = 1.0 / np.sqrt(si**-2 + sigma_psi**-2)
        wp = wi * (sp / si) ** 3
        g0.append((wp, sp, 0))
        g1.append((-wp / si**2, sp, 1))
    return UProfile(g0), UProfile(g1)


def gaussian_radon(sigma):
    """Radon profile of the unnormalized Gaussian e^{-|v|²/2σ²}."""
    amp = (2 * np.pi) ** 1.5 * sigma**3
    return UProfile([(amp, sigma, 0)])


def radon_profile_of(dist):
    if not isinstance(dist, _GaussianMixtureBase):
        raise InputError("requires a Gaussian-mixture distribution")
    w, mu, s = dist._components(np.array([0.0, 0.0, 1.0]))
    return UProfile([(wi, si, 0) for wi, si in zip(w, s)])


# ---------------------------------------------------------------------------
# single-particle evolution
# ---------------------------------------------------------------------------


@dataclass
class ModeState:
    """Per-mode reduced state Ĥ(t, u) with its density moment."""

    k: np.ndarray
    grid: UGrid
    H: np.ndarray
    time: float = 0.0

    @property
    def rho(self) -> complex:
        return complex(np.trapezoid(self.H, dx=self.grid.spacing))

    def velocity_moment(self) -> complex:
        return complex(np.trapezoid(self.grid.points * self.H, dx=self.grid.spacing))


def _require_soft(model):
    if model.potential.is_coulomb:
        raise InputError("time evolution is restricted to soft potentials")


def vlasov_step(model: DielectricModel, state: ModeState, dt: float) -> ModeState:
    """One RK4 step of the reduced linear Vlasov dynamics (exact transport).

    Interaction picture g = e^{i|k|ut} Ĥ removes the stiff phase; the
    accuracy guard dt·|k|·u_max ≤ 1 keeps the collective term resolved.
    """
    _require_soft(model)
    k = np.asarray(state.k, dtype=float)
    a = float(np.linalg.norm(k))
    u = state.grid.points
    if dt * a * state.grid.u_max > 1.0:
        raise StepSizeError(f"dt·|k|·u_max = {dt * a * state.grid.u_max:.3f} > 1")
    W = float(model.potential.fourier(np.asarray(a)))
    dF = np.asarray(model.dF(k, u))
    du = state.grid.spacing
    t0 = state.time

    def rate(g, tau):
        rho = np.trapezoid(np.exp(-1j * a * u * tau) * g, dx=du)
        return 1j * a * W * dF * np.exp(1j * a * u * tau) * rho

    g0 = np.exp(1j * a * u * t0) * state.H
    k1 = rate(g0, t0)
    k2 = rate(g0 + 0.5 * dt * k1, t0 + 0.5 * dt)
    k3 = rate(g0 + 0.5 * dt * k2, t0 + 0.5 * dt)
    k4 = rate(g0 + dt * k3, t0 + dt)
    g1 = g0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    H1 = np.exp(-1j * a * u * (t0 + dt)) * g1
    return ModeState(k=k, grid=state.grid, H=H1, time=t0 + dt)


def evolve_density(model, k, H0, t_max, dt=0.01, store_every=1):
    """Time-domain ρ̂(t) series via repeated vlasov_step."""
    grid = model.grid
    state = ModeState(k=np.asarray(k, dtype=float), grid=grid, H=np.asarray(H0, dtype=complex))
    ts, rhos = [0.0], [state.rho]
    n = int(round(t_max / dt))
    for i in range(n):
        state = vlasov_step(model, state, dt)
        if (i + 1) % store_every == 0:
            ts.append(state.time)
            rhos.append(state.rho)
    return np.array(ts), np.array(rhos), state


def _epsilon_contour_fn(model, k, contour, conjugate_mode=False) -> ContourFn:
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k)) if k.ndim else abs(float(k))
    W = float(model.potential.fourier(np.asarray(a)))
    vals = model.epsilon_laplace(k, contour.nodes, conjugate_mode=conjugate_mode)
    kvec = k if k.ndim else np.array([0.0, 0.0, a])
    m0, m1, _ = model.direction_cache(kvec).moments
    sgn = -1.0 if conjugate_mode else 1.0
    a2 = W * a**2 * m0
    a3 = -2j * W * a**3 * m1 * sgn
    return ContourFn(contour, vals, (1.0, 0.0, a2, a3))


def _grid_cauchy_moment(grid, g_vals, contour, a_signed) -> ContourFn:
    """m_g(z) by grid quadrature for a sampled profile (chunked)."""
    u = grid.points
    z = contour.nodes
    vals = np.empty(contour.n_nodes, dtype=complex)
    m0 = np.trapezoid(g_vals, u)
    m1 = np.trapezoid(u * g_vals, u)
    m2 = np.trapezoid(u**2 * g_vals, u)
    chunk = 2048
    for i in range(0, len(z), chunk):
        zz = z[i : i + chunk][:, None]
        vals[i : i + chunk] = np.trapezoid(
            g_vals[None, :] / (zz + 1j * a_signed * u[None, :]), u, axis=1
        )
    return ContourFn(contour, vals, (0.0, m0, -1j * a_signed * m1, -(a_signed**2) * m2))


def vlasov_laplace_eval(model, k, H0, t, contour=None, richardson_check=False):
    """(Ĥ(t,·), ρ̂(t)) by numerical Bromwich inversion plus exact Duhamel.

    ρ̃(z) = m_{Ĥ₀}(z)/ε(k,-iz) is inverted on the contour's time grid and
    the velocity profile reconstructed from hvlas:
    Ĥ(t,u) = e^{-i|k|ut}Ĥ₀(u) + i|k|φ̂ ∂_uF(u) ∫₀^t e^{-i|k|u(t-s)} ρ̂(s) ds.
    Negative times return zero (the contour closes right).

    Without `contour` the contour has γ = `causal_gamma`(max t), height
    200 and `contour_nodes` nodes, so its aliasing error stays below about
    ALIAS_TARGET·|a₃| (see `BromwichContour`): 4096 nodes for t ≤ 8 and
    8192 for t ≤ 10, where 65536 nodes at γ = 0.5 agree to ≤ 2e-11 of
    max|ρ̂|.  A time beyond the contour's reach raises
    TruncationError.  `richardson_check` inverts again on 2n nodes with the
    same γ and height, warns when ρ̂ at the requested times moves by more
    than 1e-6, and returns that drift as a third value.
    """
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k)) if k.ndim else abs(float(k))
    if a == 0.0:
        raise InputError("k = 0")
    grid = model.grid
    u = grid.points
    H0 = np.asarray(H0, dtype=complex)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t_hi = np.max(t_arr, initial=0.0)
    if contour is None:
        gamma, height = causal_gamma(t_hi), BromwichContour.height
        contour = BromwichContour(gamma, height, contour_nodes(gamma, height, t_hi))
    contour.check_reach(t_hi)

    def rho_on(c):
        m_H0 = _grid_cauchy_moment(grid, H0, c, a)
        return (m_H0 * _epsilon_contour_fn(model, k, c).reciprocal()).invert()

    rho_series = rho_on(contour)
    if richardson_check:
        doubled = rho_on(BromwichContour(contour.gamma, contour.height, 2 * contour.n_nodes))
        probe = t_arr[t_arr >= 0]
        drift = float(np.max(np.abs(rho_series.at(probe) - doubled.at(probe)), initial=0.0))
        if drift > 1e-6:
            warnings.warn(f"Bromwich node-doubling drift {drift:.2e}")

    W = float(model.potential.fourier(np.asarray(a)))
    dF = np.asarray(model.dF(k, u))
    out_H = []
    dt_grid = contour.dt
    for tt in t_arr:
        if tt < 0:
            out_H.append(np.zeros_like(H0))
            continue
        n_sub = int(np.ceil(tt / dt_grid)) + 1
        s = np.linspace(0.0, tt, max(n_sub, 2))
        rho_s = rho_series.at(s)
        kernel = np.exp(-1j * a * np.outer(u, tt - s))
        integral = np.trapezoid(kernel * rho_s[None, :], s, axis=1)
        out_H.append(np.exp(-1j * a * u * tt) * H0 + 1j * a * W * dF * integral)
    rho_out = np.where(t_arr < 0, 0.0, rho_series.at(np.maximum(t_arr, 0.0)))
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        out = out_H[0], complex(rho_out[0])
    else:
        out = out_H, rho_out
    return out + (drift,) if richardson_check else out


def landau_root(model, k, guess=None):
    """Least-damped zero of the continued ε(k,-iz) (Landau/Langmuir root)."""
    if not model.distribution.has_continuation:
        raise InputError("root search needs an analytic continuation kind")
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k))
    if guess is None:
        try:
            roots = model.dispersion_roots(k)
            guess = -1j * a * roots.u0_plus - 0.05 * a
        except Exception:
            guess = -1j * a * (1.0 / a) - 0.05 * a
    z = complex(guess)
    for _ in range(80):
        f = complex(model.epsilon_laplace(k, np.array([z]))[0])
        h = 1e-7 * max(abs(z), 1.0)
        fp = (
            complex(model.epsilon_laplace(k, np.array([z + h]))[0])
            - complex(model.epsilon_laplace(k, np.array([z - h]))[0])
        ) / (2 * h)
        step = f / fp
        z = z - step
        if abs(step) < 1e-13 * max(abs(z), 1.0):
            break
    return z


def vlasov_laplace_residue_split(model, k, H0, t, H0_analytic, shift_c=0.25,
                                 contour=None):
    """ρ̂(t) as explicit Landau-pole residues plus a shifted-contour rest.

    Mirrors the Ψ₁-convergence proof: the contour moves to Re z = -c|k| and
    the zeros of the continued ε crossed on the way contribute
    e^{z_j t} m_{Ĥ₀}(z_j)/ε'(z_j).  Needs an entire continuation of F and of
    the initial profile (`H0_analytic`: callable on complex u), because for
    Re z < 0 the continued Cauchy moment is the integral plus the jump
    (2π/|k|)·Ĥ₀(iz/|k|).
    """
    if not model.distribution.has_continuation:
        raise InputError("residue split needs an analytic continuation kind")
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k))
    grid = model.grid
    H0 = np.asarray(H0, dtype=complex)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    roots = []
    for sgn in (+1.0, -1.0):
        try:
            guess_u = model.dispersion_roots(k).u0_plus
        except Exception:
            guess_u = 1.0 / a
        z0 = landau_root(model, k, guess=-1j * a * sgn * guess_u - 0.05 * a)
        if -shift_c * a < z0.real <= 1e-12 and not any(abs(z0 - r) < 1e-8 for r in roots):
            roots.append(z0)

    def m_H0_at(z):
        u = grid.points
        zf = np.ravel(np.asarray(z, dtype=complex))
        vals = np.trapezoid(H0[None, :] / (zf[:, None] + 1j * a * u[None, :]), u, axis=1)
        left = zf.real < 0
        if np.any(left):
            vals = np.where(left, vals + (2 * np.pi / a) * H0_analytic(1j * zf / a), vals)
        return vals

    # residues
    res_part = np.zeros(len(t_arr), dtype=complex)
    for z0 in roots:
        h = 1e-6 * a
        dps = (
            complex(model.epsilon_laplace(k, np.array([z0 + h]))[0])
            - complex(model.epsilon_laplace(k, np.array([z0 - h]))[0])
        ) / (2 * h)
        num = complex(m_H0_at(np.array([z0]))[0])
        res_part += np.exp(z0 * t_arr) * num / dps
    # shifted contour (Im w < 0 side: the continuation formula stays valid)
    if contour is None:
        contour = BromwichContour(gamma=0.5, height=120.0, n_nodes=16384)
    tau = contour.tau
    z = -shift_c * a + 1j * tau
    eps_vals = model.epsilon_laplace(k, z)
    mvals = m_H0_at(z)
    rest = np.empty(len(t_arr), dtype=complex)
    integ = mvals / eps_vals
    for i, tt in enumerate(t_arr):
        rest[i] = contour.dtau / (2 * np.pi) * np.exp(-shift_c * a * tt) * np.sum(
            np.exp(1j * tau * tt) * integ
        )
    return res_part + rest, {"roots": roots}


# ---------------------------------------------------------------------------
# Debye cloud
# ---------------------------------------------------------------------------


def debye_cloud(model, sigma, V0=None, r_values=None, epsilon_floor_scan=True):
    """Steady (V₀=0) or traveling (rectilinear V₀≠0) screening cloud.

    ρ̂(k) = -σ (2π)^{-3/2} φ̂(k) P⁺[∂_uF](ω·V₀) / ε(k, ω·V₀); the V₀ = 0
    Coulomb+Maxwellian case is the classic Yukawa profile σ e^{-r}/(4πr).
    Returns a dict with the profile, induced charge and |ε|-floor scan.
    """
    if not model.potential.is_coulomb:
        raise InputError("the Debye-cloud formula is stated for the Coulomb weight")
    if V0 is None:
        V0 = np.zeros(3)
    V0 = np.asarray(V0, dtype=float)
    speed = float(np.linalg.norm(V0))
    if r_values is None:
        r_values = np.geomspace(0.3, 8.0, 60)
    r_values = np.asarray(r_values, dtype=float)
    kvec = np.array([0.0, 0.0, 1.0])

    def rho_hat(kappa, u):
        kappa = np.asarray(kappa, dtype=float)
        W = model.potential.fourier(kappa)
        P_plus = np.conj(model.plemelj_minus_dF(kvec, u))
        eps = 1.0 - W * np.conj(P_plus)  # = 1 - W·P⁻[dF](u)
        return -sigma * (2 * np.pi) ** -1.5 * W * P_plus / eps

    result = {"sigma": float(sigma), "V0": [float(x) for x in V0], "r": r_values}
    if speed == 0.0:
        prof = radial_inverse_transform(
            lambda kk: np.real(rho_hat(kk, np.zeros_like(kk))),
            r_values,
            k_min=1e-4,
            k_max=300.0,
            k_roll=200.0,
        )
        result["rho"] = prof
        # induced charge by quadrature plus fitted exponential tail
        rq = np.geomspace(0.02, 30.0, 800)
        pq = radial_inverse_transform(
            lambda kk: np.real(rho_hat(kk, np.zeros_like(kk))),
            rq, k_min=1e-4, k_max=300.0, k_roll=200.0,
        )
        q = np.trapezoid(4 * np.pi * rq**2 * pq, rq)
        tail_ratio = pq[-1] / pq[-40] if pq[-40] != 0 else 0.0
        lam = -np.log(abs(tail_ratio)) / (rq[-1] - rq[-40]) if tail_ratio else 1.0
        q += 4 * np.pi * pq[-1] * rq[-1] ** 2 / max(lam, 0.1)
        result["induced_charge"] = float(q)
    else:
        def G(kappa, mu):
            return rho_hat(kappa, mu * speed)

        prof = axial_inverse_transform(G, r_values, k_min=3e-3, k_max=60.0, k_roll=42.0)
        result["rho"] = prof.real
        result["hermiticity_defect"] = float(np.max(np.abs(prof.imag)))
    if epsilon_floor_scan:
        ks = np.geomspace(0.02, 2.0, 120)
        mus = np.linspace(-1.0, 1.0, 41)
        floor = np.inf
        for kk in ks:
            vals = np.abs(model.epsilon(kk * kvec, mus * speed))
            floor = min(floor, float(np.min(vals)))
        ref = min(
            float(np.min(np.abs(model.epsilon(kk * kvec, np.zeros(1)))))
            for kk in ks
        )
        result["epsilon_floor"] = floor
        result["epsilon_floor_at_rest"] = ref
        if floor < 1e-3:
            warnings.warn(
                f"|ε| floor {floor:.2e} at |V0| = {speed}: Langmuir-resonance regime"
            )
            result["degeneracy_warning"] = True
    return result


# ---------------------------------------------------------------------------
# two-particle propagator in weak form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTestFunction:
    """Separable test function e^{-|x|²/2σx²} e^{-|v₁|²/2σ₁²} e^{-|v₂|²/2σ₂²}."""

    sigma_x: float = 1.0
    sigma_v1: float = 1.0
    sigma_v2: float = 1.0

    def x_hat(self, kappa):
        return self.sigma_x**3 * np.exp(-0.5 * (np.asarray(kappa) * self.sigma_x) ** 2)


@dataclass(frozen=True)
class SeparableGaussianPair:
    """Symmetric Schwartz initial datum ĝ₀(k,v₁,v₂) for the Λ path."""

    sigma_x: float = 1.0
    sigma_a: float = 1.0
    sigma_b: float = 1.2
    amplitude: float = 1.0

    def x_hat(self, kappa):
        return (
            self.amplitude
            * self.sigma_x**3
            * np.exp(-0.5 * (np.asarray(kappa) * self.sigma_x) ** 2)
        )

    def orderings(self):
        return ((self.sigma_a, self.sigma_b), (self.sigma_b, self.sigma_a))


class _WeakFormEvaluator:
    """Set-up and per-κ pipeline shared by the weak-form evaluators.

    One Bromwich contour, Gauss-Legendre κ nodes on `k_range` and the
    contour's time grid up to `t_max`.  `_kappa_nodes` builds the
    Laplace-side factors of one κ node at a time, because holding every
    node's contour arrays at once would multiply their memory by the node
    count.  The contour has γ = `causal_gamma`(t_max) and `n_nodes` nodes, or
    without `n_nodes` the `contour_nodes` of (γ, height, t_max); a t_max
    beyond the contour's reach raises TruncationError.  The Radon profile
    of F along ẑ stands for every direction, so the distribution must be
    isotropic.
    """

    def __init__(self, model, t_max, k_nodes, k_range, height, n_nodes):
        _require_soft(model)
        if not model.distribution.is_isotropic:
            raise InputError("the weak-form evaluators need an isotropic distribution")
        self._F = radon_profile_of(model.distribution)
        self.model = model
        gamma = causal_gamma(t_max)
        if n_nodes is None:
            n_nodes = contour_nodes(gamma, height, t_max)
        self.contour = BromwichContour(gamma=gamma, height=height, n_nodes=n_nodes)
        self.contour.check_reach(t_max)
        self.t_max = float(t_max)
        x, w = np.polynomial.legendre.leggauss(k_nodes)
        a, b = k_range
        self.k_q = 0.5 * (a + b) + 0.5 * (b - a) * x
        self.k_w = 0.5 * (b - a) * w
        self._n_t = int(self.t_max / self.contour.dt) + 2
        self._t = self.contour.t_grid[: self._n_t]

    def _kappa_nodes(self):
        """Yield (a, weight, W = φ̂(a), 1/ε, 1/ε̃) for each κ node in turn."""
        for kap, kw in zip(self.k_q, self.k_w):
            a = float(kap)
            W = float(self.model.potential.fourier(np.asarray(a)))
            kv = np.array([0.0, 0.0, a])
            inv_eps = _epsilon_contour_fn(self.model, kv, self.contour).reciprocal()
            inv_eps_m = _epsilon_contour_fn(
                self.model, kv, self.contour, conjugate_mode=True
            ).reciprocal()
            yield a, kw, W, inv_eps, inv_eps_m

    def _invert(self, fn: ContourFn):
        return fn.invert().values[: self._n_t]


class PairPropagator(_WeakFormEvaluator):
    """Weak-form evaluator of G(t) = V₁V₂[S + g₀] - T(t)[S] per test function.

    All pairings reduce per wavenumber to inverse Laplace transforms of
    Cauchy-moment products (see module docstring); the κ integral is
    Gauss-Legendre against the test function's spatial factor.  Without
    `n_nodes` the contour is sized by `contour_nodes` from its aliasing
    bound (see `BromwichContour`): 16384 nodes at t_max 35, where the
    pairings stay within 3.9e-12 of the 65536-node values' maximum.
    """

    def __init__(self, model: DielectricModel, t_max=35.0, k_nodes=24, k_range=(0.02, 6.0),
                 height=160.0, n_nodes=None):
        super().__init__(model, t_max, k_nodes, k_range, height, n_nodes)

    def psi_pairing(self, test: GaussianTestFunction, t_values):
        """⟨Ψ(t,t), ψ⟩ for the zero-initial-datum propagator G(t)[0]."""
        t_values = np.asarray(t_values, dtype=float)
        dist = self.model.distribution
        G0_1, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        G0_2, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        dt = self._t[1]
        total = np.zeros(self._n_t, dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m in self._kappa_nodes():
            m_F = self._F.cauchy_moment(self.contour, a)
            mt_F = self._F.cauchy_moment(self.contour, -a)
            m_G11 = G1_1.cauchy_moment(self.contour, a)
            mt_G12 = G1_2.cauchy_moment(self.contour, -a)
            P1 = self._invert(m_G11 * m_F * inv_eps)
            P2 = self._invert(mt_G12 * inv_eps_m)
            P3 = self._invert(m_G11 * inv_eps)
            P4 = self._invert(mt_G12 * mt_F * inv_eps_m)
            psi1 = (a * W) ** 2 * _cumulative_product_integral(dt, P1, P2)
            psi1 = psi1 + (a * W) ** 2 * _cumulative_product_integral(dt, P3, P4)
            G0_1_hat = G0_1.fourier(a * self._t)
            psi2 = -1j * a * W * _cumulative_product_integral(dt, G0_1_hat, P2)
            G0_2_hat = G0_2.fourier(-a * self._t)
            psi2s = 1j * a * W * _cumulative_product_integral(dt, P3, G0_2_hat)
            total = total + kw * 4 * np.pi * a**2 * test.x_hat(a) * (psi1 + psi2 + psi2s)
        return _interp_complex(t_values, self._t, total)

    def lambda_pairing(self, g0: SeparableGaussianPair, test: GaussianTestFunction, t_values):
        """⟨Λ(t,t), ψ⟩ = ⟨V₁(t)V₂(t)[g₀], ψ⟩ for a separable Schwartz g₀."""
        t_values = np.asarray(t_values, dtype=float)
        dist = self.model.distribution
        _, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        _, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        total = np.zeros(self._n_t, dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m in self._kappa_nodes():
            m_G11 = G1_1.cauchy_moment(self.contour, a)
            mt_G12 = G1_2.cauchy_moment(self.contour, -a)
            per_k = np.zeros(self._n_t, dtype=complex)
            for sa, sb in g0.orderings():
                # ψ-weighted reductions of the initial datum
                sa1 = 1.0 / np.sqrt(sa**-2 + test.sigma_v1**-2)
                sb2 = 1.0 / np.sqrt(sb**-2 + test.sigma_v2**-2)
                free_a = gaussian_radon(sa1).fourier(a * self._t)
                free_b = gaussian_radon(sb2).fourier(-a * self._t)
                coll_a = self._invert(
                    m_G11 * gaussian_radon(sa).cauchy_moment(self.contour, a) * inv_eps
                )
                coll_b = self._invert(
                    mt_G12 * gaussian_radon(sb).cauchy_moment(self.contour, -a) * inv_eps_m
                )
                ff = free_a * free_b
                cc = (a * W) ** 2 * coll_a * coll_b
                fc = -1j * a * W * free_a * coll_b
                cf = 1j * a * W * coll_a * free_b
                per_k = per_k + 0.5 * (ff + cc + fc + cf)
            total = total + kw * 4 * np.pi * a**2 * g0.x_hat(a) * test.x_hat(a) * per_k
        return _interp_complex(t_values, self._t, total)

    def g_B_pairing(self, test: GaussianTestFunction, hsol: HSolution | None = None):
        """⟨g_B, ψ⟩ from the equilibrium chain (the t → ∞ target)."""
        if hsol is None:
            hsol = HSolution(self.model, k_min=3e-3, k_max=max(10.0, self.k_q[-1] + 2), n_k=120)
        dist = self.model.distribution
        grid = hsol.grid
        u = grid.points
        G0_1, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        G0_2, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        g01, g11 = G0_1.values(u), G1_1.values(u)
        g02, g12 = G0_2.values(u), G1_2.values(u)
        A_all = np.zeros((len(self.k_q), grid.n), dtype=complex)
        A_all[:, 1:-1] = hsol.A_minus_exact(self.k_q, u[1:-1])
        total = 0.0 + 0.0j
        for kap, kw, A in zip(self.k_q, self.k_w, A_all):
            a = float(kap)
            eps_u, W = hsol._eps_on_grid(a)
            H1 = (1.0 - eps_u) / eps_u * g01 - W * A / eps_u * g11
            H2 = (1.0 - eps_u) / eps_u * g02 - W * A / eps_u * g12
            Y1 = g02 + np.conj(H2)
            prof_Y1 = LineProfile(grid, Y1, endpoint_tol=1e-3)
            PmY1 = pv_transform(prof_Y1).values - 1j * np.pi * Y1
            prof_g12 = LineProfile(grid, g12, endpoint_tol=1e-3)
            Pmg12 = pv_transform(prof_g12).values - 1j * np.pi * g12
            inner = -np.trapezoid(g11 * PmY1, u) + np.trapezoid((g01 + H1) * Pmg12, u)
            total = total + kw * 4 * np.pi * a**2 * test.x_hat(a) * W * inner
        return complex(total)


# ---------------------------------------------------------------------------
# velocity fluxes
# ---------------------------------------------------------------------------


def _radial_log_derivative(dist, v_mag):
    v = np.array([0.0, 0.0, float(v_mag)])
    f = float(dist.density(v))
    g = float(np.array([0.0, 0.0, 1.0]) @ dist.gradient(v))
    return f, g


def _stencil(v_mag, dv):
    return np.array([v_mag - dv, v_mag, v_mag + dv])


def _radial_divergence(A, v_mag, dv):
    """∇·(A v̂) = A' + 2A/|v| from A at the three `_stencil` speeds."""
    return np.real((A[2] - A[0]) / (2 * dv) + 2.0 * A[1] / v_mag)


class FluxEvaluator(_WeakFormEvaluator):
    """J[ψ](t, v₁) for the Ψ marginal and the Λ marginal, plus the BL limit.

    The angular-reduced flux scalars take an array of speeds |v₁|; all
    speeds share each κ node's inversions.  Without `n_nodes` the contour
    is sized by `contour_nodes` from its aliasing bound (see
    `BromwichContour`): 16384 nodes at t_max 35, where `flux_J` and
    `flux_lambda` stay within 3.9e-11 of the 65536-node values' maximum.
    """

    def __init__(self, model, t_max=35.0, k_nodes=20, k_range=(0.02, 6.0),
                 n_mu=24, height=160.0, n_nodes=None):
        super().__init__(model, t_max, k_nodes, k_range, height, n_nodes)
        self.mu, self.wmu = np.polynomial.legendre.leggauss(n_mu)

    def _speeds(self, v_mag):
        """Speeds as an array, with (f, ∂_r f) at each."""
        speeds = np.atleast_1d(np.asarray(v_mag, dtype=float))
        dist = self.model.distribution
        return speeds, [_radial_log_derivative(dist, v) for v in speeds]

    def _psi_marginal_flux_scalar(self, v_mag, t_values):
        """A(|v₁|, t) with J = ∇·(A v̂₁): the Ψ-part angular-reduced flux.

        An array `v_mag` gives one row per speed.
        """
        t_values = np.asarray(t_values, dtype=float)
        dt = self._t[1]
        speeds, radial = self._speeds(v_mag)
        out = np.zeros((len(speeds), len(t_values)), dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m in self._kappa_nodes():
            m_F = self._F.cauchy_moment(self.contour, a)
            mt_F = self._F.cauchy_moment(self.contour, -a)
            excess_m = inv_eps_m - 1.0
            gam = self._invert(excess_m)
            dlt = self._invert(mt_F * excess_m)
            phiF = self._invert(m_F * inv_eps)
            q_eps = self._invert(inv_eps - 1.0)
            F_hat_free = self._F.fourier(-a * self._t)
            u1 = speeds[:, None] * self.mu                      # (n_speeds, n_mu)
            au = a * u1
            free = np.exp(-1j * au[..., None] * self._t)
            alpha_m = _duhamel_pole(phiF, dt, au)               # (n_speeds, n_mu, n_t)
            beta_m = free + _duhamel_pole(q_eps, dt, au)
            for i, (v, (f_v, g_r)) in enumerate(zip(speeds, radial)):
                Q1 = a * W * (u1[i] / v) * g_r  # Q(k,v₁) angular factor per mu
                psi = np.zeros((len(self.mu), self._n_t), dtype=complex)
                for j in range(len(self.mu)):
                    t1 = _cumulative_product_integral(dt, alpha_m[i, j], gam)
                    t1 = t1 + _cumulative_product_integral(dt, beta_m[i, j], dlt)
                    p1 = 1j * Q1[j] * t1
                    p2 = f_v * _cumulative_product_integral(dt, free[i, j], gam)
                    p2s = 1j * Q1[j] * _cumulative_product_integral(dt, beta_m[i, j], F_hat_free)
                    psi[j] = p1 + p2 + p2s
                ang = np.einsum("m,mt->t", self.wmu * self.mu, psi)
                contrib = -2j * np.pi * a**3 * W * ang
                out[i] += kw * _interp_complex(t_values, self._t, contrib)
        return out if np.ndim(v_mag) else out[0]

    def flux_J(self, t_values, v_mag, dv=0.08):
        """Ψ-part flux divergence J(t, v₁) = A' + 2A/|v₁| (3-point stencil)."""
        A = self._psi_marginal_flux_scalar(_stencil(v_mag, dv), t_values)
        return _radial_divergence(A, v_mag, dv)

    def lambda_marginal_flux_scalar(self, g0: SeparableGaussianPair, v_mag, t_values):
        """Λ-part angular-reduced flux A_λ(|v₁|, t); one row per speed for an array `v_mag`."""
        t_values = np.asarray(t_values, dtype=float)
        dt = self._t[1]
        speeds, radial = self._speeds(v_mag)
        out = np.zeros((len(speeds), len(t_values)), dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m in self._kappa_nodes():
            excess_m = inv_eps_m - 1.0
            u1 = speeds[:, None] * self.mu                      # (n_speeds, n_mu)
            au = a * u1
            free1 = np.exp(-1j * au[..., None] * self._t)
            sides = []
            for sa, sb in g0.orderings():
                R_a = gaussian_radon(sa)
                R_b = gaussian_radon(sb)
                delta_b = self._invert(excess_m * R_b.cauchy_moment(self.contour, -a))
                phi_Ra = self._invert(R_a.cauchy_moment(self.contour, a) * inv_eps)
                alpha_Ra = _duhamel_pole(phi_Ra, dt, au)        # (n_speeds, n_mu, n_t)
                sides.append((sa, delta_b, alpha_Ra, R_b.fourier(a * self._t)))
            for i, (v, (_, g_r)) in enumerate(zip(speeds, radial)):
                Q1 = a * W * (u1[i] / v) * g_r
                per_k = np.zeros((len(self.mu), self._n_t), dtype=complex)
                for sa, delta_b, alpha_Ra, Rb_hat in sides:
                    Ga_v1 = np.exp(-0.5 * (v / sa) ** 2)
                    for j in range(len(self.mu)):
                        # separable in (z, z'): equal-time inverses are products
                        ff = Ga_v1 * free1[i, j] * Rb_hat
                        cc = 1j * Q1[j] * alpha_Ra[i, j] * delta_b
                        fc = Ga_v1 * free1[i, j] * delta_b
                        cf = 1j * Q1[j] * alpha_Ra[i, j] * Rb_hat
                        per_k[j] = per_k[j] + 0.5 * (ff + cc + fc + cf)
                ang = np.einsum("m,mt->t", self.wmu * self.mu, per_k)
                contrib = -2j * np.pi * a**3 * W * g0.x_hat(a) * ang
                out[i] += kw * _interp_complex(t_values, self._t, contrib)
        return out if np.ndim(v_mag) else out[0]

    def flux_lambda(self, g0, t_values, v_mag, dv=0.08):
        A = self.lambda_marginal_flux_scalar(g0, _stencil(v_mag, dv), t_values)
        return _radial_divergence(A, v_mag, dv)


def bl_flux_vector(model, v_mag, table: TensorTable, n_q=24, n_phi=16, q_max=8.0):
    """D(v₁)·v̂₁ with D = ∫ a(v₁-v', v₁) f f' (∇ln f - ∇'ln f') dv'.

    This is the t → ∞ flux target ψ_∞ of the marginal evolution and the
    Balescu-Lenard collision flux at v₁ (axisymmetric reduction around v̂₁).
    """
    dist = model.distribution
    v1 = np.array([0.0, 0.0, float(v_mag)])
    xq, wq = np.polynomial.legendre.leggauss(n_q)
    q = q_max / 2 * (xq + 1.0)
    wq = q_max / 2 * wq
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    phi = np.pi / 2 * (xp + 1.0)
    wp = np.pi / 2 * wp
    f1 = float(dist.density(v1))
    gl1 = dist.gradient(v1) / max(f1, 1e-300)
    total = 0.0
    for qi, wqi in zip(q, wq):
        for pj, wpj in zip(phi, wp):
            vp = v1 + qi * np.array([np.sin(pj), 0.0, np.cos(pj)])
            w = v1 - vp
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                continue
            what = w / nw
            f2 = float(dist.density(vp))
            gl2 = dist.gradient(vp) / max(f2, 1e-300)
            bracket = f1 * f2 * (gl1 - gl2)
            vperp = v1 - (v1 @ what) * what
            vpn = np.linalg.norm(vperp)
            A11, A22 = table.components(vpn)
            vec = A22 * (bracket - what * (what @ bracket))
            if vpn > 1e-12:
                e1 = vperp / vpn
                vec += (A11 - A22) * e1 * (e1 @ bracket)
            vec /= nw
            total += wqi * wpj * 2 * np.pi * qi**2 * np.sin(pj) * vec[2]
    return float(total)


def flux_limit(model, v_mag, hsol: HSolution | None = None, k_range=(0.02, 8.0),
               n_k=40, n_mu=32, dv=0.08):
    """t → ∞ flux target: J_∞(v₁) = ∇·(-i ∫ k φ̂(k) ĥ_B(k,v₁) dk).

    ĥ_B is the marginal of g_B, so this is the flux the time-dependent
    marginal converges to (eq. of fluxes); it equals π times the literal
    shielded-tensor form of the kernel module (the paper's loose constant).
    """
    if hsol is None:
        hsol = HSolution(model, k_min=3e-3, k_max=k_range[1] + 4.0, n_k=140)
    dist = model.distribution
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    kq, kw = np.polynomial.legendre.leggauss(n_k)
    a_, b_ = k_range
    ks = 0.5 * (a_ + b_) + 0.5 * (b_ - a_) * kq
    kws = 0.5 * (b_ - a_) * kw

    def A_scalar(vm):
        f_v, g_r = _radial_log_derivative(dist, vm)
        tot = 0.0 + 0.0j
        for kk, ww in zip(ks, kws):
            W = float(model.potential.fourier(np.asarray(kk)))
            h = hsol.h_hat_axial_exact(np.array([kk]), vm * mu, f_v, g_r / vm)[0]
            tot += ww * (-2j * np.pi) * kk**3 * W * np.sum(wmu * mu * h)
        return tot

    A = [A_scalar(v) for v in _stencil(v_mag, dv)]
    return float(_radial_divergence(A, v_mag, dv))
