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

Every pairing needs each factor at both signs of k.  For a real profile
g the Cauchy integral obeys the Schwarz reflection C_g(w̄) = conj C_g(w),
so m_{g,-a}(z) = conj m_{g,a}(z̄) and ε(-k,-iz) = conj ε(k,-iz̄), whatever
the mean of F.  The contour nodes γ + iτ_j are closed under conjugation
(node j pairs with node n - j; node 0, at τ = -height, has no partner),
so `ContourFn.reflected` turns one sign's samples into the other's, and
only node 0 is evaluated directly.  The direct evaluation at every node
serves the tests as the reflection's oracle (`tests/oracles.py`).

A profile that is even or odd as well gives a second symmetry at one sign
of k.  w = iz/a maps the node pair (z, z̄) to (w, -w̄), and
C_g(-w̄) = -conj C_g(w) for even g, +conj C_g(w) for odd g, so m_g(z̄) is
+conj m_g(z) for even g and -conj m_g(z) for odd g.  The zero-mean
Gaussian components of a `UProfile` of one degree, of F in the weak form
and of its ∂_uF have such a parity: their transforms are evaluated on
nodes 0 … n/2 (`BromwichContour.half_nodes`) and mirrored
(`BromwichContour.mirrored`).  scipy's `wofz` obeys w(-ζ̄) = conj w(ζ) bit
for bit, and the arithmetic after it is sign-symmetric under IEEE
rounding, so the mirrored values are those of the direct evaluation, bit
for bit.  `_epsilon_contour_fn` evaluates every node: the parity of ε
depends on the drift of F.

The two-particle propagator G(t)[g₀] = V₁V₂[S + g₀] - T(t)[S] is evaluated
in weak form against separable Gaussian test functions.  Every pairing
reduces to one-dimensional inverse Laplace transforms of products of
Cauchy moments m_g over 1/ε factors, coupled at equal times through
cumulative Duhamel integrals (1/(z+z') = ∫₀^∞ e^{-s(z+z')} ds plus
causality).  The t → ∞ limits reproduce the equilibrium pair correlation
of the `equilibrium` module (`PairPropagator.g_B_pairing`, `flux_limit`)
and, through it, the Balescu-Lenard flux, whose literal shielded-tensor
form the tests hold `flux_limit` to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dielectric import DielectricModel
from .distributions import _GaussianMixtureBase, gaussian_cauchy
from .equilibrium import HSolution, _h_hat_formula
from .errors import InputError, StepSizeError, TruncationError
from .transforms import (
    LineProfile,
    UGrid,
    _interp_complex,
    _next_pow2,
    axial_inverse_transform,
    grid_cauchy,
    plemelj_minus,
    pv_transform_rows,
    radial_inverse_transform,
)

# ---------------------------------------------------------------------------
# contour machinery
# ---------------------------------------------------------------------------


def _read_only(arr):
    arr.flags.writeable = False
    return arr


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
    up to `reach`, 90 % of the grid.  The node and time arrays are computed
    on first read and kept, read-only.
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
        if self.n_nodes % 2:
            raise InputError(f"n_nodes = {self.n_nodes}: node j pairs with node n - j "
                             "under conjugation only for an even count")

    @property
    def dtau(self) -> float:
        return 2.0 * self.height / self.n_nodes

    @cached_property
    def tau(self) -> np.ndarray:
        return _read_only((np.arange(self.n_nodes) - self.n_nodes // 2) * self.dtau)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(self.gamma + 1j * self.tau)

    @property
    def half_nodes(self) -> np.ndarray:
        """Nodes 0 … n/2: with their conjugates, every node (see `mirrored`)."""
        return self.nodes[: self.n_nodes // 2 + 1]

    def mirrored(self, half, sign) -> np.ndarray:
        """Node values of F from its values `half` on `half_nodes`, for F with
        F(z̄) = sign·conj F(z): node j > n/2 takes sign·conj of node n - j."""
        partners = np.conj(half[self.n_nodes // 2 - 1 : 0 : -1])  # of nodes n/2 + 1 … n - 1
        return np.concatenate([half, -partners if sign < 0 else partners])

    @cached_property
    def node_powers(self) -> tuple:
        """(z², z³) at the nodes, the denominators `ContourFn.invert` subtracts."""
        z = self.nodes
        return _read_only(z**2), _read_only(z**3)

    @property
    def dt(self) -> float:
        return 2.0 * np.pi / (self.n_nodes * self.dtau)

    @cached_property
    def t_grid(self) -> np.ndarray:
        return _read_only(np.arange(self.n_nodes) * self.dt)

    @cached_property
    def time_scale(self) -> np.ndarray:
        """dτ/2π · e^{γt} on `t_grid`: the factor that turns the FFT sum into L⁻¹."""
        return _read_only((self.dtau / (2 * np.pi)) * np.exp(self.gamma * self.t_grid))

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

    def reflected(self, first) -> "ContourFn":
        """conj F(z̄) on the same contour, for F real on the real axis.

        Node j takes the conjugate of node n - j; node 0 has no partner and
        takes `first`, its directly evaluated value (see module docstring).
        """
        vals = np.empty_like(self.vals)
        vals[0] = first
        vals[1:] = np.conj(self.vals[:0:-1])
        return ContourFn(self.contour, vals, tuple(x.conjugate() for x in self.a))

    def reciprocal(self):
        a0, a1, a2, a3 = self.a
        if a0 == 0:
            raise InputError("reciprocal needs a nonzero constant term")
        b0 = 1.0 / a0
        b1 = -a1 / a0**2
        b2 = (a1**2 - a0 * a2) / a0**3
        b3 = (-(a1**3) + 2 * a0 * a1 * a2 - a0**2 * a3) / a0**4
        return ContourFn(self.contour, 1.0 / self.vals, (b0, b1, b2, b3))

    def invert(self, n_t=None) -> "TimeSeries":
        """L⁻¹ on the contour's natural time grid (causal, t ≥ 0), or on its
        first `n_t` times only."""
        if self.a[0] != 0.0:
            raise InputError("a0 ≠ 0: distributional δ(t) part; subtract it first")
        c = self.contour
        z2, z3 = c.node_powers
        rem = self.vals - self.a[1] / c.nodes - self.a[2] / z2 - self.a[3] / z3
        # ρ(t_m) = (e^{γt}/2π) dτ Σ_j rem(γ+iτ_j) e^{iτ_j t_m}
        spec = np.fft.ifft(np.fft.ifftshift(rem))[:n_t] * c.n_nodes
        t = c.t_grid[:n_t]
        vals = c.time_scale[:n_t] * spec
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


def _cumtrapz(y, dt, at=slice(None)):
    """∫₀^{t_m} y(τ) dτ along the last axis by the trapezoid rule, at nodes `at`.

    The running sum of y less half its first and m-th terms; y is
    overwritten by its running sum, so no second array of its size is made
    when `at` picks a few nodes.
    """
    ends = 0.5 * (y[..., :1] + y[..., at])
    np.cumsum(y, axis=-1, out=y)
    return dt * (y[..., at] - ends)


def _phase(au, t):
    """e^{i·au·t} with shape au.shape + t.shape."""
    arg = 1j * np.asarray(au, dtype=float)[..., None] * t
    return np.exp(arg, out=arg)


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

    def _gaussian_comps(self):
        return [(amp, 0.0, s, deg) for amp, s, deg in self.comps]

    def cauchy(self, w):
        """∫ g(u)/(u - w) du, the integral on both half-planes: the Z-function
        sum `gaussian_cauchy` above the real axis and, g being real, its
        Schwarz reflection conj C_g(w̄) below."""
        w = np.asarray(w, dtype=complex)
        lower = w.imag < 0
        C = gaussian_cauchy(np.where(lower, w.conj(), w), self._gaussian_comps())
        return np.where(lower, C.conj(), C)

    def cauchy_with_derivative(self, w):
        """(C_g(w), C_{g'}(w)) for Im w > 0 and a degree-0 profile.

        g' = Σ -(amp/s²)·u·N(u;s) reads the Z function at the same ζ as g,
        so one `gaussian_cauchy` pass gives both.
        """
        comps = self._gaussian_comps()
        return gaussian_cauchy(w, comps, [(-amp / s**2, 0.0, s, 1) for amp, _, s, _ in comps])

    def _moment_vals(self, z, a_signed):
        return (-1j / a_signed) * self.cauchy(1j * z / a_signed)

    def cauchy_moment(self, contour: BromwichContour, a_signed: float, vals=None) -> ContourFn:
        """m_g(z) = ∫ g(u)/(z + i·a·u) du = (-i/a)·C_g(iz/a) as a ContourFn,
        from its node values `vals` when they are already known.

        The components of one degree make g even (degree 0) or odd
        (degree 1), and m_g(z̄) = ±conj m_g(z) with the same sign (see
        module docstring): such a g is evaluated on the contour's
        `half_nodes` and mirrored.
        """
        if vals is None:
            degrees = {deg for *_, deg in self.comps}
            if len(degrees) == 1:
                half = self._moment_vals(contour.half_nodes, a_signed)
                vals = contour.mirrored(half, -1.0 if degrees.pop() else 1.0)
            else:
                vals = self._moment_vals(contour.nodes, a_signed)
        m0, m1, m2 = self.moments()
        return ContourFn(contour, vals, (0.0, m0, -1j * a_signed * m1, -(a_signed**2) * m2))

    def cauchy_moments(self, contour: BromwichContour, a: float, vals=None):
        """(m_g at +a, m_g at -a), the second reflected from the first;
        `vals` as in `cauchy_moment`."""
        m = self.cauchy_moment(contour, a, vals)
        return m, m.reflected(self._moment_vals(contour.nodes[:1], -a)[0])


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


def _require_soft(model):
    if model.potential.is_coulomb:
        raise InputError("time evolution is restricted to soft potentials")


def _require_count(name, value):
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")


def _require_k_range(k_range):
    """(k_lo, k_hi) of a κ quadrature range, finite with 0 ≤ k_lo < k_hi."""
    a, b = k_range
    if not (np.isfinite(b) and 0 <= a < b):
        raise InputError(f"k_range must be finite with 0 <= k_lo < k_hi, got {k_range}")
    return a, b


def evolve_density(model, k, H0, t_max, dt=0.01, store_every=1):
    """Time-domain ρ̂(t) series: round(t_max/dt) RK4 steps, ρ̂ stored every `store_every`.

    Each step integrates the reduced linear Vlasov dynamics in the
    interaction picture g = e^{i|k|ut} Ĥ, so transport is exact; the
    accuracy guard dt·|k|·u_max ≤ 1 keeps the collective term resolved.
    φ̂(|k|), ∂_uF and i|k|φ̂∂_uF are computed once, and each step's end
    phase e^{i|k|u(t₀+dt)} and its conjugate serve as the next step's start
    phase.  Those are the floats a step computes from t₀ alone, so the
    times, ρ̂ and the final state equal those of a loop of independent steps
    bit for bit (the tests' oracle `vlasov_step`).  t_max must be finite and
    ≥ 0, dt finite and positive.  Returns (ts, ρ̂, final `ModeState`).
    """
    _require_soft(model)
    if not (np.isfinite(t_max) and t_max >= 0):
        raise InputError(f"t_max must be finite and >= 0, got {t_max}")
    if not (np.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be finite and positive, got {dt}")
    _require_count("store_every", store_every)
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k))
    grid = model.grid
    u, du = grid.points, grid.spacing
    if dt * a * grid.u_max > 1.0:
        raise StepSizeError(f"dt·|k|·u_max = {dt * a * grid.u_max:.3f} > 1")
    W = float(model.potential.fourier(np.asarray(a)))
    coupling, iau = 1j * a * W * np.asarray(model.dF(k, u)), 1j * a * u
    H, t = np.asarray(H0, dtype=complex), 0.0
    e0 = np.exp(iau * t)
    ce0 = np.conj(e0)
    ts, rhos = [t], [complex(np.trapezoid(H, dx=du))]

    def rate(g, e, ce):
        return coupling * e * np.trapezoid(ce * g, dx=du)

    for i in range(int(round(t_max / dt))):
        e_half, e1 = np.exp(iau * (t + 0.5 * dt)), np.exp(iau * (t + dt))
        ce_half, ce1 = np.conj(e_half), np.conj(e1)
        g0 = e0 * H
        k1 = rate(g0, e0, ce0)
        k2 = rate(g0 + 0.5 * dt * k1, e_half, ce_half)
        k3 = rate(g0 + 0.5 * dt * k2, e_half, ce_half)
        k4 = rate(g0 + dt * k3, e1, ce1)
        H = ce1 * (g0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        t, e0, ce0 = t + dt, e1, ce1
        if (i + 1) % store_every == 0:
            ts.append(t)
            rhos.append(complex(np.trapezoid(H, dx=du)))
    return np.array(ts), np.array(rhos), ModeState(k=k, grid=grid, H=H, time=t)


def _epsilon_contour_fn(model, k, contour, vals=None) -> ContourFn:
    """ε(k, -iz) on the contour, from its node values `vals` when they are
    already known; ε(-k, ·) is its `ContourFn.reflected`."""
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k)) if k.ndim else abs(float(k))
    W = float(model.potential.fourier(np.asarray(a)))
    if vals is None:
        vals = model.epsilon_laplace(k, contour.nodes)
    kvec = k if k.ndim else np.array([0.0, 0.0, a])
    m0, m1, _ = model.direction_cache(kvec).moments
    a2 = W * a**2 * m0
    a3 = -2j * W * a**3 * m1
    return ContourFn(contour, vals, (1.0, 0.0, a2, a3))


def _grid_cauchy_moment(grid, g_vals, contour, a_signed) -> ContourFn:
    """m_g(z) = (-i/a)·C_g(iz/a) for a sampled profile, C_g by `grid_cauchy`."""
    u = grid.points
    vals = (-1j / a_signed) * grid_cauchy(grid, g_vals, 1j * contour.nodes / a_signed)
    m0, m1, m2 = (np.trapezoid(u**m * g_vals, u) for m in range(3))
    return ContourFn(contour, vals, (0.0, m0, -1j * a_signed * m1, -(a_signed**2) * m2))


def vlasov_laplace_eval(model, k, H0, t, contour=None, richardson_check=False):
    """(Ĥ(t,·), ρ̂(t)) by numerical Bromwich inversion plus exact Duhamel.

    ρ̃(z) = m_{Ĥ₀}(z)/ε(k,-iz) is inverted on the contour's time grid and
    the velocity profile reconstructed from hvlas:
    Ĥ(t,u) = e^{-i|k|ut}[Ĥ₀(u) + i|k|φ̂ ∂_uF(u) ∫₀^t e^{i|k|us} ρ̂(s) ds].
    Negative times return zero (the contour closes right).

    `H0` is either samples on the model's grid, whose Cauchy moment m_{Ĥ₀}
    is then a grid quadrature, or a `UProfile`, whose moment is its closed
    form; the profile's grid samples then stand for Ĥ₀ in Ĥ.  The Duhamel
    integral is one phase-factored cumulative trapezoid of e^{i|k|us} ρ̂(s)
    over the contour's grid nodes up to each requested t, plus the partial
    trapezoid step from the last node to t with ρ̂(t) interpolated; Ĥ comes
    back as one row per requested time.

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
    profile = H0 if isinstance(H0, UProfile) else None
    H0 = np.asarray(H0 if profile is None else profile.values(u), dtype=complex)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not t_arr.size:
        raise InputError("t must hold at least one time")
    t_hi = np.max(t_arr, initial=0.0)
    if contour is None:
        gamma, height = causal_gamma(t_hi), BromwichContour.height
        contour = BromwichContour(gamma, height, contour_nodes(gamma, height, t_hi))
    contour.check_reach(t_hi)

    def rho_on(c):
        if profile is None:
            m_H0 = _grid_cauchy_moment(grid, H0, c, a)
        else:
            m_H0 = profile.cauchy_moment(c, a)
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
    dt = contour.dt
    t_in = np.maximum(t_arr, 0.0)
    m = (t_in / dt).astype(int)                       # last grid node at or before t
    phase = _phase(a * u, rho_series.t[: m.max() + 1])
    phase *= rho_series.values[: m.max() + 1]         # e^{i|k|us} ρ̂(s) on the grid
    last = phase[:, m]
    duhamel = _cumtrapz(phase, dt, at=m)
    del phase
    e_t = _phase(a * u, t_in)
    duhamel += 0.5 * (t_in - rho_series.t[m]) * (last + e_t * rho_series.at(t_in))
    H = np.conj(e_t) * (H0[:, None] + 1j * a * W * dF[:, None] * duhamel)
    H = np.where(t_arr < 0, 0.0, H).T
    rho_out = np.where(t_arr < 0, 0.0, rho_series.at(t_in))
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        out = H[0], complex(rho_out[0])
    else:
        out = H, rho_out
    return out + (drift,) if richardson_check else out


# ---------------------------------------------------------------------------
# Debye cloud
# ---------------------------------------------------------------------------


def debye_cloud(model, sigma, V0=None, r_values=None):
    """Steady (V₀=0) or traveling (rectilinear V₀≠0) screening cloud.

    ρ̂(k) = -σ (2π)^{-3/2} φ̂(k) P⁺[∂_uF](ω·V₀) / ε(k, ω·V₀); the V₀ = 0
    Coulomb+Maxwellian case is the classic Yukawa profile σ e^{-r}/(4πr).
    σ is finite, V₀ a finite 3-vector, and a moving cloud needs at least
    one r.  Returns a dict with the profile, induced charge and |ε|-floor
    scan.
    """
    if not model.potential.is_coulomb:
        raise InputError("the Debye-cloud formula is stated for the Coulomb weight")
    if V0 is None:
        V0 = np.zeros(3)
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (3,) or not np.all(np.isfinite(V0)):
        raise InputError(f"V0 must be a finite 3-vector, got {V0.tolist()}")
    if not np.isfinite(sigma):
        raise InputError(f"sigma must be finite, got {sigma}")
    speed = float(np.linalg.norm(V0))
    r_values = np.asarray(np.geomspace(0.3, 8.0, 60) if r_values is None else r_values, dtype=float)
    if speed and not r_values.size:
        raise InputError("r_values is empty: a moving cloud has no profile to evaluate")
    kvec = np.array([0.0, 0.0, 1.0])

    def rho_hat(kappa, u):
        kappa = np.asarray(kappa, dtype=float)
        W = model.potential.fourier(kappa)
        P_minus = model.plemelj_minus_dF(kvec, u)
        P_plus = np.conj(P_minus)
        eps = 1.0 - W * P_minus
        return -sigma * (2 * np.pi) ** -1.5 * W * P_plus / eps

    result = {"sigma": float(sigma), "V0": [float(x) for x in V0], "r": r_values}
    if speed == 0.0:
        # the profile and the induced-charge grid share one transform
        rq = np.geomspace(0.02, 30.0, 800)
        rho = radial_inverse_transform(
            lambda kk: np.real(rho_hat(kk, np.zeros_like(kk))),
            np.concatenate([np.ravel(r_values), rq]),
            k_min=1e-4,
            k_max=300.0,
            k_roll=200.0,
        )
        result["rho"], pq = rho[: r_values.size], rho[r_values.size :]
        # induced charge by quadrature plus fitted exponential tail
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
    # |ε| = |1 - φ̂(κ) P⁻[∂_uF](u)| on the (κ, u) scan; the last column is u = 0
    ks = np.geomspace(0.02, 2.0, 120)
    u = np.append(np.linspace(-1.0, 1.0, 41) * speed, 0.0)
    abs_eps = np.abs(model.epsilon_at(model.potential.fourier(ks)[:, None], u, kvec))
    floor = float(np.min(abs_eps[:, :-1]))
    ref = float(np.min(abs_eps[:, -1]))
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
        if not (np.isfinite(t_max) and t_max > 0):
            raise InputError(f"t_max must be finite and positive, got {t_max}")
        _require_count("k_nodes", k_nodes)
        a, b = _require_k_range(k_range)
        self._F = radon_profile_of(model.distribution)
        self.model = model
        gamma = causal_gamma(t_max)
        if n_nodes is None:
            n_nodes = contour_nodes(gamma, height, t_max)
        self.contour = BromwichContour(gamma=gamma, height=height, n_nodes=n_nodes)
        self.contour.check_reach(t_max)
        self.t_max = float(t_max)
        x, w = np.polynomial.legendre.leggauss(k_nodes)
        self.k_q = 0.5 * (a + b) + 0.5 * (b - a) * x
        self.k_w = 0.5 * (b - a) * w
        self._n_t = int(self.t_max / self.contour.dt) + 2
        self._t = self.contour.t_grid[: self._n_t]

    def _kappa_nodes(self):
        """Yield (a, weight, W = φ̂(a), 1/ε, 1/ε̃, m_F, m̃_F) for each κ node in turn.

        ε̃ = ε(-k, ·) and m̃_F = m_F at -a are ε and m_F reflected (see module
        docstring): only their node 0 is evaluated.  ε = 1 - W·C[∂_uF](w) and
        m_F = (-i/a)·C_F(w), w = iz/a, read the Z function at the same ζ, so
        one `cauchy_with_derivative` pass gives both.  It covers the
        contour's `half_nodes` only: F is even and ∂_uF odd, so C_F takes
        -conj and C[∂_uF] +conj at the mirror nodes.  The values are bit for
        bit those of `epsilon_laplace` and `UProfile.cauchy_moments`.
        """
        c = self.contour
        for kap, kw in zip(self.k_q, self.k_w):
            a = float(kap)
            W = float(self.model.potential.fourier(np.asarray(a)))
            kv = np.array([0.0, 0.0, a])
            C_F, C_dF = self._F.cauchy_with_derivative(1j * c.half_nodes / a)
            C_F, C_dF = c.mirrored(C_F, -1.0), c.mirrored(C_dF, 1.0)
            eps = _epsilon_contour_fn(self.model, kv, c, vals=1.0 - W * C_dF)
            first = np.conj(self.model.epsilon_laplace(kv, np.conj(c.nodes[:1]))[0])
            m_F, mt_F = self._F.cauchy_moments(c, a, (-1j / a) * C_F)
            yield a, kw, W, eps.reciprocal(), eps.reflected(first).reciprocal(), m_F, mt_F

    def _times(self, t_values):
        """`t_values` as floats; the time grid serves 0 ≤ t ≤ t_max only."""
        t = np.asarray(t_values, dtype=float)
        if not np.all(t >= 0.0):  # also NaN
            raise InputError("weak-form pairings and fluxes need times t ≥ 0")
        if np.any(t > self.t_max):
            raise TruncationError(f"t = {np.max(t):.6g} beyond t_max = {self.t_max:.6g}")
        return t

    def _invert(self, fn: ContourFn):
        return fn.invert(self._n_t).values

    def _test_moments(self, G1_1, G1_2, a):
        """(m_{G1_1} at +a, m_{G1_2} at -a), the second reflected; one
        evaluation serves both when the two velocity widths agree."""
        m_G12, mt_G12 = G1_2.cauchy_moments(self.contour, a)
        m_G11 = m_G12 if G1_1 == G1_2 else G1_1.cauchy_moment(self.contour, a)
        return m_G11, mt_G12

    def _radon_moments(self, g0: SeparableGaussianPair, a):
        """{σ: (m at +a, m at -a)} of the Radon profiles of g₀'s two Gaussians."""
        return {s: gaussian_radon(s).cauchy_moments(self.contour, a)
                for s in (g0.sigma_a, g0.sigma_b)}


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
        t_values = self._times(t_values)
        dist = self.model.distribution
        G0_1, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        G0_2, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        # the κ sum of the equal-time integrands, integrated over time once
        integrand = np.zeros(self._n_t, dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m, m_F, mt_F in self._kappa_nodes():
            m_G11, mt_G12 = self._test_moments(G1_1, G1_2, a)
            P1 = self._invert(m_G11 * m_F * inv_eps)
            P2 = self._invert(mt_G12 * inv_eps_m)
            P3 = self._invert(m_G11 * inv_eps)
            P4 = self._invert(mt_G12 * mt_F * inv_eps_m)
            G0_1_hat = G0_1.fourier(a * self._t)
            G0_2_hat = G0_2.fourier(-a * self._t)
            per_k = (a * W) ** 2 * (P1 * P2 + P3 * P4) \
                - 1j * a * W * (G0_1_hat * P2 - P3 * G0_2_hat)
            integrand += kw * 4 * np.pi * a**2 * test.x_hat(a) * per_k
        return _interp_complex(t_values, self._t, _cumtrapz(integrand, self._t[1]))

    def lambda_pairing(self, g0: SeparableGaussianPair, test: GaussianTestFunction, t_values):
        """⟨Λ(t,t), ψ⟩ = ⟨V₁(t)V₂(t)[g₀], ψ⟩ for a separable Schwartz g₀."""
        t_values = self._times(t_values)
        dist = self.model.distribution
        _, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        _, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        total = np.zeros(self._n_t, dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m, _, _ in self._kappa_nodes():
            m_G11, mt_G12 = self._test_moments(G1_1, G1_2, a)
            moments = self._radon_moments(g0, a)
            per_k = np.zeros(self._n_t, dtype=complex)
            for sa, sb in g0.orderings():
                # ψ-weighted reductions of the initial datum
                sa1 = 1.0 / np.sqrt(sa**-2 + test.sigma_v1**-2)
                sb2 = 1.0 / np.sqrt(sb**-2 + test.sigma_v2**-2)
                free_a = gaussian_radon(sa1).fourier(a * self._t)
                free_b = gaussian_radon(sb2).fourier(-a * self._t)
                coll_a = self._invert(m_G11 * moments[sa][0] * inv_eps)
                coll_b = self._invert(mt_G12 * moments[sb][1] * inv_eps_m)
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
            hsol = HSolution(self.model)
        dist = self.model.distribution
        grid = hsol.grid
        u = grid.points
        G0_1, G1_1 = gaussian_weighted_profiles(dist, test.sigma_v1)
        G0_2, G1_2 = gaussian_weighted_profiles(dist, test.sigma_v2)
        g01, g11 = G0_1.values(u), G1_1.values(u)
        g02, g12 = G0_2.values(u), G1_2.values(u)
        A = np.zeros((len(self.k_q), grid.n), dtype=complex)
        A[:, 1:-1] = hsol.A_minus_exact(self.k_q, u[1:-1])
        W = hsol.model.potential.fourier(self.k_q)[:, None]
        eps = hsol.model.epsilon_at(W)
        H1 = _h_hat_formula(eps, W, A, g01, g11)
        H2 = _h_hat_formula(eps, W, A, g02, g12)
        Y1 = g02 + np.conj(H2)
        PmY1 = pv_transform_rows(grid, Y1, endpoint_tol=1e-3) - 1j * np.pi * Y1
        Pmg12 = plemelj_minus(LineProfile(grid, g12, endpoint_tol=1e-3)).values
        total = 0.0 + 0.0j
        for i, (kap, kw) in enumerate(zip(self.k_q, self.k_w)):
            a = float(kap)
            inner = -np.trapezoid(g11 * PmY1[i], u) + np.trapezoid((g01 + H1[i]) * Pmg12, u)
            total = total + kw * 4 * np.pi * a**2 * test.x_hat(a) * W[i, 0] * inner
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
    """The speeds |v₁| - dv, |v₁|, |v₁| + dv, each finite and positive."""
    if not (np.isfinite(dv) and dv > 0):
        raise InputError(f"dv must be finite and positive, got {dv}")
    if not (np.isfinite(v_mag) and v_mag > dv):
        raise InputError(f"v_mag must be finite and above dv = {dv}, got {v_mag}")
    return np.array([v_mag - dv, v_mag, v_mag + dv])


def _radial_divergence(A, v_mag, dv):
    """∇·(A v̂) = A' + 2A/|v| from A at the three `_stencil` speeds."""
    return np.real((A[2] - A[0]) / (2 * dv) + 2.0 * A[1] / v_mag)


class FluxEvaluator(_WeakFormEvaluator):
    """J[ψ](t, v₁) for the Ψ marginal and the Λ marginal, plus the BL limit.

    The angular-reduced flux scalars take an array of speeds |v₁|; all
    speeds share each κ node's inversions.  The μ sum of the angular
    reduction is taken inside the Duhamel integrals: per speed and κ node
    it leaves two kernels of one time variable, K₁ and K₂ (`_kernels`),
    and each Duhamel term is one causal convolution with K₂ (`_duhamel`),
    so no (speed, μ, t) array is built.  Without `n_nodes` the contour is
    sized by `contour_nodes` from its aliasing bound (see
    `BromwichContour`): 16384 nodes at t_max 35, where `flux_J` and
    `flux_lambda` stay within 3.9e-11 of the 65536-node values' maximum.
    """

    def __init__(self, model, t_max=35.0, k_nodes=20, k_range=(0.02, 6.0),
                 n_mu=24, height=160.0, n_nodes=None):
        super().__init__(model, t_max, k_nodes, k_range, height, n_nodes)
        _require_count("n_mu", n_mu)
        self.mu, self.wmu = np.polynomial.legendre.leggauss(n_mu)
        # the nodes are antisymmetric, μ_{n-1-j} = -μ_j, so the kernels sum the μ > 0 half twice
        half = self.mu > 0
        self._mu_half = self.mu[half]
        self._w1 = 2.0 * self.wmu[half] * self.mu[half]
        self._w2 = self._w1 * self.mu[half]
        self._n_fft = _next_pow2(2 * self._n_t - 1)  # a causal convolution without wrap-around

    def _speeds(self, v_mag):
        """Speeds as an array, with f and ∂_r f at each."""
        speeds = np.atleast_1d(np.asarray(v_mag, dtype=float))
        dist = self.model.distribution
        f_v, g_r = np.array([_radial_log_derivative(dist, v) for v in speeds]).T
        return speeds, f_v, g_r

    def _kernels(self, a, v):
        """K₁ = Σ_μ w_μ μ e^{-ia|v|μt} and K₂ = Σ_μ w_μ μ² e^{-ia|v|μt} on the time grid.

        By the μ ↔ -μ symmetry K₁ = -2iΣ_{μ>0} w_μ μ sin(a|v|μt) and
        K₂ = 2Σ_{μ>0} w_μ μ² cos(a|v|μt); the μ = 0 node of an odd rule adds
        nothing to either.
        """
        arg = (a * v * self._mu_half)[:, None] * self._t
        return -1j * (self._w1 @ np.sin(arg)), self._w2 @ np.cos(arg)

    def _duhamel(self, phis):
        """Σ_μ w_μ μ² ∫₀^t e^{-ia|v|μ(t-s)} φ(s) ds for each series φ of `phis`,
        as a function of the speed's K₂.

        The trapezoid rule on the time grid, summed over μ, is the causal
        convolution dt·[(K₂∗φ)_m − ½K₂(t_m)φ₀ − ½K₂(0)φ_m]; the series'
        zero-padded FFTs are taken once and serve every speed.
        """
        phis = np.array(phis)
        spectra = np.fft.fft(phis, self._n_fft)
        dt = self._t[1]

        def of(K2):
            conv = np.fft.ifft(np.fft.fft(K2, self._n_fft) * spectra)[:, : self._n_t]
            return dt * (conv - 0.5 * (phis[:, :1] * K2 + K2[0] * phis))

        return of

    def _rows_at(self, t_values, rows, v_mag):
        out = np.array([_interp_complex(t_values, self._t, r) for r in rows])
        return out if np.ndim(v_mag) else out[0]

    def _psi_marginal_flux_scalar(self, v_mag, t_values):
        """A(|v₁|, t) with J = ∇·(A v̂₁): the Ψ-part angular-reduced flux.

        An array `v_mag` gives one row per speed.  The μ and κ sums come
        before the time integral, which is taken once per speed.
        """
        t_values = self._times(t_values)
        speeds, f_v, g_r = self._speeds(v_mag)
        integrand = np.zeros((len(speeds), self._n_t), dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m, m_F, mt_F in self._kappa_nodes():
            excess_m = inv_eps_m - 1.0
            gam = self._invert(excess_m)
            dlt_free = self._invert(mt_F * excess_m) + self._F.fourier(-a * self._t)
            duhamel = self._duhamel([self._invert(m_F * inv_eps), self._invert(inv_eps - 1.0)])
            for i, v in enumerate(speeds):
                K1, K2 = self._kernels(a, v)
                alpha, beta = duhamel(K2)
                psi = 1j * a * W * g_r[i] * (alpha * gam + (K2 + beta) * dlt_free)
                psi += f_v[i] * K1 * gam
                integrand[i] += kw * (-2j * np.pi * a**3 * W) * psi
        return self._rows_at(t_values, _cumtrapz(integrand, self._t[1]), v_mag)

    def flux_J(self, t_values, v_mag, dv=0.08):
        """Ψ-part flux divergence J(t, v₁) = A' + 2A/|v₁| (3-point stencil)."""
        A = self._psi_marginal_flux_scalar(_stencil(v_mag, dv), t_values)
        return _radial_divergence(A, v_mag, dv)

    def lambda_marginal_flux_scalar(self, g0: SeparableGaussianPair, v_mag, t_values):
        """Λ-part angular-reduced flux A_λ(|v₁|, t); one row per speed for an array `v_mag`."""
        t_values = self._times(t_values)
        speeds, _, g_r = self._speeds(v_mag)
        total = np.zeros((len(speeds), self._n_t), dtype=complex)
        for a, kw, W, inv_eps, inv_eps_m, _, _ in self._kappa_nodes():
            excess_m = inv_eps_m - 1.0
            moments = self._radon_moments(g0, a)
            orderings = g0.orderings()
            duhamel = self._duhamel([self._invert(moments[sa][0] * inv_eps) for sa, _ in orderings])
            # separable in (z, z'): equal-time inverses are products
            sides = [gaussian_radon(sb).fourier(a * self._t)
                     + self._invert(excess_m * moments[sb][1]) for _, sb in orderings]
            for i, v in enumerate(speeds):
                K1, K2 = self._kernels(a, v)
                per_k = np.zeros(self._n_t, dtype=complex)
                for (sa, _), alpha, side in zip(orderings, duhamel(K2), sides):
                    Ga_v1 = np.exp(-0.5 * (v / sa) ** 2)
                    per_k += 0.5 * (Ga_v1 * K1 + 1j * a * W * g_r[i] * alpha) * side
                total[i] += kw * (-2j * np.pi * a**3 * W * g0.x_hat(a)) * per_k
        return self._rows_at(t_values, total, v_mag)

    def flux_lambda(self, g0, t_values, v_mag, dv=0.08):
        A = self.lambda_marginal_flux_scalar(g0, _stencil(v_mag, dv), t_values)
        return _radial_divergence(A, v_mag, dv)


def flux_limit(model, v_mag, hsol: HSolution | None = None, k_range=(0.02, 8.0),
               n_k=40, n_mu=32, dv=0.08):
    """t → ∞ flux target: J_∞(v₁) = ∇·(-i ∫ k φ̂(k) ĥ_B(k,v₁) dk).

    ĥ_B is the marginal of g_B, so this is the flux the time-dependent
    marginal converges to (eq. of fluxes); it equals π·∇·(A v̂) with A the
    Balescu-Lenard flux D(v₁)·v̂₁ in the literal shielded-tensor form of the
    kernel module (the paper's loose constant), which the tests compute as
    its oracle (`bl_flux_vector`).  Each stencil speed takes ĥ_B on all
    n_k × n_mu (κ, u) nodes from one `h_hat_axial_exact` call.
    """
    speeds = _stencil(v_mag, dv)
    a_, b_ = _require_k_range(k_range)
    _require_count("n_k", n_k)
    _require_count("n_mu", n_mu)
    if hsol is None:
        hsol = HSolution(model)
    dist = model.distribution
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    kq, kw = np.polynomial.legendre.leggauss(n_k)
    ks = 0.5 * (a_ + b_) + 0.5 * (b_ - a_) * kq
    kws = 0.5 * (b_ - a_) * kw
    k_weights = kws * (-2j * np.pi) * ks**3 * model.potential.fourier(ks)

    def A_scalar(vm):
        f_v, g_r = _radial_log_derivative(dist, vm)
        h = hsol.h_hat_axial_exact(ks, vm * mu, f_v, g_r / vm)
        return k_weights @ (h @ (wmu * mu))

    A = [A_scalar(v) for v in speeds]
    return float(_radial_divergence(A, v_mag, dv))
