"""Singular-integral and integral-transform primitives.

The principal-value operator ``P`` and its boundary values ``P±`` follow
the convention

    P[p](u)  = PV ∫ p(u') / (u' - u) du',
    P±[p](u) = P[p](u) ± iπ p(u),

so that p = (P⁺[p] - P⁻[p]) / (2πi) holds identically; the package
evaluates ``P`` (`pv_transform`, `pv_transform_rows`) and ``P⁻``
(`plemelj_minus`).  On the Fourier side ``P`` is the multiplier
iπ·sign(ξ) under the symmetric transform convention; the multiplier
route, a 2n-point circular convolution with the periodic kernel's lags,
is the one path (its direct-quadrature and 8n-point zero-padded oracles
live with the tests).  Radon profiles F(χ,u) and ∂_uF are the
distributions' own (`radon_profile`, `radon_profile_derivative`); the
module also holds the oscillatory radial and axisymmetric inverse
transforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError

DEFAULT_U_MAX = 12.0
DEFAULT_N = 1024
DEFAULT_ENDPOINT_TOL = 1e-5
TAPER_FRACTION = 0.9
_PV_PAD = 8  # the multiplier route's zero-padding factor: the kernel's period is 8n·h
_ALIASING = ("profile endpoints above tolerance (aliasing risk); "
             "widen the grid or raise endpoint_tol deliberately")
CAUCHY_BLOCK = 2**20  # (w, u) pairs per `grid_cauchy` block: 16 MB per complex temporary


@dataclass(frozen=True)
class UGrid:
    """Uniform symmetric grid in the velocity projection u."""

    u_max: float = DEFAULT_U_MAX
    n: int = DEFAULT_N

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 16):
            raise InputError(f"grid needs an integer n >= 16, got {self.n!r}")
        if not (np.isfinite(self.u_max) and self.u_max > 0):
            raise InputError(f"u_max must be finite and positive, got {self.u_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.u_max / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.u_max, self.u_max, self.n)

    def require_power_of_two(self):
        if self.n & (self.n - 1):
            raise InputError(f"FFT path needs n a power of two, got {self.n}")


@dataclass
class LineProfile:
    """Complex samples on a UGrid with an endpoint-decay tag."""

    grid: UGrid
    values: np.ndarray
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL
    real_valued: bool = False
    decay_flag: bool = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise InputError(f"values shape {v.shape} != grid ({self.grid.n},)")
        if not np.all(np.isfinite(v)):
            raise InputError("profile contains non-finite samples")
        if self.real_valued:
            v = np.real(v).astype(float)
        self.values = v
        self.decay_flag = bool(
            max(abs(complex(v[0])), abs(complex(v[-1]))) <= self.endpoint_tol
        )

    def copy_with(self, values, real_valued=False) -> "LineProfile":
        return LineProfile(self.grid, values, self.endpoint_tol, real_valued)


def taper_window(grid: UGrid, fraction: float = TAPER_FRACTION) -> np.ndarray:
    """Smooth cutoff equal to 1 on the central `fraction` of the grid.

    Cosine ramp to zero at the endpoints; suppresses Gibbs leakage in the
    multiplier route.
    """
    return _smooth_cutoff(np.abs(grid.points), fraction * grid.u_max, grid.u_max)


def perpendicular_unit(e):
    """A unit vector orthogonal to each unit vector of `e` (shape (..., 3)).

    e × x̂ normalized, or e × ŷ where |e_x| > 0.9 (e nearly along x̂).
    """
    e = np.asarray(e, dtype=float)
    trial = np.zeros_like(e)
    along_x = np.abs(e[..., 0]) > 0.9
    trial[..., 0] = ~along_x
    trial[..., 1] = along_x
    p = np.cross(e, trial)
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _interp_complex(t, tp, fp):
    """Piecewise-linear interpolation of complex samples fp(tp) at t."""
    return np.interp(t, tp, fp.real) + 1j * np.interp(t, tp, fp.imag)


def _next_pow2(m: int) -> int:
    n = 1
    while n < m:
        n *= 2
    return n


@functools.lru_cache(maxsize=8)
def _pv_kernel(grid: UGrid):
    """What `_pv_rows` reads of `grid`, built once per grid and read-only.

    Returns the 2n-point FFT of the kernel's 2n − 1 lags, the taper and the
    period L = 8n·h.  The kernel is K = IFFT_{8n}(iπ·sign ξ), the
    multiplier's periodic kernel on the 8n-point zero-padded buffer; lag l
    sits at index l mod 2n, and index n, which no lag below n reaches, is 0.
    """
    grid.require_power_of_two()
    n = grid.n
    n_pad = _next_pow2(_PV_PAD * n)
    K = np.fft.ifft(1j * np.pi * np.sign(np.fft.fftfreq(n_pad)))
    lags = np.zeros(2 * n, dtype=complex)
    lags[:n] = K[:n]
    lags[n + 1:] = K[n_pad - n + 1:]
    kernel_hat, taper = np.fft.fft(lags), taper_window(grid)
    kernel_hat.setflags(write=False)
    taper.setflags(write=False)
    return kernel_hat, taper, n_pad * grid.spacing


def _pv_rows(grid: UGrid, rows) -> np.ndarray:
    """Fourier-multiplier evaluation of P on each row of `rows` (shape (m, n)),
    with periodization corrections.

    The route zero-pads the tapered profile p to 8n points, applies the
    iπ·sign(ξ) multiplier and keeps the first n outputs.  Since p lives on
    the first n samples, that is exactly the restricted convolution
    out_j = Σ_m p_m K_{j−m} with |j − m| < n, so it is evaluated as a
    2n-point circular convolution with the kernel's lags (`_pv_kernel`):
    one 2n-point FFT pair per row instead of an 8n-point pair.  The
    analytic corrections for the periodized kernel
    (π/L)cot(πs/L) = 1/s - (π²/3L²)s - (π⁴/45L⁴)s³ - ...
    use each row's truncated moments.  Without the corrections the
    cot-tail error decays only like L⁻² and misses the 1e-6 agreement
    target.  Each row's result has the same bits whatever rows it shares
    the call with.
    """
    kernel_hat, taper, length = _pv_kernel(grid)
    n, h = grid.n, grid.spacing
    p = rows * taper
    out = np.fft.ifft(np.fft.fft(p, 2 * n, axis=-1) * kernel_hat, axis=-1)[:, :n]

    u = grid.points
    m0, m1, m2, m3 = (np.trapezoid(p * u**k, dx=h, axis=-1)[:, None] for k in range(4))
    c1 = (np.pi**2 / (3.0 * length**2)) * (m1 - u * m0)
    c3 = (np.pi**4 / (45.0 * length**4)) * (m3 - 3 * u * m2 + 3 * u**2 * m1 - u**3 * m0)
    return out + c1 + c3


def _pv_fft(profile: LineProfile) -> np.ndarray:
    """P of one profile: the one-row case of `_pv_rows` (its 2n-point kernel
    and corrections)."""
    return _pv_rows(profile.grid, profile.values[None, :])[0]


def pv_transform(profile: LineProfile) -> LineProfile:
    """Principal-value Cauchy transform P[p](u) = PV ∫ p(u')/(u'-u) du'."""
    if not profile.decay_flag:
        raise PreconditionError(_ALIASING)
    return profile.copy_with(_pv_fft(profile))


def pv_transform_rows(grid: UGrid, rows, endpoint_tol=DEFAULT_ENDPOINT_TOL) -> np.ndarray:
    """P of each row of `rows` (shape (m, grid.n)), each as `pv_transform`
    takes it of one profile: a non-finite sample raises `InputError`, and a
    row with an endpoint above `endpoint_tol` raises `PreconditionError`."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != grid.n:
        raise InputError(f"rows shape {rows.shape} != (m, {grid.n})")
    if not np.all(np.isfinite(rows)):
        raise InputError("profile contains non-finite samples")
    if np.any(np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1])) > endpoint_tol):
        raise PreconditionError(_ALIASING)
    return _pv_rows(grid, rows)


def plemelj_minus(profile: LineProfile) -> LineProfile:
    """P⁻[p] = P[p] - iπ p (boundary value from below)."""
    pv = pv_transform(profile)
    return profile.copy_with(pv.values - 1j * np.pi * profile.values)


def grid_cauchy(grid: UGrid, g, w):
    """C_g(w) = ∫ g(u)/(u - w) du by the trapezoid rule on `grid`, for w off
    the real axis (the integral on both half-planes, not a continuation).

    The w are taken in blocks of CAUCHY_BLOCK // n, so the temporaries stay
    a few (block × n) arrays however many w there are.
    """
    u = grid.points
    flat = np.asarray(w, dtype=complex).ravel()
    out = np.empty_like(flat)
    rows = max(CAUCHY_BLOCK // grid.n, 1)
    for i in range(0, flat.size, rows):
        out[i : i + rows] = np.trapezoid(g / (u - flat[i : i + rows, None]), u, axis=-1)
    return out.reshape(np.shape(w))


# ---------------------------------------------------------------------------
# Oscillatory inverse-transform utilities (radial and axisymmetric 3D)
# ---------------------------------------------------------------------------

_PANEL_RULE = np.polynomial.legendre.leggauss(8)  # Gauss-Legendre nodes and weights per panel
RADIAL_BLOCK = 2**17  # (r, κ panel) pairs per `radial_inverse_transform` block: 1 MB per temporary


def _panel_nodes(k_min, k_max, r_scale):
    """Equal-width Gauss-Legendre panels of width at most min(0.4, 2.5/|r|) on
    [k_min, k_max], fine enough to resolve e^{i k r} oscillation for every
    |r| ≤ r_scale.

    Returns the nodes and weights (panel by panel, 8 each), the panel
    midpoints and their common half-width h: node q of panel p is
    mid[p] + h·x_q.
    """
    width = min(0.4, 2.5 / max(abs(r_scale), 1.0))
    n_panels = max(4, int(np.ceil((k_max - k_min) / width)))
    edges = np.linspace(k_min, k_max, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (k_max - k_min) / n_panels
    x, w = _PANEL_RULE
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights, mid, half


def _smooth_cutoff(k, k_roll, k_max):
    """1 below k_roll, cosine roll-off to 0 at k_max (tames conditional tails)."""
    out = np.ones_like(k)
    ramp = k > k_roll
    s = (k[ramp] - k_roll) / max(k_max - k_roll, 1e-300)
    out[ramp] = 0.5 * (1.0 + np.cos(np.pi * np.clip(s, 0.0, 1.0)))
    return out


def _finite_r(r_values):
    """r_values as a 1-d float array; InputError names the first non-finite one."""
    r_values = np.atleast_1d(np.asarray(r_values, dtype=float))
    bad = r_values[~np.isfinite(r_values)]
    if bad.size:
        raise InputError(f"inverse transform needs finite r, got {bad[0]}")
    return r_values


def spherical_jn_orders(n, x):
    """j₀(x) … j_{n−1}(x) for ascending x ≥ 0, as an (n, len(x)) array.

    Where x ≥ n, upward recurrence j_{m+1} = (2m+1)/x·j_m − j_{m−1} from
    j₀ = sin x/x and j₁ = (j₀ − cos x)/x is stable for every order asked for.
    Where 0 < x < n it would lose the decaying solution, so those x take
    Miller's downward recurrence, carried as ratios ρ_m = j_m/j_{m−1} =
    x/(2m+1 − xρ_{m+1}) from ρ = 0 past order N = n + 8 + 8·x^{1/3} (the
    decay past the turning point m ≈ x sets how far above it N must start;
    x is the segment's largest), and scaled by j₀ or j₁, whichever is larger
    in magnitude.  A product of ratios cannot overflow, even at x = 1e-300.
    j_m(0) = δ_{m0}.  Ascending x puts each branch on one slice.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n, x.size))
    zero = int(np.searchsorted(x, 0.0, side="right"))
    split = int(np.searchsorted(x, float(n)))
    out[0, :zero] = 1.0

    up = out[:, split:]
    xu = x[split:]
    up[0] = np.sin(xu) / xu
    if n > 1:
        up[1] = (up[0] - np.cos(xu)) / xu
        inv = 1.0 / xu
        for m in range(1, n - 1):
            up[m + 1] = (2 * m + 1) * inv * up[m] - up[m - 1]

    down = out[:, zero:split]
    xd = x[zero:split]
    down[0] = np.sin(xd) / xd
    if n > 1 and xd.size:
        rho = np.zeros_like(xd)
        for m in range(n + 8 + int(8.0 * np.cbrt(xd[-1])), 0, -1):
            rho = xd / (2 * m + 1 - xd * rho)
            if m < n:
                down[m] = rho
        j1 = (down[0] - np.cos(xd)) / xd
        down[1] = np.where(np.abs(down[0]) >= np.abs(j1), down[0] * down[1], j1)
        np.cumprod(down[1:], axis=0, out=down[1:])
    return out


def radial_inverse_transform(fn, r_values, k_min=1e-4, k_max=60.0, k_roll=40.0):
    """ρ(r) = (2π)^{-3/2} (4π/r) ∫ fn(κ) κ sin(κr) dκ for radial fn(|k|).

    One panel rule, the one that resolves max r, serves every r; `fn` is
    evaluated once on it.  The panels share one half-width h, so with node
    κ = m_p + h·x_q, sin(κr) = sin(m_p r)cos(h x_q r) + cos(m_p r)sin(h x_q r):
    each r costs two (8 × panels) products against the panel-shaped weights
    and one sine and one cosine per panel, not one sine per node.  The r go
    in blocks of RADIAL_BLOCK // panels.  On 825 r, the rest Debye cloud's
    profile and charge grid (28 800 nodes), this took the transform from
    0.27–0.29 s, one sine per node and r, to 0.11 s on a 2-vCPU VM.
    """
    r_values = _finite_r(r_values)
    if np.any(r_values <= 0):
        bad = r_values[r_values <= 0][0]
        raise InputError(f"radial transform defined for r > 0, got {bad}")
    k, w, mid, half = _panel_nodes(k_min, k_max, np.max(r_values, initial=0.0))
    wfk = w * (np.asarray(fn(k), dtype=float) * _smooth_cutoff(k, k_roll, k_max)) * k
    wfk = wfk.reshape(mid.size, -1).T  # (8, panels)
    hx = half * _PANEL_RULE[0]
    out = np.empty(r_values.shape)
    rows = max(RADIAL_BLOCK // mid.size, 1)
    for i in range(0, r_values.size, rows):
        r = r_values[i : i + rows, None]
        mr, hxr = r * mid, r * hx
        out[i : i + rows] = np.sum(
            np.sin(mr) * (np.cos(hxr) @ wfk) + np.cos(mr) * (np.sin(hxr) @ wfk), axis=1
        )
    return out * 4 * np.pi / ((2 * np.pi) ** 1.5 * r_values)


def axial_inverse_transform(
    fn, r_values, k_min=3e-3, k_max=40.0, k_roll=28.0, n_mu=48, n_leg=32
):
    """Evaluate F⁻¹[G](r·ẑ) for an axisymmetric spectral field G(κ, μ).

    G depends on |k| and μ = cosθ relative to the symmetry axis; the μ
    integral is done exactly per Legendre mode (∫P_n(μ)e^{izμ}dμ = 2iⁿj_n(z))
    and the κ integral by oscillation-resolving panels with a smooth
    roll-off.  One panel rule, the one that resolves max |r|, serves every
    r; `fn(kappa, mu)` must broadcast and is evaluated once on it.  Each r
    takes every order j₀ … j_{n_leg−1}(κ|r|) from one recurrence pass
    (`spherical_jn_orders`), so its only temporary is one (n_leg × nodes)
    table.  On the moving Debye cloud's 61 r (1920 nodes) this took the
    transform from 0.71–0.75 s, one `spherical_jn` call per order and r, to
    0.05–0.07 s on a 2-vCPU VM.  Negative r is handled by parity, (-1)ⁿ on
    mode n.  Returns complex values (imaginary part is a Hermiticity
    diagnostic).
    """
    from numpy.polynomial import legendre as npleg

    r_values = _finite_r(r_values)
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    # Legendre-Vandermonde and projection weights
    orders = np.arange(n_leg)
    P = np.stack([npleg.legval(mu, [0.0] * n + [1.0]) for n in range(n_leg)])
    proj = (2 * orders + 1)[:, None] / 2.0 * (P * wmu[None, :])
    mode_weight = 2.0 * 1j ** orders  # 2iⁿ, times (-1)ⁿ for r < 0
    parity = (-1.0) ** orders
    k, w, _, _ = _panel_nodes(k_min, k_max, np.max(np.abs(r_values), initial=0.0))
    G = np.asarray(fn(k[:, None], mu[None, :]), dtype=complex)
    wcn = w * _smooth_cutoff(k, k_roll, k_max) * k**2 * (proj @ G.T)  # (n_leg, n_k)
    out = np.empty(r_values.shape, dtype=complex)
    for i, r in enumerate(r_values):
        modes = np.sum(wcn * spherical_jn_orders(n_leg, k * abs(r)), axis=1)
        out[i] = modes @ (mode_weight * parity if r < 0 else mode_weight)
    return out / np.sqrt(2.0 * np.pi)
