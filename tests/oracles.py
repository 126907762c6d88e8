"""Independent oracles that only the tests call.

Each one computes a quantity of `plasmakin` by a different route from the
one the package runs:

- `pv_quadrature`: P[p] by singularity-subtracted trapezoid quadrature;
- `pv_fft_padded`: P[p] by the 8n-point zero-padded FFT multiplier route,
  which the package evaluates as a 2n-point circular convolution;
- `far_root_brent`: the far root of α = κ² by a geometric scan and scipy's
  scalar Brent root finder `brentq`, which the package reads from α's
  cells with its batched Chandrupatla solver;
- `vlasov_step`: one RK4 step of the reduced linear Vlasov dynamics with
  every phase computed from the step's start time, which `evolve_density`
  must equal bit for bit over a loop of steps;
- `epsilon_minus_k`: ε(-k, -iz) evaluated at every contour node, which
  `ContourFn.reflected` of ε(k, ·) must match to rounding;
- `bl_flux_vector`: the Balescu-Lenard flux D(v₁)·v̂₁ by plane quadrature
  of the shielded tensor table, π times whose divergence `flux_limit` must
  reproduce from the equilibrium chain.
"""

import numpy as np
from scipy.optimize import brentq

from plasmakin.errors import InputError, StepSizeError
from plasmakin.propagator import ContourFn, ModeState, _require_soft
from plasmakin.transforms import LineProfile, _next_pow2, taper_window


def _deriv_5pt(p, h):
    """Fourth-order first derivative (5-point interior stencil)."""
    dp = np.gradient(p, h)
    if p.size >= 5:
        dp[2:-2] = (p[:-4] - 8 * p[1:-3] + 8 * p[3:-1] - p[4:]) / (12.0 * h)
    return dp


def pv_quadrature(profile: LineProfile, at_indices=None) -> np.ndarray:
    """Direct PV quadrature oracle (singularity-subtracted trapezoid).

    P[p](u_j) = ∫ (p(u') - p(u_j))/(u' - u_j) du' + p(u_j) log((b-u_j)/(u_j-a))
    over the grid window [a, b]; the subtracted integrand is smooth, so the
    trapezoid rule is spectrally accurate for decaying analytic profiles.
    Independent of the FFT path.
    """
    grid = profile.grid
    u = grid.points
    h = grid.spacing
    p = profile.values.astype(complex)
    dp = _deriv_5pt(p, h)
    idx = np.arange(1, grid.n - 1) if at_indices is None else np.asarray(at_indices)
    if np.any((idx <= 0) | (idx >= grid.n - 1)):
        raise InputError("PV oracle not defined at the grid endpoints")

    out = np.empty(idx.shape, dtype=complex)
    weights = np.ones(grid.n)
    weights[0] = weights[-1] = 0.5
    for m, j in enumerate(idx):
        diff = u - u[j]
        q = np.empty(grid.n, dtype=complex)
        nz = diff != 0.0
        q[nz] = (p[nz] - p[j]) / diff[nz]
        q[~nz] = dp[j]
        val = h * np.sum(weights * q)
        val += p[j] * np.log((u[-1] - u[j]) / (u[j] - u[0]))
        out[m] = val
    return out


def pv_fft_padded(profile: LineProfile, pad_factor: int = 8) -> np.ndarray:
    """Fourier-multiplier evaluation of P with periodization corrections.

    Zero-pads by `pad_factor`, applies the iπ·sign(ξ) multiplier, then adds
    the analytic corrections for the periodized kernel
    (π/L)cot(πs/L) = 1/s - (π²/3L²)s - (π⁴/45L⁴)s³ - ...
    using the truncated moments of the tapered profile.
    """
    grid = profile.grid
    grid.require_power_of_two()
    h = grid.spacing
    w = taper_window(grid)
    p = profile.values * w

    n_pad = _next_pow2(pad_factor * grid.n)
    buf = np.zeros(n_pad, dtype=complex)
    buf[: grid.n] = p
    xi_sign = np.sign(np.fft.fftfreq(n_pad))
    out = np.fft.ifft(np.fft.fft(buf) * (1j * np.pi * xi_sign))[: grid.n]

    u = grid.points
    length = n_pad * h
    m0 = np.trapezoid(p, dx=h)
    m1 = np.trapezoid(p * u, dx=h)
    m2 = np.trapezoid(p * u**2, dx=h)
    m3 = np.trapezoid(p * u**3, dx=h)
    c1 = (np.pi**2 / (3.0 * length**2)) * (m1 - u * m0)
    c3 = (np.pi**4 / (45.0 * length**4)) * (m3 - 3 * u * m2 + 3 * u**2 * m1 - u**3 * m0)
    return out + c1 + c3


def far_root_brent(cache, kappa, side, n_scan=4000, xtol=1e-14):
    """The far root of α = κ² on one side (NaN if none), scanned inward.

    The scan runs from 4/κ in to 1/(2√κ) over `n_scan` geometric points and
    every grid node between them; the first exact zero is the root, the
    first sign change is polished by `brentq` on `cache.alpha_at`.
    """
    lo, hi = 1.0 / (2.0 * np.sqrt(kappa)), 4.0 / kappa
    u = cache.grid.points
    nodes = np.abs(u[(np.abs(u) > lo) & (np.abs(u) < hi) & (side * u > 0)])
    us = np.unique(np.concatenate([np.geomspace(lo, hi, n_scan), nodes]))[::-1]

    def g(x):
        return cache.alpha_at(side * x) - kappa**2

    vals = g(us)
    stops = np.flatnonzero((vals == 0.0) | np.r_[False, vals[1:] * vals[:-1] < 0])
    if not stops.size:
        return np.nan
    i = stops[0]
    if vals[i] == 0.0:
        return side * us[i]
    return side * brentq(g, us[i], us[i - 1], xtol=xtol)


def vlasov_step(model, state: ModeState, dt: float) -> ModeState:
    """One RK4 step of the reduced linear Vlasov dynamics (exact transport).

    Interaction picture g = e^{i|k|ut} Ĥ removes the stiff phase; the
    accuracy guard dt·|k|·u_max ≤ 1 keeps the collective term resolved.
    The phases at t₀, t₀ + dt/2 and t₀ + dt are computed once each, and
    e^{-i|k|ut} is taken as their conjugate.
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

    e0, e_half, e1 = (np.exp(1j * a * u * tau) for tau in (t0, t0 + 0.5 * dt, t0 + dt))

    def rate(g, e):
        rho = np.trapezoid(np.conj(e) * g, dx=du)
        return 1j * a * W * dF * e * rho

    g0 = e0 * state.H
    k1 = rate(g0, e0)
    k2 = rate(g0 + 0.5 * dt * k1, e_half)
    k3 = rate(g0 + 0.5 * dt * k2, e_half)
    k4 = rate(g0 + dt * k3, e1)
    g1 = g0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    H1 = np.conj(e1) * g1
    return ModeState(k=k, grid=state.grid, H=H1, time=t0 + dt)


def epsilon_minus_k(model, k, contour) -> ContourFn:
    """ε(-k, -iz) at every node of the contour, evaluated directly as
    conj ε(k, -iz̄), with the asymptotics a₂ = φ̂|k|²m0 and a₃ = 2iφ̂|k|³m1
    of -k (m0, m1 the raw moments of F along k)."""
    k = np.asarray(k, dtype=float)
    a = float(np.linalg.norm(k)) if k.ndim else abs(float(k))
    W = float(model.potential.fourier(np.asarray(a)))
    vals = np.conj(model.epsilon_laplace(k, np.conj(contour.nodes)))
    kvec = k if k.ndim else np.array([0.0, 0.0, a])
    m0, m1, _ = model.direction_cache(kvec).moments
    return ContourFn(contour, vals, (1.0, 0.0, W * a**2 * m0, 2j * W * a**3 * m1))


def bl_flux_vector(model, v_mag, table, n_q=24, n_phi=16, q_max=8.0):
    """D(v₁)·v̂₁ with D = ∫ a(v₁-v', v₁) f f' (∇ln f - ∇'ln f') dv'.

    This is the t → ∞ flux target ψ_∞ of the marginal evolution and the
    Balescu-Lenard collision flux at v₁ (axisymmetric reduction around v̂₁),
    with a from the `TensorTable` `table`.
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
