"""Independent oracles that only the tests call.

Each one computes a quantity of `plasmakin` by a different route from the
one the package runs:

- `pv_quadrature`: P[p] by singularity-subtracted trapezoid quadrature;
- `pv_fft_padded`: P[p] by the 8n-point zero-padded FFT multiplier route,
  which the package evaluates as a 2n-point circular convolution;
- `far_root_brent`: the far root of α = κ² by a geometric scan and the
  scalar Brent root finder, which the package reads from α's cells.
"""

import numpy as np

from plasmakin.dielectric import _brent_root
from plasmakin.errors import InputError
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
    first sign change is polished by `_brent_root` on `cache.alpha_at`.
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
    return side * _brent_root(g, us[i], us[i - 1], xtol=xtol)
