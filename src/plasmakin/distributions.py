"""One-particle velocity distributions and their Radon profiles.

Every kind provides f(v), ∇f(v) and the plane-integral profile
F(χ,u) = ∫_{χ·v=u} f dv together with ∂_u F, in closed form where the
kind admits one.  Gaussian kinds additionally expose the analytic
continuation of the Cauchy transform of ∂_u F through the plasma
dispersion function Z(ζ) = i√π w(ζ), which the Laplace-side machinery
and the strong-stability check rely on.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, interpolate
from scipy.special import exp1, wofz

from .errors import DomainError, InputError
from .transforms import perpendicular_unit

_SQRT2PI = np.sqrt(2.0 * np.pi)
RADON_BLOCK = 64  # u values per batched plane quadrature: ~6 MB of points at 64 nodes
# the 80-node Gauss-Legendre rule of `_exp_tail_integral`, mapped from [-1, 1] onto t ∈ [0, 60]
_TAIL_T, _TAIL_W = np.polynomial.legendre.leggauss(80)
_TAIL_T, _TAIL_W = 30.0 * (_TAIL_T + 1.0), 30.0 * _TAIL_W
_TAIL_BLOCK = 128  # rows per `_exp_tail_integral` block: 128 × 80 doubles stay under 128 KiB


def _plasma_z(zeta):
    """Z(ζ) = i√π w(ζ); entire, equals ∫e^{-t²}/(t-ζ)dt/√π for Im ζ > 0."""
    return 1j * np.sqrt(np.pi) * wofz(zeta)


def _gauss_pdf(u, mu, s):
    return np.exp(-0.5 * ((u - mu) / s) ** 2) / (s * _SQRT2PI)


class VelocityDistribution:
    """Base class; subclasses fill in kind-specific evaluations."""

    kind = "abstract"
    is_isotropic = False

    # -- velocity-space -------------------------------------------------
    def density(self, v):
        raise NotImplementedError

    def gradient(self, v):
        raise NotImplementedError

    # -- Radon profiles --------------------------------------------------
    def radon_profile(self, chi, u):
        raise NotImplementedError

    def radon_profile_derivative(self, chi, u):
        raise NotImplementedError

    def radon_ratio(self, chi, u):
        """F/∂_uF, evaluated stably where both underflow (|u| large)."""
        F = np.asarray(self.radon_profile(chi, u), dtype=float)
        dF = np.asarray(self.radon_profile_derivative(chi, u), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = F / dF
        bad = ~np.isfinite(r) | (np.abs(dF) < 1e-280)
        if np.any(bad):
            r = np.where(bad, self._tail_ratio(chi, np.asarray(u, dtype=float)), r)
        return r

    def _tail_ratio(self, chi, u):
        raise DomainError(f"{self.kind}: F/∂_uF not available at |u| this large")

    # -- analytic continuation -------------------------------------------
    @property
    def has_continuation(self) -> bool:
        return False

    def cauchy_dF(self, chi, w):
        """∫ ∂_uF(χ,u)/(u - w) du for complex w.

        Gaussian kinds return the entire continuation from the upper half
        plane; other kinds raise.
        """
        raise DomainError(f"{self.kind}: no analytic continuation available")

    # -- diagnostics -----------------------------------------------------
    def raw_moments(self, chi, u_max=60.0, n=6001):
        """(M0, M1, M2) of F(χ,·) by wide-grid quadrature."""
        u = np.linspace(-u_max, u_max, n)
        F = self.radon_profile(chi, u)
        return tuple(np.trapezoid(F * u**m, u) for m in range(3))

    def mass(self, chi=(0.0, 0.0, 1.0)) -> float:
        return float(self.raw_moments(np.asarray(chi, float))[0])


class _GaussianMixtureBase(VelocityDistribution):
    """Shared machinery for kinds whose Radon profile is a Gaussian mixture."""

    def _components(self, chi):
        """Return (weights, means χ·c_i, stds sqrt(χᵀΣ_iχ)) for direction χ."""
        raise NotImplementedError

    def radon_profile(self, chi, u):
        u = np.asarray(u, dtype=float)
        w, mu, s = self._components(np.asarray(chi, float))
        out = np.zeros_like(u)
        for wi, mi, si in zip(w, mu, s):
            out += wi * _gauss_pdf(u, mi, si)
        return out

    def radon_profile_derivative(self, chi, u):
        u = np.asarray(u, dtype=float)
        w, mu, s = self._components(np.asarray(chi, float))
        out = np.zeros_like(u)
        for wi, mi, si in zip(w, mu, s):
            out += wi * _gauss_pdf(u, mi, si) * (-(u - mi) / si**2)
        return out

    def _tail_ratio(self, chi, u):
        w, mu, s = self._components(np.asarray(chi, float))
        # dominant component at each u decides the underflowed ratio
        logs = np.stack(
            [np.log(wi / si) - 0.5 * ((u - mi) / si) ** 2 for wi, mi, si in zip(w, mu, s)]
        )
        dom = np.argmax(logs, axis=0)
        mu_d = np.asarray(mu)[dom]
        s_d = np.asarray(s)[dom]
        return -(s_d**2) / (u - mu_d)

    @property
    def has_continuation(self) -> bool:
        return True

    def cauchy_dF(self, chi, w, branch="integral"):
        """∫ ∂_uF/(u-w) du; `branch="upper"` returns the entire continuation
        from Im w > 0 (what contour deformations need), the default returns
        the true integral on both half-planes (jump-corrected below)."""
        w_arr = np.asarray(w, dtype=complex)
        wt, mu, s = self._components(np.asarray(chi, float))
        out = np.zeros_like(w_arr)
        lower = w_arr.imag < 0
        for wi, mi, si in zip(wt, mu, s):
            zeta = (w_arr - mi) / (np.sqrt(2.0) * si)
            comp = wi * (-(1.0 + zeta * _plasma_z(zeta)) / si**2)
            if branch == "integral" and np.any(lower):
                dfw = wi * (-(w_arr - mi) / si**2) * np.exp(
                    -0.5 * ((w_arr - mi) / si) ** 2
                ) / (si * _SQRT2PI)
                comp = np.where(lower, comp - 2j * np.pi * dfw, comp)
            out += comp
        return out


class Maxwellian(_GaussianMixtureBase):
    """M(v) = (2πT)^{-3/2} exp(-|v-drift|²/2T), unit mass."""

    kind = "maxwellian"

    def __init__(self, drift=(0.0, 0.0, 0.0), temperature=1.0):
        if temperature <= 0:
            raise InputError("temperature must be positive")
        self.drift = np.asarray(drift, dtype=float)
        self.temperature = float(temperature)
        self.is_isotropic = bool(np.all(self.drift == 0.0))

    def density(self, v):
        v = np.asarray(v, dtype=float)
        dv = v - self.drift
        r2 = np.sum(dv * dv, axis=-1)
        return np.exp(-0.5 * r2 / self.temperature) / (2 * np.pi * self.temperature) ** 1.5

    def gradient(self, v):
        v = np.asarray(v, dtype=float)
        dv = v - self.drift
        return -dv / self.temperature * self.density(v)[..., None]

    def _components(self, chi):
        return [1.0], [float(chi @ self.drift)], [np.sqrt(self.temperature)]


class AnisotropicGaussian(_GaussianMixtureBase):
    """Zero-or-drifted Gaussian with full covariance."""

    kind = "gaussian-anisotropic"

    def __init__(self, covariance, drift=(0.0, 0.0, 0.0)):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (3, 3) or not np.allclose(cov, cov.T):
            raise InputError("covariance must be a symmetric 3x3 matrix")
        if np.min(np.linalg.eigvalsh(cov)) <= 0:
            raise InputError("covariance must be positive definite")
        self.cov = cov
        self.drift = np.asarray(drift, dtype=float)
        self._cov_inv = np.linalg.inv(cov)
        self._norm = 1.0 / np.sqrt((2 * np.pi) ** 3 * np.linalg.det(cov))
        self.is_isotropic = bool(
            np.allclose(cov, cov[0, 0] * np.eye(3)) and np.all(self.drift == 0.0)
        )

    def density(self, v):
        dv = np.asarray(v, dtype=float) - self.drift
        q = np.einsum("...i,ij,...j->...", dv, self._cov_inv, dv)
        return self._norm * np.exp(-0.5 * q)

    def gradient(self, v):
        dv = np.asarray(v, dtype=float) - self.drift
        return -(dv @ self._cov_inv) * self.density(v)[..., None]

    def _components(self, chi):
        return [1.0], [float(chi @ self.drift)], [float(np.sqrt(chi @ self.cov @ chi))]


class BumpMixture(_GaussianMixtureBase):
    """Weighted mixture of isotropic Gaussian bumps (two-stream scenarios)."""

    kind = "bump-mixture"

    def __init__(self, components):
        comps = []
        total = 0.0
        for weight, center, sigma in components:
            if weight <= 0 or sigma <= 0:
                raise InputError("component weights and sigmas must be positive")
            comps.append((float(weight), np.asarray(center, dtype=float), float(sigma)))
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise InputError("component weights must sum to 1")
        self.components = comps
        self.is_isotropic = all(np.all(c == 0.0) for _, c, _ in comps)

    def density(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(v.shape[:-1])
        for w, c, s in self.components:
            r2 = np.sum((v - c) ** 2, axis=-1)
            out += w * np.exp(-0.5 * r2 / s**2) / (s * _SQRT2PI) ** 3
        return out

    def gradient(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(v.shape)
        for w, c, s in self.components:
            r2 = np.sum((v - c) ** 2, axis=-1)
            dens = w * np.exp(-0.5 * r2 / s**2) / (s * _SQRT2PI) ** 3
            out += -(v - c) / s**2 * dens[..., None]
        return out

    def _components(self, chi):
        w = [c[0] for c in self.components]
        mu = [float(chi @ c[1]) for c in self.components]
        s = [c[2] for c in self.components]
        return w, mu, s


class ExponentialFamily(VelocityDistribution):
    """f(v) ∝ (1 + modulation/(2+|v|²)) exp(-(1+|v|²)^{γ/2}), γ ∈ {1, 2}.

    γ=1 has a genuinely exponential tail, γ=2 a Gaussian-type tail; both
    are smooth at v = 0.  The Radon profile is closed-form.
    """

    kind = "exponential-family"
    is_isotropic = True

    def __init__(self, gamma=1, modulation=0.0):
        if gamma not in (1, 2):
            raise InputError("shape exponent gamma must be 1 or 2")
        if not 0.0 <= modulation < 1.0:
            raise InputError("modulation must lie in [0, 1)")
        self.gamma = int(gamma)
        self.modulation = float(modulation)
        self._norm = 1.0 / self._unnormalized_mass()

    def _envelope(self, r2):
        return np.exp(-np.power(1.0 + r2, 0.5 * self.gamma))

    def _unnormalized_mass(self):
        def integrand(r):
            return 4 * np.pi * r**2 * (1 + self.modulation / (2 + r**2)) * self._envelope(r**2)

        val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
        return val

    def density(self, v):
        v = np.asarray(v, dtype=float)
        r2 = np.sum(v * v, axis=-1)
        return self._norm * (1 + self.modulation / (2 + r2)) * self._envelope(r2)

    def gradient(self, v):
        v = np.asarray(v, dtype=float)
        r2 = np.sum(v * v, axis=-1)
        mod = 1 + self.modulation / (2 + r2)
        # d/dv of the envelope: -γ(1+r²)^{γ/2-1} v · envelope
        denv = -self.gamma * np.power(1.0 + r2, 0.5 * self.gamma - 1.0)
        dmod = -2.0 * self.modulation / (2 + r2) ** 2
        scal = self._norm * self._envelope(r2) * (mod * denv + dmod)
        return v * scal[..., None]

    def radon_profile(self, chi, u):
        u = np.asarray(u, dtype=float)
        if self.gamma == 1:
            m = np.sqrt(1.0 + u * u)
            base = (1.0 + m) * np.exp(-m)
            if self.modulation:
                base = base + self.modulation * self._exp_tail_integral(m)
            return 2 * np.pi * self._norm * base
        a = 2.0 + u * u
        base = 0.5 * np.exp(-(1.0 + u * u))
        if self.modulation:
            base = base + 0.5 * self.modulation * _exp_scaled_e1(a) * np.exp(-(1.0 + u * u))
        return 2 * np.pi * self._norm * base

    @staticmethod
    def _exp_tail_integral(m):
        """∫_m^∞ s e^{-s}/(1+s²) ds, Gauss-Legendre in t = s - m on [0, 60], rows in blocks."""
        m = np.atleast_1d(m)
        vals = np.empty(m.shape)
        for start in range(0, m.size, _TAIL_BLOCK):
            block = slice(start, start + _TAIL_BLOCK)
            s = m[block, None] + _TAIL_T[None, :]
            vals[block] = np.sum(_TAIL_W * s * np.exp(-s) / (1.0 + s * s), axis=1)
        return vals if vals.size > 1 else vals[0]

    def radon_profile_derivative(self, chi, u):
        u = np.asarray(u, dtype=float)
        if self.gamma == 1:
            m = np.sqrt(1.0 + u * u)
            base = -u * np.exp(-m)
            if self.modulation:
                base = base - self.modulation * u * np.exp(-m) / (1.0 + m * m)
            return 2 * np.pi * self._norm * base
        a = 2.0 + u * u
        base = -u * np.exp(-(1.0 + u * u))
        if self.modulation:
            base = base - self.modulation * u * np.exp(-(1.0 + u * u)) / a
        return 2 * np.pi * self._norm * base

    def _tail_ratio(self, chi, u):
        m = np.sqrt(1.0 + u * u)
        if self.gamma == 1:
            return -(1.0 + m) / u
        return -0.5 / u


def _exp_scaled_e1(a):
    """e^a E1(a), stable for large a."""
    a = np.asarray(a, dtype=float)
    small = a < 50
    out = np.empty_like(a)
    out[small] = np.exp(a[small]) * exp1(a[small])
    big = a[~small]
    out[~small] = (1.0 - 1.0 / big + 2.0 / big**2 - 6.0 / big**3) / big
    return out


class Tabulated(VelocityDistribution):
    """f sampled on a Cartesian 3D lattice; Radon by plane quadrature."""

    kind = "tabulated"

    def __init__(self, axes, values, plane_nodes=64):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise InputError("values shape does not match axes")
        if np.min(self.values) < 0:
            raise InputError("tabulated density must be nonnegative")
        self._interp = interpolate.RegularGridInterpolator(
            self.axes, self.values, bounds_error=False, fill_value=0.0
        )
        grads = np.gradient(self.values, *self.axes)
        self._ginterp = [
            interpolate.RegularGridInterpolator(
                self.axes, g, bounds_error=False, fill_value=0.0
            )
            for g in grads
        ]
        self.half_width = float(min(a[-1] for a in self.axes))
        self.plane_nodes = int(plane_nodes)
        self.is_isotropic = False

    def density(self, v):
        v = np.asarray(v, dtype=float)
        return self._interp(v.reshape(-1, 3)).reshape(v.shape[:-1])

    def gradient(self, v):
        v = np.asarray(v, dtype=float)
        flat = v.reshape(-1, 3)
        g = np.stack([gi(flat) for gi in self._ginterp], axis=-1)
        return g.reshape(v.shape)

    def radon_profile(self, chi, u):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.max(np.abs(u)) > self.half_width:
            raise DomainError("requested u beyond tabulated support")
        chi = np.asarray(chi, dtype=float)
        e1 = perpendicular_unit(chi)
        e2 = np.cross(chi, e1)
        x, w = np.polynomial.legendre.leggauss(self.plane_nodes)
        half = self.half_width
        s = half * x
        ws = half * w
        S, T = np.meshgrid(s, s, indexing="ij")
        W = np.outer(ws, ws)
        out = np.empty(u.shape)
        for start in range(0, u.size, RADON_BLOCK):
            block = slice(start, start + RADON_BLOCK)
            pts = u[block, None, None, None] * chi + S[..., None] * e1 + T[..., None] * e2
            vals = W * self.density(pts)
            out[block] = np.sum(vals.reshape(len(vals), -1), axis=1)
        return float(out[0]) if scalar else out

    def radon_profile_derivative(self, chi, u):
        u = np.asarray(u, dtype=float)
        h = 1e-3
        return (self.radon_profile(chi, u + h) - self.radon_profile(chi, u - h)) / (2 * h)

    def raw_moments(self, chi, u_max=60.0, n=6001):
        """(M0, M1, M2) of F(χ,·) over the window clipped to the lattice's support."""
        return super().raw_moments(chi, min(u_max, self.half_width), n)

    def coarsened(self) -> "Tabulated":
        """Half-resolution copy (used to test verdict grid-stability)."""
        axes = tuple(a[::2] for a in self.axes)
        return Tabulated(axes, self.values[::2, ::2, ::2], self.plane_nodes)
