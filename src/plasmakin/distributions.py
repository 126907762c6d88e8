"""One-particle velocity distributions and their Radon profiles.

Every kind provides f(v), ∇f(v) and the plane-integral profile
F(χ,u) = ∫_{χ·v=u} f dv together with ∂_u F, in closed form where the
kind admits one.  Gaussian kinds additionally expose the analytic
continuation of the Cauchy transform of ∂_u F through the plasma
dispersion function Z(ζ) = i√π w(ζ), which the Laplace-side machinery
and the strong-stability check rely on.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError, InputError
from .transforms import perpendicular_unit

_SQRT2PI = np.sqrt(2.0 * np.pi)
RADON_BLOCK = 64  # u values per batched plane quadrature: ~6 MB of points at 64 nodes
# one 80-node Gauss-Legendre rule on [-1, 1], mapped onto t ∈ [0, 60] for
# `_exp_tail_integral` and onto t ∈ [0, 5] for `ExponentialFamily._unnormalized_mass`
_GL_X, _GL_W = np.polynomial.legendre.leggauss(80)
_TAIL_T, _TAIL_W = 30.0 * (_GL_X + 1.0), 30.0 * _GL_W
_MASS_T, _MASS_W = 2.5 * (_GL_X + 1.0), 2.5 * _GL_W
_TAIL_BLOCK = 128  # rows per `_exp_tail_integral` block: 128 × 80 doubles stay under 128 KiB


def gaussian_cauchy(w, comps, *more):
    """The entire continuation from Im w > 0 of C_g(w) = ∫ g(u)/(u - w) du,
    g = Σ amp·(u - mean)^deg·N(u; mean, s) over comps [(amp, mean, s, deg)].

    With ζ = (w - mean)/(√2 s) and Z(ζ) = i√π w(ζ), a degree-0 component is
    Z(ζ)/(√2 s) and a degree-1 one 1 + ζZ(ζ), which cancels to O(ζ⁻²): where
    |ζ| ≥ 30 and Im ζ ≥ 0 it is the series -Σ_{n=1}^{8} (2n-1)!!/(2ζ²)ⁿ, whose
    first omitted term is below 1e-18 of the sum.  Below the real axis the
    integral of a real g is conj C_g(w̄) (Schwarz reflection), not this.

    Each further comps list in `more` gives one more sum at the same w, and
    the result is then the list of sums: every distinct (mean, s) of all
    the lists takes one `wofz` pass, so C_g and C_{g'} cost one.
    """
    from scipy.special import wofz  # 0.3 s to import: loaded only where a Faddeeva value is needed

    flat = np.asarray(w, dtype=complex).ravel()
    plasma_z = {}  # (mean, s) -> (ζ, Z(ζ))
    sums = []
    for comp_list in (comps, *more):
        out = np.zeros_like(flat)
        for amp, mean, s, deg in comp_list:
            if (mean, s) not in plasma_z:
                zeta = (flat - mean) / (np.sqrt(2.0) * s)
                plasma_z[mean, s] = zeta, 1j * np.sqrt(np.pi) * wofz(zeta)
            zeta, Z = plasma_z[mean, s]
            comp = _one_plus_zeta_z(zeta, Z) if deg else Z / (np.sqrt(2.0) * s)
            out = out + amp * comp
        sums.append(out.reshape(np.shape(w)))
    return sums if more else sums[0]


def _one_plus_zeta_z(zeta, Z):
    """1 + ζZ(ζ) of `gaussian_cauchy`: the series where |ζ| ≥ 30, Im ζ ≥ 0."""
    out = 1.0 + zeta * Z
    far = (np.abs(zeta) >= 30.0) & (zeta.imag >= 0)
    if not far.any():
        return out
    q = 0.5 / zeta[far] / zeta[far]
    series = 15.0 * q + 1.0
    for m in range(13, 1, -2):  # Horner: q(1 + 3q(1 + 5q(… (1 + 15q))))
        series *= m * q
        series += 1.0
    out[far] = -q * series
    return out


def _three_vector(name, value):
    """`value` as a finite 3-vector; InputError names the parameter otherwise."""
    vec = np.asarray(value, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be a finite 3-vector, got {vec.tolist()}")
    return vec


def _positive(name, value):
    """InputError naming the parameter unless `value` is finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise InputError(f"{name} must be finite and positive, got {value}")


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

    def rest_frame(self):
        """(f₀, d) with f(v) = f₀(v - d) and f₀ isotropic and positive, for a
        kind drifted off its isotropic rest frame; None for every other kind."""
        return None

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

    def cauchy_dF(self, chi, w):
        """The entire continuation of ∫ ∂_uF(χ,u)/(u - w) du from Im w > 0,
        what contour deformations need: the integral above the real axis,
        its continuation (not the integral) below; see `gaussian_cauchy`."""
        wt, mu, s = self._components(np.asarray(chi, float))
        return gaussian_cauchy(w, [(-wi / si**2, mi, si, 1) for wi, mi, si in zip(wt, mu, s)])


class Maxwellian(_GaussianMixtureBase):
    """M(v) = (2πT)^{-3/2} exp(-|v-drift|²/2T), unit mass."""

    kind = "maxwellian"

    def __init__(self, drift=(0.0, 0.0, 0.0), temperature=1.0):
        _positive("temperature", temperature)
        self.drift = _three_vector("drift", drift)
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

    def rest_frame(self):
        """The undrifted Maxwellian at this temperature and the drift, when drifted."""
        return None if self.is_isotropic else (Maxwellian(temperature=self.temperature), self.drift)


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
        self.drift = _three_vector("drift", drift)
        self._cov_inv = np.linalg.inv(cov)
        self._norm = 1.0 / np.sqrt((2 * np.pi) ** 3 * np.linalg.det(cov))
        # exact: every isotropic fast path reads one ẑ profile for all directions
        self.is_isotropic = bool(
            np.array_equal(cov, cov[0, 0] * np.eye(3)) and np.all(self.drift == 0.0)
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
            _positive("component weight", weight)
            _positive("component sigma", sigma)
            comps.append((float(weight), _three_vector("component center", center), float(sigma)))
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
        """∫ 4πr²(1 + modulation/(2 + r²)) e^{-(1+r²)^{γ/2}} dr over r ≥ 0.

        With r = sinh t the integrand is 4π sinh²t cosh t (1 + modulation/
        (1 + cosh²t)) e^{-cosh^γ t}: entire in t and below 1e-28 of the
        mass beyond t = 5, so the fixed 80-node Gauss-Legendre rule on
        [0, 5] is exact to rounding (2e-16 against mpmath at γ ∈ {1, 2}).
        """
        c, s = np.cosh(_MASS_T), np.sinh(_MASS_T)
        integrand = 4 * np.pi * s * s * c * (1 + self.modulation / (1 + c * c)) * np.exp(-c**self.gamma)
        return float(np.sum(_MASS_W * integrand))

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
    from scipy.special import exp1

    a = np.asarray(a, dtype=float)
    small = a < 50
    out = np.empty_like(a)
    out[small] = np.exp(a[small]) * exp1(a[small])
    big = a[~small]
    out[~small] = (1.0 - 1.0 / big + 2.0 / big**2 - 6.0 / big**3) / big
    return out


def _trilinear(axes, table, v):
    """Trilinear interpolation of a lattice table at points v (shape (..., 3)); 0 outside.

    `table` holds the lattice values flattened in C order, with any
    trailing channel axis: shape (n_x·n_y·n_z,) or (n_x·n_y·n_z, c).  Each
    point's cell is found along each axis as scipy's `RegularGridInterpolator`
    finds it, and the eight corners are summed in its order with its
    weights, so the bits are those of its "linear" method with
    fill_value 0.
    """
    v = np.asarray(v, dtype=float)
    pts = v.reshape(-1, 3)
    sizes = [len(a) for a in axes]
    strides = (sizes[1] * sizes[2], sizes[2], 1)
    flat = np.zeros(len(pts), dtype=np.intp)
    outside = np.zeros(len(pts), dtype=bool)
    weights = []
    for d, ax in enumerate(axes):
        x = pts[:, d]
        outside |= (x < ax[0]) | (x > ax[-1])
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        y = (x - ax[i]) / (ax[i + 1] - ax[i])
        flat += i * strides[d]
        weights.append((1 - y, y))
    trailing = (slice(None),) + (None,) * (table.ndim - 1)
    out = 0.0
    for corner in itertools.product((0, 1), repeat=3):
        w = weights[0][corner[0]] * weights[1][corner[1]] * weights[2][corner[2]]
        offset = sum(c * st for c, st in zip(corner, strides))
        out = out + np.take(table, flat + offset, axis=0) * w[trailing]
    out[outside] = 0.0
    return out.reshape(v.shape[:-1] + table.shape[1:])


class Tabulated(VelocityDistribution):
    """f sampled on a Cartesian 3D lattice; Radon by plane quadrature.

    f and its central-difference gradient are read between lattice nodes
    by the in-package trilinear kernel `_trilinear`, 0 outside the lattice.
    """

    kind = "tabulated"

    def __init__(self, axes, values, plane_nodes=64):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise InputError("values shape does not match axes")
        if not np.all((self.values >= 0) & (self.values < np.inf)):  # NaN fails too
            raise InputError("tabulated density values must be finite and nonnegative")
        self._table = self.values.ravel()
        self._gradient_table = np.stack(np.gradient(self.values, *self.axes), axis=-1).reshape(-1, 3)
        self.half_width = float(min(a[-1] for a in self.axes))
        self.plane_nodes = int(plane_nodes)
        self.is_isotropic = False

    def density(self, v):
        return _trilinear(self.axes, self._table, v)

    def gradient(self, v):
        return _trilinear(self.axes, self._gradient_table, v)

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
