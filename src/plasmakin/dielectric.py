"""Dielectric function ε(k,u), stability checks and Debye-unit scaling.

ε is parametrized by the phase velocity u:

    ε(k, u) = 1 - φ̂(|k|) · ( α(χ,u) - iπ ∂_uF(χ,u) ),   χ = k/|k|,

which is the boundary value 1 - φ̂ P⁻[∂_uF](u).  The companion
Laplace-side evaluator `epsilon_laplace` returns 1 - φ̂ C[∂_uF](iz/|k|)
(the denominator of the Fourier-Laplace Vlasov solution) and reduces to
conj(ε(k,u)) on the imaginary axis z = -i|k|u.

`DielectricModel` caches F, ∂_uF and α per exact direction χ (ẑ for
isotropic kinds): ẑ at construction, any other χ on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    DegenerateDielectricError,
    DomainError,
    InputError,
    RootNotFoundError,
)
from .transforms import LineProfile, UGrid, pv_transform

EPSILON_FLOOR = 1e-8
MAX_CACHED_DIRECTIONS = 64  # one direction holds five 1024-node arrays, ~100 KB
_Z_HAT = np.array([0.0, 0.0, 1.0])


def _as_vector(k):
    """k as a 3-vector (a scalar lies along ẑ) and its norm; k = 0 is refused."""
    k = np.asarray(k, dtype=float)
    kvec = k if k.ndim else np.array([0.0, 0.0, float(k)])
    nk = np.linalg.norm(kvec)
    if nk == 0.0:
        raise InputError("k = 0: dielectric undefined")
    return kvec, nk


def sphere_lattice_directions():
    """26 face/edge/corner directions of the cubic lattice, normalized."""
    dirs = []
    for ix in (-1, 0, 1):
        for iy in (-1, 0, 1):
            for iz in (-1, 0, 1):
                if ix == iy == iz == 0:
                    continue
                d = np.array([ix, iy, iz], dtype=float)
                dirs.append(d / np.linalg.norm(d))
    return np.array(dirs)


@dataclass(frozen=True)
class ScalingUnits:
    """Physical (T, Ñ, σ̃) with the derived Debye length and rescaled pair."""

    temperature: float
    number_density: float
    coupling: float
    debye_length: float
    rescaled_density: float
    rescaled_coupling: float

    def invert(self):
        """Recover (T, Ñ, σ̃) from the rescaled quantities."""
        L = self.debye_length
        return (
            self.temperature,
            self.rescaled_density / L**3,
            self.rescaled_coupling * L * self.temperature,
        )


def debye_rescale(temperature, number_density, coupling) -> ScalingUnits:
    """L_D = sqrt(T/(Ñσ̃)); rescaled N = L_D³Ñ and σ = σ̃/(L_D T), N·σ = 1."""
    if temperature <= 0 or number_density <= 0 or coupling <= 0:
        raise InputError("temperature, density and coupling must be positive")
    L = np.sqrt(temperature / (number_density * coupling))
    N = L**3 * number_density
    sigma = coupling / (L * temperature)
    return ScalingUnits(temperature, number_density, coupling, L, N, sigma)


@dataclass
class DirectionCache:
    chi: np.ndarray
    F: LineProfile
    dF: LineProfile
    alpha: np.ndarray
    alpha_spline: CubicSpline
    dalpha_spline: CubicSpline
    moments: tuple  # raw (M0, M1, M2) of F


class DielectricModel:
    """Cached evaluator of ε and its ingredients for one (f, φ) pair."""

    def __init__(self, distribution, potential, grid: UGrid | None = None):
        self.distribution = distribution
        self.potential = potential
        if grid is None:
            wide = getattr(distribution, "kind", "") == "exponential-family" and getattr(
                distribution, "gamma", 2
            ) == 1
            grid = UGrid(26.0, 2048) if wide else UGrid()
        self.grid = grid
        self._caches = {}
        self.direction_cache(_Z_HAT)
        self.lower_bound_estimate = None

    @property
    def directions(self) -> np.ndarray:
        """The cached directions χ as rows, oldest first."""
        return np.array([cache.chi for cache in self._caches.values()])

    # -- construction ------------------------------------------------------
    def _build_direction(self, chi) -> DirectionCache:
        u = self.grid.points
        F_vals = np.asarray(self.distribution.radon_profile(chi, u), dtype=float)
        dF_vals = np.asarray(self.distribution.radon_profile_derivative(chi, u), dtype=float)
        F = LineProfile(self.grid, F_vals, real_valued=True)
        dF = LineProfile(self.grid, dF_vals, real_valued=True)
        alpha = np.real(pv_transform(dF).values)
        spline = CubicSpline(u, alpha)
        return DirectionCache(
            chi=np.array(chi, dtype=float),
            F=F,
            dF=dF,
            alpha=alpha,
            alpha_spline=spline,
            dalpha_spline=spline.derivative(),
            moments=self.distribution.raw_moments(chi),
        )

    def _chi(self, k) -> np.ndarray:
        """The direction ε depends on: ẑ for isotropic kinds, k/|k| otherwise."""
        kvec, nk = _as_vector(k)
        return _Z_HAT if self.distribution.is_isotropic else kvec / nk

    def direction_cache(self, k) -> DirectionCache:
        """The cache of χ(k), built on first use."""
        chi = self._chi(k)
        key = tuple(chi)
        if key not in self._caches:
            if len(self._caches) >= MAX_CACHED_DIRECTIONS:
                del self._caches[next(iter(self._caches))]
            self._caches[key] = self._build_direction(chi)
        return self._caches[key]

    # -- ingredient evaluations ---------------------------------------------
    def alpha(self, k, u):
        """P[∂_uF](u) with the 1/u² asymptote beyond the cached grid."""
        return self._alpha_in(self.direction_cache(k), u)

    def _alpha_in(self, cache, u):
        """α of one direction: its spline inside the grid, m0/u² + 2m1/u³ + 3m2/u⁴ beyond."""
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        inside = np.abs(u) <= self.grid.u_max - 2.0 * self.grid.spacing
        out[inside] = cache.alpha_spline(u[inside])
        uo = u[~inside]
        if uo.size:
            m0, m1, m2 = cache.moments
            out[~inside] = m0 / uo**2 + 2 * m1 / uo**3 + 3 * m2 / uo**4
        return out if out.ndim else float(out)

    def dF(self, k, u):
        return self.distribution.radon_profile_derivative(self._chi(k), u)

    def plemelj_minus_dF(self, k, u):
        """P⁻[∂_uF](u) = α(u) - iπ ∂_uF(u)."""
        return self.alpha(k, u) - 1j * np.pi * np.asarray(self.dF(k, u))

    def epsilon(self, k, u):
        """ε(k, u) = 1 - φ̂(|k|) P⁻[∂_uF](u) (phase-velocity argument)."""
        kvec, nk = _as_vector(k)
        return 1.0 - self.potential.fourier(np.asarray(nk)) * self.plemelj_minus_dF(kvec, u)

    def epsilon_laplace(self, k, z, conjugate_mode=False):
        """ε(±k, -iz) = 1 - φ̂ C[∂_uF](±iz/|k|) on Bromwich contours.

        Uses the distribution's entire continuation when available (also
        valid for Re z ≤ 0); otherwise direct quadrature, valid off the
        real w-axis, i.e. for Re z ≠ 0.
        """
        kvec, nk = _as_vector(k)
        z = np.asarray(z, dtype=complex)
        w = 1j * z / nk
        if conjugate_mode:
            w = -w
        cache = self.direction_cache(kvec)
        if self.distribution.has_continuation:
            branch = "integral" if conjugate_mode else "upper"
            C = self.distribution.cauchy_dF(cache.chi, w, branch=branch)
        else:
            u = self.grid.points
            dF = cache.dF.values
            C = np.trapezoid(dF / (u[None, :] - np.ravel(w)[:, None]), u, axis=-1)
            C = C.reshape(w.shape) if w.ndim else complex(C[0])
        W = self.potential.fourier(np.asarray(nk))
        return 1.0 - W * C

    # -- spectral diagnostics -------------------------------------------------
    def dispersion_roots(self, k):
        """Far roots u₀± of α(χ,u) = |k|², with L± and the affine maps Ψ±."""
        kvec, nk = _as_vector(k)
        cache = self.direction_cache(kvec)
        target = nk**2

        u_plus = self._far_root(cache, target, nk, side=+1)
        u_minus = self._far_root(cache, target, nk, side=-1)
        roots = {}
        for name, u0 in (("plus", u_plus), ("minus", u_minus)):
            dF0 = float(self.distribution.radon_profile_derivative(cache.chi, u0))
            da0 = float(cache.dalpha_spline(u0))
            L = dF0 / da0
            roots[name] = dict(u0=u0, L=L, dF=dF0, dalpha=da0)
        return DispersionRoots(
            k=kvec,
            u0_plus=roots["plus"]["u0"],
            u0_minus=roots["minus"]["u0"],
            L_plus=roots["plus"]["L"],
            L_minus=roots["minus"]["L"],
            residual_plus=abs(float(cache.alpha_spline(roots["plus"]["u0"])) - target),
            residual_minus=abs(float(cache.alpha_spline(roots["minus"]["u0"])) - target),
        )

    def _far_root(self, cache, target, nk, side):
        """Rightmost (leftmost) crossing of α = |k|², scanned inward from 4/|k|.

        The bracket [1/(2√|k|), 4/|k|] can contain the near (rising-side)
        root as well; marching from the far end selects the Langmuir root.
        """
        lo = 1.0 / (2.0 * np.sqrt(nk))
        hi = 4.0 / nk

        def g(u):
            return self._alpha_in(cache, side * u) - target

        us = np.geomspace(lo, hi, 400)[::-1]
        vals = g(us)
        for i in range(1, len(us)):
            if vals[i] * vals[i - 1] < 0:
                return side * brentq(g, us[i], us[i - 1], xtol=1e-14)
            if vals[i] == 0.0:
                return side * us[i]
        raise RootNotFoundError(
            f"no sign change of α - |k|² in [{lo:.3g}, {hi:.3g}] "
            f"(α range [{min(vals):.3g}, {max(vals):.3g}], |k|² = {target:.3g})"
        )

    def epsilon_infimum(self, k_range=(0.5, 50.0), u_max=3.0, n_u=801):
        """Infimum of |ε(k, u)| over k = |k|ẑ, |k| ∈ k_range, |u| ≤ u_max.

        Along a fixed χ, ε = 1 − W·P(u) with W = φ̂(|k|) and P = P⁻[∂_uF](χ, u),
        which does not depend on |k|.  Over real W ∈ [W_lo, W_hi], |1 − W·P|
        is smallest at W* = clamp(Re P/|P|², W_lo, W_hi) (|ε| = 1 where
        P = 0), so the infimum is a minimum over u alone: the minimum on an
        n_u-point grid, polished by a bounded scalar search between the grid
        minimum's two neighbours.  [W_lo, W_hi] is the range of φ̂ on 400
        geometric points of k_range, exact at the endpoints for the monotone
        built-ins (Coulomb, Gaussian, zero).

        The u-scan runs along ẑ for every kind, anisotropic ones included.
        For seeded drifted Maxwellians, also scanning the 26 lattice
        directions and the drift direction moves the value by at most 5e-4
        relative, because a drift only shifts P in u.
        """
        W = self.potential.fourier(np.geomspace(k_range[0], k_range[1], 400))
        w_lo, w_hi = float(np.min(W)), float(np.max(W))

        def abs_eps(u):
            P = self.plemelj_minus_dF(_Z_HAT, u)
            p2 = np.abs(P) ** 2
            w = np.clip(np.divide(P.real, p2, out=np.zeros_like(p2), where=p2 > 0), w_lo, w_hi)
            return np.abs(1.0 - w * P)

        us = np.linspace(-u_max, u_max, n_u)
        vals = abs_eps(us)
        j = int(np.argmin(vals))
        best, u_best = float(vals[j]), float(us[j])
        res = minimize_scalar(lambda x: float(abs_eps(np.array([x]))[0]), method="bounded",
                              bounds=(us[max(j - 1, 0)], us[min(j + 1, n_u - 1)]),
                              options={"xatol": 1e-12})
        if res.fun < best:
            best, u_best = float(res.fun), float(res.x)
        if best < EPSILON_FLOOR:
            raise DegenerateDielectricError(f"|ε| infimum {best:.3e} below floor at u = {u_best}")
        self.lower_bound_estimate = best
        return best

    def alpha_asymptotics_check(self, k=(0.0, 0.0, 1.0), u_range=(8.0, 12.0), n=200):
        """max |u|³·|α(u) - 1/u²| over the range, on two refinements."""
        out = {}
        for level, nn in enumerate((n, 2 * n)):
            us = np.linspace(u_range[0], u_range[1], nn)
            a = self.alpha(np.asarray(k, float), us)
            out[f"constant_n{nn}"] = float(np.max(np.abs(us) ** 3 * np.abs(a - 1.0 / us**2)))
        vals = list(out.values())
        out["stable"] = bool(abs(vals[1] - vals[0]) <= 0.5 * max(vals[0], 1e-12) + 1e-9)
        return out

    def strong_stability_check(self, k_values=(0.25, 0.5, 1.0, 2.0), c_max=0.4, floor=1e-3):
        """Sample |ε(k, -i|k|z)| on Re z ≥ -c (Ass. onepart2 surrogate).

        Only kinds with an entire continuation of F are checkable.
        """
        if not self.distribution.has_continuation:
            return {"status": "not checkable", "reason": self.distribution.kind}
        cs = np.linspace(0.0, c_max, 9)
        ys = np.linspace(-30.0, 30.0, 601)
        best_c = 0.0
        c0 = None
        for c in cs:
            ok = True
            m = np.inf
            for kk in k_values:
                z = (-c + 1j * ys) * kk  # z = -i|k| zeta with Re zeta = -c
                vals = np.abs(self.epsilon_laplace(np.array([0, 0, kk]), z))
                m = min(m, float(np.min(vals)))
                if m < floor:
                    ok = False
                    break
            if ok:
                best_c = float(c)
                c0 = m
            else:
                break
        return {"status": "checked", "c": best_c, "c0": c0}


@dataclass(frozen=True)
class DispersionRoots:
    k: np.ndarray
    u0_plus: float
    u0_minus: float
    L_plus: float
    L_minus: float
    residual_plus: float
    residual_minus: float

    def psi_plus(self, y):
        return self.u0_plus + np.asarray(y) * self.L_plus


@dataclass
class StabilityReport:
    verdict: str  # STABLE | UNSTABLE | INCONCLUSIVE
    offenders: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"verdict": self.verdict, "offenders": self.offenders, "details": self.details},
            sort_keys=True,
        )


def _critical_points(distribution, chi, u_max, n):
    """Zeros of ∂_uF on [-u_max, u_max]: exact grid zeros and `brentq` roots of sign changes.

    Near-duplicates (within 1e-6) are merged and points where F is below
    1e-10·max|∂_uF| (flat-tail artifacts) dropped.
    """
    u = np.linspace(-u_max, u_max, n)
    dF = np.asarray(distribution.radon_profile_derivative(chi, u), dtype=float)
    scale = float(np.max(np.abs(dF))) or 1.0
    a, b = dF[:-1], dF[1:]
    exact = u[:-1][(a == 0.0) & (np.abs(u[:-1]) < u_max - 1e-9)]

    def fn(x):
        return float(distribution.radon_profile_derivative(chi, np.array([x]))[0])

    roots = [brentq(fn, u[i], u[i + 1], xtol=1e-12) for i in np.flatnonzero(a * b < 0)]
    crits = sorted(float(c) for c in (*exact, *roots))
    merged = []
    for c in crits:
        if not merged or c - merged[-1] > 1e-6:
            merged.append(c)
    F = np.asarray(distribution.radon_profile(chi, np.array(merged)), dtype=float)
    return [c for c, Fc in zip(merged, F) if Fc > 1e-10 * scale]


def _support_cap(distribution, u_max):
    """u_max clipped to 0.999 of a tabulated lattice's half-width (unchanged otherwise)."""
    support = getattr(distribution, "half_width", None)
    return u_max if support is None else min(u_max, 0.999 * support)


def penrose_functional(distribution, chi, u_c, u_max=40.0, n=4001):
    """α(u_c) = ∫ (F(u) - F(u_c)) / (u - u_c)² du at a critical point of F.

    Direct quadrature form of the Penrose integral; independent of the
    Fourier-multiplier PV path.  The trapezoid rule covers [-u_max, u_max]
    (clipped by `_support_cap`, at most 801 nodes for a tabulated lattice);
    beyond it F is taken as 0, so the tail adds the closed form
    -F(u_c)·(1/(u_max - u_c) + 1/(u_max + u_c)).  Against Re C[∂_uF](u_c)
    of Gaussian mixtures the error is 8e-10 at the default n = 4001 (2e-8
    at 801, 1e-11 at 40001); without the tail it is 2e-2 at any n.  It is
    larger where u_c lies 1e-7 to 1e-5 from a node, as F(u) - F(u_c)
    cancels there (2e-5 at 2e-7).  A u_c outside the window raises
    `InputError`.
    """
    u_max = _support_cap(distribution, u_max)
    if getattr(distribution, "half_width", None) is not None:
        n = min(n, 801)  # table resolution bounds the useful density
    if not abs(u_c) < u_max:
        raise InputError(f"critical point u_c = {u_c} outside the window |u| < {u_max}")
    u = np.linspace(-u_max, u_max, n)
    F = np.asarray(distribution.radon_profile(chi, u), dtype=float)
    Fc = float(distribution.radon_profile(chi, np.array([u_c]))[0])
    d = u - u_c
    q = np.empty_like(u)
    near = np.abs(d) < 1e-7
    q[~near] = (F[~near] - Fc) / d[~near] ** 2
    if np.any(near):
        h = 1e-4
        Fpp = (
            float(distribution.radon_profile(chi, np.array([u_c + h]))[0])
            - 2 * Fc
            + float(distribution.radon_profile(chi, np.array([u_c - h]))[0])
        ) / h**2
        q[near] = 0.5 * Fpp
    tail = -Fc * (1.0 / (u_max - u_c) + 1.0 / (u_max + u_c))
    return float(np.trapezoid(q, u)) + tail


def _offenders(distribution, potential, directions, u_max, n):
    """Critical points of F that admit a growing mode, and the count of all of them.

    A positive Penrose functional certifies an attainable dispersion zero for
    Coulomb (|k|² spans (0,∞)); for a soft potential the zero must
    additionally satisfy φ̂(k)·α = 1, i.e. α ≥ 1/sup φ̂.
    """
    u_max = _support_cap(distribution, u_max)
    sup_w = None if potential.is_coulomb else potential.fourier_sup()
    offenders = []
    n_critical = 0
    for chi in directions:
        crits = _critical_points(distribution, chi, u_max, n)
        n_critical += len(crits)
        for u_c in crits:
            a_c = penrose_functional(distribution, chi, u_c)
            if potential.is_coulomb:
                unstable = a_c > 1e-8
            else:
                unstable = sup_w > 0 and a_c * sup_w >= 1.0
            if unstable:
                offenders.append(
                    {"chi": [float(x) for x in chi], "u": float(u_c), "alpha": float(a_c)}
                )
    return offenders, n_critical


def penrose_check(distribution, potential, u_max=14.0, n=4097, directions=None) -> StabilityReport:
    """Penrose stability test.

    For each sampled direction, critical points of F are located and the
    Penrose functional evaluated there (see `_offenders`).  A tabulated
    distribution is also tested at half resolution; when the two verdicts
    differ the report is INCONCLUSIVE.  `details` holds the number of
    directions and of critical points found (on the full-resolution input).
    """
    if directions is None:
        directions = [_Z_HAT] if distribution.is_isotropic else sphere_lattice_directions()
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    offenders, n_critical = _offenders(distribution, potential, directions, u_max, n)
    details = {"directions": len(directions), "critical_points": n_critical}
    if distribution.kind == "tabulated":
        coarse, _ = _offenders(distribution.coarsened(), potential, directions, u_max, n)
        if bool(coarse) != bool(offenders):
            details["reason"] = "verdict not grid-stable"
            return StabilityReport("INCONCLUSIVE", [], details)
    verdict = "UNSTABLE" if offenders else "STABLE"
    return StabilityReport(verdict, offenders, details)
