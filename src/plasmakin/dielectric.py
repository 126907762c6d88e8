"""Dielectric function ε(k,u), stability checks and Debye-unit scaling.

ε is parametrized by the phase velocity u:

    ε(k, u) = 1 - φ̂(|k|) · ( α(χ,u) - iπ ∂_uF(χ,u) ),   χ = k/|k|,

which is the boundary value 1 - φ̂ P⁻[∂_uF](u).  The companion
Laplace-side evaluator `epsilon_laplace` returns 1 - φ̂ C[∂_uF](iz/|k|)
(the denominator of the Fourier-Laplace Vlasov solution) and reduces to
conj(ε(k,u)) on the imaginary axis z = -i|k|u.

`DielectricModel` caches F, ∂_uF and α per exact direction χ (ẑ for
isotropic kinds): ẑ at construction, any other χ on first use.  A cache
holds α once, as its spline's cubic per u-cell, and `DirectionCache.alpha_at`
serves α and α′ to every reader, with the 1/u² tail beyond ±u_max.

`DielectricModel.dispersion_roots` solves several |k| along one direction
in one `DirectionCache.far_roots` call, with each row's single-call bits.
`penrose_check` scans every sampled direction, except for a kind drifted
off an isotropic rest frame (the drifted Maxwellian): F(χ, u) = F₀(u - d·χ),
so its critical points and Penrose functionals come from F₀ along ẑ.

The module needs numpy alone: the not-a-knot spline (`not_a_knot_cubic`),
one root finder, the batched Chandrupatla solver `_bracketed_roots` (far
roots of α = |k|² and Penrose critical points), and one minimiser, Brent's
bounded `_bounded_minimum`, are built here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDielectricError,
    DomainError,
    InputError,
    RootNotFoundError,
)
from .transforms import LineProfile, UGrid, grid_cauchy, pv_transform

EPSILON_FLOOR = 1e-8
MAX_CACHED_DIRECTIONS = 64  # one direction holds five 1024-node arrays, ~100 KB
_Z_HAT = np.array([0.0, 0.0, 1.0])
# the cubic B-spline prefilter pole z = √3 - 2 and the inverse of the (1, 4, 1)
# stencil on the infinite line, z^|m|/(2√3), cut where z^|m| < 2e-19
_POLE = math.sqrt(3.0) - 2.0
_POLE_TAPS = 32
_POLE_POWERS = _POLE ** np.arange(_POLE_TAPS + 1)
_STENCIL_INVERSE = np.concatenate([_POLE_POWERS[:0:-1], _POLE_POWERS]) / (2.0 * math.sqrt(3.0))
_ROOT_MAXITER = 100  # Chandrupatla steps of `_bracketed_roots`
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_FMINBOUND_MAXFUN = 500  # scipy's `minimize_scalar(method="bounded")` default


def _as_vector(k):
    """k as a 3-vector (a scalar lies along ẑ) and its norm; a zero or
    non-finite k, or one of any other shape, is refused."""
    k = np.asarray(k, dtype=float)
    if k.ndim and k.shape != (3,):
        raise InputError(f"k must be a scalar or a 3-vector, got shape {k.shape}")
    kvec = k if k.ndim else np.array([0.0, 0.0, float(k)])
    nk = np.linalg.norm(kvec)
    if not math.isfinite(nk):  # a NaN or infinite component, or |k| beyond the float range
        raise InputError(f"k must be finite, got {kvec.tolist()}")
    if nk == 0.0:
        raise InputError("k = 0: dielectric undefined")
    return kvec, nk


def _require_scan(u_max, n_name, n):
    """Refuse a scan over |u| ≤ u_max on n nodes that cannot be sampled."""
    if not (np.isfinite(u_max) and u_max > 0):
        raise InputError(f"u_max must be finite and positive, got {u_max}")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise InputError(f"{n_name} must be an integer >= 2, got {n!r}")


def sphere_lattice_directions():
    """26 face/edge/corner directions of the cubic lattice, normalized."""
    d = np.array([c for c in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(c)])
    return d / np.linalg.norm(d, axis=1, keepdims=True)


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


def default_grid(distribution) -> UGrid:
    """The u-grid of a model built without one: u_max = 26 and 2048 nodes for
    the γ = 1 exponential family, whose profile F is still 2.4e-5 at u = 12
    (4e-11 at 26), and the `UGrid` defaults otherwise."""
    wide = getattr(distribution, "kind", "") == "exponential-family" and getattr(
        distribution, "gamma", 2
    ) == 1
    return UGrid(26.0, 2048) if wide else UGrid()


def _complex(re, im):
    """re + i·im without a complex product (a scalar for 0-d parts)."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out[()]


def alpha_tail(moments, u):
    """The large-|u| expansion m0/u² + 2m1/u³ + 3m2/u⁴ of α from the raw moments of F."""
    m0, m1, m2 = moments
    return m0 / u**2 + 2 * m1 / u**3 + 3 * m2 / u**4


def not_a_knot_cubic(y):
    """The not-a-knot cubic spline of samples y on a uniform grid, one row per cell.

    Row j is the spline on [u_j, u_j+1] as a cubic in t = (u - u_j)/h,
    highest power first (`CubicSpline(u, y).c` times h powers).  In t the
    node slopes σ_j = h·s′(u_j) do not depend on h: with Δ_j = y_j+1 - y_j
    they solve σ_j-1 + 4σ_j + σ_j+1 = 3(Δ_j-1 + Δ_j) inside and the
    not-a-knot rows σ_0 + 2σ_1 = (5Δ_0 + Δ_1)/2, 2σ_n-2 + σ_n-1 =
    (Δ_n-3 + 5Δ_n-2)/2 at the ends.  The interior rows are solved by the
    B-spline prefilter with pole z = √3 - 2 (Unser, Aldroubi & Eden, IEEE
    Trans. Signal Process. 41 (1993) 821) as a 65-tap convolution; the two
    end rows by adding a·z^j + b·z^(n-1-j), the stencil's decaying
    solutions, with (a, b) from a 2 × 2 solve.  O(n), no matrix.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    d = np.diff(y)
    sigma = np.convolve(3.0 * (d[:-1] + d[1:]), _STENCIL_INVERSE)[_POLE_TAPS - 1:_POLE_TAPS - 1 + n]
    r0 = 0.5 * (5.0 * d[0] + d[1]) - (sigma[0] + 2.0 * sigma[1])
    r1 = 0.5 * (d[-2] + 5.0 * d[-1]) - (2.0 * sigma[-2] + sigma[-1])
    diag, off = 1.0 + 2.0 * _POLE, _POLE ** (n - 2) * (2.0 + _POLE)
    det = diag * diag - off * off
    m = min(n, _POLE_TAPS + 1)  # z^33 < 2e-19: the end terms vanish beyond
    sigma[:m] += (diag * r0 - off * r1) / det * _POLE_POWERS[:m]
    sigma[n - m:] += (diag * r1 - off * r0) / det * _POLE_POWERS[m - 1::-1]
    s0, s1 = sigma[:-1], sigma[1:]
    return np.stack([s0 + s1 - 2.0 * d, 3.0 * d - 2.0 * s0 - s1, s0, y[:-1]], axis=1)


def _bracketed_roots(f, a, b, fa, fb, start=None):
    """A root in [a, b] of each lane of a vectorised f with end values
    fa = f(a), fb = f(b), by Chandrupatla's method (Adv. Eng. Softw. 28
    (1997) 145): inverse quadratic interpolation through the last three
    points where it is monotone on the bracket, bisection otherwise.

    f(x, lanes) is f of the lanes `lanes` (indices into a) at points x.  The
    first trial point is `start`, clipped into the bracket, or its middle.
    Stop: a lane ends where f is 0, or once its sign-change bracket is at
    most 4ε·max(|x|, 1) wide, and returns x, the end where |f| is smaller,
    so x lies within 4ε·max(|x|, 1) of a sign change of the computed f.  A
    lane whose end values do not differ in sign (a 0 included) returns that
    end at once; every result lies in its bracket.
    """
    x = np.where(np.abs(fb) < np.abs(fa), b, a)
    lanes = np.flatnonzero(np.sign(fa) * np.sign(fb) < 0.0)
    x1, f1, x2, f2 = a[lanes], fa[lanes], b[lanes], fb[lanes]
    trial = 0.5 * (x1 + x2) if start is None else np.clip(
        start[lanes], np.minimum(x1, x2), np.maximum(x1, x2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            if not lanes.size:
                break
            ft = f(trial, lanes)
            # the trial point replaces the end of its own sign; x3 is the end dropped
            same = np.signbit(ft) == np.signbit(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = trial, ft
            x[lanes] = best = np.where(np.abs(f1) < np.abs(f2), x1, x2)
            width, tol = np.abs(x2 - x1), _ROOT_RTOL * np.maximum(np.abs(best), 1.0)
            live = (f1 != 0.0) & (width > tol)
            if not live.all():
                lanes, x1, f1, x2, f2, x3, f3, width, tol = (
                    v[live] for v in (lanes, x1, f1, x2, f2, x3, f3, width, tol))
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            step = 0.5 * tol / width  # each trial at least tol/2 inside the bracket
            trial = x1 + np.minimum(np.maximum(t, step), 1.0 - step) * (x2 - x1)
    return x


def _horner(coef, x):
    """p(x) of each row's polynomial (coef highest power first)."""
    p = np.broadcast_to(coef[:, 0], x.shape).copy()
    for c in coef.T[1:]:
        p = p * x + c
    return p


def _bounded_minimum(f, a, b, xatol):
    """(x, f(x)) at a minimum of f on [a, b] by Brent's fminbound (Brent 1973, ch. 5).

    A port of scipy's `minimize_scalar(method="bounded")` (its
    `_minimize_scalar_bounded`), which it matches bit for bit.
    """
    def sign(x):
        return -1.0 if x < 0 else 1.0

    sqrt_eps = math.sqrt(2.2e-16)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _FMINBOUND_MAXFUN:
            break
    return xf, fx


@dataclass
class DirectionCache:
    """F, ∂_uF and α = P[∂_uF] of one direction χ on the model's u-grid.

    Row j of `alpha_cubic` is α's not-a-knot spline on [u_j, u_j+1] as a
    cubic in t = (u - u_j)/h, highest power first (`not_a_knot_cubic`).
    `alpha_at` reads it inside ±u_max and the 1/u² tail from the raw
    moments of F beyond: on the default grid the spline is within 5e-9 of
    α up to u_max, the tail 5e-6 off there.
    """

    chi: np.ndarray
    grid: UGrid
    F: LineProfile
    dF: LineProfile
    alpha: np.ndarray
    alpha_cubic: np.ndarray  # (n - 1, 4)
    moments: tuple  # raw (M0, M1, M2) of F

    def alpha_at(self, u, derivative=False, cell=None):
        """α(u), or α′(u) with `derivative`; `cell` = (j, t) skips u's cell lookup.

        j is u's cell index, clipped to the end cells, and t the unclipped
        fraction (u - u_j)/h, so that u = u_max is the last cell's end knot.
        Formed as a difference from the node u_j, t keeps α(u_j + δ) - α(u_j)
        exact to rounding as δ → 0.  A NaN u gives NaN.
        """
        u = np.asarray(u, dtype=float)
        h, u_max = self.grid.spacing, self.grid.u_max
        if cell is None:
            j = np.fmin(np.fmax((u + u_max) / h, 0.0), self.grid.n - 1.000001)  # NaN → 0
            j = j.astype(np.intp)
            cell = (j, (u - (j * h - u_max)) / h)  # j·h - u_max: node j, as `grid.points` has it
        j, t = cell
        c = np.take(self.alpha_cubic, j, axis=0)
        if derivative:
            out = (3.0 * c[..., 0] * t + 2.0 * c[..., 1]) * t + c[..., 2]
            out /= h
        else:
            out = c[..., 0] * t  # Horner, in place
            for m in (1, 2):
                out += c[..., m]
                out *= t
            out += c[..., 3]
        outside = np.abs(u) > u_max
        if outside.any():
            uo = np.where(outside, u, 1.0)
            m0, m1, m2 = self.moments
            tail = (-2 * m0 / uo**3 - 6 * m1 / uo**4 - 12 * m2 / uo**5 if derivative
                    else alpha_tail(self.moments, uo))
            out = np.where(outside, tail, out)
        return out if np.ndim(out) else float(out)

    def far_roots(self, kappas):
        """The far roots (u₀+, u₀−) of α(u) = κ² for each κ, as a (len(κ), 2)
        array, NaN where a side's window holds no crossing.

        Each side's window is 1/(2√κ) ≤ |u| ≤ 4/κ; it can hold the near
        (rising-side) root as well, and the far root is the outermost
        crossing, the Langmuir root.  One (κ × node) sign table of α - κ²
        over the window's ends, the nodes inside it and the tail's start
        just past u_max finds each κ's outermost sign change, or exact zero,
        which is the root.  Inside ±u_max α is its spline's cubic on the
        bracketing cell; beyond it the tail m0/u² + 2m1/u³ + 3m2/u⁴ = κ² is
        the quartic κ² - m0s²/U² - 2m1s³/U³ - 3m2s⁴/U⁴ = 0 in s = U/u, with
        U = ±4/κ the window's far end, where s = 1.  So one
        `_bracketed_roots` call on these polynomials' Horner values solves
        every κ and side, a tail root from its leading order s = 4/√m0.  (In
        u the solver bisected towards 4/κ: 10 steps for a tail root on the
        unit Maxwellian; in s, 6 or 7.)  Each κ's lanes are solved apart, so
        its roots have the same bits whatever κ share the call.  Where the
        crossing is the step from the spline at u_max to the tail just past
        it, the root is ±u_max.  Two crossings in one cell, both nodes on one
        side of κ², are not seen: κ² then lies within the cubic's bump, some
        h²|α″|/8 from α's peak value, where the root is double.
        """
        kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
        n, h, u_max = self.grid.n, self.grid.spacing, self.grid.u_max
        pos, own, own_tail = self._far_table
        m = kappas.size
        side = np.repeat([1.0, -1.0], m)  # rows: every κ on the u > 0 side, then on u < 0
        target = np.tile(kappas**2, 2)
        lo, hi = np.tile(1.0 / (2.0 * np.sqrt(kappas)), 2), np.tile(4.0 / kappas, 2)
        ends = self.alpha_at(np.concatenate([side * lo, side * hi])) - np.tile(target, 2)
        pos, own = np.repeat(pos, m, axis=0), np.repeat(own, m, axis=0) - target[:, None]
        below, above = pos <= lo[:, None], pos >= hi[:, None]
        g = np.where(below, ends[: 2 * m, None], np.where(above, ends[2 * m :, None], own))
        tail = np.where(below, (lo > u_max)[:, None], np.where(above, (hi > u_max)[:, None],
                                                                 own_tail))
        loc = np.clip(pos, lo[:, None], hi[:, None])
        stop = g == 0.0
        stop[:, :-1] |= g[:, :-1] * g[:, 1:] < 0.0
        out = np.full(2 * m, np.nan)
        found = np.flatnonzero(stop.any(axis=1))
        c = pos.shape[1] - 1 - np.argmax(stop[found, ::-1], axis=1)
        zero = g[found, c] == 0.0
        out[found[zero]] = side[found[zero]] * loc[found[zero], c[zero]]
        i, c = found[~zero], c[~zero]
        inner, outer, s_i = loc[i, c], loc[i, c + 1], side[i]
        kind = tail[i, c].astype(int) + tail[i, c + 1]  # 0 cell, 1 step at u_max, 2 tail
        out[i[kind == 1]] = s_i[kind == 1] * u_max
        cell, far = kind == 0, kind == 2
        j = np.clip(((s_i * 0.5 * (inner + outer) + u_max) / h).astype(np.intp), 0, n - 2)[cell]
        u_j = j * h - u_max  # node j, as `alpha_at` has it
        coef = np.zeros((j.size + far.sum(), 5))
        coef[: j.size, 1:] = self.alpha_cubic[j]
        coef[: j.size, 4] -= target[i[cell]]
        U = s_i[far] * hi[i[far]]
        m0, m1, m2 = self.moments
        coef[j.size :, :3] = np.stack([-3 * m2 / U**4, -2 * m1 / U**3, -m0 / U**2], axis=1)
        coef[j.size :, 4] = target[i[far]]
        bracket = np.concatenate([(s_i[cell] * np.stack([inner[cell], outer[cell]]) - u_j) / h,
                                  hi[i[far]] / np.stack([inner[far], outer[far]])], axis=1)
        start = 0.5 * (bracket[0] + bracket[1])
        start[j.size :] = 4.0 / math.sqrt(m0) if m0 > 0 else 1.0
        x = _bracketed_roots(lambda x, lanes: _horner(coef[lanes], x), *bracket,
                             *_horner(coef, bracket), start)
        out[i[cell]] = u_j + h * x[: j.size]
        out[i[far]] = U / x[j.size :]
        return out.reshape(2, m).T

    @functools.cached_property
    def _far_table(self):
        """`far_roots`' columns per side (rows u > 0, u < 0), outward: the
        window's start, the nodes, the tail's start just past u_max and the
        window's end.  Returns their |u| (the window's ends as ∓∞), α there
        (0 at the window's ends) and which column is the tail's."""
        n, u_max = self.grid.n, self.grid.u_max
        nodes = np.stack([np.arange(n // 2, n), np.arange((n - 1) // 2, -1, -1)])
        side = np.array([[1.0], [-1.0]])
        edge = np.zeros((2, 1))
        pos = np.concatenate([edge - np.inf, side * self.grid.points[nodes], edge + u_max,
                              edge + np.inf], axis=1)
        own = np.concatenate([edge, self.alpha[nodes], alpha_tail(self.moments, side * u_max),
                              edge], axis=1)
        return pos, own, np.arange(pos.shape[1]) == nodes.shape[1] + 1


class DielectricModel:
    """Cached evaluator of ε and its ingredients for one (f, φ) pair."""

    def __init__(self, distribution, potential, grid: UGrid | None = None):
        self.distribution = distribution
        self.potential = potential
        self.grid = default_grid(distribution) if grid is None else grid
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
        return DirectionCache(
            chi=np.array(chi, dtype=float),
            grid=self.grid,
            F=F,
            dF=dF,
            alpha=alpha,
            alpha_cubic=not_a_knot_cubic(alpha),
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
        return self.direction_cache(k).alpha_at(u)

    def dF(self, k, u):
        return self.distribution.radon_profile_derivative(self._chi(k), u)

    def plemelj_minus_dF(self, k, u):
        """P⁻[∂_uF](u) = α(u) - iπ ∂_uF(u)."""
        return self.alpha(k, u) - 1j * np.pi * np.asarray(self.dF(k, u))

    def epsilon(self, k, u):
        """ε(k, u) = 1 - φ̂(|k|) P⁻[∂_uF](u) (phase-velocity argument)."""
        kvec, nk = _as_vector(k)
        return self.epsilon_at(self.potential.fourier(np.asarray(nk)), u, kvec)

    def epsilon_at(self, W, u=None, k=_Z_HAT, cell=None):
        """The one real-axis ε = 1 - W·P⁻[∂_uF](χ(k), u) for φ̂ values W (broadcast with u).

        u None: on the grid nodes.  Formed part by part, (1 - W·α) + i(W·π∂_uF + 0.0)
        has the bits of the complex expression, whose zero imaginary parts are +0
        (the + 0.0 lifts the exponential family's ∂_uF = -0 at u = 0).
        """
        cache = self.direction_cache(k)
        if u is None:
            alpha, dF = cache.alpha, cache.dF.values
        else:
            alpha = cache.alpha_at(u, cell=cell)
            dF = np.asarray(self.distribution.radon_profile_derivative(cache.chi, u))
        return _complex(1.0 - W * alpha, W * (np.pi * dF) + 0.0)

    def epsilon_laplace(self, k, z):
        """ε(k, -iz) = 1 - φ̂(|k|) C[∂_uF](iz/|k|) on Bromwich contours.

        Uses the entire continuation `cauchy_dF` where the kind has one (valid
        for every z); otherwise `grid_cauchy` on the model's grid, valid off
        the real w-axis (Re z ≠ 0).  ∂_uF is real, so ε(-k, -iz) = conj ε(k, -iz̄).
        """
        kvec, nk = _as_vector(k)
        w = 1j * np.asarray(z, dtype=complex) / nk
        cache = self.direction_cache(kvec)
        if self.distribution.has_continuation:
            C = self.distribution.cauchy_dF(cache.chi, w)
        else:
            C = grid_cauchy(self.grid, cache.dF.values, w)
        return 1.0 - self.potential.fourier(np.asarray(nk)) * C

    # -- spectral diagnostics -------------------------------------------------
    def dispersion_roots(self, k):
        """Far roots u₀± of α(χ,u) = |k|², with L± = ∂_uF/α′ there.

        k is a scalar (along ẑ), a 3-vector, or a stack of 3-vector rows
        that share one direction: the χ of the first row, which every row's
        k/|k| matches to 1e-12 (any rows for an isotropic kind, whose χ is
        ẑ).  One `DirectionCache.far_roots` call solves every row, and a
        row whose χ has the first row's bits gets the bits of its own single
        call.  A single k returns its `DispersionRoots`, or raises
        `RootNotFoundError` when a side's window holds no crossing; a stack
        returns a list of one `DispersionRoots` per row, None for such a row.
        """
        stacked = np.ndim(k) == 2
        rows = [_as_vector(row) for row in np.asarray(k, dtype=float)] if stacked else [_as_vector(k)]
        if not rows:
            raise InputError("k must hold at least one row")
        cache = self.direction_cache(rows[0][0])
        if any(np.max(np.abs(self._chi(kvec) - cache.chi)) > 1e-12 for kvec, _ in rows):
            raise InputError("the rows of k must share one direction (k/|k| to 1e-12)")
        nk = np.array([n for _, n in rows])
        u0 = cache.far_roots(nk)
        found = ~np.isnan(u0).any(axis=1)
        if not (stacked or found[0]):
            side = "u > 0" if np.isnan(u0[0, 0]) else "u < 0"
            raise RootNotFoundError(f"no sign change of α - |k|² in {1.0 / (2.0 * np.sqrt(nk[0])):.3g}"
                                    f" ≤ |u| ≤ {4.0 / nk[0]:.3g} for {side} (|k|² = {nk[0]**2:.3g})")
        idx = np.flatnonzero(found)
        u0 = u0[idx]
        dF0 = np.asarray(self.distribution.radon_profile_derivative(cache.chi, u0), dtype=float)
        da0 = cache.alpha_at(u0, derivative=True)
        residual = np.abs(cache.alpha_at(u0) - nk[idx, None] ** 2)
        L = dF0 / da0
        out = [None] * len(rows)
        for m, r in enumerate(idx):
            out[r] = DispersionRoots(
                k=rows[r][0], u0_plus=float(u0[m, 0]), u0_minus=float(u0[m, 1]),
                L_plus=float(L[m, 0]), L_minus=float(L[m, 1]),
                residual_plus=float(residual[m, 0]), residual_minus=float(residual[m, 1]),
                dF_plus=float(dF0[m, 0]), dF_minus=float(dF0[m, 1]),
                dalpha_plus=float(da0[m, 0]), dalpha_minus=float(da0[m, 1]),
            )
        return out if stacked else out[0]

    def epsilon_infimum(self, k_range=(0.5, 50.0), u_max=3.0, n_u=801):
        """Infimum of |ε(k, u)| over k = |k|ẑ, |k| ∈ k_range, |u| ≤ u_max.

        Along a fixed χ, ε = 1 − W·P(u) with W = φ̂(|k|) and P = P⁻[∂_uF](χ, u),
        which does not depend on |k|.  Over real W ∈ [W_lo, W_hi], |1 − W·P|
        is smallest at W* = clamp(Re P/|P|², W_lo, W_hi) (|ε| = 1 where
        P = 0), so the infimum is a minimum over u alone: the minimum on an
        n_u-point grid, polished by `_bounded_minimum` between the grid
        minimum's two neighbours.  [W_lo, W_hi] is the range of φ̂ on 400
        geometric points of k_range, exact at the endpoints for the monotone
        built-ins (Coulomb, Gaussian, zero).

        The u-scan runs along ẑ for every kind, anisotropic ones included.
        For seeded drifted Maxwellians, also scanning the 26 lattice
        directions and the drift direction moves the value by at most 5e-4
        relative, because a drift only shifts P in u.  k_range holds two
        finite positive ends, u_max is finite and positive and n_u an
        integer ≥ 2.
        """
        _require_scan(u_max, "n_u", n_u)
        ends = np.asarray(k_range, dtype=float)
        if not (ends.shape == (2,) and np.all(np.isfinite(ends) & (ends > 0))):
            raise InputError(f"k_range must be two finite positive ends, got {ends.tolist()}")
        W = self.potential.fourier(np.geomspace(ends[0], ends[1], 400))
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
        x, fx = _bounded_minimum(lambda x: float(abs_eps(np.array([x]))[0]),
                                 us[max(j - 1, 0)], us[min(j + 1, n_u - 1)], xatol=1e-12)
        if fx < best:
            best, u_best = float(fx), float(x)
        if best < EPSILON_FLOOR:
            raise DegenerateDielectricError(f"|ε| infimum {best:.3e} below floor at u = {u_best}")
        self.lower_bound_estimate = best
        return best

    def alpha_asymptotics_check(self, k=(0.0, 0.0, 1.0), u_range=(8.0, 12.0), n=200):
        """max |u|³·|α(u) - 1/u²| over the range, on n and 2n points:
        u_range is finite with 0 < lo < hi and n an integer ≥ 2."""
        ends = np.asarray(u_range, dtype=float)
        if not (ends.shape == (2,) and np.isfinite(ends[1]) and 0 < ends[0] < ends[1]):
            raise InputError(f"u_range must be finite with 0 < lo < hi, got {ends.tolist()}")
        _require_scan(ends[1], "n", n)
        out = {}
        for nn in (n, 2 * n):
            us = np.linspace(ends[0], ends[1], nn)
            a = self.alpha(np.asarray(k, float), us)
            out[f"constant_n{nn}"] = float(np.max(np.abs(us) ** 3 * np.abs(a - 1.0 / us**2)))
        c1, c2 = out.values()
        out["stable"] = bool(abs(c2 - c1) <= 0.5 * max(c1, 1e-12) + 1e-9)
        return out

    def strong_stability_check(self, k_values=(0.25, 0.5, 1.0, 2.0), c_max=0.4, floor=1e-3):
        """Sample |ε(k, -i|k|ζ)| on Re ζ ≥ -c (Ass. onepart2 surrogate).

        Only kinds with an entire continuation of F are checkable.  k lies
        along ẑ, so every |k| shares χ = ẑ, and on the line Re ζ = -c the
        point z = (-c + iy)|k| maps to w = iz/|k| = -y - ic whatever |k| is.
        So C[∂_uF](w) is evaluated once per c, and ε = 1 - φ̂(|k|)·C for
        each |k| reuses it.  `c` is the last line passed and `c0` the
        minimum of |ε| over every line passed, the whole certified strip.
        k_values is not empty and c_max is finite and positive.
        """
        if not len(k_values):
            raise InputError("k_values must not be empty")
        if not (np.isfinite(c_max) and c_max > 0):
            raise InputError(f"c_max must be finite and positive, got {c_max}")
        if not self.distribution.has_continuation:
            return {"status": "not checkable", "reason": self.distribution.kind}
        cs = np.linspace(0.0, c_max, 9)
        ys = np.linspace(-30.0, 30.0, 601)
        chi = self.direction_cache(_Z_HAT).chi
        W = [self.potential.fourier(np.asarray(float(kk))) for kk in k_values]
        best_c = 0.0
        c0 = None
        for c in cs:
            C = self.distribution.cauchy_dF(chi, 1j * (-c + 1j * ys))
            m = min(float(np.min(np.abs(1.0 - Wk * C))) for Wk in W)
            if m < floor:
                break
            best_c = float(c)
            c0 = m if c0 is None else min(c0, m)
        return {"status": "checked", "c": best_c, "c0": c0}


@dataclass(frozen=True)
class DispersionRoots:
    """The far roots u₀± of α = |k|², with L± = ∂_uF/α′ and ∂_uF and α′ there."""

    k: np.ndarray
    u0_plus: float
    u0_minus: float
    L_plus: float
    L_minus: float
    residual_plus: float
    residual_minus: float
    dF_plus: float
    dF_minus: float
    dalpha_plus: float
    dalpha_minus: float


@dataclass
class StabilityReport:
    verdict: str  # STABLE | UNSTABLE | INCONCLUSIVE
    offenders: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _critical_points(distribution, directions, u_max, n):
    """Zeros of ∂_uF on [-u_max, u_max], one list per direction: exact zeros
    of the n-node scan, and the sign changes of every direction polished in
    one `_bracketed_roots` call (∂_uF evaluated once per direction per step).
    Near-duplicates (within 1e-6) are merged and points where F is below
    1e-10·max|∂_uF| (flat-tail artifacts) dropped.
    """
    u = np.linspace(-u_max, u_max, n)
    scans, ends = [], []  # per direction (exact zeros, max|∂_uF|) and its brackets
    for r, chi in enumerate(directions):
        dF = np.asarray(distribution.radon_profile_derivative(chi, u), dtype=float)
        i = np.flatnonzero(dF[:-1] * dF[1:] < 0.0)
        ends.append(np.stack([np.full(i.size, r), u[i], u[i + 1], dF[i], dF[i + 1]]))
        scans.append((u[:-1][(dF[:-1] == 0.0) & (np.abs(u[:-1]) < u_max - 1e-9)],
                      float(np.max(np.abs(dF))) or 1.0))
    row, a, b, fa, fb = np.concatenate(ends, axis=1)

    def dF_at(x, lanes):
        out, rows = np.empty_like(x), row[lanes]
        for r in np.unique(rows):
            out[rows == r] = distribution.radon_profile_derivative(directions[int(r)], x[rows == r])
        return out

    roots = _bracketed_roots(dF_at, a, b, fa, fb)
    crits = []
    for r, (chi, (exact, scale)) in enumerate(zip(directions, scans)):
        merged = []
        for c in np.sort(np.concatenate([exact, roots[row == r]])):
            if not merged or c - merged[-1] > 1e-6:
                merged.append(float(c))
        F = np.asarray(distribution.radon_profile(chi, np.array(merged)), dtype=float)
        crits.append([c for c, Fc in zip(merged, F) if Fc > 1e-10 * scale])
    return crits


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
    at 801, 1e-11 at 40001); without the tail it is 2e-2 at any n.  Nodes
    within 1e-4 of u_c, where F(u) - F(u_c) cancels, take the Taylor value
    F''/2 + F'''·d/6 at d = u - u_c, with F'' and F''' from central
    differences of F at steps of 1e-4.  A u_c outside the window raises
    `InputError`, as do a u_max that is not finite and positive and an n
    that is not an integer ≥ 2.
    """
    _require_scan(u_max, "n", n)
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
    h = 1e-4
    near = np.abs(d) < h
    q[~near] = (F[~near] - Fc) / d[~near] ** 2
    if np.any(near):
        Fm2, Fm1, Fp1, Fp2 = np.asarray(
            distribution.radon_profile(chi, u_c + h * np.array([-2.0, -1.0, 1.0, 2.0])), dtype=float)
        Fpp = (Fp1 - 2 * Fc + Fm1) / h**2
        Fppp = (Fp2 - 2 * Fp1 + 2 * Fm1 - Fm2) / (2 * h**3)
        q[near] = 0.5 * Fpp + Fppp * d[near] / 6
    tail = -Fc * (1.0 / (u_max - u_c) + 1.0 / (u_max + u_c))
    return float(np.trapezoid(q, u)) + tail


def _admits_growth(a_c, sup_w):
    """Whether a critical point with Penrose functional a_c admits a growing mode.

    A positive functional certifies an attainable dispersion zero for
    Coulomb (sup_w None: |k|² spans (0,∞)); for a soft potential the zero
    must additionally satisfy φ̂(k)·α = 1, i.e. α ≥ 1/sup φ̂.
    """
    return a_c > 1e-8 if sup_w is None else sup_w > 0 and a_c * sup_w >= 1.0


def _offender(chi, u_c, a_c):
    return {"chi": [float(x) for x in chi], "u": float(u_c), "alpha": float(a_c)}


def _offenders(distribution, potential, directions, u_max, n):
    """Critical points of F that admit a growing mode (`_admits_growth`), and
    the count of all of them, from a scan of every direction."""
    u_max = _support_cap(distribution, u_max)
    sup_w = None if potential.is_coulomb else potential.fourier_sup()
    offenders, n_critical = [], 0
    for chi, crits in zip(directions, _critical_points(distribution, directions, u_max, n)):
        n_critical += len(crits)
        for u_c in crits:
            a_c = penrose_functional(distribution, chi, u_c)
            if _admits_growth(a_c, sup_w):
                offenders.append(_offender(chi, u_c, a_c))
    return offenders, n_critical


def _rest_frame_offenders(rest, drift, potential, directions, u_max, n):
    """`_offenders` of f(v) = f₀(v - d), f₀ = `rest` isotropic, from F₀ along ẑ.

    F(χ, u) = F₀(u - d·χ), so a critical point c of F₀ is c + d·χ on every
    direction χ, and the Penrose functional there, an integral over the
    whole line, equals F₀'s at c.  So ∂_uF₀ is scanned and the functional
    evaluated once, and each point is mapped to every direction.  A mapped
    point counts where the scan of F(χ, ·) finds it, inside the window
    |u| < u_max (`_support_cap`).
    """
    u_max = _support_cap(rest, u_max)
    sup_w = None if potential.is_coulomb else potential.fourier_sup()
    found = [(c, penrose_functional(rest, _Z_HAT, c))
             for c in _critical_points(rest, [_Z_HAT], u_max, n)[0]]
    offenders, n_critical = [], 0
    for chi in directions:
        shift = float(chi @ drift)
        for c, a_c in found:
            if abs(c + shift) < u_max:
                n_critical += 1
                if _admits_growth(a_c, sup_w):
                    offenders.append(_offender(chi, c + shift, a_c))
    return offenders, n_critical


def penrose_check(distribution, potential, u_max=14.0, n=4097, directions=None) -> StabilityReport:
    """Penrose stability test.

    For each sampled direction, critical points of F are located and the
    Penrose functional evaluated there (see `_offenders`).  A kind drifted
    off an isotropic rest frame (`rest_frame`, the drifted Maxwellian) is
    checked there: one scan and one functional along ẑ of the rest-frame
    profile, mapped to every direction (`_rest_frame_offenders`).  A
    tabulated distribution is also tested at half resolution; when the two
    verdicts differ the report is INCONCLUSIVE.  `details` holds the number
    of directions and of critical points found (on the full-resolution
    input).  `directions` are finite unit 3-vectors (to 1e-12), one per
    row; u_max is finite and positive and n an integer ≥ 2.
    """
    _require_scan(u_max, "n", n)
    if directions is None:
        directions = [_Z_HAT] if distribution.is_isotropic else sphere_lattice_directions()
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.ndim != 2 or directions.shape[1] != 3:
        raise InputError(f"directions must be rows of 3-vectors, got shape {directions.shape}")
    bad = ~(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12)  # also NaN
    if bad.any():
        raise InputError(f"directions must be finite unit 3-vectors, got "
                         f"{directions[bad][0].tolist()}")
    rest = distribution.rest_frame()
    if rest is None:
        offenders, n_critical = _offenders(distribution, potential, directions, u_max, n)
    else:
        offenders, n_critical = _rest_frame_offenders(*rest, potential, directions, u_max, n)
    details = {"directions": len(directions), "critical_points": n_critical}
    if distribution.kind == "tabulated":
        coarse, _ = _offenders(distribution.coarsened(), potential, directions, u_max, n)
        if bool(coarse) != bool(offenders):
            details["reason"] = "verdict not grid-stable"
            return StabilityReport("INCONCLUSIVE", [], details)
    return StabilityReport("UNSTABLE" if offenders else "STABLE", offenders, details)
