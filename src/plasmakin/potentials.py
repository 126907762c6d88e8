"""Interaction potentials through their radial Fourier weight φ̂(|k|).

The toolkit works on the Fourier side throughout; the Coulomb weight is
exactly 1/|k|² (Debye-length units), which corresponds to the real-space
potential 1/(4π|x|) under the symmetric transform convention.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


class Potential:
    kind = "abstract"

    def fourier(self, k):
        """φ̂ as a function of |k| (radial)."""
        raise NotImplementedError

    @property
    def is_coulomb(self) -> bool:
        return self.kind == "coulomb"

    def fourier_sup(self, k_max=50.0, n=20001) -> float:
        k = np.linspace(1e-6, k_max, n)
        return float(np.max(self.fourier(k)))


class CoulombPotential(Potential):
    """φ̂(k) = 1/|k|²."""

    kind = "coulomb"

    def fourier(self, k):
        k = np.asarray(k, dtype=float)
        if np.any(k == 0.0):
            raise InputError("Coulomb weight undefined at k = 0")
        return 1.0 / k**2


class SoftPotential(Potential):
    """Radially symmetric Schwartz-class potential given by φ̂(|k|).

    The constructor spot-checks rapid decay of the supplied weight.
    """

    kind = "soft"

    def __init__(self, name, fourier_fn, params=None, check_decay=True):
        self.name = name
        self.params = dict(params or {})
        self._fn = fourier_fn
        if check_decay:
            k = np.array([5.0, 10.0, 20.0, 40.0])
            vals = np.abs(np.asarray(self._fn(k), dtype=float))
            scale = max(abs(float(self._fn(np.array([0.5]))[0])), 1e-300)
            if vals[-1] > 1e-6 * scale or np.any(np.diff(vals) > 0):
                raise InputError(f"soft potential {name!r}: φ̂ does not decay rapidly")

    def fourier(self, k):
        k = np.asarray(k, dtype=float)
        return np.asarray(self._fn(k), dtype=float)


def gaussian_soft(amplitude=1.0, width=1.0) -> SoftPotential:
    """φ̂(k) = amplitude · exp(-(k·width)²/2)."""
    for name, value in (("amplitude", amplitude), ("width", width)):
        if not (np.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and positive, got {value}")

    def fn(k):
        return amplitude * np.exp(-0.5 * (np.asarray(k) * width) ** 2)

    return SoftPotential("gaussian", fn, {"amplitude": amplitude, "width": width})


def zero_potential() -> SoftPotential:
    """Degenerate φ̂ ≡ 0 (free dynamics); useful for trivial limits."""

    def fn(k):
        return np.zeros_like(np.asarray(k, dtype=float))

    return SoftPotential("zero", fn, {}, check_decay=False)
