"""plasmakin: equilibrium correlations and kinetics of long-range systems.

Submodules map to the toolkit's functional areas:

- transforms: principal-value operators, grid/FFT and inverse-transform utilities
- distributions: one-particle velocity distributions and Radon profiles
- potentials: interaction weights phi-hat(|k|)
- dielectric: eps(k,u), Penrose stability, dispersion roots, Debye rescaling
- equilibrium: Oberman-Williams-Lenard chain, g_B, screening diagnostics
- propagator: linear Vlasov/Bogolyubov evolution, Debye cloud, fluxes
- kernel: Balescu-Lenard tensor, Landau limit, collision right-hand side
- cli: scenario front end (`plasmakin` console script)
"""

__version__ = "0.1.0"

from .dielectric import (  # noqa: F401
    DielectricModel,
    ScalingUnits,
    StabilityReport,
    debye_rescale,
    penrose_check,
)
from .distributions import (  # noqa: F401
    AnisotropicGaussian,
    BumpMixture,
    ExponentialFamily,
    Maxwellian,
    Tabulated,
)
from .potentials import CoulombPotential, SoftPotential, gaussian_soft, zero_potential  # noqa: F401
from .transforms import LineProfile, UGrid  # noqa: F401
