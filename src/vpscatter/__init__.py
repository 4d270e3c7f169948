"""Scattering solutions and Landau-damping diagnostics for Vlasov-Poisson
equations on the periodic torus.

The package constructs solutions of Vlasov-Poisson type equations (classical,
screened, and massless-electron variants) that converge to a prescribed
free-transport profile at late times, and ships the spectral diagnostics that
certify the construction: Penrose stability scans, Volterra density solvers
with dual solution routes, resolvent kernel tables, Gevrey-weighted norms, and
a forward round-trip validator.

The top level holds the error types and the few entry points most scripts
start from; everything else lives in its submodule (``vpscatter.scattering``,
``vpscatter.dispersion``, ...).
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConfigError,
    DivergenceError,
    NearSingularResolventError,
    NoContractionError,
    NumericalError,
    QuadratureError,
    RealityError,
    StepSizeError,
    WeightOverflowError,
)
from .gevrey import GevreyWeight
from .kinetic import PhaseGrid, SpectralState, TimeGrid, gaussian_datum, integrate
from .model import make_preset, maxwellian, two_stream
