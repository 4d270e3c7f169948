"""Exception types shared across the solver modules.

Every type here is a :class:`ConfigError` (the CLI exits 4) or a
:class:`NumericalError` (the CLI exits 3).
"""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or violated hypothesis range."""


class NumericalError(RuntimeError):
    """A computation on a valid configuration failed numerically."""


class QuadratureError(NumericalError):
    """A quadrature failed to certify its tolerance (non-convergent tail or
    refinement cap reached)."""


class NearSingularResolventError(NumericalError):
    """The dispersion denominator 1 + prefactor * L came within the safety
    floor of zero on the evaluation contour; the stability margin is violated."""


class StepSizeError(NumericalError):
    """A discretized system lost its diagonal dominance; the time step is too
    coarse for the kernel."""


class BlowUpError(NumericalError):
    """A state or density is non-finite or explosively large: the transport
    integrator produced such values, or a weighted norm was asked to measure
    them. Reduce the step size or the datum amplitude."""


class NoContractionError(NumericalError):
    """A Picard iteration left its admissible ball or exhausted max_iters
    without meeting tolerance."""


class RealityError(NumericalError):
    """A density solve turned a real-symmetric source into a result that is
    not real-symmetric: the mode tables disagree between k and -k."""


class DivergenceError(NumericalError):
    """The outer fixed-point iteration recorded three consecutive contraction
    ratios at or above one."""


class WeightOverflowError(NumericalError, OverflowError):
    """A Gevrey-weighted quantity exceeded floating-point range. Use a smaller
    lambda_inf or a coarser sigma."""
