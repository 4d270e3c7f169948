"""Exception types shared across the solver modules."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or violated hypothesis range."""


class QuadratureError(RuntimeError):
    """A quadrature failed to certify its tolerance (non-convergent tail or
    refinement cap reached)."""


class NearSingularResolventError(RuntimeError):
    """The dispersion denominator 1 + prefactor * L came within the safety
    floor of zero on the evaluation contour; the stability margin is violated."""


class StepSizeError(RuntimeError):
    """A discretized system lost its diagonal dominance; the time step is too
    coarse for the kernel."""


class BlowUpError(RuntimeError):
    """The transport integrator produced non-finite or explosively large
    values. Reduce the step size or the datum amplitude."""


class NoContractionError(RuntimeError):
    """A Picard iteration left its admissible ball or exhausted max_iters
    without meeting tolerance."""


class RealityError(RuntimeError):
    """A density solve turned a real-symmetric source into a result that is
    not real-symmetric: the mode tables disagree between k and -k."""


class DivergenceError(RuntimeError):
    """The outer fixed-point iteration recorded three consecutive contraction
    ratios at or above one."""


class WeightOverflowError(OverflowError):
    """A Gevrey-weighted quantity exceeded floating-point range. Use a smaller
    lambda_inf or a coarser sigma."""
