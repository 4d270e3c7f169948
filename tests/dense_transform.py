"""Dense-quadrature transform at arbitrary complex points, kept as a test oracle.

``transform_direct`` evaluates L[t mu_hat(sign k t)] with a dense Simpson
matrix of complex exponentials. The package never samples the Penrose arc or
searches for dispersion roots, so this route lives with the tests: it backs
the arc-bound checks and, through ``landau_root``, the damping-rate criterion.
"""

import numpy as np

from vpscatter.dispersion import _tail_cutoff
from vpscatter.errors import ConfigError, QuadratureError
from vpscatter.model import Equilibrium, ModelConfig


def transform_direct(eq: Equilibrium, k: int, sign: int, taus: np.ndarray,
                     tol: float = 5e-9) -> np.ndarray:
    """Dense-grid transform at arbitrary complex points, refinement-certified."""
    re_min = float(np.min(taus.real))
    t_end = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
                         -re_min, tol, 200.0 / max(abs(k), 1))
    t_end = max(t_end, 1.0)
    im_max = float(np.max(np.abs(taus.imag)))
    n = 128
    while n < 2 * t_end * (2.0 + im_max):
        n *= 2
    prev = None
    for _ in range(8):
        s = np.linspace(0.0, t_end, n + 1)
        f = s * np.asarray(eq.mu_hat(sign * k * s), dtype=complex)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        wf = w * f * (t_end / n) / 3.0
        out = np.empty(taus.shape, dtype=complex)
        for lo in range(0, taus.size, 256):
            chunk = taus[lo:lo + 256, None]
            out[lo:lo + 256] = np.exp(-chunk * s[None, :]) @ wf
        if prev is not None and float(np.max(np.abs(out - prev))) <= tol:
            return out
        prev = out
        n *= 2
    raise QuadratureError("direct transform failed to certify under halving")


def landau_root(model: ModelConfig, eq: Equilibrium, k: int,
                re_range: tuple[float, float] = (-1.6, -0.02),
                im_range: tuple[float, float] | None = None,
                grid: int = 40, tol: float = 1e-10) -> complex:
    """Left-half-plane zero of D(k, .) nearest the imaginary axis.

    Coarse modulus scan seeds a Newton iteration that uses the analytic
    derivative D'(tau) = -P L[t^2 mu_hat(k t)](tau). Only meaningful for
    profiles whose transform continues past the exponential margin, which the
    built-in Gaussian-mixture backgrounds do; convergence of the underlying
    quadrature is still certified per evaluation.
    """
    if k == 0:
        raise ConfigError("k must be nonzero")
    if im_range is None:
        im_range = (0.3, 1.2 + 2.2 * abs(k))
    res, ims = np.meshgrid(np.linspace(*re_range, grid),
                           np.linspace(*im_range, grid))
    taus = (res + 1j * ims).ravel()
    pref = float(model.poisson_prefactor(k))
    vals = 1.0 + pref * transform_direct(eq, k, +1, taus)
    tau = complex(taus[int(np.argmin(np.abs(vals)))])

    def d_and_deriv(z: complex) -> tuple[complex, complex]:
        arr = np.array([z])
        d = 1.0 + pref * transform_direct(eq, k, +1, arr, tol=1e-12)[0]
        moment2 = transform_direct(
            second_moment_view(eq, k), k, +1, arr, tol=1e-12)[0]
        return d, -pref * moment2

    for _ in range(60):
        d, dp = d_and_deriv(tau)
        if abs(d) < tol:
            return tau
        step = d / dp
        if not np.isfinite(step):
            break
        tau = tau - step
    raise QuadratureError(f"Newton did not locate a dispersion zero near {tau}")


def second_moment_view(eq: Equilibrium, k: int) -> Equilibrium:
    # reuse the certified transform of t * f by folding one extra t factor
    # into the profile evaluator
    return Equilibrium(eq.label, lambda eta: (np.asarray(eta) / k) * eq.mu_hat(eta),
                       eq.lambda_analytic, None)
