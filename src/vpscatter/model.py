"""Model configuration and equilibrium profiles.

A model fixes the Poisson coupling ``(beta - Laplacian) U + h(U) = density``
through the screening constant ``beta >= 0`` and the nonlinearity ``h`` given
as a power series ``h(y) = sum_{n>=2} a_n y^n``. An equilibrium fixes the
spatially homogeneous background through the Fourier transform of its velocity
profile, ``mu_hat``, together with a certified exponential decay rate used by
quadrature tail bounds.

Fourier convention: arrays and evaluators hold exponential-basis coefficients,
``rho(x) = sum_k c_k exp(ikx)`` and ``mu_hat(eta) = integral mu(v) exp(-i eta v) dv``,
so a unit-mass profile has ``mu_hat(0) = 1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError

__all__ = [
    "ModelConfig",
    "Equilibrium",
    "make_preset",
    "maxwellian",
    "two_stream",
    "bump_on_tail",
]


@dataclass(frozen=True)
class ModelConfig:
    """Coupling constants of the field equation.

    ``h_coeffs[n]`` is the coefficient ``a_n``; the series starts at n = 2
    (``a_0 = a_1 = 0``) and is taken to converge everywhere, as the vpme
    series e^y - 1 - y does.

    The last three fields set how a series-carrying balance is solved:
    Picard iteration stops at a step of ``picard_tol`` and gives up after
    ``picard_max_iters``, and slices of weighted amplitude above ``eps_ball``
    are refused.  ``eps_ball = None`` resolves to 0.05.
    """

    beta: float
    h_coeffs: tuple[float, ...] = ()
    label: str = "custom"
    picard_tol: float = 1e-12
    picard_max_iters: int = 50
    eps_ball: Optional[float] = None

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if not self.picard_tol > 0.0 or self.picard_max_iters < 1:
            raise ConfigError("the field solve needs picard_tol > 0 and "
                              "picard_max_iters >= 1")
        if self.eps_ball is None:
            object.__setattr__(self, "eps_ball", 0.05)
        elif not self.eps_ball > 0.0:
            raise ConfigError(f"eps_ball must be positive, got {self.eps_ball}")
        if len(self.h_coeffs) >= 1 and any(c != 0.0 for c in self.h_coeffs[:2]):
            raise ConfigError("h series must start at quadratic order (a_0 = a_1 = 0)")
        if self.beta == 0.0 and self.has_h:
            raise ConfigError("beta = 0 with a nonlinear h is not a supported preset")

    @property
    def has_h(self) -> bool:
        return any(c != 0.0 for c in self.h_coeffs)

    def poisson_prefactor(self, k) -> np.ndarray:
        """|k|^2 / (beta + |k|^2), the Volterra kernel prefactor."""
        k2 = np.square(np.asarray(k, dtype=float))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(k2 > 0, k2 / (self.beta + k2), 0.0)
        return out


# cap on the vpme degree: every n! up to it is a double, so every 1/n! is a
# normal one; in the small-data regime its terms sit far below roundoff
_MAX_N_H = 169


def make_preset(name: str, n_h: int = 12, **solve) -> ModelConfig:
    """Built-in couplings: ``vp`` (beta 0, h = 0), ``screened`` (beta 1, h = 0),
    ``vpme`` (beta 1, h(y) = e^y - 1 - y truncated at degree ``n_h``, at
    most 169).

    Keyword arguments set the field-solve fields of :class:`ModelConfig`:
    ``picard_tol``, ``picard_max_iters`` and ``eps_ball``.
    """
    key = name.strip().lower()
    if key == "vp":
        return ModelConfig(beta=0.0, label="vp", **solve)
    if key == "screened":
        return ModelConfig(beta=1.0, label="screened", **solve)
    if key == "vpme":
        if n_h < 2:
            raise ConfigError("vpme needs at least the quadratic term (n_h >= 2)")
        if n_h > _MAX_N_H:
            raise ConfigError(f"vpme needs n_h <= {_MAX_N_H}, got {n_h}: "
                              "a higher degree's factorial leaves the double range")
        coeffs = tuple(0.0 if n < 2 else 1.0 / math.factorial(n) for n in range(n_h + 1))
        return ModelConfig(beta=1.0, h_coeffs=coeffs, label="vpme", **solve)
    raise ConfigError(f"unknown model preset {name!r} (choose vp, screened, vpme)")


@functools.lru_cache(maxsize=64, typed=True)
def _exp_quadratic_poly(a: complex, b: complex, order: int) -> np.ndarray:
    """Read-only coefficients of H_order, built once per (a, b, order) by the
    polynomial recurrence H_{n+1} = H_n' + (2 a eta + b) H_n."""
    coeffs = np.array([1.0 + 0.0j])
    lin = np.array([b, 2.0 * a])
    for _ in range(order):
        coeffs = npoly.polyadd(npoly.polyder(coeffs), npoly.polymul(lin, coeffs))
    coeffs.flags.writeable = False
    return coeffs


def _exp_quadratic_derivs(a: complex, b: complex, eta: np.ndarray, order: int) -> np.ndarray:
    """Derivatives of exp(a eta^2 + b eta) of the given order, evaluated at eta.

    d^n f = H_n f with the polynomial H_n of :func:`_exp_quadratic_poly`,
    which stays exact for the Gaussian-type profiles here.
    """
    eta = np.asarray(eta, dtype=float)
    return (npoly.polyval(eta, _exp_quadratic_poly(a, b, order))
            * np.exp(a * eta**2 + b * eta))


@dataclass(frozen=True)
class Equilibrium:
    """Homogeneous background described by its velocity-Fourier profile.

    ``lambda_analytic`` is a rate for which ``|mu_hat(eta)| <= C exp(-lambda_analytic |eta|)``
    is certified; solvers must keep every Gevrey radius they use strictly below
    half of it. ``mu_hat_deriv(eta, order)`` returns the exact order-th eta
    derivative; :meth:`deriv` refuses orders above 0 without it.

    The velocity profile is real, so ``mu_hat(-eta) = conj mu_hat(eta)``;
    the stability scan mirrors each mode -k from +k on that identity, and
    the arc bound serves both signs with one moment.  Equality and hashing
    compare the profile callables by identity: two calls of one factory give
    unequal equilibria.
    """

    label: str
    mu_hat: Callable[[np.ndarray], np.ndarray]
    lambda_analytic: float
    mu_hat_deriv: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

    def deriv(self, eta, order: int):
        eta = np.asarray(eta, dtype=float)
        if order == 0:
            return np.asarray(self.mu_hat(eta), dtype=complex)
        if self.mu_hat_deriv is None:
            raise ConfigError(f"the analytic derivatives of mu_hat are not "
                              f"given for the equilibrium {self.label}")
        return np.asarray(self.mu_hat_deriv(eta, order), dtype=complex)


def maxwellian() -> Equilibrium:
    """Unit Maxwellian, mu_hat(eta) = exp(-eta^2 / 2)."""

    def mh(eta):
        return np.exp(-np.square(np.asarray(eta, dtype=float)) / 2.0)

    def mh_deriv(eta, order):
        return _exp_quadratic_derivs(-0.5, 0.0, eta, order)

    return Equilibrium("maxwellian", mh, lambda_analytic=1.0, mu_hat_deriv=mh_deriv)


def two_stream(v0: float, width: float = 0.5) -> Equilibrium:
    """Symmetric counter-streaming pair of Gaussians at +-v0 with the given width.

    mu_hat(eta) = exp(-(width eta)^2 / 2) cos(v0 eta).
    """
    if v0 <= 0 or width <= 0:
        raise ConfigError("two_stream needs v0 > 0 and width > 0")
    w2 = width * width

    def mh(eta):
        eta = np.asarray(eta, dtype=float)
        return np.exp(-w2 * eta**2 / 2.0) * np.cos(v0 * eta)

    def mh_deriv(eta, order):
        plus = _exp_quadratic_derivs(-w2 / 2.0, 1j * v0, eta, order)
        minus = _exp_quadratic_derivs(-w2 / 2.0, -1j * v0, eta, order)
        return 0.5 * (plus + minus)

    return Equilibrium(f"two_stream(v0={v0:g},w={width:g})", mh,
                       lambda_analytic=1.0, mu_hat_deriv=mh_deriv)


def bump_on_tail(alpha: float = 0.1, v0: float = 4.0, width: float = 0.5) -> Equilibrium:
    """Maxwellian bulk with a drifting Gaussian bump of mass alpha at v0."""
    if not 0 < alpha < 1:
        raise ConfigError("bump_on_tail needs 0 < alpha < 1")
    if width <= 0:
        raise ConfigError("bump_on_tail needs width > 0")
    w2 = width * width

    def mh(eta):
        eta = np.asarray(eta, dtype=float)
        return ((1 - alpha) * np.exp(-eta**2 / 2.0)
                + alpha * np.exp(-w2 * eta**2 / 2.0 - 1j * v0 * eta))

    def mh_deriv(eta, order):
        bulk = (1 - alpha) * _exp_quadratic_derivs(-0.5, 0.0, eta, order)
        bump = alpha * _exp_quadratic_derivs(-w2 / 2.0, -1j * v0, eta, order)
        return bulk + bump

    return Equilibrium(f"bump_on_tail(a={alpha:g},v0={v0:g},w={width:g})", mh,
                       lambda_analytic=1.0, mu_hat_deriv=mh_deriv)
