"""Laplace transforms, the electrostatic dispersion function, stability
scanning, and the resolvent kernel of the density Volterra equation.

The dispersion function here is
    D(k, tau) = 1 + k^2/(beta + k^2) * L[t mu_hat(k t)](tau),
with L the one-sided Laplace transform. Stability of the background is
decided on the boundary of the right half-plane: sampled minima of |D| on
the imaginary axis, a closed-form bound on |D - 1| over the closing
semicircle (which is bounded, not sampled), and a Nyquist winding count along
the axis closed by a chord that the bound certifies. Modes beyond the scanned
band are covered by an analytic tail bound, making the infinite scan a finite
computation.

The resolvent kernel of the density equation is
    Ktilde(k, tau) = -P L[t mu_hat(-k t)](tau) / (1 + P L[t mu_hat(-k t)](tau)),
inverted to the time side on a vertical contour. The exactly invertible
leading term -P L is subtracted first and restored in closed form, leaving a
remainder with quartic decay in Im tau, so a truncated contour carries a
certified and reported truncation bound.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NearSingularResolventError, QuadratureError
from .fitting import linear_fit
from .model import Equilibrium, ModelConfig

__all__ = [
    "PenroseReport",
    "ResolventTable",
    "dispersion_on_axis",
    "penrose_scan",
    "inverse_laplace_Khat",
    "absolute_first_moment",
    "arc_moment",
]

_MARGIN_FRACTION = 0.25  # safe analyticity fraction, strictly below 1/2
_MAX_DOUBLINGS = 22  # Simpson panel halvings before a transform gives up
_NODE_CHUNK = 1 << 16  # Simpson nodes per integrand call, bounding memory
# Quadrature tolerance of the arc moment, added to it as slack: the bound only
# has to stay below 1, and split at its kinks the integral takes milliseconds
_ARC_MOMENT_TOL = 1e-6
_ROOT_STEPS = 60  # cap on the Illinois steps that refine one batch of kinks
_CONTOUR_BLOCK = 32  # omega nodes per block of the factored contour sum
_GRID_TOL = 5e-9  # tail cutoff and halving certificate of a contour transform
_FIRST_MOMENT_TOL = 1e-10  # quadrature tolerance of the mode tail moment
_KAPPA_FLOOR = 1e-6  # |1 + P L| floor below which a contour is refused
_FALLBACK_RE = 0.01  # contour right of the axis, tried when the default fails


@dataclass(frozen=True)
class PenroseReport:
    """Outcome of a boundary stability scan.

    ``kappa0`` estimates the infimum of |D| over the right half-plane
    boundary across all nonzero modes: the sampled axis minima, 1 - B_k on
    each mode's closing arc and 1 - ``tail_bound``. ``argmin`` is the mode
    and point of the smallest term, with tau = omega_max (the scan radius)
    standing for a whole arc. ``tail_bound`` bounds |D - 1| for the unscanned
    modes; ``windings`` counts right-half-plane zeros per scanned mode;
    ``axis_minima`` holds each scanned mode's sampled (argmin omega, minimum
    |D|) on the imaginary axis, and ``arc_bounds`` its B_k, the bound on
    |D - 1| over the arc |tau| = omega_max, Re tau >= 0.
    """

    kappa0: float
    argmin: tuple[int, complex]
    windings: dict[int, int]
    axis_minima: dict[int, tuple[float, float]]
    arc_bounds: dict[int, float]
    stable: bool
    tail_bound: float


@dataclass(frozen=True)
class ResolventTable:
    """Time-side resolvent kernel of one spatial mode with its decay fit.

    ``values[j]`` approximates the kernel at ``times[j]``; the fitted model is
    |kernel| = fit_C exp(-fit_lambda1 |k| t) over the window where the
    magnitude exceeds both 1e-12 and ten times the truncation bound.
    ``winding`` is the winding number of 1 + P L along the sampled contour
    Re tau = ``contour_re``, closed through its ends (both near 1).  It is 0
    when no zero of 1 + P L lies right of the contour; otherwise the
    Bromwich integral misses that zero and ``values`` is not the causal
    kernel.
    """

    k: int
    times: np.ndarray
    values: np.ndarray
    fit_C: float
    fit_lambda1: float
    fit_r2: float
    truncation_bound: float
    contour_re: float
    quadrature_certificate: float
    winding: int


def _tail_cutoff(phi: Callable, growth: float, tol: float, t_cap: float):
    """Smallest T with |phi(t)| e^{growth t} <= tol for all sampled t >= T.

    Returns T with the sample grid, so a caller can look for more on it.
    Worked in log magnitudes so steep growth factors cannot overflow."""
    t = np.linspace(0.0, t_cap, 4001)
    mag = np.abs(np.asarray(phi(t), dtype=complex))
    with np.errstate(divide="ignore"):
        logs = np.where(mag > 0, np.log(mag, where=mag > 0,
                                        out=np.full(mag.shape, -np.inf)), -np.inf)
    logs = logs + growth * t
    suffix = np.maximum.accumulate(logs[::-1])[::-1]
    ok = suffix <= math.log(tol)
    if not ok[-1] or not np.any(ok):
        raise QuadratureError(
            "integrand tail does not fall below tolerance; declared decay "
            "rate appears violated")
    return float(t[int(np.argmax(ok))]), t


def _node_sums(phi: Callable, lo: np.ndarray, h: np.ndarray, first: float,
               counts: np.ndarray) -> np.ndarray:
    """Per piece i, the sum of phi(t) over its nodes
    t = lo_i + (first + 2 j) h_i, 0 <= j < counts_i.

    Node abscissae are the integer index times h, as ``np.linspace`` forms
    them. The pieces' nodes are taken in order as one sequence, and the
    integrand is called on at most ``_NODE_CHUNK`` of them at a time."""
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    sums = np.zeros(counts.size, dtype=complex)
    for start in range(0, total, _NODE_CHUNK):
        index = np.arange(start, min(start + _NODE_CHUNK, total))
        piece = np.searchsorted(offsets, index, side="right") - 1
        t = lo[piece] + (first + 2.0 * (index - offsets[piece])) * h[piece]
        f = np.asarray(phi(t), dtype=complex)
        for i in range(piece[0], piece[-1] + 1):
            sums[i] += np.sum(f[max(offsets[i] - start, 0):offsets[i + 1] - start])
    return sums


def _nested_simpson(phi: Callable, tol: float, breaks: np.ndarray) -> complex:
    """Composite Simpson of phi(t) over the pieces between consecutive
    ``breaks``, refined until two successive values agree to tol/2.

    The whole range starts with n panel pairs, n >= 64 growing with its
    length; each piece starts with its share of them, at least
    one. Every halving halves all pieces together and evaluates the integrand
    only at the new midpoints, keeping running sums of the nodes already seen,
    so every node is evaluated once. ``_MAX_DOUBLINGS`` halvings at most.
    """
    lo, width = breaks[:-1], np.diff(breaks)
    total = float(breaks[-1] - breaks[0])
    n = 64
    while n < total:
        n *= 2
    m = np.maximum(1, np.ceil(n * width / total)).astype(np.int64)
    # Simpson on 2m intervals of width h: weight 1 at the ends, 2 at the
    # interior even nodes, 4 at the odd ones; halving h turns every node into
    # an even one and adds the midpoints as the new odd nodes
    h = width / (2 * m)
    at_breaks = np.asarray(phi(breaks), dtype=complex)
    ends = at_breaks[:-1] + at_breaks[1:]
    even = _node_sums(phi, lo, h, 2.0, m - 1)
    previous = None
    for _ in range(_MAX_DOUBLINGS):
        odd = _node_sums(phi, lo, h, 1.0, m)
        # in Python scalars: numpy would multiply by 1/3 instead of dividing
        # by 3, and one piece must round as (ends + 2 even + 4 odd) h / 3
        value = sum(complex(s) * float(step) / 3.0
                    for s, step in zip(ends + 2.0 * even + 4.0 * odd, h))
        if previous is not None and abs(value - previous) <= tol / 2.0:
            return value
        previous = value
        even += odd
        m *= 2
        h = width / (2 * m)
    raise QuadratureError("Simpson refinement did not certify the requested "
                          "tolerance; integrand may be too rough")


def _sign_changes(signed: Callable, t: np.ndarray, t_end: float) -> np.ndarray:
    """Sorted zeros of a real ``signed`` strictly inside (0, t_end).

    Sign changes between samples t_j <= t_end (and one sample past it) are
    refined by vectorised Illinois steps; a zero that lands on a sample is
    kept as it is. An integrand whose imaginary part exceeds 1e-12 of its
    largest modulus has none: its modulus stays smooth where the real part
    changes sign.
    """
    t = t[:int(np.searchsorted(t, t_end, side="right")) + 1]
    g = np.asarray(signed(t))
    if np.iscomplexobj(g):
        if np.max(np.abs(g.imag)) > 1e-12 * np.max(np.abs(g)):
            return np.empty(0)
        g = g.real
    s = np.sign(g)
    j = np.flatnonzero(s[:-1] * s[1:] < 0)
    # Illinois: regula falsi that halves the stale end's value, so both ends
    # of every bracket [a, b] close in on its zero
    a, b, fa, fb = t[j], t[j + 1], g[j], g[j + 1]
    for _ in range(_ROOT_STEPS):
        if np.all((np.abs(b - a) <= 1e-13 * t_end) | (fb == 0)):
            break
        c = (a * fb - b * fa) / (fb - fa)
        fc = np.real(signed(c))
        flip = fc * fb < 0
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = c, fc
    zeros = np.unique(np.concatenate((t[s == 0], b)))
    return zeros[(zeros > 0) & (zeros < t_end)]


def _absolute_integral(signed: Callable, magnitude: Callable, tol: float,
                       decay: float) -> float:
    """integral over u >= 0 of magnitude(u) = |signed(u)|, to tol.

    The modulus has a kink wherever a real ``signed`` changes sign, and
    Simpson converges only at O(h^2) across one; the range [0, T] left by
    the tail certificate is split at those zeros, so every piece is smooth.
    A sign-definite or complex ``signed`` leaves one piece.
    """
    if decay <= 0:
        raise ConfigError("declared decay rate must be positive")
    t_end, t = _tail_cutoff(magnitude, 0.0, tol * decay / 2.0, 120.0 / decay)
    t_end = max(t_end, 1.0 / decay)
    breaks = np.concatenate(([0.0], _sign_changes(signed, t, t_end), [t_end]))
    return _nested_simpson(magnitude, tol, breaks).real


def _corner_coeffs(eq: Equilibrium, k: int, sign: int, a: float) -> np.ndarray:
    """Cubic-matched template coefficients for the s = 0 corner.

    The half-line integrand f(s) = s mu_hat(sign k s) e^{-a s} is extended by
    zero for s < 0, so its spectrum decays only quadratically and trapezoid
    aliasing converges slowly. Matching c(s) = s (c0 + c1 s + c2 s^2 + c3 s^3)
    e^{-s} to the series of f at 0 leaves an O(s^5) residual whose spectrum
    decays fast enough for the FFT grid.
    """
    derivs = [complex(np.asarray(eq.deriv(0.0, j)).item()) for j in range(4)]
    g = np.zeros(4, dtype=complex)
    for m in range(4):
        g[m] = sum(derivs[i] * (sign * k) ** i / math.factorial(i)
                   * (-a) ** (m - i) / math.factorial(m - i)
                   for i in range(m + 1))
    c = np.zeros(4, dtype=complex)
    for m in range(4):
        c[m] = g[m] - sum(c[i] * (-1.0) ** (m - i) / math.factorial(m - i)
                          for i in range(m))
    return c


def _corner_values(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    poly = c[0] + s * (c[1] + s * (c[2] + s * c[3]))
    return s * poly * np.exp(-s)


def _corner_transform(c: np.ndarray, omega: np.ndarray) -> np.ndarray:
    base = 1.0 / (1.0 + 1j * omega)
    out = np.zeros(omega.shape, dtype=complex)
    for m in range(4):
        out += c[m] * math.factorial(m + 1) * base ** (m + 2)
    return out


def _grid_transform(eq: Equilibrium, k: int, sign: int, a: float,
                    omega_max: float, span_min: float):
    """L[t mu_hat(sign k t)](a + i omega) on a uniform omega grid via FFT.

    Returns (omega, values, certificate): omega ascending with spacing
    2 pi / span, |omega| <= omega_max; the certificate is the change under
    one time-step halving.

    Every halving keeps the period, so the omega grid and its corner
    transform stay fixed; the even nodes of the halved grid are the previous
    nodes bit for bit (span / 2n = (span / n) / 2 exactly), so the integrand
    is evaluated only at the new odd nodes.
    """
    growth = -a  # integrand carries e^{-a s}
    t_need, _ = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
                             growth, _GRID_TOL, 200.0 / max(abs(k), 1))
    span = max(span_min, t_need + 1.0, 80.0)
    h = math.pi / (1.25 * omega_max)
    n = 1 << max(10, math.ceil(math.log2(span / h)))
    span = n * h  # realized period; omega spacing 2 pi / span
    corner = _corner_coeffs(eq, k, sign, a)

    def integrand(s):
        return (s * np.asarray(eq.mu_hat(sign * k * s), dtype=complex)
                * np.exp(-a * s) - _corner_values(corner, s))

    step = span / n
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=step)
    # the kept frequencies are 0..m and their negatives, omega == -omega[::-1]
    m = int(np.count_nonzero(omega[:n // 2] <= omega_max + 1e-12)) - 1
    omega_out = np.concatenate((omega[n - m:], omega[:m + 1]))
    corner_out = _corner_transform(corner, omega_out)
    f = integrand(np.arange(n) * step)
    prev = None
    for _ in range(6):
        spectrum = np.fft.fft(f)
        values = (np.concatenate((spectrum[n - m:], spectrum[:m + 1])) * step
                  + corner_out)
        if prev is not None:
            cert = float(np.max(np.abs(values - prev)))
            if cert <= _GRID_TOL:
                return omega_out, values, cert
        prev = values
        n *= 2
        step = span / n
        halved = np.empty(n, dtype=complex)
        halved[::2] = f
        halved[1::2] = integrand(np.arange(1, n, 2) * step)
        f = halved
    raise QuadratureError("contour transform failed to certify under halving")


def _mirror(values: np.ndarray) -> np.ndarray:
    """Samples at -omega of a real profile's -k transform from the +k ones.

    A real velocity profile has mu_hat(-u) = conj mu_hat(u), so
    L[t mu_hat(-k t)](i omega) = conj L[t mu_hat(k t)](-i omega); on a grid
    with omega == -omega[::-1] that is the conjugate reversed."""
    return np.conj(values[::-1])


def dispersion_on_axis(model: ModelConfig, eq: Equilibrium, k: int,
                       omega_max: float, n_min: int = 1024):
    """D(k, i omega) on a uniform grid covering [-omega_max, omega_max].

    Only |k| is transformed: D(-k, i omega) = conj D(k, -i omega) for a real
    profile (see :class:`Equilibrium`), so k < 0 returns the mirror of the
    |k| values on the same symmetric grid."""
    if k == 0:
        raise ConfigError("k must be nonzero")
    span_min = math.pi * n_min / omega_max
    omega, transform, cert = _grid_transform(eq, abs(k), +1, 0.0, omega_max,
                                             span_min)
    pref = float(model.poisson_prefactor(k))
    values = 1.0 + pref * transform
    return omega, (values if k > 0 else _mirror(values)), cert


def _winding_number(values: np.ndarray) -> float:
    """Turns of the closed path through ``values`` around 0.

    Each step's angle is taken from the product of the point with its
    predecessor's conjugate, which is what ``np.unwrap`` recovers for steps
    below pi in one pass instead of several."""
    closed = np.concatenate([values, values[:1]])
    steps = np.angle(closed[1:] * closed[:-1].conj())
    return float(np.sum(steps)) / (2.0 * math.pi)


@functools.lru_cache(maxsize=16)
def absolute_first_moment(eq: Equilibrium) -> float:
    """integral of u |mu_hat(u)| over u >= 0, for the mode tail bound.

    Split at the sign changes of a real mu_hat (see
    :func:`_absolute_integral`), so a kinked integrand costs thousands of
    nodes, not millions.  Computed once per equilibrium object: equilibria
    compare by their profile callables' identity (see :class:`Equilibrium`),
    so a value never carries over to an equilibrium built by another call."""
    return _absolute_integral(lambda u: u * np.asarray(eq.mu_hat(u)),
                              lambda u: u * np.abs(np.asarray(eq.mu_hat(u))),
                              _FIRST_MOMENT_TOL, decay=0.9 * eq.lambda_analytic)


def arc_moment(eq: Equilibrium) -> float:
    """Upper bound on M = integral over u >= 0 of |2 mu_hat'(u) + u mu_hat''(u)|.

    Integrating L[t mu_hat(k t)](tau) by parts twice gives, for Re tau >= 0,
    |L| <= (|mu_hat(0)| + M) / |tau|^2 with M independent of k. The
    real-profile identity of :class:`Equilibrium` makes the same M serve the
    modes k < 0. The integral is split at the sign changes of a real
    integrand (see :func:`_absolute_integral`) and certified to
    ``_ARC_MOMENT_TOL``, which the bound adds as slack.  It needs the exact
    derivatives of mu_hat; :meth:`Equilibrium.deriv` refuses a profile
    without them.
    """

    def signed(u):
        return 2.0 * eq.deriv(u, 1) + u * eq.deriv(u, 2)

    val = _absolute_integral(signed, lambda u: np.abs(signed(u)),
                             _ARC_MOMENT_TOL, decay=0.9 * eq.lambda_analytic)
    return val + _ARC_MOMENT_TOL


def penrose_scan(model: ModelConfig, eq: Equilibrium, k_scan_max: int,
                 omega_max: float = 40.0, n_samples: int = 4001) -> PenroseReport:
    """Boundary stability scan over all modes 0 < |k| <= k_scan_max.

    The boundary is the imaginary segment |omega| <= omega_max closed by the
    right semicircle of radius omega_max. Per mode, D is sampled on the
    segment; on the arc it is bounded instead, |D - 1| <= B_k =
    |P(k)| (|mu_hat(0)| + M) / omega_max^2 (see :func:`arc_moment`). Every
    B_k must be below 1, otherwise :class:`ConfigError` names the smallest
    omega_max that certifies the arc. Then the arc's image stays in the disk
    |D - 1| <= B_k, which excludes 0: 1 - B_k bounds |D| there from below,
    and closing the axis path (traversed downward) with a chord gives the
    Nyquist winding number of the whole boundary. Nonzero winding counts
    right-half-plane zeros; stability additionally needs the unscanned-mode
    tail bound to stay below the running minimum.

    Each |k| is transformed once: the mode -k is the mirror of +k (see
    :func:`dispersion_on_axis`), so its minimum |D| equals that of +k at the
    reflected omega, and so does its winding number.
    """
    if k_scan_max < 1:
        raise ConfigError("k_scan_max must be >= 1")
    modes = [k for k in range(-k_scan_max, k_scan_max + 1) if k != 0]
    scale = abs(complex(eq.deriv(0.0, 0))) + arc_moment(eq)
    arc_bounds = {k: float(model.poisson_prefactor(k)) * scale / omega_max**2
                  for k in modes}
    worst = max(arc_bounds.values())
    if worst >= 1.0:
        # B_k falls as 1 / omega_max^2: the smallest radius on a 0.01 grid
        # that brings every B_k below 1
        need = math.floor(100.0 * omega_max * math.sqrt(worst) + 1.0) / 100.0
        raise ConfigError(
            f"the closing arc of radius omega_max = {omega_max:g} is not "
            f"certified: the |D - 1| bound there is {worst:.3g} >= 1; the "
            f"smallest omega_max that certifies it is {need:.2f}")

    windings: dict[int, int] = {}
    axis_minima: dict[int, tuple[float, float]] = {}
    kappa0 = math.inf
    argmin: tuple[int, complex] = (0, 0j)
    scans = {}
    for k in range(1, k_scan_max + 1):
        omega, axis_vals, _ = dispersion_on_axis(model, eq, k, omega_max,
                                                 n_min=n_samples)
        scans[k] = omega, axis_vals
        scans[-k] = omega, _mirror(axis_vals)
    for k in modes:
        omega, axis_vals = scans[k]
        i = int(np.argmin(np.abs(axis_vals)))
        axis_minima[k] = (float(omega[i]), float(np.abs(axis_vals[i])))
        if abs(axis_vals[i]) < kappa0:
            kappa0 = float(abs(axis_vals[i]))
            argmin = (k, complex(1j * omega[i]))
        if 1.0 - arc_bounds[k] < kappa0:
            kappa0 = 1.0 - arc_bounds[k]
            argmin = (k, complex(omega_max))

        # axis from +i omega_max down to -i omega_max; the closing chord and
        # the arc both map into the disk |D - 1| <= B_k < 1
        raw = _winding_number(axis_vals[::-1])
        if abs(raw - round(raw)) > 1e-3:
            raise QuadratureError(
                f"winding number {raw:.6f} for k = {k} is not integral; "
                "increase sampling density")
        windings[k] = int(round(raw))

    tail = absolute_first_moment(eq) / (model.beta + (k_scan_max + 1) ** 2)
    kappa0 = min(kappa0, max(0.0, 1.0 - tail))
    stable = kappa0 > 0 and all(wd == 0 for wd in windings.values())
    if all(wd == 0 for wd in windings.values()) and tail >= kappa0:
        raise ConfigError(
            "scan inconclusive: unscanned-mode tail bound exceeds the "
            "scanned minimum; widen k_scan_max")
    return PenroseReport(kappa0=kappa0, argmin=argmin, windings=windings,
                         axis_minima=axis_minima, arc_bounds=arc_bounds,
                         stable=stable, tail_bound=tail)


def _contour_sum(times: np.ndarray, omega: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """sum_m exp(i t omega_m) v_m at every t, for a uniform ascending omega.

    With omega_m = omega0 + m d_omega and m = q a + b, q = ``_CONTOUR_BLOCK``,
    each phase factors as exp(i t (omega0 + q a d_omega)) exp(i t b d_omega),
    so the sum needs len(times) (q + len(v) / q) exponentials instead of
    len(times) len(v). Only omega has to be uniform; ``times`` may be any
    grid. d_omega is taken over the whole grid: the difference of two
    neighbours carries the rounding of |omega0|, which m d_omega multiplies.
    """
    omega0 = float(omega[0])
    d_omega = (float(omega[-1]) - omega0) / (omega.size - 1)
    q = _CONTOUR_BLOCK
    blocks = -(-v.size // q)
    padded = np.zeros(blocks * q, dtype=complex)
    padded[:v.size] = v
    inner = np.exp(1j * np.outer(times, d_omega * np.arange(q))) \
        @ padded.reshape(blocks, q).T
    outer = np.exp(1j * np.outer(times, omega0 + q * d_omega * np.arange(blocks)))
    return np.sum(outer * inner, axis=1)


def inverse_laplace_Khat(model: ModelConfig, eq: Equilibrium, k: int,
                         time_grid: np.ndarray,
                         omega_max: float = 200.0) -> ResolventTable:
    """Time-side resolvent kernel by vertical-contour inversion.

    The exactly invertible part -P L[t mu_hat(-kt)] is split off and restored
    in closed form as -P t mu_hat(-k t); the remaining contour integrand
    (P L)^2 / (1 + P L) decays quartically in Im tau, so truncating at
    omega_max leaves the reported bound C4 / (3 pi omega_max^3). The contour
    Re tau = -margin/2 shifts, with a warning, to ``_FALLBACK_RE`` where |1 +
    P L| falls below ``_KAPPA_FLOOR``; failing there too raises.  The table
    carries the winding of 1 + P L along the contour it used.
    """
    if k == 0:
        raise ConfigError("k must be nonzero")
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 4 or times[0] < 0:
        raise ConfigError("time_grid must be a 1-d grid of nonnegative times")
    pref = float(model.poisson_prefactor(k))
    margin = _MARGIN_FRACTION * eq.lambda_analytic * abs(k)
    span_min = times[-1] + 60.0

    for a in (-margin / 2.0, _FALLBACK_RE):
        omega, transform, cert = _grid_transform(eq, k, -1, a, omega_max, span_min)
        pl = pref * transform
        denom = 1.0 + pl
        small = float(np.min(np.abs(denom)))
        if small >= _KAPPA_FLOOR:
            break
        if a == _FALLBACK_RE:
            raise NearSingularResolventError(
                f"|1 + P L| reaches {small:.3e} on the contour Re tau = {a:g}")
        warnings.warn("resolvent nearly singular on the default contour; "
                      "shifting right of the axis")

    winding = int(round(_winding_number(denom)))
    remainder = pl * pl / denom
    c4 = float(np.max(np.abs(remainder) * (1.0 + k * k + omega**2) ** 2))
    trunc = c4 / (3.0 * math.pi * omega_max**3) * math.exp(max(a, 0.0) * times[-1])

    d_omega = float(omega[1] - omega[0])
    w = np.full(omega.size, d_omega)
    w[0] *= 0.5
    w[-1] *= 0.5
    contour_part = _contour_sum(times, omega, w * remainder) / (2.0 * math.pi)
    closed_part = -pref * times * np.asarray(eq.mu_hat(-k * times), dtype=complex)
    values = np.exp(a * times) * contour_part + closed_part

    floor = max(1e-12, 10.0 * trunc)
    mag = np.abs(values)
    # the decay fit targets the resonance tail: start once the closed-form
    # hump has faded to 1% of its peak, keep only envelope peaks (the
    # kernel oscillates through zeros, which would wreck a log fit), and
    # stay above the contour noise floor
    hump = np.abs(closed_part)
    past_hump = (hump <= 0.01 * float(np.max(hump))) & (times > 0.2)
    t_start = times[int(np.argmax(past_hump))] if np.any(past_hump) else times[0]
    peaks = np.zeros(times.size, dtype=bool)
    peaks[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:])
    window = peaks & (times >= t_start) & (mag > floor)
    if int(np.sum(window)) < 3:
        window = (times >= t_start) & (mag > floor)
    if int(np.sum(window)) < 3:
        window = mag > 1e-12
    if int(np.sum(window)) < 3:
        raise ConfigError("kernel magnitude never rises above the fit "
                          "floor; nothing to fit")
    slope, intercept, r2 = linear_fit(times[window], np.log(mag[window]))
    return ResolventTable(
        k=k, times=times, values=values,
        fit_C=math.exp(intercept), fit_lambda1=-slope / abs(k), fit_r2=r2,
        truncation_bound=trunc, contour_re=a, quadrature_certificate=cert,
        winding=winding)
