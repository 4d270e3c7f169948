"""Acceptance gate: ten criteria, one test and one report line per criterion.

Each test prints ``criterion NN: PASS/FAIL - detail`` so a transcript shows
the whole gate at a glance. Heavy fixtures (the contraction pair, the round
trip pair, the small-amplitude damping run) are session-scoped in conftest
and shared with the narrower module suites.
"""

import math

import numpy as np
import pytest
from oracles import (gevrey_inequality_suite, laplace_one_sided,
                     laplace_two_sided, resolvent_identity_residual)
from scipy.integrate import quad

from vpscatter import (GevreyWeight, PhaseGrid, TimeGrid, gaussian_datum,
                       integrate, make_preset, maxwellian, two_stream)
from vpscatter.cli import config_from_mapping, run_command
from vpscatter.dispersion import inverse_laplace_Khat, penrose_scan
from vpscatter.errors import ConfigError
from vpscatter.field import h_of_field, poisson_fixed_point
from vpscatter.kinetic import zero_field_provider
from vpscatter.volterra import (SourceHistory, build_discrete_resolvent,
                                solve_direct_backward, solve_resolvent)

VP = make_preset("vp")
SCREENED = make_preset("screened")
MAXWELL = maxwellian()


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_weight_inequalities():
    reports = [gevrey_inequality_suite(g, 100_000, seed=s)
               for s, g in enumerate((0.4, 0.5, 0.8))]
    clean = all(r.subadditivity_violations == 0 and r.nearby_violations == 0
                for r in reports)
    report(1, clean,
           "0 violations of subadditivity and of the nearby-argument bound "
           f"(constant gamma at ratio 2) across {3 * 100_000} pairs")


def test_criterion_02_stability_checker():
    outcomes = []
    for model in (VP, SCREENED):
        scan = penrose_scan(model, MAXWELL, 2)
        doubled = penrose_scan(model, MAXWELL, 2, n_samples=8001)
        shift = abs(doubled.kappa0 - scan.kappa0) / scan.kappa0
        outcomes.append(scan.stable and scan.kappa0 > 0.0
                        and all(v == 0 for v in scan.windings.values())
                        and shift <= 0.01)
    unstable = None
    for v0 in (0.6, 0.8, 1.0, 1.2):
        try:
            scan = penrose_scan(VP, two_stream(v0, 0.5), 2, omega_max=6.0)
        except ConfigError:
            continue  # scan inconclusive at this strength; keep looking
        if not scan.stable and any(v >= 1 for v in scan.windings.values()):
            unstable = v0
            break
    report(2, all(outcomes) and unstable is not None,
           "Maxwellian stable both couplings, kappa0 drift <= 1% under "
           f"sample doubling; two-stream v0={unstable} unstable with "
           "winding >= 1")


def test_criterion_03_transform_convolution_identity():
    rng = np.random.default_rng(42)
    taus = rng.uniform(-0.5, 0.5, 20) + 1j * rng.uniform(-2.0, 2.0, 20)

    def conv(t):
        # integrand has a kink where t + u crosses zero
        kink = [-t] if 0.0 < -t < 60.0 else None
        return quad(lambda u: math.exp(-abs(t + u)) * math.exp(-u),
                    0, 60, limit=400, epsabs=1e-13, epsrel=1e-13,
                    points=kink)[0]

    worst = 0.0
    for tau in taus:
        a, b = tau.real, tau.imag

        def damped(t):
            return conv(t) * math.exp(-a * t)

        kw = dict(limit=800, epsabs=1e-11, epsrel=1e-11)
        lhs_re = sum(quad(damped, lo, hi, weight="cos", wvar=b, **kw)[0]
                     for lo, hi in ((-60, 0), (0, 60)))
        lhs_im = -sum(quad(damped, lo, hi, weight="sin", wvar=b, **kw)[0]
                      for lo, hi in ((-60, 0), (0, 60)))
        rhs = (laplace_two_sided(lambda t: np.exp(-np.abs(t)), tau, 1e-10)
               * laplace_one_sided(lambda t: np.exp(-t), -tau, 1e-10))
        worst = max(worst, abs(complex(lhs_re, lhs_im) - rhs))
    report(3, worst <= 1e-8,
           f"backward convolution transform factorizes at 20 random points, "
           f"worst abs error {worst:.3e} <= 1e-8")


def test_criterion_04_volterra_route_equivalence():
    times = (40.0 / 256) * np.arange(257)
    ks = np.arange(-8, 9)
    weights = np.where(ks == 0, 0.0, 1.0 / (1.0 + ks.astype(float) ** 2))
    vals = np.exp(-0.5 * times ** 2)[:, None] * weights[None, :]
    source = SourceHistory(times, vals.astype(complex))
    direct = solve_direct_backward(VP, MAXWELL, source)
    tables = {int(k): build_discrete_resolvent(VP, MAXWELL, int(k),
                                               source.delta_t, 256)
              for k in ks if k != 0}
    recon = solve_resolvent(VP, MAXWELL, source, tables)
    gap = float(np.linalg.norm(recon.values - direct.values)
                / np.linalg.norm(direct.values))
    identity = max(resolvent_identity_residual(VP, MAXWELL, k,
                                               source.delta_t, 256)
                   for k in (1, 4, 8))
    report(4, gap <= 1e-6 and identity <= 1e-8,
           f"direct vs resolvent rel L2 {gap:.3e} <= 1e-6; "
           f"discrete identity residual {identity:.3e} <= 1e-8")


def test_criterion_05_kernel_decay_rates():
    lag = np.arange(0.0, 12.0 + 1e-9, 0.1)
    rates, ok = [], True
    for k in (1, 2, 3):
        tab = inverse_laplace_Khat(VP, MAXWELL, k, lag, omega_max=400.0)
        ok = ok and tab.fit_lambda1 > 0.0 and tab.fit_r2 >= 0.95
        if rates:
            ok = ok and tab.fit_lambda1 >= rates[-1] * 0.9
        rates.append(tab.fit_lambda1)
    report(5, ok, "kernel decay rates "
           + ", ".join(f"{r:.4f}" for r in rates)
           + " all positive, R2 >= 0.95, nondecreasing within 10%")


def test_criterion_06_nonlinear_field_recovery():
    w = GevreyWeight()
    vpme = make_preset("vpme", eps_ball=2.0)
    k = np.arange(-4, 5)
    u = np.zeros(9, dtype=complex)
    u[3] = u[5] = 5e-3  # cosine of physical amplitude 1e-2
    rho = (vpme.beta + k.astype(float) ** 2) * u
    rho[4] = 0.0
    q = rho + h_of_field(vpme, u)
    snap = poisson_fixed_point(vpme, q, w, 0.0)
    err = float(np.linalg.norm(snap.rho_hat - rho) / np.linalg.norm(rho))
    q_lin = k.astype(float) ** 2 * u
    lin = poisson_fixed_point(VP, q_lin, w, 0.0)
    exact = float(np.max(np.abs(lin.u_hat - np.where(k == 0, 0.0, u))))
    report(6, err <= 1e-8 and snap.iters <= 50 and exact == 0.0,
           f"manufactured density recovered to {err:.3e} in {snap.iters} "
           f"iterations; series-free path exact (gap {exact:.1e})")


def test_criterion_07_linear_damping_rate(landau_small_amplitude):
    rep = landau_small_amplitude["report"]
    root = landau_small_amplitude["root"]
    rel = abs(rep.fit.rate + root.real) / abs(root.real)
    report(7, rel <= 0.05 and rep.fit.r_squared >= 0.95,
           f"field decay rate {rep.fit.rate:.6f} vs root {-root.real:.6f}, "
           f"relative gap {rel:.2e} <= 5%")


def test_criterion_08_fixed_point_contraction(contraction_pair):
    runs = contraction_pair["runs"]
    full, half = runs[1e-3], runs[5e-4]
    ratios_ok = (full.converged and half.converged
                 and all(r < 1.0 for r in full.contraction_ratios)
                 and all(r < 1.0 for r in half.contraction_ratios))
    quotient = full.contraction_ratios[0] / half.contraction_ratios[0]
    fit = full.decay_fit
    report(8, ratios_ok and quotient >= 1.5
           and fit is not None and fit.rate > 0.0 and fit.r_squared >= 0.9,
           f"all ratios < 1; first ratio shrinks {quotient:.2f}x on halving; "
           f"field envelope fit c={fit.rate:.3f} R2={fit.r_squared:.4f}")


def test_criterion_09_forward_round_trip(roundtrip_pair):
    pairs = roundtrip_pair["pairs"]
    eps_big, eps_small = sorted(pairs, reverse=True)
    ok, sups = True, {}
    for eps, (run, rep) in pairs.items():
        quarter = rep.profile_errors[3 * (len(rep.profile_errors) - 1) // 4:]
        ok = ok and rep.within_bound and rep.sup_error <= rep.bound \
            and all(np.diff(quarter) < 0.0)
        sups[eps] = rep.sup_error
    scaling = sups[eps_big] / sups[eps_small]
    report(9, ok and 3.0 <= scaling <= 5.0,
           f"horizon error within 10x combined tolerances, decreasing final "
           f"quarter; halving the datum scales the error {scaling:.2f}x")


def test_criterion_10_conservation_and_determinism(landau_small_amplitude,
                                                   tmp_path):
    integ = landau_small_amplitude["report"].integration
    grid = PhaseGrid(1, 16.0, 0.5)
    start = gaussian_datum({1: 1e-3}).sample(grid, 0.0)
    free = integrate(start, zero_field_provider(grid), TimeGrid(10.0, 0.01),
                     MAXWELL)
    drift = max(float(np.max(np.abs(st.values - start.values)))
                for st in free.states)
    outputs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        cfg = config_from_mapping({
            "grid.kmax": "1", "grid.eta_max": "10.0", "grid.delta_eta": "0.5",
            "grid.dt": "0.25", "grid.t_final": "4.0", "kernel.kmax": "2",
            "kernel.omega_max": "60.0", "out.dir": str(out),
            "threads": str(threads)})
        assert run_command("kernel", cfg) == 0
        outputs.append([(out / f"kernel_k{k}.csv").read_bytes()
                        for k in (1, 2)])
    report(10, integ.mass_drift <= 1e-12
           and integ.max_reality_drift <= 1e-12
           and drift <= 1e-13 and outputs[0] == outputs[1],
           f"mass drift {integ.mass_drift:.1e}, reality drift "
           f"{integ.max_reality_drift:.1e}, free transport drift {drift:.1e} "
           f"over 1000 steps, thread counts byte-identical")
