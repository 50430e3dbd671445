"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they execute. Every tolerance is asserted exactly as stated; stated
runtime budgets are asserted too.
"""

import math
import time

import numpy as np

from conftest import SAMPLE_PERIOD, random_distinct_frequencies
from ftfreq.delay_line import TappedDelayLine
from ftfreq.estimator import EstimatorSettings, EstimatorState, step_gradient
from ftfreq.harness import run_scenario
from ftfreq.mixing import MixedSample, adjugate
from ftfreq.recovery import recover_frequencies
from ftfreq.regression import ModelConfig, true_theta
from ftfreq.scenarios import builtin_scenario, with_reset_times
from ftfreq.signals import HarmonicSpec, SignalSpec, generate_trace


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_harmonics(rng, n, lo=0.6, hi=5.4):
    freqs = random_distinct_frequencies(rng, n, lo, hi)
    return SignalSpec(harmonics=tuple(
        HarmonicSpec(float(rng.uniform(0.5, 2.0)), w,
                     float(rng.uniform(0, 2 * math.pi)))
        for w in freqs))


def test_criterion_1_annihilation_oracle():
    """Cascaded per-harmonic annihilators send noiseless traces to zero."""
    started = time.perf_counter()
    h = 0.05
    steps = round(h / SAMPLE_PERIOD)
    worst_ratio = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(1000 + n)
        spec = random_harmonics(rng, n)
        total_amplitude = sum(hm.amplitude for hm in spec.harmonics)
        trace = generate_trace(spec, SAMPLE_PERIOD, 8.0)
        stream = list(trace.values)
        for hm in spec.harmonics:
            c = math.cos(hm.frequency * h)
            line = TappedDelayLine(2 * steps, SAMPLE_PERIOD)
            out = []
            for v in stream:
                line.push(v)
                out.append(line.tap(0) - 2.0 * c * line.tap(steps)
                           + line.tap(2 * steps))
            stream = out
        start = 2 * n * steps
        worst = max(abs(r) for r in stream[start:])
        worst_ratio = max(worst_ratio, worst / (1e-9 * total_amplitude))
    elapsed = time.perf_counter() - started
    report(1, worst_ratio <= 1.0 and elapsed < 5.0,
           f"cascade residual at {worst_ratio:.2e} of the 1e-9*sumA budget, "
           f"n in {{1,2,3}}, {elapsed:.2f} s (< 5 s)")


def test_criterion_2_regression_and_mixing_consistency():
    """psi = phi . theta* and mixed psi_i = delta * theta*_i on warm data."""
    started = time.perf_counter()
    epsilon = 1.0
    worst_reg = 0.0
    worst_mix = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(2000 + n)
        spec = random_harmonics(rng, n)
        total_amplitude = sum(hm.amplitude for hm in spec.harmonics)
        cfg = ModelConfig(n=n, h=0.05, omega_min=0.5, omega_max=6.0)
        theta = true_theta([hm.frequency for hm in spec.harmonics], cfg.h)
        scale_reg = (2 ** n) * total_amplitude
        scale_mix = math.factorial(n) * (epsilon * scale_reg) ** n
        steps = round(cfg.h / SAMPLE_PERIOD)
        line = TappedDelayLine(2 * n * steps, SAMPLE_PERIOD)
        from ftfreq.mixing import RegressorExtender, mix
        from ftfreq.regression import delay_table, sample_regression
        taps = delay_table(cfg, 0.07, SAMPLE_PERIOD)
        extender = RegressorExtender(taps)
        trace = generate_trace(spec, SAMPLE_PERIOD, 4.0)
        for k, y in enumerate(trace.values):
            line.push(y)
            reg = sample_regression(line, taps, k * SAMPLE_PERIOD)
            mixed = mix(extender.push(reg), epsilon)
            if reg.valid:
                predicted = sum(p * t for p, t in zip(reg.phi, theta))
                worst_reg = max(worst_reg,
                                abs(reg.psi - predicted) / (1e-9 * scale_reg))
            if mixed.warm:
                for i in range(n):
                    gap = abs(mixed.psi[i] - mixed.delta * theta[i])
                    worst_mix = max(worst_mix, gap / (1e-9 * scale_mix))
    elapsed = time.perf_counter() - started
    report(2, worst_reg <= 1.0 and worst_mix <= 1.0 and elapsed < 5.0,
           f"regression residual at {worst_reg:.2e} and mixing residual at "
           f"{worst_mix:.2e} of their 1e-9*scale budgets, {elapsed:.2f} s (< 5 s)")


def test_criterion_3_closed_form_gradient():
    """Constant-excitation session matches err(0)*exp(-gamma*delta^2*t)."""
    started = time.perf_counter()
    gamma = (2.0, 1.0)
    h = 0.1
    theta_true = true_theta((2.0, 3.0), h)
    state = EstimatorState(EstimatorSettings(gamma=gamma, omega0=(2.0, 5.0), t_ft=0.5), h)
    theta_start = state.theta0
    delta = 0.1
    psi = tuple(delta * t for t in theta_true)
    worst = 0.0
    checkpoints = {round(1.0 / SAMPLE_PERIOD): 1.0, round(10.0 / SAMPLE_PERIOD): 10.0}
    for k in range(1, round(10.0 / SAMPLE_PERIOD) + 1):
        mixed = MixedSample(time=k * SAMPLE_PERIOD, delta=delta, psi=psi, warm=True)
        step_gradient(state, mixed, SAMPLE_PERIOD)
        if k in checkpoints:
            t = checkpoints[k]
            for i in range(2):
                expected = theta_true[i] + (theta_start[i] - theta_true[i]) * math.exp(
                    -gamma[i] * delta ** 2 * t)
                worst = max(worst, abs(state.theta_hat[i] - expected))
    elapsed = time.perf_counter() - started
    report(3, worst <= 1e-6 and elapsed < 1.0,
           f"max deviation from the closed-form error solution {worst:.2e} "
           f"(<= 1e-6) at t in {{1, 10}} s, {elapsed:.2f} s (< 1 s)")


def test_criterion_4_finite_time_exactness_noiseless():
    """The published noiseless two-tone point: exact extraction at t_ft = 5 s."""
    started = time.perf_counter()
    result = run_scenario(builtin_scenario("noiseless-2h"))
    elapsed = time.perf_counter() - started
    first = next(r for r in result.records if r.omega_ft is not None)
    errors = [abs(first.omega_ft[0] - 2.0), abs(first.omega_ft[1] - 3.0)]
    held = all(r.omega_ft == first.omega_ft
               for r in result.records if r.omega_ft is not None)
    ok = (result.extracted and max(errors) < 1e-2
          and abs(first.time - 5.0) < 1e-9 and held and elapsed < 10.0)
    report(4, ok,
           f"omega_ft = ({first.omega_ft[0]:.6f}, {first.omega_ft[1]:.6f}) at "
           f"t = {first.time:.3f} s, errors {max(errors):.2e} (< 1e-2), "
           f"held = {held}, 40 s simulation in {elapsed:.2f} s (< 10 s)")


def test_criterion_5_recovery_roundtrip():
    """frequencies -> theta -> roots -> frequencies over 1000 random sets."""
    started = time.perf_counter()
    h = 0.5
    bounds = (0.5, 5.5)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        while True:
            freqs = sorted(float(w) for w in rng.uniform(bounds[0], bounds[1], n))
            cosines = [math.cos(w * h) for w in freqs]
            gaps = [abs(a - b) for i, a in enumerate(cosines)
                    for b in cosines[i + 1:]]
            if not gaps or min(gaps) >= 1e-6:
                break
        estimate = recover_frequencies(true_theta(freqs, h), h, bounds)
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(estimate.omega_hat, freqs)))
    elapsed = time.perf_counter() - started
    report(5, worst <= 1e-9 and elapsed < 5.0,
           f"worst roundtrip error {worst:.2e} (<= 1e-9) over 1000 sets, "
           f"n <= 4, cosine separation >= 1e-6, {elapsed:.2f} s (< 5 s)")


def test_criterion_6_uniform_noise_robustness():
    """Published uniform-noise tunings: averaged gradient and finite-time bands."""
    cfg = builtin_scenario("uniform-noise")
    result = run_scenario(cfg)
    tail = [r for r in result.records if r.time >= 0.8 * cfg.run.duration]
    avg = [sum(r.omega_grad[i] for r in tail) / len(tail) for i in range(2)]
    grad_err = max(abs(avg[0] - 2.0), abs(avg[1] - 3.0))
    ft = result.final.omega_ft
    ft_err = max(abs(ft[0] - 2.0), abs(ft[1] - 3.0)) if ft else float("inf")
    ok = result.extracted and grad_err <= 0.15 and ft_err <= 0.2
    report(6, ok,
           f"grad average over final 20% = ({avg[0]:.3f}, {avg[1]:.3f}), "
           f"error {grad_err:.3f} (<= 0.15); omega_ft = "
           f"({ft[0]:.3f}, {ft[1]:.3f}), error {ft_err:.3f} (<= 0.2)"
           if ft else "finite-time estimate missing")


def test_criterion_7_step_change_behavior():
    """Frequency switch at 30 s: stale hold without reset, recovery with it."""
    base = builtin_scenario("step-change")
    no_reset = run_scenario(base)
    final = no_reset.final
    grad_err = max(abs(final.omega_grad[0] - 2.0), abs(final.omega_grad[1] - 3.0))
    stale_err = max(abs(final.omega_ft[0] - 2.0), abs(final.omega_ft[1] - 3.0))
    with_reset = run_scenario(with_reset_times(base, [30.0]))
    ft = with_reset.final.omega_ft
    reset_err = (max(abs(ft[0] - 2.0), abs(ft[1] - 3.0))
                 if ft is not None else float("inf"))
    ok = (grad_err < 5e-2 and stale_err > grad_err and reset_err < 1e-2)
    report(7, ok,
           f"no reset: grad error {grad_err:.2e} (< 5e-2), stale finite-time "
           f"error {stale_err:.3f} (> grad); with reset at 30 s: finite-time "
           f"error {reset_err:.2e} (< 1e-2)")


def test_criterion_8_adjugate_identity():
    """adj(M) M = det(M) I within scale-aware bounds for 1000 random matrices
    of size 1..8 (every 20th made singular) plus the all-zero 8x8."""
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    matrices = []
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        m = rng.uniform(-3.0, 3.0, (n, n))
        if trial % 20 == 0 and n >= 2:
            m[n - 1] = m[0]  # force singularity to exercise det = 0
        matrices.append(m)
    matrices.append(np.zeros((8, 8)))
    worst_ratio = 0.0
    for m in matrices:
        n = len(m)
        adj, det = adjugate(m.tolist())
        residual = np.abs(np.array(adj) @ m - det * np.eye(n)).max()
        norm = float(np.linalg.norm(m))
        bound = 1e-10 * (1.0 + norm) * max(1.0, norm ** (n - 1))
        worst_ratio = max(worst_ratio, residual / bound)
    elapsed = time.perf_counter() - started
    report(8, worst_ratio <= 1.0 and elapsed < 2.0,
           f"worst residual at {worst_ratio:.2e} of the scale-aware bound "
           f"over {len(matrices)} matrices, n in 1..8 plus an all-zero 8x8, "
           f"{elapsed:.2f} s (< 2 s)")
