"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line even when all criteria pass.  Criterion 10 is a soft engineering
target: its throughput number is measured and printed but only the
bit-identity half is asserted.
"""

import math
import os
import time

import numpy as np

from randev.bitstream import concat
from randev.estimators import accumulate, analyze, analyze_parallel
from randev.experiments import fig2_curve, validate_approx
from randev.model import binary_entropy, deviation_sigma, n_max
from randev.sources import Source, SourceConfig, generate
from randev.stats import PairCounts, cond_entropy_lag1, mutual_information_lag1


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}: {detail}")
    return ok


def _inject(c00: int, c01: int, c10: int, c11: int) -> PairCounts:
    total = c00 + c01 + c10 + c11
    return PairCounts(n=total + 1, ones=c10 + c11, c00=c00, c01=c01,
                      c10=c10, c11=c11, first_bit=0, last_bit=0)


def test_criterion_01_quadratic_error_bound():
    t0 = time.perf_counter()
    result = validate_approx(0.02)
    elapsed = time.perf_counter() - t0
    ok = result.max_relative_error <= 0.0025 and elapsed < 1.0
    assert _verdict(
        1, "quadratic deviation within 0.25% of exact on the small grid", ok,
        f"max_rel={result.max_relative_error:.6f}, {elapsed:.3f}s")


def test_criterion_02_deadtime_autocorrelation():
    t0 = time.perf_counter()
    seq = generate(SourceConfig.deadtime(1000.0, 40.0, seed=7), 10**7)
    report = analyze(seq, max_lag=2)
    elapsed = time.perf_counter() - t0
    a1_hat = report.autocorr[0].value
    ok = (-0.0432 <= a1_hat <= -0.0352
          and abs(report.bias_hat) <= 9.5e-4
          and elapsed < 30.0)
    assert _verdict(
        2, "dead-time stream shows the predicted negative autocorrelation", ok,
        f"a1_hat={a1_hat:.5f}, bias_hat={report.bias_hat:.2e}, {elapsed:.1f}s")


def test_criterion_03_usable_length_arithmetic():
    value = n_max(1e-18)
    ok = abs(value - 2.885e18) / 2.885e18 <= 1e-3
    assert _verdict(
        3, "usable-length bound at deviation 1e-18", ok, f"n_max={value:.4e}")


def test_criterion_04_mutual_information_curve():
    t0 = time.perf_counter()
    rows = fig2_curve(-0.99, 0.99, 0.01)
    elapsed = time.perf_counter() - t0
    center = rows[99]
    origin_ok = center.a1 == 0.0 and center.mi_exact == 0.0 and center.mi_approx == 0.0
    direct = lambda a: 0.5 * ((1 + a) * math.log2(1 + a) + (1 - a) * math.log2(1 - a))
    ends_ok = (abs(rows[0].mi_exact - direct(-0.99)) <= 1e-6
               and abs(rows[-1].mi_exact - direct(0.99)) <= 1e-6)
    quartic_ok = all(abs(r.mi_exact - r.mi_approx) <= r.a1**4
                     for r in rows if abs(r.a1) <= 0.5)
    ok = origin_ok and ends_ok and quartic_ok and elapsed < 1.0
    assert _verdict(
        4, "mutual-information curve: origin, endpoints, quartic remainder", ok,
        f"rows={len(rows)}, {elapsed:.3f}s")


def test_criterion_05_markov_estimator_consistency():
    t0 = time.perf_counter()
    n = 10**7
    seq = generate(SourceConfig.markov(0.02, 0.04, seed=2024), n)
    report = analyze(seq, max_lag=2)
    elapsed = time.perf_counter() - t0
    stat_limit = 3.0 / math.sqrt(n)
    d_exact = 0.001442998560652664
    d_limit = 3.0 * deviation_sigma(d_exact, n)
    ok = (abs(report.bias_hat - 0.02) <= stat_limit
          and abs(report.autocorr[0].value - 0.04) <= stat_limit
          and abs(report.deviation_plugin - d_exact) <= d_limit
          and elapsed < 30.0)
    assert _verdict(
        5, "estimators recover Markov parameters within statistical error", ok,
        f"bias_hat={report.bias_hat:.5f}, a1_hat={report.autocorr[0].value:.5f}, "
        f"d_hat={report.deviation_plugin:.6f}, {elapsed:.1f}s")


def test_criterion_06_independence_null():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        r0, r1, s0, s1 = (int(v) for v in rng.integers(1, 10**6, 4))
        # integer product cells make the joint exactly independent
        counts = _inject(r0 * s0, r0 * s1, r1 * s0, r1 * s1)
        worst = max(worst, abs(mutual_information_lag1(counts)))
    exact_ok = worst <= 1e-12
    n = 10**6
    seq = generate(SourceConfig.bernoulli(0.55, seed=8), n)
    report = analyze(seq, max_lag=1)
    g_stat = 2.0 * (n - 1) * math.log(2.0) * report.mi_lag1_hat
    stream_ok = g_stat <= 10.83
    ok = exact_ok and stream_ok
    assert _verdict(
        6, "independent joints carry zero mutual information", ok,
        f"worst_exact={worst:.2e}, g_stat={g_stat:.2f}")


def test_criterion_07_entropy_chain_rule():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        cells = [int(v) for v in rng.integers(1, 10**6, 4)]
        counts = _inject(*cells)
        lhs = binary_entropy((counts.c01 + counts.c11) / counts.pair_total)
        rhs = cond_entropy_lag1(counts) + mutual_information_lag1(counts)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    assert _verdict(
        7, "entropy chain rule holds on random pair tables", ok,
        f"worst={worst:.2e}")


def test_criterion_08_concatenability_and_merge():
    configs = [
        SourceConfig.ideal(seed=81),
        SourceConfig.bernoulli(0.3, seed=82),
        SourceConfig.splitter(0.15, seed=83),
        SourceConfig.markov(0.05, 0.1, seed=84),
        SourceConfig.deadtime(1000.0, 40.0, seed=85),
        SourceConfig.xorshift64(seed=86),
    ]
    rng = np.random.default_rng(88)
    partitions = 0
    for config in configs:
        whole = generate(config, 4096)
        report = analyze(whole)
        for _ in range(20):
            parts = int(rng.integers(2, 7))
            cuts = np.sort(rng.integers(0, 4097, parts - 1))
            lengths = np.diff(np.concatenate(([0], cuts, [4096])))
            live = Source(config)
            pieces = [live.generate(int(n)) for n in lengths]
            assert concat(*pieces) == whole
            assert analyze(pieces) == report
            partitions += 1
    merged_ok = True
    for config in configs:
        seq = generate(config, 200000)
        serial = analyze(seq)
        for workers in (2, 3, 8):
            merged_ok = merged_ok and analyze_parallel(seq, workers=workers) == serial
    ok = partitions == 120 and merged_ok
    assert _verdict(
        8, "piecewise generation and merged analysis are exact", ok,
        f"partitions={partitions}, merged_identical={merged_ok}")


def test_criterion_09_deterministic_generator_demo():
    # a 64-bit seed supplies at most 64/n bits of entropy per emitted bit
    n = 1 << 20
    config = SourceConfig.xorshift64(seed=12345)
    stream = generate(config, n)
    report = analyze(stream)
    entropy_bound = 64 / n
    z_values = [abs(report.bias_hat) / report.bias_sigma]
    z_values += [abs(e.value) / e.sigma for e in report.autocorr]
    ok = (entropy_bound == 6.103515625e-5
          and stream == generate(config, n)
          and max(z_values) <= 4.0)
    assert _verdict(
        9, "deterministic generator passes statistics despite tiny entropy bound",
        ok, f"entropy_bound={entropy_bound:.3e}, max_abs_z={max(z_values):.2f}")


def test_criterion_10_throughput_soft_target():
    n = 2 * 10**7
    seq = generate(SourceConfig.ideal(seed=100), n)
    t0 = time.perf_counter()
    accumulate(PairCounts(), seq)
    elapsed = time.perf_counter() - t0
    throughput = n / elapsed
    serial = analyze(seq)
    identical = analyze_parallel(seq, workers=os.cpu_count()) == serial
    ok = throughput >= 5e7 and identical
    _verdict(
        10, "accumulation throughput and parallel identity (soft)", ok,
        f"throughput={throughput:.2e} bits/s, parallel_identical={identical}")
    # soft criterion: the throughput number is reported, only identity is asserted
    assert identical
