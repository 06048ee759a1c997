"""Independent numpy reference for the statistics randev reports.

Counts come straight from the unpacked bits with ``np.count_nonzero``;
the deviation goes through the joint-minus-marginal entropy route
rather than randev's row-weighted one, so agreement is evidence and not
a copy of the code under test.
"""

from __future__ import annotations

import math

import numpy as np

# float tolerances: the counts are exact integers, the formulas differ
# only in rounding order
ABS_TOL = 1e-12
REL_TOL = 1e-9


def unpack(data: bytes, nbits: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits, bitorder="little")


def reference_stats(bits: np.ndarray, max_lag: int = 8) -> dict:
    """n_bits, bias, autocorr[1..max_lag] and deviation_plugin of a 0/1 array."""
    n = int(bits.size)
    ones = int(np.count_nonzero(bits))
    mean = ones / n
    acf = []
    for k in range(1, max_lag + 1):
        head, tail = bits[:n - k], bits[k:]
        s_prod = int(np.count_nonzero(head & tail))
        s_head = int(np.count_nonzero(head))
        s_tail = int(np.count_nonzero(tail))
        terms = n - k
        # sum over i < n-k of (x_i - m)(x_{i+k} - m), over sum of (x_i - m)^2
        num = s_prod - mean * (s_head + s_tail) + terms * mean * mean
        den = s_head - 2.0 * mean * s_head + terms * mean * mean
        acf.append(num / den)
        if k == 1:
            c11 = s_prod
            c10 = s_head - c11
            c01 = s_tail - c11
            c00 = terms - c11 - c10 - c01
    joint = np.array([c00, c01, c10, c11], dtype=np.float64) / (n - 1)
    first = np.array([c00 + c01, c10 + c11], dtype=np.float64) / (n - 1)
    cond_entropy = _entropy(joint) - _entropy(first)
    return {
        "n_bits": n,
        "ones": ones,
        "pairs": (c00, c01, c10, c11),
        "bias": 2.0 * ones / n - 1.0,
        "autocorr": acf,
        "deviation_plugin": min(1.0, max(0.0, 1.0 - cond_entropy)),
    }


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def matches_report(report: dict, ref: dict) -> list[str]:
    """Mismatches between an ``analyze --json`` dict and the reference."""
    bad = []
    if report["n_bits"] != ref["n_bits"]:
        bad.append(f"n_bits {report['n_bits']} != {ref['n_bits']}")
    if not close(report["bias"]["value"], ref["bias"]):
        bad.append(f"bias {report['bias']['value']!r} != {ref['bias']!r}")
    lags = report["autocorr"]
    if [e["lag"] for e in lags] != list(range(1, len(ref["autocorr"]) + 1)):
        bad.append("autocorr lags are not 1..max_lag")
    else:
        for e, want in zip(lags, ref["autocorr"]):
            if not close(e["value"], want):
                bad.append(f"autocorr[{e['lag']}] {e['value']!r} != {want!r}")
    if not close(report["deviation_plugin"], ref["deviation_plugin"]):
        bad.append(f"deviation_plugin {report['deviation_plugin']!r} != "
                   f"{ref['deviation_plugin']!r}")
    return bad


def oracle_mismatches(bits: np.ndarray, bias: float, a1: float, z_max: float = 5.0) -> list[str]:
    """Measured bias and lag-1 autocorrelation against predicted values.

    The bias sigma carries the variance inflation (1 + a1)/(1 - a1) of a
    correlated stream; the autocorrelation sigma is 1/sqrt(n).
    """
    ref = reference_stats(bits, max_lag=1)
    n = ref["n_bits"]
    sigma_b = math.sqrt((1.0 - bias * bias) * (1.0 + a1) / ((1.0 - a1) * n))
    sigma_a = 1.0 / math.sqrt(n)
    bad = []
    z_b = (ref["bias"] - bias) / sigma_b
    z_a = (ref["autocorr"][0] - a1) / sigma_a
    if abs(z_b) > z_max:
        bad.append(f"bias {ref['bias']:.6g} vs predicted {bias:.6g}: z={z_b:.2f}")
    if abs(z_a) > z_max:
        bad.append(f"a1 {ref['autocorr'][0]:.6g} vs predicted {a1:.6g}: z={z_a:.2f}")
    return bad
