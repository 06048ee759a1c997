"""Counts in, statistics out: the arithmetic on a stream's exact counts.

A stream is judged by one lag state: for lags k = 1..K, the bit count,
the one-count, the lag-k products sum x[i]*x[i+k], and the first and
last min(K, n) bits as little-endian ints.  The one-counts of the head
window x[0 .. n-k) and tail window x[k .. n) are the one-count minus the
ones among the last or first k edge bits.  States of consecutive pieces
merge in integer arithmetic on their edge bits, and one Python loop
makes every lag's estimate.

``PairCounts`` (bits, one-bits, the four adjacent-pair counts) is the
lag-1 view: c11 is the lag-1 product, c10 and c01 the head and tail
window sums minus c11, and c00 the rest of the n - 1 pairs; it gives
bias, mutual information, conditional entropy and the plug-in
deviation, the empirical forms of what ``model`` gives in closed form.

The counts themselves come from ``randev.estimators``, which counts
packed words with numpy, and, per window of ``randev monitor``, from
``randev.windows``.  This module needs only ``model`` and the standard
library, so it loads no numpy, and ``monitor`` turns its window counts
into statistics without compiling the lag kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from randev.model import binary_entropy, deviation_sigma, n_max

__all__ = [
    "EstimatorError",
    "EmptyInputError",
    "InsufficientDataError",
    "DegenerateSequenceError",
    "PairCounts",
    "LagEstimate",
    "AnalysisReport",
    "bias_estimate",
    "mutual_information_lag1",
    "cond_entropy_lag1",
    "deviation_plugin",
]


class EstimatorError(ValueError):
    """Base class for estimator input problems."""


class EmptyInputError(EstimatorError):
    """No bits were provided where at least one is required."""


class InsufficientDataError(EstimatorError):
    """Too few bits for the requested quantity."""


class DegenerateSequenceError(EstimatorError):
    """The sequence is constant, so normalized correlations are undefined."""


class PairCounts(NamedTuple):
    """Counts of bits, one-bits, and adjacent (previous, next) pairs.

    ``first_bit`` and ``last_bit`` are the lag-1 state's edge bits, so
    counts of consecutive stream pieces merge exactly as lag-1 states.
    """

    n: int = 0
    ones: int = 0
    c00: int = 0
    c01: int = 0
    c10: int = 0
    c11: int = 0
    first_bit: int | None = None
    last_bit: int | None = None

    @property
    def pair_total(self) -> int:
        return self.c00 + self.c01 + self.c10 + self.c11


def _pair_counts(s: _LagState) -> PairCounts:
    """The adjacent-pair view of a state whose first lag is 1."""
    if s.n == 0:
        return PairCounts()
    return PairCounts(*_pair_cells(s.n, s.ones, *_window_ones(s, 1), s.prods[0]))


def _pair_cells(n, ones, head_ones, tail_ones, c11):
    """The PairCounts fields from n >= 1 bits' ones, the ones of x[0 .. n-1)
    and x[1 .. n) and the lag-1 product, as ints or int64 arrays alike."""
    c10, c01 = head_ones - c11, tail_ones - c11
    return (n, ones, n - 1 - c01 - c10 - c11, c01, c10, c11,
            ones - tail_ones, ones - head_ones)


def _lag1(c: PairCounts) -> _LagState:
    """The lag-1 state behind counts made by ``accumulate``."""
    return _LagState((1,), c.n, c.ones, (c.c11,), c.first_bit or 0, c.last_bit or 0)


def _merge_pairs(a: PairCounts, b: PairCounts) -> PairCounts:
    """The counts of piece a followed by piece b, merged as lag-1 states."""
    return _pair_counts(_merge_states(_lag1(a), _lag1(b)))


# The sums of one stream piece for ascending lags: prods[i] is the sum of
# x[j]*x[j+lags[i]]; head and tail are the first and last min(lags[-1], n)
# bits as ints whose bit j is bit j of that edge.
_LagState = namedtuple("_LagState", "lags n ones prods head tail")


def _empty(lags: tuple[int, ...]) -> _LagState:
    return _LagState(lags, 0, 0, (0,) * len(lags), 0, 0)


def _state(lags: tuple[int, ...], n: int, sums: list[int], data: bytes) -> _LagState:
    """The state of a piece of n bits packed little-endian in ``data``,
    from its ones and the products of the lags below n (``sums``)."""
    sums = (*sums, *(0,) * (len(lags) + 1 - len(sums)))
    edge = min(lags[-1], n)
    start = n - edge
    return _LagState(
        lags, n, sums[0], sums[1:],
        int.from_bytes(data[:-(-edge // 8)], "little") & ~(-1 << edge),
        int.from_bytes(data[start >> 3:], "little") >> (start & 7),
    )


def _window_ones(s: _LagState, k: int) -> tuple[int, int]:
    """One-counts of the head window x[0 .. n-k) and tail window x[k .. n)."""
    k = min(k, s.n)
    return (s.ones - (s.tail >> (min(s.lags[-1], s.n) - k)).bit_count(),
            s.ones - (s.head & ~(-1 << k)).bit_count())


def _merge_states(a: _LagState, b: _LagState) -> _LagState:
    """The state of piece a followed by piece b."""
    if a.n == 0:
        return b
    top = a.lags[-1]
    ea, eb = min(top, a.n), min(top, b.n)
    edge = min(top, a.n + b.n)
    # a lag-k pair across the cut joins bit p of a's tail to bit
    # p + k - ea of b's head, and every such pair lies in those edges;
    # a lag of ea + eb or more has no pair there
    prods = tuple(
        pa + pb
        + (((a.tail << k >> ea) & b.head).bit_count() if k < ea + eb else 0)
        for k, pa, pb in zip(a.lags, a.prods, b.prods)
    )
    return _LagState(
        a.lags, a.n + b.n, a.ones + b.ones, prods,
        (a.head | b.head << ea) & ~(-1 << edge),
        (a.tail | b.tail << ea) >> (ea + eb - edge),
    )


def bias_estimate(counts: PairCounts) -> tuple[float, float]:
    """Empirical bias 2*ones/n - 1 and its uncertainty 1/sqrt(n), the
    sigma for independent bits: for a correlated source the spread can be
    0.34-2.00 times that."""
    if counts.n == 0:
        raise EmptyInputError("cannot estimate bias of an empty stream")
    return 2.0 * counts.ones / counts.n - 1.0, 1.0 / math.sqrt(counts.n)


def _estimates(s: _LagState) -> tuple[LagEstimate, ...]:
    """The autocorrelation and its 1/sqrt(n) sigma, the sigma for
    independent bits, at every lag of a state with n >= lags[-1] + 2 bits.

    One loop in Python: numpy took more than twice as long for the 8
    default lags."""
    n, ones, head, tail = s.n, s.ones, s.head, s.tail
    mean = ones / n
    skew, sigma, edge = 1.0 - 2.0 * mean, 1.0 / math.sqrt(n), s.lags[-1]
    # tuple.__new__ builds a LagEstimate in half the time of its Python __new__
    estimates, new = [], tuple.__new__
    for k, prod in zip(s.lags, s.prods):
        # the one-counts of the head and tail windows, as ``_window_ones``
        # gives them
        sum_head = ones - (tail >> (edge - k)).bit_count()
        sum_tail = ones - (head & ~(-1 << k)).bit_count()
        terms = n - k
        num = prod - mean * (sum_head + sum_tail) + terms * mean * mean
        den = sum_head * skew + terms * mean * mean
        if den == 0.0:
            raise DegenerateSequenceError(
                "constant sequence: autocorrelation is undefined"
            )
        estimates.append(new(LagEstimate, (k, num / den, sigma)))
    return tuple(estimates)


def _require_pairs(counts: PairCounts) -> int:
    total = counts.pair_total
    if counts.n < 2 or total < 1:
        raise InsufficientDataError(
            "pair statistics need at least 2 bits"
        )
    return total


def mutual_information_lag1(counts: PairCounts) -> float:
    """Plug-in mutual information in bits between adjacent bits.

    Cell-wise sum over the empirical joint distribution against the
    product of its own marginals; integer count ratios keep the
    product-distribution case at exactly zero.
    """
    total = _require_pairs(counts)
    row = (counts.c00 + counts.c01, counts.c10 + counts.c11)
    col = (counts.c00 + counts.c10, counts.c01 + counts.c11)
    mi = 0.0
    for cell, r, c in (
        (counts.c00, 0, 0),
        (counts.c01, 0, 1),
        (counts.c10, 1, 0),
        (counts.c11, 1, 1),
    ):
        if cell:
            mi += (cell / total) * math.log2(cell * total / (row[r] * col[c]))
    return 0.0 if mi < 0.0 else mi


def cond_entropy_lag1(counts: PairCounts) -> float:
    """Plug-in conditional entropy in bits of the next bit given the
    previous one: row-weighted binary entropies of the transition table."""
    total = _require_pairs(counts)
    ce = 0.0
    for c_to0, c_to1 in ((counts.c00, counts.c01), (counts.c10, counts.c11)):
        row_n = c_to0 + c_to1
        if row_n:
            ce += (row_n / total) * binary_entropy(c_to1 / row_n)
    return ce


def deviation_plugin(counts: PairCounts) -> float:
    """Empirical randomness deviation: 1 minus the plug-in conditional
    entropy, clamped to [0, 1]."""
    return _deviation(cond_entropy_lag1(counts))


def _deviation(cond_entropy: float) -> float:
    """1 - cond_entropy, clamped to [0, 1]."""
    d = 1.0 - cond_entropy
    if d < 0.0:
        return 0.0
    return 1.0 if d > 1.0 else d


class LagEstimate(NamedTuple):
    lag: int
    value: float
    sigma: float


class AnalysisReport(NamedTuple):
    """Every measured quantity for one stream.

    ``deviation_plugin`` comes from the conditional-entropy route;
    ``n_max`` is math.inf when the plug-in deviation is exactly zero.
    ``bias_sigma`` and each autocorrelation's sigma are 1/sqrt(n), the
    sigma for independent bits: for a correlated source the spread can be
    0.34-2.00 times that.
    """

    n_bits: int
    bias_hat: float
    bias_sigma: float
    autocorr: tuple[LagEstimate, ...]
    mi_lag1_hat: float
    cond_entropy_hat: float
    deviation_plugin: float
    deviation_sigma: float
    n_max: float

    def to_json_dict(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "bias": {"value": self.bias_hat, "sigma": self.bias_sigma},
            "autocorr": [
                {"lag": e.lag, "value": e.value, "sigma": e.sigma}
                for e in self.autocorr
            ],
            "mi_lag1": self.mi_lag1_hat,
            "cond_entropy": self.cond_entropy_hat,
            "deviation_plugin": self.deviation_plugin,
            "deviation_sigma": self.deviation_sigma,
            "n_max": "unbounded" if math.isinf(self.n_max) else self.n_max,
        }


def _analysis(state: _LagState) -> AnalysisReport:
    """The report of a whole stream's state for lags 1..K, n >= K + 2."""
    counts = _pair_counts(state)
    bias_hat, bias_sigma = bias_estimate(counts)
    estimates = _estimates(state)
    cond_entropy = cond_entropy_lag1(counts)
    dev = _deviation(cond_entropy)
    return AnalysisReport(
        n_bits=counts.n,
        bias_hat=bias_hat,
        bias_sigma=bias_sigma,
        autocorr=estimates,
        mi_lag1_hat=mutual_information_lag1(counts),
        cond_entropy_hat=cond_entropy,
        deviation_plugin=dev,
        deviation_sigma=deviation_sigma(dev, counts.n),
        n_max=n_max(dev),
    )
