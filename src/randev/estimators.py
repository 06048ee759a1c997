"""One-pass, mergeable measurements of a bit stream.

Everything a stream's randomness quality is judged by comes from one
packed-word lag state, ``LagAccumulator``: for a lag k it holds the bit
count, the one-count, the lag-k product sum x[i]*x[i+k], the one-counts
of the head window x[0 .. n-k) and tail window x[k .. n), and the first
and last min(k, n) bits.  It is counted directly on the packed bytes
read as little-endian 64-bit words, with ``bitwise_count`` over each word
ANDed with the stream shifted down by k bits; only the edge bits are
unpacked.

``PairCounts`` (bits, one-bits, the four adjacent-pair counts) is the
lag-1 state's view: c11 is the lag-1 product, c10 and c01 are the head
and tail window sums minus c11, and c00 is the rest of the n - 1 pairs.
It is enough for bias, the empirical joint distribution, mutual
information, conditional entropy, and the plug-in randomness deviation;
the lag-k states give the serial autocorrelation coefficients.

Every field is an exact integer (or bit) and merges exactly: any
partition of a stream into chunks, measured separately and merged in
order, reproduces the serial result field for field, so ``analyze`` over
chunks and ``analyze_parallel`` over worker threads are the same fold
and give bit-identical reports.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from randev.bitstream import BitSequence
from randev.model import binary_entropy, deviation_sigma, n_max

__all__ = [
    "EstimatorError",
    "EmptyInputError",
    "InsufficientDataError",
    "DegenerateSequenceError",
    "PairCounts",
    "LagAccumulator",
    "LagEstimate",
    "AnalysisReport",
    "accumulate",
    "merge",
    "bias_estimate",
    "autocorr",
    "mutual_information_lag1",
    "cond_entropy_lag1",
    "marginal_entropy_lag1",
    "deviation_plugin",
    "deviation_quadratic",
    "analyze",
    "analyze_parallel",
]

_LN2 = math.log(2.0)
_NO_BITS = np.zeros(0, dtype=np.uint8)  # edge bits of an empty state; never written


class EstimatorError(ValueError):
    """Base class for estimator input problems."""


class EmptyInputError(EstimatorError):
    """No bits were provided where at least one is required."""


class InsufficientDataError(EstimatorError):
    """Too few bits for the requested quantity."""


class DegenerateSequenceError(EstimatorError):
    """The sequence is constant, so normalized correlations are undefined."""


@dataclass(frozen=True)
class PairCounts:
    """Counts of bits, one-bits, and adjacent (previous, next) pairs.

    ``first_bit`` and ``last_bit`` carry the stream boundary so that two
    PairCounts from consecutive stream pieces merge exactly: the pair
    that straddles the cut is reconstructed from them.
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


def _pair_counts(lag1: LagAccumulator) -> PairCounts:
    if lag1.n == 0:
        return PairCounts()
    c11 = lag1.sum_prod
    c10 = lag1.sum_head - c11
    c01 = lag1.sum_tail - c11
    return PairCounts(
        lag1.n, lag1.ones, lag1.n - 1 - c01 - c10 - c11, c01, c10, c11,
        int(lag1._head[0]), int(lag1._ring[-1]),
    )


def accumulate(counts: PairCounts, seq: BitSequence) -> PairCounts:
    """Fold a sequence into the counts, including the pair across the
    boundary between previously accumulated data and seq."""
    return _merge_counts(counts, _pair_counts(_measure(seq, (1,))[0]))


def _merge_counts(a: PairCounts, b: PairCounts) -> PairCounts:
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    cells = [a.c00 + b.c00, a.c01 + b.c01, a.c10 + b.c10, a.c11 + b.c11]
    cells[2 * a.last_bit + b.first_bit] += 1
    return PairCounts(
        a.n + b.n, a.ones + b.ones, *cells, a.first_bit, b.last_bit
    )


class LagAccumulator:
    """Streaming sums behind the lag-k serial autocorrelation.

    Tracks sum_prod = sum of x[i]*x[i+k], the one-counts of the head
    window x[0 .. n-k) and tail window x[k .. n), the total one-count,
    and the first/last min(k, n) bits so that accumulators over
    consecutive stream pieces merge exactly.  ``add`` measures a piece
    on its packed words and merges it in.
    """

    __slots__ = ("k", "n", "ones", "sum_prod", "sum_head", "sum_tail",
                 "_head", "_ring")

    def __init__(self, k: int):
        if k < 1:
            raise EstimatorError(f"lag k={k} must be at least 1")
        self.k = k
        self.n = 0
        self.ones = 0
        self.sum_prod = 0
        self.sum_head = 0
        self.sum_tail = 0
        self._head = self._ring = _NO_BITS

    @property
    def ring(self) -> np.ndarray:
        """Last min(k, n) bits seen."""
        return self._ring.copy()

    @property
    def head(self) -> np.ndarray:
        """First min(k, n) bits seen."""
        return self._head.copy()

    def add(self, seq: BitSequence) -> None:
        merged = _merge_lags(self, _measure(seq, (self.k,))[0])
        for name in self.__slots__:
            setattr(self, name, getattr(merged, name))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LagAccumulator):
            return NotImplemented
        return (
            self.k == other.k
            and self.n == other.n
            and self.ones == other.ones
            and self.sum_prod == other.sum_prod
            and self.sum_head == other.sum_head
            and self.sum_tail == other.sum_tail
            and np.array_equal(self._head, other._head)
            and np.array_equal(self._ring, other._ring)
        )

    def __repr__(self) -> str:
        return (
            f"LagAccumulator(k={self.k}, n={self.n}, ones={self.ones}, "
            f"sum_prod={self.sum_prod}, sum_head={self.sum_head}, "
            f"sum_tail={self.sum_tail})"
        )


def _merge_lags(a: LagAccumulator, b: LagAccumulator) -> LagAccumulator:
    if a.k != b.k:
        raise EstimatorError(f"lag mismatch: {a.k} vs {b.k}")
    k = a.k
    out = LagAccumulator(k)
    out.n = a.n + b.n
    out.ones = a.ones + b.ones
    # pairs whose head is in a and tail in b
    ext = np.concatenate((a._ring, b._head))
    lim = min(a._ring.size, max(0, ext.size - k))
    cross = int(np.count_nonzero(ext[:lim] & ext[k:k + lim])) if lim else 0
    out.sum_prod = a.sum_prod + b.sum_prod + cross
    head = np.concatenate((a._head, b._head))[: min(k, out.n)].copy()
    ring = np.concatenate((a._ring, b._ring))[-min(k, out.n):].copy() \
        if out.n else np.zeros(0, dtype=np.uint8)
    out._head = head
    out._ring = ring
    out.sum_head = out.ones - int(np.count_nonzero(ring))
    out.sum_tail = out.ones - int(np.count_nonzero(head))
    return out


def _measure(seq: BitSequence, lags) -> list[LagAccumulator]:
    """One LagAccumulator per lag for a single piece, counted on its
    packed little-endian 64-bit words; only the first and last
    min(max(lags), n) bits are ever unpacked."""
    n = seq.nbits
    data = np.frombuffer(seq.data, dtype=np.uint8)
    nw = -(-data.size // 8)
    words = np.zeros(nw + 1, dtype="<u8")  # spare zero word for the carry
    words.view(np.uint8)[:data.size] = data
    ones = int(np.bitwise_count(words).sum())
    edge = min(max(lags), n)
    head = seq[:edge].to_array()
    ring = seq[n - edge:].to_array()
    out = []
    for k in lags:
        acc = LagAccumulator(k)
        q, r = divmod(k, 64)
        m = max(nw - q, 0)
        # word j of x shifted down by k bits, ANDed with word j; pad bits
        # are zero, so a pair whose second bit lies past the end adds nothing
        prod = words[q:q + m] >> r
        if r:
            prod |= words[q + 1:q + 1 + m] << (64 - r)
        prod &= words[:m]
        acc.sum_prod = int(np.bitwise_count(prod).sum())
        acc.n = n
        acc.ones = ones
        acc._head = head[:min(k, n)]
        acc._ring = ring[edge - min(k, n):]
        acc.sum_head = ones - int(np.count_nonzero(acc._ring))
        acc.sum_tail = ones - int(np.count_nonzero(acc._head))
        out.append(acc)
    return out


def merge(a, b):
    """Combine two accumulators over consecutive stream pieces.

    Accepts two PairCounts or two LagAccumulators; the result is field
    for field what serial accumulation over the joined stream produces.
    """
    if isinstance(a, PairCounts) and isinstance(b, PairCounts):
        return _merge_counts(a, b)
    if isinstance(a, LagAccumulator) and isinstance(b, LagAccumulator):
        return _merge_lags(a, b)
    raise TypeError(
        f"cannot merge {type(a).__name__} with {type(b).__name__}"
    )


def bias_estimate(counts: PairCounts) -> tuple[float, float]:
    """Empirical bias 2*ones/n - 1 and its uncertainty 1/sqrt(n)."""
    if counts.n == 0:
        raise EmptyInputError("cannot estimate bias of an empty stream")
    return 2.0 * counts.ones / counts.n - 1.0, 1.0 / math.sqrt(counts.n)


def autocorr(data, k: int | None = None) -> tuple[float, float]:
    """Lag-k serial autocorrelation coefficient and its 1/sqrt(n) sigma.

    ``data`` is a BitSequence (k defaults to 1) or a LagAccumulator
    (k defaults to the accumulator's lag).  The numerator and
    denominator sums use the full-sequence mean and run over the first
    n - k positions; a BitSequence is measured into a LagAccumulator
    first, so both forms give the identical value.
    """
    if not isinstance(data, LagAccumulator):
        acc = LagAccumulator(1 if k is None else k)
        acc.add(data)
        return autocorr(acc)
    if k is not None and k != data.k:
        raise EstimatorError(
            f"requested lag {k} but accumulator holds lag {data.k}"
        )
    n, k = data.n, data.k
    if n < k + 2:
        raise InsufficientDataError(
            f"lag-{k} autocorrelation needs at least {k + 2} bits, got {n}"
        )
    mean = data.ones / n
    terms = n - k
    num = (data.sum_prod - mean * (data.sum_head + data.sum_tail)
           + terms * mean * mean)
    den = data.sum_head * (1.0 - 2.0 * mean) + terms * mean * mean
    if den == 0.0:
        raise DegenerateSequenceError(
            "constant sequence: autocorrelation is undefined"
        )
    return num / den, 1.0 / math.sqrt(n)


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


def marginal_entropy_lag1(counts: PairCounts) -> float:
    """Plug-in entropy in bits of the second element of an adjacent pair."""
    total = _require_pairs(counts)
    return binary_entropy((counts.c01 + counts.c11) / total)


def deviation_plugin(counts: PairCounts) -> float:
    """Empirical randomness deviation: 1 minus the plug-in conditional
    entropy, clamped to [0, 1]."""
    d = 1.0 - cond_entropy_lag1(counts)
    if d < 0.0:
        return 0.0
    return 1.0 if d > 1.0 else d


def deviation_quadratic(bias: float, a1: float) -> float:
    """Quadratic deviation form (a1**2 + bias**2) / (2 ln 2) applied to
    measured values."""
    return (a1 * a1 + bias * bias) / (2.0 * _LN2)


@dataclass(frozen=True)
class LagEstimate:
    lag: int
    value: float
    sigma: float


@dataclass(frozen=True)
class AnalysisReport:
    """Every measured quantity for one stream.

    ``deviation_plugin`` comes from the conditional-entropy route;
    ``deviation_markov`` is the quadratic form evaluated at the measured
    bias and lag-1 autocorrelation; ``n_max`` is math.inf when the
    plug-in deviation is exactly zero.
    """

    n_bits: int
    bias_hat: float
    bias_sigma: float
    autocorr: tuple[LagEstimate, ...]
    mi_lag1_hat: float
    cond_entropy_hat: float
    deviation_plugin: float
    deviation_markov: float
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
            "deviation_markov": self.deviation_markov,
            "deviation_sigma": self.deviation_sigma,
            "n_max": "unbounded" if math.isinf(self.n_max) else self.n_max,
        }


def _report(parts, max_lag: int) -> AnalysisReport:
    """Fold per-piece lag states (lags 1..max_lag, in stream order) and
    assemble the report; the pair counts are the lag-1 state's view."""
    accs = None
    for part in parts:
        accs = part if accs is None else list(map(_merge_lags, accs, part))
    n = 0 if accs is None else accs[0].n
    if n < max_lag + 2:
        raise InsufficientDataError(
            f"analysis up to lag {max_lag} needs at least {max_lag + 2} "
            f"bits, got {n}"
        )
    counts = _pair_counts(accs[0])
    bias_hat, bias_sigma = bias_estimate(counts)
    lags = tuple(LagEstimate(acc.k, *autocorr(acc)) for acc in accs)
    dev = deviation_plugin(counts)
    return AnalysisReport(
        n_bits=counts.n,
        bias_hat=bias_hat,
        bias_sigma=bias_sigma,
        autocorr=lags,
        mi_lag1_hat=mutual_information_lag1(counts),
        cond_entropy_hat=cond_entropy_lag1(counts),
        deviation_plugin=dev,
        deviation_markov=deviation_quadratic(bias_hat, lags[0].value),
        deviation_sigma=deviation_sigma(dev, counts.n),
        n_max=n_max(dev),
    )


def analyze(data, max_lag: int = 8) -> AnalysisReport:
    """Measure a stream: bias, autocorrelation for lags 1..max_lag,
    adjacent-pair information quantities, deviation, and length bound.

    ``data`` is one BitSequence or an iterable of BitSequence chunks in
    stream order; chunked input produces the identical report.
    """
    if max_lag < 1:
        raise EstimatorError(f"max_lag={max_lag} must be at least 1")
    chunks = [data] if isinstance(data, BitSequence) else data
    measure = functools.partial(_measure, lags=range(1, max_lag + 1))
    return _report(map(measure, chunks), max_lag)


def analyze_parallel(seq: BitSequence, max_lag: int = 8,
                     workers: int | None = None) -> AnalysisReport:
    """analyze() over worker threads via the merge contract.

    The stream is split on byte boundaries, each piece is measured
    independently, and the same ordered fold as analyze() reproduces the
    serial integer state exactly, so the report equals the sequential
    one field for field.
    """
    if max_lag < 1:
        raise EstimatorError(f"max_lag={max_lag} must be at least 1")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise EstimatorError(f"workers={workers} must be at least 1")
    step = 8 * max(1, -(-len(seq.data) // workers))
    pieces = [seq[i:i + step] for i in range(0, seq.nbits, step)]
    measure = functools.partial(_measure, lags=range(1, max_lag + 1))
    if len(pieces) < 2:
        return _report(map(measure, pieces), max_lag)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _report(pool.map(measure, pieces), max_lag)
