"""One-pass, mergeable measurements of a bit stream.

Everything a stream's quality is judged by comes from one lag state per
stream piece: for lags k = 1..K, the bit count, the one-count, the lag-k
products sum x[i]*x[i+k], and the first and last min(K, n) bits as
little-endian ints.  The one-counts of the head window x[0 .. n-k) and
tail window x[k .. n) are the one-count minus the ones among the last or
first k edge bits.  A piece is counted on its packed bytes read as
little-endian 64-bit words (``bitwise_count`` of each word ANDed with the
stream shifted down by k bits) and nothing is unpacked.  States of
consecutive pieces merge in integer arithmetic on their edge bits.

``LagAccumulator(k)`` is the one-lag state.  ``PairCounts`` (bits,
one-bits, the four adjacent-pair counts) is the lag-1 view: c11 is the
lag-1 product, c10 and c01 the head and tail window sums minus c11, and
c00 the rest of the n - 1 pairs; it gives bias, mutual information,
conditional entropy and the plug-in deviation.

Every field is an exact integer, so any partition of a stream measured
piece by piece and merged in order reproduces the serial state field for
field.  One fold cuts the stream, whatever its chunks, into pieces of
2**22 bits, the last one shorter, so serial, chunked and parallel runs
measure the same pieces and are bit-identical.  A piece bounds a
measure's temporaries, and a stream given as an iterable of chunks is
read one piece at a time, so memory does not grow with its length.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from randev.bitstream import BitSequence, concat
from randev.model import binary_entropy, deviation_quadratic, deviation_sigma, n_max

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
    head_ones, tail_ones = _window_ones(s, 1)
    c11 = s.prods[0]
    c10 = head_ones - c11
    c01 = tail_ones - c11
    return PairCounts(
        s.n, s.ones, s.n - 1 - c01 - c10 - c11, c01, c10, c11,
        s.ones - tail_ones, s.ones - head_ones,
    )


def accumulate(counts: PairCounts, seq: BitSequence) -> PairCounts:
    """Fold a sequence into the counts, including the pair across the
    boundary between previously accumulated data and seq."""
    return _pair_counts(_fold(_lag1(counts), _pieces([seq])))


def _lag1(c: PairCounts) -> _LagState:
    """The lag-1 state behind counts made by ``accumulate``."""
    return _LagState((1,), c.n, c.ones, (c.c11,), c.first_bit or 0, c.last_bit or 0)


# The sums of one stream piece for ascending lags: prods[i] is the sum of
# x[j]*x[j+lags[i]]; head and tail are the first and last min(lags[-1], n)
# bits as ints whose bit j is bit j of that edge.
_LagState = namedtuple("_LagState", "lags n ones prods head tail")


def _empty(lags: tuple[int, ...]) -> _LagState:
    return _LagState(lags, 0, 0, (0,) * len(lags), 0, 0)


def _window_ones(s: _LagState, k: int) -> tuple[int, int]:
    """One-counts of the head window x[0 .. n-k) and tail window x[k .. n)."""
    k = min(k, s.n)
    return (s.ones - (s.tail >> (min(s.lags[-1], s.n) - k)).bit_count(),
            s.ones - (s.head & ~(-1 << k)).bit_count())


def _measure(seq: BitSequence, lags: tuple[int, ...]) -> _LagState:
    """The state of one piece, counted on its packed 64-bit words."""
    n = seq.nbits
    nw = -(-len(seq.data) // 8)
    # one spare zero word for the carry
    words = np.frombuffer(seq.data.ljust(8 * nw + 8, b"\0"), dtype="<u8")
    prods = []
    for k in lags:
        if k >= n:
            # no lag-k pair fits in n bits
            prods.append(0)
            continue
        q, r = divmod(k, 64)
        m = max(nw - q, 0)
        # word j of x shifted down by k bits, ANDed with word j; pad bits
        # are zero, so a pair whose second bit lies past the end adds nothing
        prod = words[q:q + m] >> r
        if r:
            prod |= words[q + 1:q + 1 + m] << (64 - r)
        prod &= words[:m]
        prods.append(int(np.bitwise_count(prod).sum()))
    edge = min(lags[-1], n)
    return _LagState(
        lags, n, int(np.bitwise_count(words).sum()), tuple(prods),
        int.from_bytes(seq[:edge].data, "little"),
        int.from_bytes(seq[n - edge:].data, "little"),
    )


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


# The bits of one measured piece: it bounds a measure's numpy temporaries.
_PIECE_BITS = 2**22


def _pieces(chunks):
    """The stream of chunks cut into pieces of _PIECE_BITS bits, the last
    one shorter.  Short chunks are joined with ``concat`` until a piece is
    full; a chunk that is one whole piece, or a whole stream shorter than
    one, passes through uncopied."""
    held, n = [], 0  # the start of the next piece, n bits long
    for chunk in chunks:
        i = 0
        if held:
            i = min(_PIECE_BITS - n, chunk.nbits)
            held.append(chunk[:i])
            n += i
            if n < _PIECE_BITS:
                continue
            yield concat(*held)
            held = []
        while chunk.nbits - i >= _PIECE_BITS:
            yield chunk[i:i + _PIECE_BITS]
            i += _PIECE_BITS
        if i < chunk.nbits:
            held, n = [chunk[i:]], chunk.nbits - i
    if held:
        yield held[0] if len(held) == 1 else concat(*held)


def _fold(state: _LagState, pieces, mapper=map) -> _LagState:
    """``state`` followed by the pieces, measured through ``mapper``."""
    lags = state.lags
    for part in mapper(lambda piece: _measure(piece, lags), pieces):
        state = _merge_states(state, part)
    return state


class LagAccumulator:
    """Streaming sums behind the lag-k serial autocorrelation: the
    one-lag state.  ``add`` folds a chunk in, piece by piece; ``merge``
    joins the states of consecutive pieces exactly."""

    __slots__ = ("_state",)

    def __init__(self, k: int):
        if k < 1:
            raise EstimatorError(f"lag k={k} must be at least 1")
        self._state = _empty((k,))

    k = property(lambda self: self._state.lags[0])
    n = property(lambda self: self._state.n)
    ones = property(lambda self: self._state.ones)
    sum_prod = property(lambda self: self._state.prods[0])
    sum_head = property(lambda self: _window_ones(self._state, self.k)[0])
    sum_tail = property(lambda self: _window_ones(self._state, self.k)[1])
    ring = property(lambda self: self._edge(self._state.tail),
                    doc="Last min(k, n) bits seen.")
    head = property(lambda self: self._edge(self._state.head),
                    doc="First min(k, n) bits seen.")

    def _edge(self, bits: int) -> np.ndarray:
        e = min(self.k, self.n)
        return BitSequence(bits.to_bytes(-(-e // 8), "little"), e).to_array()

    def add(self, seq: BitSequence) -> None:
        self._state = _fold(self._state, _pieces([seq]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LagAccumulator):
            return NotImplemented
        return self._state == other._state

    def __repr__(self) -> str:
        return (f"LagAccumulator(k={self.k}, n={self.n}, ones={self.ones}, "
                f"sum_prod={self.sum_prod}, sum_head={self.sum_head}, "
                f"sum_tail={self.sum_tail})")


def merge(a, b):
    """Combine two accumulators over consecutive stream pieces.

    Accepts two PairCounts made by ``accumulate`` or two
    LagAccumulators; both merge as lag states, so the result is field
    for field what serial accumulation over the joined stream produces.
    """
    if isinstance(a, PairCounts) and isinstance(b, PairCounts):
        return _pair_counts(_merge_states(_lag1(a), _lag1(b)))
    if isinstance(a, LagAccumulator) and isinstance(b, LagAccumulator):
        if a.k != b.k:
            raise EstimatorError(f"lag mismatch: {a.k} vs {b.k}")
        out = LagAccumulator(a.k)
        out._state = _merge_states(a._state, b._state)
        return out
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
    return _autocorr(data._state, 0)


def _autocorr(s: _LagState, i: int) -> tuple[float, float]:
    """Autocorrelation and sigma at a state's i-th lag."""
    n, k = s.n, s.lags[i]
    if n < k + 2:
        raise InsufficientDataError(
            f"lag-{k} autocorrelation needs at least {k + 2} bits, got {n}"
        )
    sum_head, sum_tail = _window_ones(s, k)
    mean = s.ones / n
    terms = n - k
    num = s.prods[i] - mean * (sum_head + sum_tail) + terms * mean * mean
    den = sum_head * (1.0 - 2.0 * mean) + terms * mean * mean
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


def _check_lags(max_lag: int, n: int | None) -> None:
    """Reject a max_lag below 1, or one too long for n bits if n is known."""
    if max_lag < 1:
        raise EstimatorError(f"max_lag={max_lag} must be at least 1")
    if n is not None and n < max_lag + 2:
        raise InsufficientDataError(
            f"analysis up to lag {max_lag} needs at least {max_lag + 2} "
            f"bits, got {n}"
        )


def _report(chunks, max_lag: int, mapper) -> AnalysisReport:
    """The report of the chunks' lag state, measured through ``mapper``."""
    pieces = _pieces(chunks)
    if max_lag < 1:
        # no lag state exists; an error in the input is raised first
        deque(pieces, maxlen=0)
    # the pieces that hold the max_lag + 2 bits a report needs, or the
    # whole stream if it is shorter: it then fails before any measure
    ahead, seen = [], 0
    for piece in pieces:
        ahead.append(piece)
        seen += piece.nbits
        if seen >= max_lag + 2:
            break
    _check_lags(max_lag, None if seen >= max_lag + 2 else seen)
    state = _fold(_empty(tuple(range(1, max_lag + 1))), itertools.chain(ahead, pieces), mapper)
    counts = _pair_counts(state)
    bias_hat, bias_sigma = bias_estimate(counts)
    estimates = tuple(
        LagEstimate(k, *_autocorr(state, i)) for i, k in enumerate(state.lags)
    )
    dev = deviation_plugin(counts)
    return AnalysisReport(
        n_bits=counts.n,
        bias_hat=bias_hat,
        bias_sigma=bias_sigma,
        autocorr=estimates,
        mi_lag1_hat=mutual_information_lag1(counts),
        cond_entropy_hat=cond_entropy_lag1(counts),
        deviation_plugin=dev,
        deviation_markov=deviation_quadratic(bias_hat, estimates[0].value),
        deviation_sigma=deviation_sigma(dev, counts.n),
        n_max=n_max(dev),
    )


def analyze(data, max_lag: int = 8) -> AnalysisReport:
    """Measure a stream: bias, autocorrelation for lags 1..max_lag,
    adjacent-pair information quantities, deviation, and length bound.

    ``data`` is one BitSequence or an iterable of BitSequence chunks in
    stream order, such as ``bitstream.read_stream`` of a file; chunked
    input produces the identical report.  An iterable is read once, a
    piece at a time, and a too-short one fails once its end is read.
    """
    if isinstance(data, BitSequence):
        _check_lags(max_lag, data.nbits)
        data = [data]
    return _report(data, max_lag, map)


def analyze_parallel(seq: BitSequence, max_lag: int = 8,
                     workers: int | None = None) -> AnalysisReport:
    """analyze() with its pieces measured on up to ``workers`` threads.

    The pieces are analyze()'s own, at most 2**22 bits each, and no more
    threads start than there are pieces; at most two pieces per thread
    are cut and in flight at once.  The same ordered fold merges them, so
    the report equals analyze()'s field for field.
    """
    _check_lags(max_lag, seq.nbits)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise EstimatorError(f"workers={workers} must be at least 1")
    # imported here: its logging import would cost every other call
    from concurrent.futures import ThreadPoolExecutor

    threads = min(workers, -(-seq.nbits // _PIECE_BITS))
    with ThreadPoolExecutor(threads) as pool:
        return _report([seq], max_lag,
                       lambda fn, pieces: _map_ahead(pool, 2 * threads, fn, pieces))


def _map_ahead(pool, ahead: int, fn, items):
    """``pool.map(fn, items)`` that submits at most ``ahead`` items before
    their results are read, so only that many pieces are cut at once."""
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
