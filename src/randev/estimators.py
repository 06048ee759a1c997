"""One-pass, mergeable counts of a bit stream's packed words, and the
analyses built on them.

Everything a stream's quality is judged by comes from one lag state per
stream piece (``randev.stats`` defines it, merges it and turns it into
statistics): for lags k = 1..K, the bit count, the one-count, the lag-k
products sum x[i]*x[i+k], and the first and last min(K, n) bits.  This
module counts a piece on its packed bytes read as little-endian 64-bit
words (``bitwise_count`` of each word ANDed with the stream shifted down
by k bits), and nothing is unpacked; the one-count is the lag-0 row.
Every pass has one shape: consecutive lags that share a word offset
k >> 6 are the rows of one 2-D broadcast pass, as many rows as fit a
budget of 2**14 words.  A 2**14-bit stream takes its ones and 8 default
lags in one pass, and a 2**20-bit piece one lag per pass, as a pass of
one row, so a short stream pays a few numpy calls, not a few per lag.
``randev.stats`` reads the edges from the piece's edge bytes.

``analyze`` makes every autocorrelation estimate, from the state of
lags 1..max_lag; a stream given as an iterable of chunks is measured as
it is read.  ``LagAccumulator(k)`` and ``accumulate`` give mergeable
counts: the former the bit count, ones and lag-k product of the one-lag
state, the latter ``PairCounts``, the lag-1 view.

Every field is an exact integer, so any partition of a stream measured
piece by piece and merged in order reproduces the serial state field for
field, wherever the cuts fall: serial, chunked and parallel reports are
identical.  One fold cuts a stream, whatever its chunks, into pieces of
2**20 bits, the last one shorter; ``analyze_parallel`` gives each thread
one contiguous span, measured in pieces of ``_SPAN_BITS``.  A piece
bounds a measure's temporaries, and a stream given as an iterable of
chunks is read one piece at a time, so memory does not grow with its
length.  A ``max_lag`` is at most ``_MAX_LAG``, which bounds what the
lags cost; the stream's length is checked once it is measured.

The PairCounts of each fixed window of a chunked stream, as ``monitor``
reports them, come from ``randev.windows``.
"""

from __future__ import annotations

import functools
import itertools
import os

import numpy as np

from randev.bitstream import _PASS_WORDS, _PIECE_BITS, BitSequence, _pieces, _words
from randev.config import _integer
from randev.stats import (AnalysisReport, EstimatorError, InsufficientDataError, PairCounts,
                          _analysis, _empty, _lag1, _LagState, _merge_pairs, _merge_states,
                          _pair_counts, _state)

__all__ = ["LagAccumulator", "accumulate", "merge", "analyze", "analyze_parallel"]

# the largest max_lag.  A report's work and memory grow with its lags, not
# only with its bits: each piece's state and the lag tuple hold one int a
# lag, and a merge walks them all (2**14 lags of 2**20 bits take about
# 2 s of CPU and 46 MiB in ``randev analyze``).  A larger max_lag fails
# before any read, whatever the stream's length
_MAX_LAG = 1 << 14


def accumulate(counts: PairCounts, seq: BitSequence) -> PairCounts:
    """Fold a sequence into the counts, including the pair across the
    boundary between previously accumulated data and seq."""
    return _pair_counts(_fold(_lag1(counts), [seq]))


# the shift r = 0..63 of each row of a pass, and its carry's shift 64 - r,
# as columns that every pass slices
_SHIFTS = np.arange(64, dtype=np.uint64)[:, None]
_CARRIES = 64 - _SHIFTS


def _measure(seq: BitSequence, lags: tuple[int, ...]) -> _LagState:
    """The state of one piece, counted on its packed 64-bit words; its ones
    are the lag-0 products, the first row of the first pass."""
    n, data = seq.nbits, seq.data
    # no lag-k pair fits in n bits when k >= n; lags ascend
    return _state(lags, n, _lag_products(_words(data), [k for k in (0, *lags) if k < n]), data)


def _lag_products(words: np.ndarray, lags: list[int]) -> list[int]:
    """The lag-k product sums of ``_words`` for ascending lags below its
    bit count; lag 0 gives the ones.

    Each run of consecutive lags k = 64q + r of one word offset q makes
    the rows of one broadcast pass, as many as ``_PASS_WORDS`` allows, and
    a run of one lag one row: row i of word j is word q + j shifted down
    by r_i, ORed with the carry from word q + j + 1 shifted up by 64 - r_i
    (numpy gives 0 for a shift by 64), ANDed with word j."""
    width = len(words) - 1
    # one product and one carry array for every pass: a piece's worth of
    # them made and freed per lag can cost a page fault per page each time.
    # Two arrays, not one of twice the size, which raised the peak memory
    # of ``randev analyze`` by 0.4 MiB
    size = min(len(lags) * width, max(_PASS_WORDS, width))
    prod, carry = np.empty(size, words.dtype), np.empty(size, words.dtype)
    prods = []
    # consecutive lags share k - (their index)
    for (q, _), run in itertools.groupby(enumerate(lags), lambda ik: (ik[1] >> 6, ik[1] - ik[0])):
        run = [k for _, k in run]
        m = width - q
        rows = max(1, _PASS_WORDS // m)
        for i in range(0, len(run), rows):
            r, count = run[i] & 63, min(rows, len(run) - i)
            p, c = (a[:count * m].reshape(count, m) for a in (prod, carry))
            np.right_shift(words[q:q + m], _SHIFTS[r:r + count], out=p)
            np.left_shift(words[q + 1:q + 1 + m], _CARRIES[r:r + count], out=c)
            p |= c
            p &= words[:m]
            prods += np.bitwise_count(p).sum(axis=1).tolist()
    return prods


def _fold(state: _LagState, chunks, bits: int = _PIECE_BITS) -> _LagState:
    """``state`` followed by the chunks, cut into pieces of ``bits`` bits
    (which bounds a measure's numpy temporaries), each measured and
    merged in order."""
    for piece in _pieces(chunks, bits):
        state = _merge_states(state, _measure(piece, state.lags))
    return state


class LagAccumulator:
    """Streaming sums behind the lag-k serial autocorrelation: the
    one-lag state.  ``add`` folds a chunk in, piece by piece; ``merge``
    joins the states of consecutive pieces exactly."""

    __slots__ = ("_state",)

    def __init__(self, k: int):
        k = _integer(k, "lag k", EstimatorError)
        if k < 1:
            raise EstimatorError(f"lag k={k} must be at least 1")
        self._state = _empty((k,))

    k = property(lambda self: self._state.lags[0])
    n = property(lambda self: self._state.n)
    ones = property(lambda self: self._state.ones)
    sum_prod = property(lambda self: self._state.prods[0])

    def add(self, seq: BitSequence) -> None:
        self._state = _fold(self._state, [seq])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LagAccumulator):
            return NotImplemented
        return self._state == other._state

    def __repr__(self) -> str:
        return (f"LagAccumulator(k={self.k}, n={self.n}, ones={self.ones}, "
                f"sum_prod={self.sum_prod})")


def merge(a, b):
    """Combine two accumulators over consecutive stream pieces.

    Accepts two PairCounts made by ``accumulate`` or two
    LagAccumulators; both merge as lag states, so the result is field
    for field what serial accumulation over the joined stream produces.
    """
    if isinstance(a, PairCounts) and isinstance(b, PairCounts):
        return _merge_pairs(a, b)
    if isinstance(a, LagAccumulator) and isinstance(b, LagAccumulator):
        if a.k != b.k:
            raise EstimatorError(f"lag mismatch: {a.k} vs {b.k}")
        out = LagAccumulator(a.k)
        out._state = _merge_states(a._state, b._state)
        return out
    raise TypeError(
        f"cannot merge {type(a).__name__} with {type(b).__name__}"
    )


def _report(max_lag: int, fold) -> AnalysisReport:
    """The report of ``fold(state)``, the stream's lag state built on the
    empty state of lags 1..max_lag: the one check of max_lag, made before
    any chunk is read, and of the stream's length, made before any
    statistic."""
    max_lag = _integer(max_lag, "max_lag", EstimatorError)
    if max_lag < 1:
        raise EstimatorError(f"max_lag={max_lag} must be at least 1")
    if max_lag > _MAX_LAG:
        raise EstimatorError(f"max_lag={max_lag} must be at most {_MAX_LAG}")
    state = fold(_start(max_lag))
    if state.n < max_lag + 2:
        raise InsufficientDataError(
            f"analysis up to lag {max_lag} needs at least {max_lag + 2} bits, got {state.n}")
    return _analysis(state)


@functools.lru_cache(maxsize=16)
def _start(max_lag: int) -> _LagState:
    """The empty state of lags 1..max_lag, built once per max_lag: a state
    is an immutable tuple."""
    return _empty(tuple(range(1, max_lag + 1)))


def analyze(data, max_lag: int = 8) -> AnalysisReport:
    """Measure a stream: bias, autocorrelation for lags 1..max_lag,
    adjacent-pair information quantities, deviation, and length bound.

    ``data`` is one BitSequence or an iterable of BitSequence chunks in
    stream order, such as ``bitstream.read_stream`` of a file; chunked
    input produces the identical report.  A max_lag below 1 or above
    ``_MAX_LAG`` fails before any chunk is read.  An iterable is read once,
    a piece at a time, and a too-short one fails once it is measured.
    """
    if isinstance(data, BitSequence):
        data = [data]
    return _report(max_lag, lambda state: _fold(state, data))


# the bits a thread of analyze_parallel measures at a time.  Each pass's
# Python and numpy dispatch holds the GIL, so two threads measuring 2**20-bit
# pieces took twice as long as one; at 2**22 bits they outrun it
_SPAN_BITS = 4 * _PIECE_BITS


def analyze_parallel(seq: BitSequence, max_lag: int = 8,
                     workers: int | None = None) -> AnalysisReport:
    """analyze() with the sequence cut into one contiguous span per thread,
    on up to ``workers`` threads.

    No more threads start than there are pieces of ``_SPAN_BITS`` bits.
    Each thread measures its span a piece at a time and merges the pieces
    in order, and the spans' states are merged in order.  Every count is
    an exact integer, so the report equals analyze()'s field for field.
    Unlike analyze(), it takes one ``BitSequence`` only, not chunks, as
    it cuts the spans by length; anything else raises TypeError.
    """
    if not isinstance(seq, BitSequence):
        raise TypeError(f"analyze_parallel needs a BitSequence, got {type(seq).__name__}")
    if workers is None:
        workers = os.cpu_count() or 1
    workers = _integer(workers, "workers", EstimatorError)
    if workers < 1:
        raise EstimatorError(f"workers={workers} must be at least 1")
    # imported here: its logging import would cost every other call
    from concurrent.futures import ThreadPoolExecutor

    # at least one thread, as a pool needs, and spans of whole pieces
    pieces = max(1, -(-seq.nbits // _SPAN_BITS))
    threads = min(workers, pieces)
    width = -(-pieces // threads) * _SPAN_BITS

    def fold(state):
        def span(start):
            cuts = range(start, min(start + width, seq.nbits), _SPAN_BITS)
            return _fold(state, (seq[i:i + _SPAN_BITS] for i in cuts), _SPAN_BITS)

        with ThreadPoolExecutor(threads) as pool:
            return functools.reduce(_merge_states, pool.map(span, range(0, seq.nbits, width)), state)

    return _report(max_lag, fold)
