"""The stream monitor: the counts of a chunked stream's fixed windows, the
alarm rule on each window's deviation, and the CSV line ``randev monitor``
prints for it.

``_monitor_stream`` scans the windows in stream order and writes one line
per window, ``index,deviation,sigma,status``, flushed as each read's
windows are counted.  A complete window raises ``ALARM`` when its
deviation exceeds ``sigma_k`` of its sigma and, if one is set, the
deviation threshold; the last, shorter window is ``incomplete``.

``_window_counts`` gives the PairCounts of each window of ``w`` bits.
It counts all the windows of a chunk in one pass over the chunk's words:
a window's one-count and lag-1 product are differences of running
popcounts at its first and last bit, its pair cells are derived as
``_pair_counts`` derives them (``stats._pair_cells``), and a window
that spans chunks is merged from its parts.  The windows a chunk
completes become PairCounts ``_WINDOW_BATCH`` at a time, so a read of
many small windows holds few of them as Python objects.

The words come from ``bitstream._words`` and the counts' arithmetic
from ``randev.stats``, so ``monitor`` does not compile the lag kernel of
``estimators``, and ``analyze``, which imports that module, does not
compile this one.
"""

from __future__ import annotations

import math
import sys

# randev's modules before numpy: a child run without bytecode files
# compiles them from source, and does so at a lower peak before numpy is
# mapped in
from randev.config import MonitorConfig
from randev.model import deviation_sigma
from randev.stats import PairCounts, _merge_pairs, _pair_cells, deviation_plugin
from randev.bitstream import _PASS_WORDS, _words

import numpy as np


# windows ``_window_counts`` turns into PairCounts at a time, so a read
# that completes thousands of small windows holds few of them as objects
_WINDOW_BATCH = 128


def _monitor_stream(chunks, config: MonitorConfig) -> int:
    """Sequential window scan of the chunks, whose order is semantic, so no
    parallelism; 2 if any window raised an alarm, else 0.  The lines of
    the windows each chunk completes are written and flushed in batches of
    ``_WINDOW_BATCH`` before the next is read, so a pipe reader sees a
    line once its window's bits arrive."""
    w = config.window_bits
    alarmed, index = False, 0
    for windows in _window_counts(chunks, w):
        lines = []
        for counts in windows:
            d_hat = sigma = math.nan
            if counts.n >= 2:
                d_hat = deviation_plugin(counts)
                sigma = deviation_sigma(d_hat, counts.n)
            status = "incomplete"
            if counts.n == w:
                alarm = d_hat > config.sigma_k * sigma
                if config.deviation_threshold is not None:
                    alarm = alarm and d_hat > config.deviation_threshold
                alarmed |= alarm
                status = "ALARM" if alarm else "ok"
            lines.append(f"{index},{d_hat:.6g},{sigma:.6g},{status}\n")
            index += 1
        sys.stdout.write("".join(lines))
        sys.stdout.flush()
    return 2 if alarmed else 0


def _window_counts(chunks, w: int):
    """The counts of the stream's consecutive windows of ``w`` bits, the
    last one shorter, in lists of at most ``_WINDOW_BATCH``: every window
    a chunk completes is given before the next chunk is read, and after
    the last chunk the incomplete window, if any.  Each count is
    ``accumulate(PairCounts(), window)`` field for field.

    A chunk is counted in one numpy pass over its words, whatever ``w``:
    a window's one-count and lag-1 product are differences of running
    popcounts at its edges.  A window that spans chunks is merged from its
    parts, so no window is held whole."""
    held = PairCounts()  # the window the chunks so far leave open
    buf = np.empty(0, "<u8")  # a chunk's words, reused so a read faults in no new pages
    for chunk in chunks:
        m = chunk.nbits
        if not m:
            continue
        if len(buf) < len(chunk.data) // 8 + 2:
            buf = np.empty(len(chunk.data) // 8 + 2, "<u8")
        # each window in the chunk, from its first bit to its last, at
        # pos[2j] and pos[2j + 1]; the first one continues ``held``
        starts = np.arange(-held.n, m, w)
        ends = np.minimum(starts + w, m)
        starts[0] = 0
        pos = np.empty(2 * starts.size, np.int64)
        pos[0::2], pos[1::2] = starts, ends - 1
        head, c11, bit = _window_sums(_words(chunk.data, buf), pos)
        ones = head + bit[1::2]
        fields = _pair_cells(ends - starts, ones, head, ones - bit[0::2], c11)
        # the first window continues ``held``; the last, if incomplete,
        # is held for the next chunk
        for i in range(0, starts.size, _WINDOW_BATCH):
            counts = list(map(PairCounts, *(a[i:i + _WINDOW_BATCH].tolist() for a in fields)))
            if not i and held.n:
                counts[0] = _merge_pairs(held, counts[0])
            if i + _WINDOW_BATCH >= starts.size:
                held = counts.pop() if counts[-1].n < w else PairCounts()
            if counts:
                yield counts
    if held.n:
        yield [held]


def _window_sums(words: np.ndarray, pos: np.ndarray):
    """For windows of ``_words`` from bit pos[2j] to bit pos[2j + 1]: the
    ones and the lag-1 products x[i]*x[i+1] at i from pos[2j] to
    pos[2j + 1] - 1, and the bit at each position.

    Counts in place, so no second array of words is made: the products
    replace the words once their popcounts are kept as bytes."""
    idx, shift = pos >> 6, (pos & 63).astype(np.uint64)
    ones_above = words[idx] >> shift  # the word of each position, from it up
    word_ones = np.bitwise_count(words)
    # a block's products need the words up to the next block's first,
    # which is not yet replaced; a block of the lag passes' budget bounds
    # the temporaries
    n = len(words) - 1
    for j in range(0, n, _PASS_WORDS):
        e = min(j + _PASS_WORDS, n)
        words[j:e] &= (words[j:e] >> 1) | (words[j + 1:e + 1] << 63)
    pairs_above = words[idx] >> shift
    pairs = _set_bits_before(np.bitwise_count(words, out=words), idx, pairs_above)
    words[:] = word_ones
    ones = _set_bits_before(words, idx, ones_above)
    return np.diff(ones)[0::2], np.diff(pairs)[0::2], (ones_above & 1).astype(np.int64)


def _set_bits_before(counts: np.ndarray, idx: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The set bits before some positions, as int64: ``counts`` holds each
    word's popcount, ``idx`` (ascending) the word of each position, and
    ``above`` that word's bits from the position up."""
    cuts = np.concatenate(([0], idx))
    whole = np.add.reduceat(counts, cuts)[:-1]  # the words before idx[i], from idx[i-1]
    # reduceat gives the element at an empty range's start, not 0
    whole[cuts[1:] == cuts[:-1]] = 0
    return (np.cumsum(whole) + counts[idx] - np.bitwise_count(above)).astype(np.int64)
