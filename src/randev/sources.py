"""Seeded, reproducible simulators of binary randomness-generation processes.

Six source kinds are provided:

* ``ideal``      -- fair independent bits.
* ``bernoulli``  -- independent bits with P(1) = p.
* ``splitter``   -- unbalanced-splitter source: independent bits with
                    P(1) = (1 + b)/2 for bias b.
* ``markov``     -- stationary two-state chain with bias b and lag-1
                    autocorrelation a1 (lag-k autocorrelation a1**k).
* ``deadtime``   -- event-driven two-detector simulation with exponential
                    photon inter-arrival times (mean tau) and per-detector
                    dead time tau_d; dead time induces negative a1.
* ``xorshift64`` -- deterministic 64-bit xorshift state stream, emitted
                    64 bits per update, least-significant bit first.

xorshift64 is linear over GF(2): one step is a fixed 64x64 bit matrix M,
and word i + 2**k of the stream is M**(2**k) applied to word i.  Each
2**16-bit chunk is made by such jumps, one table lookup per byte of each
word, from tables of M**(2**k) for k = 0..10 (16 KiB each) built once per
process on first use; only the first 32 words of a source, and of a
chunk after one shorter than 2**16 bits, are stepped one at a time.
That makes 1.3-1.7e9 bits/s on a 2-core Xeon VM, where a Python loop
over the words made 1.3-1.6e8.

All sources are driven by the same fully specified 64-bit base generator
(SplitMix64) so that identical (config, n) pairs yield identical bit
streams on any platform.  ``Source._draws`` is a source's SplitMix64
position, the draws it has consumed, for every kind but xorshift64: one
per bit for ideal, bernoulli, splitter and markov, two per photon for
dead time, all made by ``Source._drawer`` in blocks of at most
``_DRAWS`` = 2**15 draws, so the draws of a 2**16-bit chunk take 256 KiB
and are compared into the chunk's bool buffers a block at a time.  A
draw z stands for the uniform (z >> 11) * 2**-53, and a bit that is 1
when that uniform is below p compares z itself with
``_threshold(p) << 11``, so no draw is shifted first.

A markov chunk is made packed: its resets (the draws that fix a bit
whatever the bit before) are filled forward by one carry through the
chunk read as a Python int, so its cost does not depend on a1.

A dead-time chunk is one block of 2**14 photons, one draw block.  Once
its draws are read, the block's clock lives in the drawer's scratch
buffer and its dead-until times over the spent draws.  Renewal photons
and the photon right after each renewal get their bits in vector form;
Python runs the photon-by-photon rule only for the rest of each cluster.

The SplitMix64 step offsets d*GAMMA of a draw block are a table built
like the xorshift64 tables: once per process, read-only, and only by
the kinds that use it.  Each call slices it, so a 2**14-bit
``generate`` after the first builds none.

A live Source carries its state across calls: generate(n1) followed by
generate(n2) emits exactly the bits of a fresh identically-configured
source asked for n1 + n2 bits.

A source's parameters, ``SourceConfig``, and their checks live in the
numpy-free ``randev.config``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from randev.bitstream import BitSequence, concat
from randev.config import _MASK64, ParameterError, SourceConfig, _integer, markov_transition_matrix

__all__ = ["Source", "generate"]

_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64's output mix, as numpy scalars built once
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)

# bits per internal chunk; each chunk is packed as soon as it is made, and
# its temporaries live in buffers a Source allocates once, and again only
# for a call that needs larger ones
_GEN_CHUNK = 1 << 16

# SplitMix64 draws per block: a chunk draws and compares its bits a block
# at a time, so the drawer's two uint64 buffers and the step table hold
# 256 KiB each, where a chunk's draws would take 512 KiB each
_DRAWS = 1 << 15

# photons per dead-time chunk; a chunk always simulates a whole block,
# so the detector state changes only at block ends, and takes two draws
# per photon, one draw block in all
_PHOTON_BLOCK = _DRAWS // 2

# the offset of byte b's row in a flattened (8, 256) jump table, as a
# column; a uint8 byte plus a uint16 offset stays a uint16 index
_BYTE_ROWS = np.arange(0, 8 * 256, 256, dtype=np.uint16)[:, None]

_EMPTY = BitSequence(b"", 0)

# the dead-time value of a lost photon, beside the bits 0 and 1
_LOST = 2


def _threshold(p: float) -> int:
    """The integer T with ``(z >> 11) < T`` exactly when ``(z >> 11) * 2**-53 < p``,
    the uniform in [0, 1) that a 64-bit output z stands for.

    ``(z >> 11) * 2**-53`` and ``p * 2**53`` are exact floats, and an
    integer is below a real exactly when it is below that real's ceiling.
    """
    return max(0, math.ceil(p * 2.0**53))


class Source:
    """A live, stateful bit source.

    Single-threaded mutable state: generate(n1) then generate(n2) emits
    exactly the bits a fresh source with the same config emits for
    n1 + n2.  Each kind makes its bits in whole units (dead time a whole
    photon block, xorshift64 whole state words), and the bits a call makes
    past its request wait in the source for the next call, so every way
    of cutting the stream into calls makes the same units.
    """

    def __init__(self, config: SourceConfig):
        config.validate()
        if type(config.seed) is not int:
            config = config._replace(seed=int(config.seed))  # a numpy seed as an int
        self.config = config
        self._draws = 0  # SplitMix64 draws consumed (all kinds but xorshift64)
        self._pending = _EMPTY  # made, not yet emitted
        # the chunk function of the largest call so far, and its size; it
        # takes the source it advances and holds none, so a dropped Source
        # frees its buffers at once, not at the next garbage collection
        self._chunk, self._size = None, 0
        kind = config.kind
        if kind == "markov":
            self._tm = markov_transition_matrix(config.b, config.a1)
            self._prev: int | None = None
        elif kind == "deadtime":
            # the state at the end of the last photon block
            self._t = 0.0             # arrival clock
            self._dead = [0.0, 0.0]   # per-detector dead-until times
        elif kind == "xorshift64":
            self._x = self.config.seed

    def generate(self, n: int) -> BitSequence:
        """Emit the next n bits of this source's stream."""
        if (n := _integer(n, "bit count")) < 0:
            raise ParameterError(f"bit count must be non-negative, got {n}")
        part, parts, owed = self._pending, [], n
        if part.nbits < n and (size := min(n - part.nbits, _GEN_CHUNK)) > self._size:
            self._chunk, self._size = self._chunks(size), size
        while part.nbits < owed:
            if part.nbits:
                parts.append(part)
            owed -= part.nbits
            part = self._chunk(self, min(_GEN_CHUNK, owed))
        self._pending = part[owed:] if part.nbits > owed else _EMPTY
        part = part[:owed]
        return concat(*parts, part) if parts else part

    def _chunks(self, size: int):
        """A function (src, m) -> source src's next bits, packed, for m <= size:
        exactly m bits for ideal, bernoulli, splitter and markov, whole
        64-bit state words for xorshift64, and one whole photon block,
        however many bits it emits, for dead time.  Its buffers are
        allocated once here, so a chunk allocates nothing large (dead
        time's lists of clustered photons aside)."""
        cfg = self.config
        if cfg.kind == "markov":
            return self._markov_chunks(size)
        if cfg.kind == "deadtime":
            return self._deadtime_chunks()
        if cfg.kind == "xorshift64":
            return self._xorshift_chunks(size)
        # independent bits: ideal, bernoulli, splitter
        p = (0.5 if cfg.kind == "ideal" else
             cfg.p if cfg.kind == "bernoulli" else (1.0 + cfg.b) / 2.0)
        threshold = _threshold(p) << 11
        draw, _ = self._drawer(size)
        below = np.empty(size, dtype=bool)

        def chunk(src, m):
            for i in range(0, m, _DRAWS):
                z = draw(src, min(_DRAWS, m - i))
                np.less(z, threshold, out=below[i:i + z.size])
            return BitSequence(np.packbits(below[:m], bitorder="little").tobytes(), m)
        return chunk

    # ---- base generator ----

    def _drawer(self, size: int):
        """A function (src, m) -> the SplitMix64 outputs z of source src's
        next m <= min(size, _DRAWS) draws, which advances ``src._draws``,
        and its scratch buffer, free between calls.  A caller compares z
        with ``_threshold(p) << 11``: ``(z >> 11) < T`` exactly when
        ``z < T * 2**11``, so no draw is shifted to be compared.

        SplitMix64's state after d draws is seed + d*GAMMA mod 2**64, so
        any range of draws is a base plus the fixed steps d*GAMMA, a table
        built once per process.  Every call writes into the same buffers,
        allocated here once, and returns a view of them.
        """
        size = min(size, _DRAWS)
        steps = _gamma_steps()
        out = np.empty(size, dtype=np.uint64)
        tmp = np.empty(size, dtype=np.uint64)

        def draw(src: Source, m: int) -> np.ndarray:
            z, t = out[:m], tmp[:m]
            base = (src.config.seed + (src._draws + 1) * _GAMMA) & _MASK64
            src._draws += m
            np.add(steps[:m], base, out=z)
            # the output mix; uint64 arithmetic wraps mod 2**64
            np.bitwise_xor(z, np.right_shift(z, _S30, out=t), out=z)
            np.multiply(z, _MIX1, out=z)
            np.bitwise_xor(z, np.right_shift(z, _S27, out=t), out=z)
            np.multiply(z, _MIX2, out=z)
            return np.bitwise_xor(z, np.right_shift(z, _S31, out=t), out=z)
        return draw, tmp

    # ---- markov ----

    def _markov_chunks(self, size: int):
        # Renewal scan, bit-identical to the sequential definition
        # x_{i+1} ~ Bernoulli(p1_given_{x_i}) with one uniform per bit:
        # each uniform u either fixes the next bit outright (u decides the
        # same way from both states: a "reset"), or carries/flips the
        # previous bit.  A draw below both thresholds is a reset to 1, one
        # between them a carry (a1 >= 0) or a flip (a1 < 0), so a chunk is
        # its resets filled forward, on Python ints: a 1 added just above
        # each reset to 1, or at bit 0 when the bit before the chunk is 1,
        # carries up its run of free bits and stops at the next reset.
        tm = self._tm
        lo, hi = sorted(_threshold(p) << 11 for p in (tm.p1_given_0, tm.p1_given_1))
        stationary = _threshold(tm.pi1) << 11
        draw, _ = self._drawer(size)
        below_lo = np.empty(size, dtype=bool)
        below_hi = np.empty(size, dtype=bool)
        # a flip chain's bit i is its last reset's value xor the parity of
        # the steps since; each position's parity, (i + 1) & 1, is xored
        # into the resets before the fill and into every bit after it
        odd = int.from_bytes(b"\x55" * -(-size // 8), "little") if self.config.a1 < 0 else 0

        def chunk(src, m):
            for i in range(0, m, _DRAWS):
                z = draw(src, min(_DRAWS, m - i))
                np.less(z, lo, out=below_lo[i:i + z.size])
                np.less(z, hi, out=below_hi[i:i + z.size])
                if not i and src._prev is None:
                    # very first bit of the stream draws from the stationary law
                    below_lo[0] = below_hi[0] = int(z[0]) < stationary
            # ones: 1 at the resets to 1, free: 1 at the bits that are no reset
            ones = int.from_bytes(np.packbits(below_lo[:m], bitorder="little"), "little")
            free = int.from_bytes(np.packbits(below_hi[:m], bitorder="little"), "little") ^ ones
            ones ^= odd & ~free
            bits = ones | ((free + (ones << 1 | (src._prev or 0))) ^ free) & free
            # no bit at or above m is set, so none is masked: & free drops
            # the carry out of the top run, and there the two xors cancel
            bits ^= odd
            src._prev = bits >> (m - 1)
            return BitSequence(bits.to_bytes(-(-m // 8), "little"), m)
        return chunk

    # ---- dead-time detector pair ----

    def _deadtime_chunks(self):
        # A photon with t_i >= t_{i-1} + tau_d is a renewal point: every
        # dead-until time is some earlier t + tau_d <= t_{i-1} + tau_d
        # (float addition is monotone), so both detectors are live and it
        # emits its route bit.  Only the other photons, the clusters, need
        # the detector state (see _clusters).
        tau, tau_d = self.config.tau, self.config.tau_d
        draw, scratch = self._drawer(_DRAWS)
        # the clock before and at each photon, in the drawer's scratch
        # buffer, which is free once a block's draws are made
        times = scratch.view(np.float64)[:_PHOTON_BLOCK + 1]
        value = np.empty(_PHOTON_BLOCK, dtype=np.uint8)  # bit emitted, or _LOST

        def chunk(src, m):
            # one whole block, however many bits are owed: photon j of
            # the stream takes draws 2j+1 (inter-arrival) and 2j+2 (route)
            # (z >> 11) * 2**-53 is the uniform of z; all the draws are
            # shifted, as one contiguous pass took less time than a strided
            # pass over the inter-arrival half
            z = draw(src, _DRAWS)
            np.right_shift(z, 11, out=z)
            dts = times[1:]
            np.multiply(z[0::2], -2.0**-53, out=dts)  # minus the uniform, exactly
            np.log1p(dts, out=dts)
            np.multiply(dts, -tau, out=dts)
            np.less(z[1::2], _threshold(0.5), out=value)
            # the draws are read: the dead-until times, times + tau_d, go
            # over them
            until = z.view(np.float64)[:_PHOTON_BLOCK + 1]
            times[0] = src._t
            np.add.accumulate(times, out=times)
            np.add(times, tau_d, out=until)
            src._clusters(times, until, value)
            codes = value.tobytes()
            # the carried state: the clock, and each detector's last
            # detection time plus tau_d
            for k in (0, 1):
                if (j := codes.rfind(k)) >= 0:
                    src._dead[k] = float(until[j + 1])
            src._t = float(times[-1])
            # the bits: the codes of every photon that was not lost
            bits = np.frombuffer(codes.replace(bytes([_LOST]), b""), dtype=np.uint8)
            return BitSequence(np.packbits(bits, bitorder="little").tobytes(), bits.size)
        return chunk

    def _clusters(self, t, until, value):
        # value holds every photon's route and gets the bits of those that
        # are not renewals.  A renewal leaves its own detector dead until
        # its t + tau_d and the other live, so the photon after it, if no
        # renewal, has a closed-form bit: under reroute the bit the renewal
        # did not emit, under loss its route, or lost if routed to the
        # renewal's detector.  The sequential rule runs for the later
        # photons of a cluster, from the state that renewal and the photon
        # after it leave, and for a cluster that opens the block, from the
        # carried dead-until times.
        # was_late[i + 1]: photon i is no renewal.  was_late[0] stands for
        # photon 0's predecessor, in the block before, whose state is not
        # known here: set, so photon 0 is never taken for a first photon
        was_late = np.empty(value.size + 1, dtype=bool)
        was_late[0] = True
        late = np.flatnonzero(np.less(t[1:], until[:-1], out=was_late[1:]))
        after_late = was_late[late]
        after_renewal = ~after_late
        first = late[after_renewal]
        starts = late[1:][after_late[1:] & after_renewal[:-1]]  # right after a first photon
        late = late[after_late]
        bit = value[first - 1]  # each renewal's bit
        if self.config.deadtime_mode == "reroute":
            value[first] = bit ^ 1
        else:
            value[first[value[first] == bit]] = _LOST
        # per start: the renewal's bit and dead-until time, the first
        # photon's value and dead-until time, and the start's route
        restart = iter(zip(value[starts - 2].tolist(), until[starts - 1].tolist(),
                           value[starts - 1].tolist(), until[starts].tolist(),
                           value[starts].tolist()))
        value[starts] = _LOST + 1  # the code that restarts the rule
        tau_d = self.config.tau_d
        reroute = self.config.deadtime_mode == "reroute"
        d0, d1 = self._dead
        out = []
        append = out.append
        for ti, r in zip(t[late + 1].tolist(), value[late].tolist()):
            if r > _LOST:
                b, renewed, v, after, r = next(restart)
                if v == _LOST:
                    after = -math.inf
                d0, d1 = (after, renewed) if b else (renewed, after)
            if r:
                if ti >= d1:
                    d1 = ti + tau_d
                    append(1)
                elif reroute and ti >= d0:
                    d0 = ti + tau_d
                    append(0)
                else:
                    append(_LOST)
            elif ti >= d0:
                d0 = ti + tau_d
                append(0)
            elif reroute and ti >= d1:
                d1 = ti + tau_d
                append(1)
            else:
                append(_LOST)
        value[late] = out

    # ---- xorshift64 demo ----

    def _xorshift_chunks(self, size: int):
        # words[i] is M**(i + 1) applied to the word before the chunk, for
        # one xorshift step M, and word i + 2**k is M**(2**k) applied to
        # word i.  A chunk that follows a whole 2**16-bit chunk is one jump
        # by M**1024 from it; any other steps 32 words on from the carried
        # word and doubles from there
        tables = _xorshift_tables()
        words = np.empty((size + 63) // 64, dtype="<u8")
        made = 0  # words[:made] hold the chunk made last

        def chunk(src, m):
            nonlocal made
            k = (m + 63) // 64
            if made == _GEN_CHUNK // 64:
                _jump(tables[-1], words[:k], words[:k])
            else:
                # a jump costs the numpy overhead of about 16 steps, so
                # doubling pays from about 32 words on
                x, stepped = src._x, []
                for _ in range(min(k, 32)):
                    x ^= (x << 13) & _MASK64
                    x ^= x >> 7
                    x ^= (x << 17) & _MASK64
                    stepped.append(x)
                made = len(stepped)
                words[:made] = stepped
                while made < k:
                    step = min(made, k - made)
                    _jump(tables[made.bit_length() - 1], words[:step],
                          words[made:made + step])
                    made += step
            made = k
            src._x = int(words[k - 1])
            return BitSequence(words[:k].tobytes(), 64 * k)
        return chunk


def _read_only(table: np.ndarray) -> np.ndarray:
    """The table, made read-only: the cached tables below are shared by
    every source in the process."""
    table.flags.writeable = False
    return table


@functools.cache
def _gamma_steps() -> np.ndarray:
    """d*GAMMA mod 2**64 for the draws d = 0 .. _DRAWS - 1 of a block."""
    steps = np.arange(_DRAWS, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    return _read_only(steps)


@functools.cache
def _xorshift_tables() -> np.ndarray:
    """The (levels, 8, 256) tables of M**(2**k), k = 0 .. log2(_GEN_CHUNK/64),
    for one xorshift step M: entry [k, b, v] is M**(2**k) applied to the
    word v << 8*b (jump ahead by byte tables, as in Haramoto et al. 2008,
    "Efficient jump ahead for F2-linear random number generators").
    Built once per process; 16 KiB per level."""
    # column j of M is M applied to the word with only bit j set
    cols = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)).astype("<u8")
    cols ^= cols << np.uint64(13)
    cols ^= cols >> np.uint64(7)
    cols ^= cols << np.uint64(17)
    tables = np.zeros(((_GEN_CHUNK // 64).bit_length(), 8, 256), dtype=np.uint64)
    for table in tables:
        # entry v of byte b: the xor of columns 8b + i over the bits i of v
        for i, col in enumerate(cols.reshape(8, 8).T):
            table[:, 1 << i:2 << i] = table[:, :1 << i] ^ col[:, None]
        # the columns of the square
        _jump(table, cols, cols)
    return _read_only(tables)


def _jump(table: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """out = the linear map of ``table`` (see _xorshift_tables) applied to
    each of ``words``, little-endian uint64 arrays of one length."""
    idx = np.add(words.view(np.uint8).reshape(-1, 8).T, _BYTE_ROWS)
    np.bitwise_xor.reduce(table.take(idx), axis=0, out=out)


def generate(config: SourceConfig, n: int) -> BitSequence:
    """Generate n bits from a fresh source with the given configuration."""
    return Source(config).generate(n)
