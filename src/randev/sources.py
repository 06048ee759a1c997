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

Every kind but xorshift64 is driven by SplitMix64 draws from
``randev.draws``, so identical (config, n) pairs yield identical bit
streams on any platform.  ``Source._draws`` is a source's SplitMix64
position, the draws it has consumed: one per bit for ideal, bernoulli,
splitter and markov, two per photon for dead time.

ideal, bernoulli and splitter are the two-state chain with equal rows,
``TransitionMatrix(p, p, 1 - p, p)``, and markov the chain of
``markov_transition_matrix``, so one chunk method makes all four.
When its two rows' thresholds are equal, a chunk is its draws' compare,
packed.  Otherwise it is made packed: its resets (the draws that fix a
bit whatever the bit before) are filled forward by one carry through the
chunk read as a Python int, so its cost does not depend on a1.

A dead-time chunk is one block of 2**14 photons, one draw block.  Once
its draws are read, the block's clock lives in the draws' scratch
buffer and its dead-until times over the spent draws.  Renewal photons
and the photon right after each renewal get their bits in vector form;
Python runs the photon-by-photon rule only for the rest of each cluster.

Each 2**16-bit xorshift64 chunk is made by the GF(2) jumps of
``randev.draws``; only the first 32 words of a source, and of a chunk
after one shorter than 2**16 bits, are stepped one at a time.  That
makes 1.3-1.7e9 bits/s on a 2-core Xeon VM, where a Python loop over the
words made 1.3-1.6e8.

A live Source carries its state across calls: generate(n1) followed by
generate(n2) emits exactly the bits of a fresh identically-configured
source asked for n1 + n2 bits.  It holds no scratch buffer of its own
(xorshift64's last chunk aside, which the next chunk jumps from): a
chunk is worked out in the buffers of the thread that makes it
(``draws._buffers``), so a fresh Source allocates none, and different
Sources may run on different threads at once.

A source's parameters, ``SourceConfig``, and their checks live in the
numpy-free ``randev.config``.
"""

from __future__ import annotations

import math

# randev's modules first, so a ``generate`` child compiles them before
# numpy is mapped in
from randev.bitstream import BitSequence, concat
from randev.config import _MASK64, ParameterError, SourceConfig, _chain_matrix, _integer
from randev.draws import _DRAWS, _GEN_CHUNK, _buffers, _draw, _jump, _threshold, _xorshift_tables

import numpy as np

__all__ = ["Source", "generate"]

# photons per dead-time chunk; a chunk always simulates a whole block,
# so the detector state changes only at block ends, and takes two draws
# per photon, one draw block in all
_PHOTON_BLOCK = _DRAWS // 2

_EMPTY = BitSequence(b"", 0)

# the dead-time value of a lost photon, beside the bits 0 and 1
_LOST = 2

# a flip chain's parity of each bit position i of a chunk, (i + 1) & 1
_ODD = int.from_bytes(b"\x55" * (_GEN_CHUNK // 8), "little")


class Source:
    """A live, stateful bit source.

    Mutable state for one thread at a time (different Sources may run on
    different threads at once): generate(n1) then generate(n2) emits
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
        # the kind's chunk method, (src, m) -> src's next bits, packed, for
        # m <= _GEN_CHUNK: exactly m bits for the chain kinds, whole 64-bit
        # state words for xorshift64, and one whole photon block, however
        # many bits it emits, for dead time.  The plain function, not a
        # bound method, so a dropped Source is no cycle and frees at once
        kind = config.kind
        if kind == "deadtime":
            self._chunk = Source._deadtime_chunk
            # the state at the end of the last photon block
            self._t = 0.0             # arrival clock
            self._dead = [0.0, 0.0]   # per-detector dead-until times
        elif kind == "xorshift64":
            self._chunk = Source._xorshift_chunk
            self._x = config.seed
            self._words = np.empty(_GEN_CHUNK // 64, dtype="<u8")
            self._made = 0  # _words[:_made] hold the chunk made last
        else:
            # one draw per bit: the two-state chain, whose rows differ
            # only for markov.  A draw below both row thresholds is a reset
            # to 1, one between them a carry (a1 >= 0) or a flip (a1 < 0:
            # row 1's threshold below row 0's)
            self._chunk = Source._chain_chunk
            tm = _chain_matrix(config)
            t0, t1 = _threshold(tm.p1_given_0) << 11, _threshold(tm.p1_given_1) << 11
            self._lo, self._hi = min(t0, t1), max(t0, t1)
            self._pi1 = _threshold(tm.pi1) << 11
            self._odd = _ODD if t1 < t0 else 0
            self._prev: int | None = None  # the last bit made, once the fill runs

    def generate(self, n: int) -> BitSequence:
        """Emit the next n bits of this source's stream."""
        if (n := _integer(n, "bit count")) < 0:
            raise ParameterError(f"bit count must be non-negative, got {n}")
        part, parts, owed = self._pending, [], n
        while part.nbits < owed:
            if part.nbits:
                parts.append(part)
            owed -= part.nbits
            part = self._chunk(self, min(_GEN_CHUNK, owed))
        self._pending = part[owed:] if part.nbits > owed else _EMPTY
        part = part[:owed]
        return concat(*parts, part) if parts else part

    # ---- the two-state chain: ideal, bernoulli, splitter, markov ----

    def _chain_chunk(self, m):
        # Renewal scan, bit-identical to the sequential definition
        # x_{i+1} ~ Bernoulli(p1_given_{x_i}) with one uniform per bit:
        # each uniform u either fixes the next bit outright (u decides the
        # same way from both states: a "reset"), or carries/flips the
        # previous bit, so a chunk is its resets filled forward, on Python
        # ints: a 1 added just above each reset to 1, or at bit 0 when the
        # bit before the chunk is 1, carries up its run of free bits and
        # stops at the next reset.  With equal thresholds every draw is a
        # reset, and the chunk is the packed compare; pi1 lies between the
        # rows, so the stationary first bit is that compare too
        out, tmp, below_lo, below_hi = _buffers()
        lo, hi = self._lo, self._hi
        for i in range(0, m, _DRAWS):
            z = _draw(self, min(_DRAWS, m - i), out, tmp)
            np.less(z, lo, out=below_lo[i:i + z.size])
            if lo < hi:
                np.less(z, hi, out=below_hi[i:i + z.size])
                if not i and self._prev is None:
                    # very first bit of the stream draws from the stationary law
                    below_lo[0] = below_hi[0] = int(z[0]) < self._pi1
        ones = np.packbits(below_lo[:m], bitorder="little")
        if lo == hi:
            return BitSequence(ones.tobytes(), m)
        # ones: 1 at the resets to 1, free: 1 at the bits that are no reset
        ones = int.from_bytes(ones, "little")
        free = int.from_bytes(np.packbits(below_hi[:m], bitorder="little"), "little") ^ ones
        # a flip chain has bit i its last reset's value xor the parity of
        # the steps since, so each position's parity is xored into the
        # resets before the fill and into every bit after it; an even
        # shift keeps the pattern and leaves m or m + 1 bits of it
        odd = self._odd >> ((_GEN_CHUNK - m) & ~1)
        ones ^= odd & ~free
        bits = ones | ((free + (ones << 1 | (self._prev or 0))) ^ free) & free
        # no bit at or above m is set, so none is masked: & free drops
        # the carry out of the top run, and there the two xors cancel
        bits ^= odd
        self._prev = bits >> (m - 1)
        return BitSequence(bits.to_bytes(-(-m // 8), "little"), m)

    # ---- dead-time detector pair ----

    def _deadtime_chunk(self, m):
        # A photon with t_i >= t_{i-1} + tau_d is a renewal point: every
        # dead-until time is some earlier t + tau_d <= t_{i-1} + tau_d
        # (float addition is monotone), so both detectors are live and it
        # emits its route bit.  Only the other photons, the clusters, need
        # the detector state (see _clusters).
        # One whole block, however many bits are owed: photon j of the
        # stream takes draws 2j+1 (inter-arrival) and 2j+2 (route).
        # (z >> 11) * 2**-53 is the uniform of z; all the draws are
        # shifted, as one contiguous pass took less time than a strided
        # pass over the inter-arrival half
        tau, tau_d = self.config.tau, self.config.tau_d
        out, tmp, value, _ = _buffers()
        z = _draw(self, _DRAWS, out, tmp)
        np.right_shift(z, 11, out=z)
        # the clock before and at each photon, in the draws' scratch
        # buffer, which is free once the block's draws are made, and each
        # photon's code, the bit it emits or _LOST
        times = tmp.view(np.float64)[:_PHOTON_BLOCK + 1]
        value = value.view(np.uint8)[:_PHOTON_BLOCK]
        dts = times[1:]
        np.multiply(z[0::2], -2.0**-53, out=dts)  # minus the uniform, exactly
        np.log1p(dts, out=dts)
        np.multiply(dts, -tau, out=dts)
        np.less(z[1::2], _threshold(0.5), out=value)
        # the draws are read: the dead-until times, times + tau_d, go
        # over them
        until = z.view(np.float64)[:_PHOTON_BLOCK + 1]
        times[0] = self._t
        np.add.accumulate(times, out=times)
        np.add(times, tau_d, out=until)
        self._clusters(times, until, value)
        codes = value.tobytes()
        # the carried state: the clock, and each detector's last
        # detection time plus tau_d
        for k in (0, 1):
            if (j := codes.rfind(k)) >= 0:
                self._dead[k] = float(until[j + 1])
        self._t = float(times[-1])
        # the bits: the codes of every photon that was not lost
        bits = np.frombuffer(codes.replace(bytes([_LOST]), b""), dtype=np.uint8)
        return BitSequence(np.packbits(bits, bitorder="little").tobytes(), bits.size)

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

    def _xorshift_chunk(self, m):
        # words[i] is M**(i + 1) applied to the word before the chunk, for
        # one xorshift step M, and word i + 2**k is M**(2**k) applied to
        # word i.  A chunk that follows a whole 2**16-bit chunk is one jump
        # by M**1024 from it; any other steps 32 words on from the carried
        # word and doubles from there
        tables, words = _xorshift_tables(), self._words
        k = (m + 63) // 64
        if self._made == _GEN_CHUNK // 64:
            _jump(tables[-1], words[:k], words[:k])
        else:
            # a jump costs the numpy overhead of about 16 steps, so
            # doubling pays from about 32 words on
            x, stepped = self._x, []
            for _ in range(min(k, 32)):
                x ^= (x << 13) & _MASK64
                x ^= x >> 7
                x ^= (x << 17) & _MASK64
                stepped.append(x)
            made = len(stepped)
            words[:made] = stepped
            while made < k:
                step = min(made, k - made)
                _jump(tables[made.bit_length() - 1], words[:step], words[made:made + step])
                made += step
        self._made = k
        self._x = int(words[k - 1])
        return BitSequence(words[:k].tobytes(), 64 * k)


def generate(config: SourceConfig, n: int) -> BitSequence:
    """Generate n bits from a fresh source with the given configuration."""
    return Source(config).generate(n)
