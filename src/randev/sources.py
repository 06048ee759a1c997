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

All sources are driven by the same fully specified 64-bit base generator
(SplitMix64) so that identical (config, n) pairs yield identical bit
streams on any platform.  A live Source carries its state across calls:
generate(n1) followed by generate(n2) emits exactly the bits of a fresh
identically-configured source asked for n1 + n2 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from randev.bitstream import BitSequence, concat

__all__ = [
    "ParameterError",
    "RngState",
    "SourceConfig",
    "TransitionMatrix",
    "Source",
    "splitmix_next",
    "markov_transition_matrix",
    "generate",
    "SOURCE_KINDS",
    "DEADTIME_MODES",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

SOURCE_KINDS = ("ideal", "bernoulli", "splitter", "markov", "deadtime", "xorshift64")
DEADTIME_MODES = ("reroute", "loss")

# photons per pre-drawn block; blocks are aligned to absolute photon
# ordinals so regenerating a block yields identical floats no matter
# where generate() calls cut the stream
_PHOTON_BLOCK = 1 << 15

# bits per internal chunk; each chunk is packed as soon as it is made, so
# its 8-byte-per-bit temporaries stay small and in cache
_GEN_CHUNK = 1 << 16

# the dead-time simulator spends about tau_d/(2 tau) photons per emitted bit
_MAX_DEAD_RATIO = 1e4


class ParameterError(ValueError):
    """A source or model parameter is outside its admissible domain."""


@dataclass(frozen=True)
class RngState:
    """State of the base deterministic generator (SplitMix64)."""

    s: int

    def __post_init__(self):
        if not 0 <= self.s <= _MASK64:
            raise ParameterError(f"rng state must be a 64-bit unsigned value, got {self.s}")


def splitmix_next(state: RngState) -> tuple[RngState, int]:
    """Advance SplitMix64 by one step.

    The recurrence, bit-exact: s += 0x9E3779B97F4A7C15 (mod 2**64);
    z = s; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9; z = (z ^ (z >> 27))
    * 0x94D049BB133111EB; output z ^ (z >> 31).

    Returns:
        (new state, 64-bit output value).
    """
    s = (state.s + _GAMMA) & _MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return RngState(s), z ^ (z >> 31)


def uniform_from_output(value: int) -> float:
    """Map a 64-bit generator output to a uniform real in [0, 1)."""
    return (value >> 11) * 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    # vectorized SplitMix64 output mix; uint64 arithmetic wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniforms_at(seed: int, first_draw: int, count: int) -> np.ndarray:
    """Uniforms for draw indices first_draw .. first_draw+count-1 (1-based).

    SplitMix64's state after d draws is seed + d*GAMMA mod 2**64, so any
    range of draws can be produced without stepping through predecessors.
    """
    idx = np.arange(first_draw, first_draw + count, dtype=np.uint64)
    states = np.uint64(seed) + np.uint64(_GAMMA) * idx
    mixed = _mix64(states)
    return (mixed >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class TransitionMatrix:
    """Two-state chain: transition probabilities to 1 and stationary weights."""

    p1_given_0: float
    p1_given_1: float
    pi0: float
    pi1: float


def markov_transition_matrix(b: float, a1: float) -> TransitionMatrix:
    """Build the two-state chain with bias b and lag-1 autocorrelation a1.

    With p1 = (1+b)/2 and p0 = (1-b)/2 the chain
    p1_given_0 = p1*(1-a1), p1_given_1 = p1 + a1*p0 has stationary
    distribution (p0, p1), lag-1 autocorrelation exactly a1, and lag-k
    autocorrelation a1**k (a1 is the second eigenvalue).

    Raises:
        ParameterError: if |b| >= 1 or a1 falls outside the admissible
            interval [-(1-|b|)/(1+|b|), 1], which is required for all four
            transition probabilities to stay in [0, 1].
    """
    if not -1.0 < b < 1.0:
        raise ParameterError(f"bias b={b} must satisfy |b| < 1")
    lo = -(1.0 - abs(b)) / (1.0 + abs(b))
    if not lo <= a1 <= 1.0:
        raise ParameterError(
            f"a1={a1} outside admissible interval [{lo:.6g}, 1] for bias b={b}"
        )
    p1 = (1.0 + b) / 2.0
    p0 = (1.0 - b) / 2.0
    return TransitionMatrix(
        p1_given_0=p1 * (1.0 - a1),
        p1_given_1=p1 + a1 * p0,
        pi0=p0,
        pi1=p1,
    )


@dataclass(frozen=True)
class SourceConfig:
    """Parameterization of one source. Use the per-kind constructors."""

    kind: str
    p: float | None = None
    b: float | None = None
    a1: float | None = None
    tau: float | None = None
    tau_d: float | None = None
    seed: int = 0
    deadtime_mode: str = "reroute"

    @classmethod
    def ideal(cls, seed: int = 0) -> "SourceConfig":
        return cls(kind="ideal", seed=seed)

    @classmethod
    def bernoulli(cls, p: float, seed: int = 0) -> "SourceConfig":
        return cls(kind="bernoulli", p=p, seed=seed)

    @classmethod
    def splitter(cls, b: float, seed: int = 0) -> "SourceConfig":
        return cls(kind="splitter", b=b, seed=seed)

    @classmethod
    def markov(cls, b: float, a1: float, seed: int = 0) -> "SourceConfig":
        return cls(kind="markov", b=b, a1=a1, seed=seed)

    @classmethod
    def deadtime(cls, tau: float, tau_d: float, seed: int = 0,
                 mode: str = "reroute") -> "SourceConfig":
        """Event-driven two-detector pair with dead time.

        Photon arrivals advance by dt = -tau*ln(1-u); each photon is routed
        to detector 0 or 1 with probability 1/2.  In ``reroute`` mode
        (default) a photon whose routed detector is dead is detected by the
        other detector when that one is live, and lost only when both are
        dead.  In ``loss`` mode it is simply lost.  A detection emits the
        detector's label and sets that detector dead until arrival + tau_d.
        """
        return cls(kind="deadtime", tau=tau, tau_d=tau_d, seed=seed,
                   deadtime_mode=mode)

    @classmethod
    def xorshift64(cls, seed: int) -> "SourceConfig":
        """The xorshift64 state stream (s ^= s<<13; s ^= s>>7; s ^= s<<17).

        Each state update emits its 64 bits least-significant-first; the
        stream is fully determined by the 64-bit seed, so its total
        information content is bounded by 64 bits no matter how long it runs.
        """
        return cls(kind="xorshift64", seed=seed)

    def with_seed(self, seed: int) -> "SourceConfig":
        return replace(self, seed=seed)

    def validate(self) -> None:
        """Raise ParameterError unless the configuration is admissible."""
        if self.kind not in SOURCE_KINDS:
            raise ParameterError(
                f"unknown source kind {self.kind!r}: expected one of {SOURCE_KINDS}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"bernoulli requires 0 <= p <= 1, got p={self.p}")
        elif self.kind == "splitter":
            if self.b is None or not -1.0 < self.b < 1.0:
                raise ParameterError(f"splitter requires |b| < 1, got b={self.b}")
        elif self.kind == "markov":
            if self.b is None or self.a1 is None:
                raise ParameterError("markov requires both b and a1")
            markov_transition_matrix(self.b, self.a1)
        elif self.kind == "deadtime":
            if self.tau is None or not 0 < self.tau < math.inf:
                raise ParameterError(
                    f"deadtime requires finite tau > 0, got tau={self.tau}"
                )
            if self.tau_d is None or not 0 <= self.tau_d < math.inf:
                raise ParameterError(
                    f"deadtime requires finite tau_d >= 0, got tau_d={self.tau_d}"
                )
            if self.tau_d > _MAX_DEAD_RATIO * self.tau:
                raise ParameterError(
                    f"deadtime requires tau_d/tau <= {_MAX_DEAD_RATIO:g} (about "
                    f"tau_d/(2 tau) photons are spent per bit), got "
                    f"tau_d/tau={self.tau_d / self.tau:.6g}"
                )
            if self.deadtime_mode not in DEADTIME_MODES:
                raise ParameterError(
                    f"deadtime mode {self.deadtime_mode!r} not one of {DEADTIME_MODES}"
                )
        elif self.kind == "xorshift64":
            if self.seed == 0:
                raise ParameterError("xorshift64 requires a nonzero seed")


class Source:
    """A live, stateful bit source.

    Single-threaded mutable state: generate(n1) then generate(n2) emits
    exactly the bits a fresh source with the same config emits for
    n1 + n2 (bit-exact, including dead-time detector state across the
    call boundary).
    """

    def __init__(self, config: SourceConfig):
        config.validate()
        self.config = config
        self._draws = 0  # uniforms consumed (ideal/bernoulli/splitter/markov)
        kind = config.kind
        if kind == "markov":
            self._tm = markov_transition_matrix(config.b, config.a1)
            self._prev: int | None = None
        elif kind == "deadtime":
            self._photon = 0          # next photon ordinal
            self._t = 0.0             # current arrival clock
            self._dead = [0.0, 0.0]   # per-detector dead-until times
            self._block = (-1, None, None)
        elif kind == "xorshift64":
            self._x = config.seed
            self._pending = BitSequence(b"", 0)

    def generate(self, n: int) -> BitSequence:
        """Emit the next n bits of this source's stream."""
        if n < 0:
            raise ParameterError(f"bit count must be non-negative, got {n}")
        cfg = self.config
        if cfg.kind == "markov":
            chunk = self._markov_chunk
        elif cfg.kind == "deadtime":
            chunk = self._deadtime_bits
        elif cfg.kind == "xorshift64":
            chunk = self._xorshift_bits
        else:  # independent bits: ideal, bernoulli, splitter
            p = (0.5 if cfg.kind == "ideal" else
                 cfg.p if cfg.kind == "bernoulli" else (1.0 + cfg.b) / 2.0)

            def chunk(m):
                return self._uniforms(m) < p
        # every chunk but the last is whole bytes, so the packed parts join
        # exactly
        parts = [
            np.packbits(chunk(min(_GEN_CHUNK, n - start)), bitorder="little").tobytes()
            for start in range(0, n, _GEN_CHUNK)
        ]
        return BitSequence(b"".join(parts), n)

    # ---- base generator ----

    def _uniforms(self, count: int) -> np.ndarray:
        u = _uniforms_at(self.config.seed, self._draws + 1, count)
        self._draws += count
        return u

    # ---- markov ----

    def _markov_chunk(self, m: int) -> np.ndarray:
        # Renewal scan, bit-identical to the sequential definition
        # x_{i+1} ~ Bernoulli(p1_given_{x_i}) with one uniform per bit:
        # each uniform u either fixes the next bit outright (u decides the
        # same way from both states: a "reset"), or carries/flips the
        # previous bit.  Between resets every step is a carry (a1 >= 0)
        # or a flip (a1 < 0), so the chunk resolves with one segmented
        # maximum instead of a Python loop.
        tm = self._tm
        u = self._uniforms(m)
        from_zero = u < tm.p1_given_0
        from_one = u < tm.p1_given_1
        reset = from_zero == from_one
        value = from_zero.copy()
        if self._prev is None:
            # very first bit of the stream draws from the stationary law
            reset[0] = True
            value[0] = u[0] < tm.pi1
            prev = 0  # never consulted
        else:
            prev = self._prev
        idx = np.arange(m, dtype=np.int64)
        last = np.maximum.accumulate(np.where(reset, idx, np.int64(-1)))
        base = np.where(last >= 0, value[np.maximum(last, 0)], bool(prev))
        if self.config.a1 >= 0:
            bits = base
        else:
            # every non-reset step flips; parity of the gap decides
            flips = (idx - last) & np.int64(1)
            bits = base ^ flips.astype(bool)
        self._prev = int(bits[-1])
        return bits

    # ---- dead-time detector pair ----

    def _photon_uniform_block(self, g: int):
        # photon j consumes draws 2j+1 (inter-arrival) and 2j+2 (routing);
        # blocks are regenerated from absolute ordinals, so the floats are
        # identical regardless of call-boundary placement
        if self._block[0] == g:
            return self._block[1], self._block[2]
        first = 2 * g * _PHOTON_BLOCK + 1
        u = _uniforms_at(self.config.seed, first, 2 * _PHOTON_BLOCK)
        dts = (-self.config.tau) * np.log1p(-u[0::2])
        routes = u[1::2] < 0.5
        block = (g, dts.tolist(), routes.tolist())
        self._block = block
        return block[1], block[2]

    def _deadtime_bits(self, n: int) -> np.ndarray:
        tau_d = self.config.tau_d
        reroute = self.config.deadtime_mode == "reroute"
        out: list[int] = []
        append = out.append
        emitted = 0
        t = self._t
        d0, d1 = self._dead
        j = self._photon
        while emitted < n:
            g, off = divmod(j, _PHOTON_BLOCK)
            dts, routes = self._photon_uniform_block(g)
            consumed = _PHOTON_BLOCK
            for i in range(off, _PHOTON_BLOCK):
                t += dts[i]
                if routes[i]:
                    if t >= d1:
                        append(1)
                        d1 = t + tau_d
                        emitted += 1
                    elif reroute and t >= d0:
                        append(0)
                        d0 = t + tau_d
                        emitted += 1
                else:
                    if t >= d0:
                        append(0)
                        d0 = t + tau_d
                        emitted += 1
                    elif reroute and t >= d1:
                        append(1)
                        d1 = t + tau_d
                        emitted += 1
                if emitted == n:
                    consumed = i + 1
                    break
            j = g * _PHOTON_BLOCK + consumed
        self._t = t
        self._dead = [d0, d1]
        self._photon = j
        return np.array(out, dtype=np.uint8)

    # ---- xorshift64 demo ----

    def _xorshift_bits(self, n: int) -> np.ndarray:
        # state words are packed bits; those past n wait for the next call
        x = self._x
        words = []
        for _ in range((n - self._pending.nbits + 63) // 64):
            x ^= (x << 13) & _MASK64
            x ^= x >> 7
            x ^= (x << 17) & _MASK64
            words.append(x)
        self._x = x
        fresh = np.array(words, dtype="<u8").tobytes()
        bits = concat(self._pending, BitSequence(fresh, 8 * len(fresh)))
        self._pending = bits[n:]
        return bits.to_array()[:n]


def generate(config: SourceConfig, n: int) -> BitSequence:
    """Generate n bits from a fresh source with the given configuration."""
    return Source(config).generate(n)
