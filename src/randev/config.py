"""Source and monitor configurations, their validation, and the names the
parser offers.

This module imports nothing but the standard library, so the commands
that only parse arguments or evaluate closed forms (``--help``,
``predict``, ``nmax``) load no numpy.  ``sources`` and ``model`` take
their parameter types, their checks and the two-state chain each kind
draws from (``_chain_matrix``) from here, ``cli`` the parameters each
source kind reads (``_PARAMS``, which ``SourceConfig.validate`` also
holds a config to), ``bitstream`` its format names, and ``windows`` the
monitor's ``MonitorConfig``, whose defaults the parser offers.

The records are ``NamedTuple``s: ``_replace`` makes a changed copy,
``_asdict`` gives the fields in order, and a record compares equal to
the plain tuple of its fields.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

__all__ = [
    "DEADTIME_MODES",
    "MonitorConfig",
    "ParameterError",
    "SOURCE_KINDS",
    "SourceConfig",
    "TransitionMatrix",
    "markov_transition_matrix",
]

_MASK64 = (1 << 64) - 1

SOURCE_KINDS = ("ideal", "bernoulli", "splitter", "markov", "deadtime", "xorshift64")
DEADTIME_MODES = ("reroute", "loss")

# the parameters each kind reads, besides its seed and the dead-time mode;
# a kind not listed reads none
_PARAMS = {"bernoulli": ("p",), "splitter": ("b",), "markov": ("b", "a1"),
           "deadtime": ("tau", "tau_d")}

# the bit-file formats of ``bitstream``
_FORMATS = ("raw", "ascii")

# the dead-time simulator spends about tau_d/(2 tau) photons per emitted bit
_MAX_DEAD_RATIO = 1e4

# monitor holds no window whole, only the counts of its parts read so far,
# so its memory does not depend on the window; the cap keeps the interface
_MAX_WINDOW_BITS = 1 << 32


class ParameterError(ValueError):
    """A source or model parameter is outside its admissible domain."""


def _integer(value, name: str, error: type[ValueError] = ParameterError) -> int:
    """``value`` as an int, if it is an integer (numpy's and bools too);
    else ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class TransitionMatrix(NamedTuple):
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


class SourceConfig(NamedTuple):
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

    def validate(self) -> None:
        """Raise ParameterError unless the configuration is admissible."""
        if self.kind not in SOURCE_KINDS:
            raise ParameterError(
                f"unknown source kind {self.kind!r}: expected one of {SOURCE_KINDS}"
            )
        if not 0 <= _integer(self.seed, "seed") <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        params = _PARAMS.get(self.kind, ())
        for name in ("p", "b", "a1", "tau", "tau_d"):
            if name not in params and getattr(self, name) is not None:
                raise ParameterError(f"{name} does not apply to {self.kind}")
        # only deadtime reads its mode; any other kind keeps the default
        if self.deadtime_mode not in DEADTIME_MODES:
            raise ParameterError(
                f"deadtime mode {self.deadtime_mode!r} not one of {DEADTIME_MODES}"
            )
        if self.kind != "deadtime" and self.deadtime_mode != "reroute":
            raise ParameterError(f"deadtime_mode does not apply to {self.kind}")
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
        elif self.kind == "xorshift64":
            if self.seed == 0:
                raise ParameterError("xorshift64 requires a nonzero seed")


def _chain_matrix(config: SourceConfig) -> TransitionMatrix:
    """The two-state chain a source draws its bits from: markov's
    ``markov_transition_matrix``, and for every other kind the chain with
    equal rows, both going to 1 with probability p: p for bernoulli,
    (1 + b)/2 for splitter, 1/2 otherwise.  p is computed as each kind
    defines it, not from a bias, so ``sources`` compares exact thresholds
    and ``model`` evaluates the chain those thresholds draw from."""
    if config.kind == "markov":
        return markov_transition_matrix(config.b, config.a1)
    p = (config.p if config.kind == "bernoulli" else
         (1.0 + config.b) / 2.0 if config.kind == "splitter" else 0.5)
    return TransitionMatrix(p, p, 1.0 - p, p)


class MonitorConfig(NamedTuple):
    """Windowing and alarm settings for the stream monitor."""

    window_bits: int = 1 << 20
    sigma_k: float = 3.0
    deviation_threshold: float | None = None

    def validate(self) -> None:
        if not 1024 <= _integer(self.window_bits, "window_bits") <= _MAX_WINDOW_BITS:
            raise ParameterError(
                f"window_bits={self.window_bits} must be in [1024, {_MAX_WINDOW_BITS}]"
            )
        if not self.sigma_k > 0.0:
            raise ParameterError(f"sigma_k={self.sigma_k} must be positive")
        if self.deviation_threshold is not None and not self.deviation_threshold >= 0.0:
            raise ParameterError(
                f"deviation_threshold={self.deviation_threshold} must be non-negative"
            )
