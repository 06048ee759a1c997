"""Closed-form expected statistics for every source configuration.

Pure functions mapping source parameters to the quantities the
estimators measure: bias, lag-1 autocorrelation, mutual information
between adjacent bits, conditional entropy of the next bit given the
previous one, per-bit randomness deviation, its sampling uncertainty,
and the usable-length bound implied by a given deviation.  Every source
kind is evaluated as its two-state chain (a ``TransitionMatrix``), by
one closed form for the entropies.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from randev.config import (
    DEADTIME_MODES,
    ParameterError,
    SourceConfig,
    TransitionMatrix,
    _chain_matrix,
    markov_transition_matrix,
)

__all__ = [
    "ModelPrediction",
    "binary_entropy",
    "deadtime_a1",
    "mi_exact_unbiased",
    "deviation_quadratic",
    "markov_prediction",
    "predict_source",
    "deviation_sigma",
    "n_max",
]

_LN2 = math.log(2.0)


def binary_entropy(q: float) -> float:
    """Entropy in bits of a binary variable taking one value with probability q.

    Uses the convention 0 * log2(0) = 0, so the deterministic limits
    q = 0 and q = 1 return exactly 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"probability q={q} outside [0, 1]")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def deadtime_a1(tau: float, tau_d: float, deadtime_mode: str = "reroute") -> float:
    """Exact lag-1 autocorrelation of the dead-time detector pair:
    -x/(1+x) in ``reroute`` mode and -x/(2+x) in ``loss`` mode, for
    x = tau_d/tau, computed as -1/(1 + k/x) so that a huge x gives -1.

    A "same" bit, one detector firing twice in a row, finds the other
    live: the first firing left it dead for tau_d, and the other has not
    fired since.  With Poisson photons of mean spacing ``tau`` the stream
    renews there, so if a cycle from one "same" bit to the next has L
    bits, P(same) = 1/E[L] and, by symmetry, a1 = 2/E[L] - 1.

    Reroute (a photon aimed at a dead detector fires the other): after a
    detection that leaves the other dead for r more, the next is at
    r + E, E ~ Exp(tau), a forced alternation leaving r' = tau_d - r - E
    if before tau_d, else a fair bit with r' = 0.  The mean count of
    forced bits before a fair one, F(r) = (tau_d - r)(tau + r)/tau**2,
    solves F(r) = E[1(r + E < tau_d)(1 + F(tau_d - r - E))]; F(0) = x,
    and a fair bit is "same" with probability 1/2: E[L] = 2 (1 + x).

    Loss (that photon is lost): the detectors fire as independent renewal
    processes of period tau_d + Exp(2 tau), and a firing is "same" if the
    other fired nowhere in its period, which has probability
    2 tau E[exp(-E/(2 tau))]/(tau_d + 2 tau) = 1/(2 + x) = 1/E[L].
    """
    if not 0.0 < tau < math.inf:
        raise ParameterError(f"tau={tau} must be finite and positive")
    if not 0.0 <= tau_d < math.inf:
        raise ParameterError(f"tau_d={tau_d} must be finite and non-negative")
    if deadtime_mode not in DEADTIME_MODES:
        raise ParameterError(f"deadtime_mode={deadtime_mode!r} not in {DEADTIME_MODES}")
    k = 2.0 if deadtime_mode == "loss" else 1.0
    return -1.0 / (1.0 + k * (tau / tau_d)) if tau_d else -0.0


def mi_exact_unbiased(a1: float) -> float:
    """Mutual information in bits between adjacent bits of a balanced source.

    Direct evaluation of
    (1/2)(1+a1)*log2(1+a1) + (1/2)(1-a1)*log2(1-a1),
    with the zero-log convention; equals 1 - binary_entropy((1+a1)/2)
    but is computed independently of that route.
    """
    if not -1.0 <= a1 <= 1.0:
        raise ParameterError(f"a1={a1} outside [-1, 1]")
    total = 0.0
    for w in (1.0 + a1, 1.0 - a1):
        if w > 0.0:
            total += 0.5 * w * math.log2(w)
    return total


def deviation_quadratic(bias: float, a1: float) -> float:
    """Quadratic deviation form (a1**2 + bias**2) / (2 ln 2), the
    small-bias, small-correlation limit of 1 - cond_entropy."""
    return (a1 * a1 + bias * bias) / (2.0 * _LN2)


class ModelPrediction(NamedTuple):
    """Expected values of every measured quantity for one source setup.

    ``deviation_exact`` is 1 - cond_entropy; ``deviation_approx`` is
    deviation_quadratic(bias, a1).
    """

    bias: float
    a1: float
    mutual_info: float
    cond_entropy: float
    deviation_exact: float
    deviation_approx: float


def markov_prediction(b: float, a1: float) -> ModelPrediction:
    """Exact statistics of the stationary two-state Markov source (b, a1);
    raises ParameterError where ``markov_transition_matrix`` does."""
    return _chain_prediction(markov_transition_matrix(b, a1), b, a1)


def _chain_prediction(m: TransitionMatrix, b: float, a1: float) -> ModelPrediction:
    """Exact statistics of the two-state chain m with bias b and lag-1
    autocorrelation a1.

    cond_entropy is the stationary mixture of the two rows' transition
    entropies; mutual_info follows from the chain rule against the
    marginal entropy.
    """
    h0 = binary_entropy(m.p1_given_0)
    h1 = binary_entropy(m.p1_given_1)
    # offset form keeps the a1 = 0 case exact: h0 == h1 gives ce == h1
    ce = h1 + m.pi0 * (h0 - h1)
    if ce > 1.0:
        ce = 1.0
    mi = binary_entropy(m.pi1) - ce
    if mi < 0.0:
        mi = 0.0
    return ModelPrediction(
        bias=b,
        a1=a1,
        mutual_info=mi,
        cond_entropy=ce,
        deviation_exact=1.0 - ce,
        deviation_approx=deviation_quadratic(b, a1),
    )


def predict_source(config: SourceConfig) -> ModelPrediction:
    """Closed-form expected statistics for any source configuration.

    Each kind is evaluated as its two-state chain.  ideal, bernoulli,
    splitter, markov and xorshift64 are the chain ``Source`` draws from
    (``config._chain_matrix``): equal rows for the memoryless kinds, which
    holds p = 0 and 1 as well (a constant stream: zero entropy, deviation
    1), and markov's own chain.  Dead time is the balanced chain with a1 =
    ``deadtime_a1``, so its a1 and its order-1 deviation_exact =
    1 - h((1 - a1)/2) are exact.

    The xorshift64 generator is statistically indistinguishable from
    the ideal source at the pair level, so its prediction is all-zero
    deviations; its true information content is bounded by the seed
    size, which per-bit statistics cannot see.
    """
    config.validate()
    kind = config.kind
    if kind == "deadtime":
        a1 = deadtime_a1(config.tau, config.tau_d, config.deadtime_mode)
        return markov_prediction(0.0, a1)
    b = (2.0 * config.p - 1.0 if kind == "bernoulli" else
         config.b if kind in ("splitter", "markov") else 0.0)
    return _chain_prediction(_chain_matrix(config), b, config.a1 if kind == "markov" else 0.0)


def deviation_sigma(deviation: float, n_bits: float) -> float:
    """Statistical uncertainty of a deviation in [0, 1] measured on n_bits bits.

    sqrt(2 * deviation / (n_bits * ln 2)); equals the error propagated
    from the 1/sqrt(N) uncertainties of the bias and autocorrelation
    estimates through the quadratic deviation formula.
    """
    if not 0.0 <= deviation <= 1.0:
        raise ParameterError(f"deviation={deviation} must be non-negative and at most 1")
    if not n_bits >= 1:
        raise ParameterError(f"n_bits={n_bits} must be a number of at least 1")
    return math.sqrt(2.0 * deviation / (n_bits * _LN2))


def n_max(deviation: float) -> float:
    """Longest usable sequence for a source with the given deviation in [0, 1].

    2 / (ln 2 * deviation); returns math.inf when the deviation is
    exactly zero (no detectable imperfection at any length).  At
    n = N_max the source and an ideal one are n * D * ln 2 = 2 nats of
    Kullback-Leibler divergence apart, so for a small deviation the
    likelihood-ratio test between them errs with probability about
    Phi(-1) = 0.16 at equal priors (0.159, 0.160 and 0.170 for a
    balanced Markov source at a1 = 0.05, 0.2 and 0.6).
    """
    if not 0.0 <= deviation <= 1.0:
        raise ParameterError(f"deviation={deviation} must be non-negative and at most 1")
    if deviation == 0.0:
        return math.inf
    return 2.0 / (_LN2 * deviation)
