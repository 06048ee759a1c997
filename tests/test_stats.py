"""The arithmetic on counts against the closed forms: the empirical
statistics of a Markov chain's exact pair counts equal ``model``'s."""

import pytest

from randev import stats
from randev.config import markov_transition_matrix
from randev.model import markov_prediction

# pairs in the exact counts: large enough that rounding each cell to an
# integer moves no statistic by more than about 1e-12
N = 2**40


def exact_counts(b: float, a1: float) -> stats.PairCounts:
    """c_xy = round(N * pi_x * P(y | x)) for the stationary chain (b, a1)."""
    m = markov_transition_matrix(b, a1)
    cells = [round(N * pi * p) for pi, p1 in ((m.pi0, m.p1_given_0), (m.pi1, m.p1_given_1))
             for p in (1.0 - p1, p1)]
    c00, c01, c10, c11 = cells
    return stats.PairCounts(sum(cells) + 1, c01 + c11, c00, c01, c10, c11)


def grid():
    """(b, a1) across the admissible interval [-(1-|b|)/(1+|b|), 1], both
    ends included, and a1 < 0 at every b."""
    for b in (-0.9, -0.3, 0.0, 0.2, 0.75, 0.99):
        lo = -(1.0 - abs(b)) / (1.0 + abs(b))
        for a1 in (lo, lo / 2, -1e-3, 0.0, 0.05, 0.6, 1.0):
            yield b, a1


@pytest.mark.parametrize("b, a1", list(grid()))
def test_statistics_of_exact_counts_match_markov_prediction(b, a1):
    counts = exact_counts(b, a1)
    want = markov_prediction(b, a1)
    got = (stats.cond_entropy_lag1(counts), stats.deviation_plugin(counts),
           stats.mutual_information_lag1(counts))
    for g, w in zip(got, (want.cond_entropy, want.deviation_exact, want.mutual_info)):
        assert g == pytest.approx(w, rel=0, abs=1e-9)

