"""Reproducible numeric experiments built on the sources and estimators.

* ``validate_approx``  -- sweeps the (bias, a1) grid and measures how far
                          the quadratic deviation shortcut strays from
                          the exact value, optionally cross-checking with
                          simulated streams.
* ``fig2_curve``       -- tabulates exact vs parabolic adjacent-bit
                          mutual information over an a1 range.
* ``concat_property``  -- verifies that piecewise generation from one
                          live source is bit-identical to one-shot
                          generation, including the measured reports.
* ``prng_demo``        -- shows a deterministic 64-bit-seed generator
                          passing every per-bit statistic while its true
                          information content is capped by the seed.

All outputs are deterministic functions of their arguments.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

# the stages that make and measure streams load numpy, so the functions
# that run them import them; the closed forms of ``fig2_curve`` and of
# ``validate_approx`` without n_bits need only the model
from randev.config import ParameterError, SourceConfig, _integer
from randev.model import (
    deviation_sigma,
    markov_prediction,
    mi_exact_unbiased,
    mi_parabolic,
)

if TYPE_CHECKING:
    from randev.stats import AnalysisReport

__all__ = [
    "GridRow",
    "GridResult",
    "CurveRow",
    "PrngDemo",
    "validate_approx",
    "fig2_curve",
    "concat_property",
    "prng_demo",
    "grid_csv_lines",
    "fig2_csv_lines",
    "write_csv",
]

_MAX_ROWS = 10**6  # largest grid or curve built, checked before the loop


class GridRow(NamedTuple):
    """One (bias, a1) grid point; empirical fields set only when a
    stream was generated for the point."""

    b: float
    a1: float
    deviation_exact: float
    deviation_approx: float
    relative_error: float
    n_bits: int | None = None
    deviation_plugin: float | None = None
    z_score: float | None = None


class GridResult(NamedTuple):
    step: float
    rows: tuple[GridRow, ...]
    max_relative_error: float
    empirical: bool

    @property
    def max_abs_z(self) -> float | None:
        if not self.empirical:
            return None
        return max(abs(row.z_score) for row in self.rows)


class CurveRow(NamedTuple):
    a1: float
    mi_exact: float
    mi_approx: float


class PrngDemo(NamedTuple):
    """Per-bit statistics of a deterministic generator next to its true
    information bound."""

    seed: int
    n_bits: int
    entropy_bound: float
    report: AnalysisReport
    reproducible: bool


def _check_rows(rows: float, what: str) -> None:
    if rows > _MAX_ROWS:
        raise ParameterError(f"{what} gives about {rows:.7g} rows, more than {_MAX_ROWS}")


def validate_approx(grid_step: float, n_bits: int | None = None,
                    seed: int = 0) -> GridResult:
    """Sweep |b| <= 0.1, |a1| <= 0.1 in steps of grid_step and compare
    the quadratic deviation to the exact one.

    The origin is skipped (both deviations are exactly zero there).
    When n_bits is given, each remaining point also generates a Markov
    stream with its own derived seed and records the plug-in deviation
    and its z-score against the exact value.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ParameterError(
            f"grid_step={grid_step} outside (0, 0.1]"
        )
    if n_bits is not None and n_bits < 2:
        raise ParameterError(f"n_bits={n_bits} must be at least 2")
    side = 0.2 / grid_step + 1
    _check_rows(side * side - 1, f"grid_step={grid_step}")
    if n_bits is not None:
        from randev.estimators import accumulate
        from randev.sources import generate
        from randev.stats import PairCounts, deviation_plugin
    span = math.floor(0.1 / grid_step + 1e-9)
    rows = []
    worst = 0.0
    index = 0
    for bi in range(-span, span + 1):
        for ai in range(-span, span + 1):
            if bi == 0 and ai == 0:
                continue
            b = bi * grid_step
            a1 = ai * grid_step
            pred = markov_prediction(b, a1)
            rel = (
                abs(pred.deviation_approx - pred.deviation_exact)
                / pred.deviation_exact
            )
            worst = max(worst, rel)
            empirical = {}
            if n_bits is not None:
                config = SourceConfig.markov(b, a1, seed=seed + index)
                stream = generate(config, n_bits)
                d_hat = deviation_plugin(accumulate(PairCounts(), stream))
                sigma = deviation_sigma(pred.deviation_exact, n_bits)
                empirical = dict(
                    n_bits=n_bits,
                    deviation_plugin=d_hat,
                    z_score=(d_hat - pred.deviation_exact) / sigma,
                )
            rows.append(GridRow(
                b, a1, pred.deviation_exact, pred.deviation_approx, rel,
                **empirical,
            ))
            index += 1
    return GridResult(
        step=grid_step,
        rows=tuple(rows),
        max_relative_error=worst,
        empirical=n_bits is not None,
    )


def fig2_curve(a1_min: float, a1_max: float,
               step: float) -> tuple[CurveRow, ...]:
    """Exact and parabolic adjacent-bit mutual information on the
    integer-multiples-of-step grid inside [a1_min, a1_max].

    Grid points are i*step, so a range straddling zero contains the
    exact (0, 0, 0) row.
    """
    if not step > 0.0:
        raise ParameterError(f"step={step} must be positive")
    if step == math.inf:
        raise ParameterError(f"step={step} must be finite")
    if not -1.0 <= a1_min < a1_max <= 1.0:
        raise ParameterError(
            f"range [{a1_min}, {a1_max}] invalid: need -1 <= min < max <= 1"
        )
    _check_rows((a1_max - a1_min) / step + 1, f"step={step}")
    lo = math.ceil(a1_min / step - 1e-9)
    hi = math.floor(a1_max / step + 1e-9)
    if lo > hi:
        raise ParameterError(
            f"step={step} leaves no grid point in [{a1_min}, {a1_max}]"
        )
    rows = []
    for i in range(lo, hi + 1):
        a1 = i * step
        if a1 > 1.0:
            a1 = 1.0
        elif a1 < -1.0:
            a1 = -1.0
        rows.append(CurveRow(a1, mi_exact_unbiased(a1), mi_parabolic(a1)))
    return tuple(rows)


def concat_property(config: SourceConfig, lengths, seed: int | None = None) -> bool:
    """True iff piecewise generation from one live source equals one-shot
    generation of the total length, bit for bit, and both analyses match.

    ``lengths`` is the partition n_1..n_m; a seed given here overrides
    the one in config.
    """
    from randev.bitstream import concat
    from randev.estimators import accumulate, analyze
    from randev.sources import Source, generate
    from randev.stats import PairCounts

    lengths = [_integer(n, "partition length") for n in lengths]
    if any(n < 0 for n in lengths):
        raise ParameterError("partition lengths must be non-negative")
    if seed is not None:
        config = config.with_seed(seed)
    live = Source(config)
    pieces = [live.generate(n) for n in lengths]
    stitched = concat(*pieces)
    whole = generate(config, sum(lengths))
    if stitched != whole:
        return False
    ones = accumulate(PairCounts(), whole).ones
    if whole.nbits >= 16 and 0 < ones < whole.nbits:
        max_lag = min(8, whole.nbits - 2)
        if analyze(pieces, max_lag=max_lag) != analyze(whole, max_lag=max_lag):
            return False
    return True


def prng_demo(seed: int, n_bits: int) -> PrngDemo:
    """Statistics of the deterministic xorshift64 stream next to the
    hard bound on its information content.

    A 64-bit seed can supply at most 64/n_bits bits of entropy per
    emitted bit, no matter how clean the measured statistics look.
    """
    from randev.estimators import analyze
    from randev.sources import generate

    if n_bits < 64:
        raise ParameterError(f"n_bits={n_bits} must be at least 64")
    config = SourceConfig.xorshift64(seed=seed)
    stream = generate(config, n_bits)
    again = generate(config, n_bits)
    return PrngDemo(
        seed=seed,
        n_bits=n_bits,
        entropy_bound=64.0 / n_bits,
        report=analyze(stream),
        reproducible=stream == again,
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def grid_csv_lines(result: GridResult) -> list[str]:
    """CSV rows for a grid sweep; empirical columns appear only when the
    sweep generated streams."""
    header = "b,a1,d_exact,d_approx,rel_err"
    if result.empirical:
        header += ",n_bits,d_plugin,z"
    lines = [header]
    for r in result.rows:
        cells = [
            _fmt(r.b), _fmt(r.a1), _fmt(r.deviation_exact),
            _fmt(r.deviation_approx), _fmt(r.relative_error),
        ]
        if result.empirical:
            cells += [str(r.n_bits), _fmt(r.deviation_plugin), _fmt(r.z_score)]
        lines.append(",".join(cells))
    return lines


def fig2_csv_lines(rows) -> list[str]:
    lines = ["a1,mi_exact,mi_approx"]
    for r in rows:
        lines.append(
            f"{_fmt(r.a1)},{_fmt(r.mi_exact)},{_fmt(r.mi_approx)}"
        )
    return lines


def write_csv(lines: list[str], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
