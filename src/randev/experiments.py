"""Reproducible numeric experiments built on the sources and estimators.

* ``validate_approx``  -- sweeps the (bias, a1) grid and measures how far
                          the quadratic deviation shortcut strays from
                          the exact value, optionally cross-checking with
                          simulated streams.
* ``fig2_curve``       -- tabulates exact vs parabolic adjacent-bit
                          mutual information over an a1 range.

All outputs are deterministic functions of their arguments.  Both CSV
tables, ``grid_csv_lines`` and ``fig2_csv_lines``, are rendered by one
``_csv_lines``, and both grids are the multiples of a step that
``_multiples`` gives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# the stages that make and measure streams load numpy, so the functions
# that run them import them; the closed forms of ``fig2_curve`` and of
# ``validate_approx`` without n_bits need only the model
from randev.config import ParameterError, SourceConfig, _integer
from randev.model import (
    deviation_quadratic,
    deviation_sigma,
    markov_prediction,
    mi_exact_unbiased,
)

__all__ = [
    "GridRow",
    "GridResult",
    "CurveRow",
    "validate_approx",
    "fig2_curve",
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


def _check_rows(rows: float, what: str) -> None:
    if rows > _MAX_ROWS:
        raise ParameterError(f"{what} gives about {rows:.7g} rows, more than {_MAX_ROWS}")


def _multiples(lo: float, hi: float, step: float) -> range:
    """The integers i with i*step in [lo, hi], up to a rounding slack."""
    return range(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)


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
    if n_bits is not None and (n_bits := _integer(n_bits, "n_bits")) < 2:
        raise ParameterError(f"n_bits={n_bits} must be at least 2")
    side = 0.2 / grid_step + 1
    _check_rows(side * side - 1, f"grid_step={grid_step}")
    if n_bits is not None:
        from randev.bitstream import _PIECE_BITS
        from randev.estimators import accumulate
        from randev.sources import Source
        from randev.stats import PairCounts, deviation_plugin
    steps = _multiples(-0.1, 0.1, grid_step)
    rows = []
    worst = 0.0
    index = 0
    for bi in steps:
        for ai in steps:
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
                # folded a piece at a time, as ``randev generate`` writes
                # it, so no stream is held whole
                source = Source(SourceConfig.markov(b, a1, seed=seed + index))
                counts = PairCounts()
                for k in range(0, n_bits, _PIECE_BITS):
                    counts = accumulate(counts, source.generate(min(_PIECE_BITS, n_bits - k)))
                d_hat = deviation_plugin(counts)
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
    steps = _multiples(a1_min, a1_max, step)
    if not steps:
        raise ParameterError(
            f"step={step} leaves no grid point in [{a1_min}, {a1_max}]"
        )
    rows = []
    for i in steps:
        a1 = i * step
        if a1 > 1.0:
            a1 = 1.0
        elif a1 < -1.0:
            a1 = -1.0
        rows.append(CurveRow(a1, mi_exact_unbiased(a1), deviation_quadratic(0.0, a1)))
    return tuple(rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_lines(header: str, rows) -> list[str]:
    """The header, then one line per row: an int as it is, a float by
    ``_fmt``, and a None cell left out."""
    return [header, *(",".join(str(x) if isinstance(x, int) else _fmt(x)
                                for x in row if x is not None) for row in rows)]


def grid_csv_lines(result: GridResult) -> list[str]:
    """CSV rows for a grid sweep; empirical columns appear only when the
    sweep generated streams."""
    header = "b,a1,d_exact,d_approx,rel_err"
    if result.empirical:
        header += ",n_bits,d_plugin,z"
    return _csv_lines(header, result.rows)


def fig2_csv_lines(rows) -> list[str]:
    return _csv_lines("a1,mi_exact,mi_approx", rows)


def write_csv(lines: list[str], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
