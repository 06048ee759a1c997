"""Experiment checks: grid sweep, curve table, CSV output."""

import math
import re
import tracemalloc

import pytest

from randev.experiments import (
    CurveRow,
    GridResult,
    fig2_csv_lines,
    fig2_curve,
    grid_csv_lines,
    validate_approx,
    write_csv,
)
from randev.estimators import accumulate
from randev.model import deviation_sigma, mi_exact_unbiased
from randev.sources import ParameterError, SourceConfig, generate
from randev.stats import PairCounts, deviation_plugin

LN2 = math.log(2.0)


class TestValidateApprox:
    def test_default_grid_shape(self):
        res = validate_approx(0.02)
        assert isinstance(res, GridResult)
        assert len(res.rows) == 120
        assert not res.empirical
        assert res.max_abs_z is None
        assert all(not (r.b == 0.0 and r.a1 == 0.0) for r in res.rows)

    def test_row_major_ordering(self):
        res = validate_approx(0.05)
        pairs = [(r.b, r.a1) for r in res.rows]
        assert pairs == sorted(pairs)
        assert pairs[0] == (-0.1, -0.1)
        assert pairs[-1] == (0.1, 0.1)

    def test_quadratic_error_bound(self):
        res = validate_approx(0.02)
        assert res.max_relative_error <= 0.0025
        assert res.max_relative_error == pytest.approx(
            0.002418992131600917, rel=1e-9
        )
        assert res.max_relative_error == max(
            r.relative_error for r in res.rows
        )

    def test_maximum_sits_on_mixed_sign_corners(self):
        res = validate_approx(0.02)
        worst = max(res.rows, key=lambda r: r.relative_error)
        assert (abs(worst.b), abs(worst.a1)) == (0.1, 0.1)
        assert worst.b * worst.a1 < 0
        edge_max = max(
            r.relative_error for r in res.rows if r.b == 0.0 or r.a1 == 0.0
        )
        assert edge_max == pytest.approx(0.0016705737845325128, rel=1e-9)
        assert edge_max < res.max_relative_error

    def test_rows_recompute(self):
        res = validate_approx(0.05)
        for r in res.rows:
            assert r.relative_error == pytest.approx(
                abs(r.deviation_approx - r.deviation_exact)
                / r.deviation_exact,
                rel=1e-12,
            )

    def test_empirical_mode(self):
        res = validate_approx(0.05, n_bits=200_000, seed=1000)
        assert res.empirical
        assert len(res.rows) == 24
        assert all(r.n_bits == 200_000 for r in res.rows)
        assert all(r.deviation_plugin is not None for r in res.rows)
        assert res.max_abs_z <= 4.0

    def test_empirical_streams_are_folded_a_piece_at_a_time(self):
        # 2**24 + 5 bits a point, 2 MiB packed: the sweep holds no stream
        # whole, so its peak stays below one stream's bytes, and each row
        # is what the whole stream of its point gives
        n = 2**24 + 5
        validate_approx(0.1, n_bits=2, seed=3)  # the stages load outside the trace
        tracemalloc.start()
        try:
            res = validate_approx(0.1, n_bits=n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        closed = validate_approx(0.1)
        assert len(res.rows) == 8
        for index, (row, want) in enumerate(zip(res.rows, closed.rows)):
            assert row[:5] == want[:5]
            stream = generate(SourceConfig.markov(row.b, row.a1, seed=3 + index), n)
            d_hat = deviation_plugin(accumulate(PairCounts(), stream))
            assert (row.n_bits, row.deviation_plugin) == (n, d_hat)
            assert row.z_score == (d_hat - row.deviation_exact) / deviation_sigma(
                row.deviation_exact, n)

    def test_empirical_is_deterministic(self):
        a = validate_approx(0.1, n_bits=20_000, seed=7)
        b = validate_approx(0.1, n_bits=20_000, seed=7)
        assert a == b
        c = validate_approx(0.1, n_bits=20_000, seed=8)
        assert c != a

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            validate_approx(0.0)
        with pytest.raises(ParameterError):
            validate_approx(0.2)
        with pytest.raises(ParameterError):
            validate_approx(-0.01)
        with pytest.raises(ParameterError):
            validate_approx(0.02, n_bits=1)

    @pytest.mark.parametrize("step, rows", [
        (1e-4, "4004000"), (1e-7, "4.000004e+12"), (1e-201, "inf"), (5e-324, "inf"),
    ])
    def test_row_cap(self, step, rows):
        with pytest.raises(ParameterError,
                           match=re.escape(f"about {rows} rows, more than 1000000")):
            validate_approx(step)


class TestFig2Curve:
    def test_standard_range(self):
        rows = fig2_curve(-0.99, 0.99, 0.01)
        assert len(rows) == 199
        assert rows[99] == CurveRow(0.0, 0.0, 0.0)
        assert rows[0].a1 == -0.99
        assert rows[-1].a1 == 0.99

    def test_endpoints_match_direct_evaluation(self):
        rows = fig2_curve(-0.99, 0.99, 0.01)
        assert abs(rows[-1].mi_exact - mi_exact_unbiased(0.99)) <= 1e-6
        assert abs(rows[0].mi_exact - mi_exact_unbiased(-0.99)) <= 1e-6

    def test_full_range_endpoints(self):
        rows = fig2_curve(-1.0, 1.0, 0.01)
        assert rows[0].a1 == -1.0 and rows[-1].a1 == 1.0
        assert rows[0].mi_exact == 1.0 and rows[-1].mi_exact == 1.0
        assert rows[-1].mi_approx == pytest.approx(1.0 / (2.0 * LN2), rel=1e-12)

    def test_grid_is_monotone(self):
        rows = fig2_curve(-1.0, 1.0, 0.01)
        assert all(a.a1 < b.a1 for a, b in zip(rows, rows[1:]))

    def test_quartic_remainder_inside_half(self):
        for row in fig2_curve(-0.5, 0.5, 0.01):
            assert abs(row.mi_exact - row.mi_approx) <= row.a1**4 + 1e-18

    def test_single_point_range(self):
        rows = fig2_curve(0.0, 0.001, 0.01)
        assert rows == (CurveRow(0.0, 0.0, 0.0),)

    @pytest.mark.parametrize("args", [
        (0.5, 0.5, 0.01),
        (-2.0, 0.0, 0.1),
        (0.001, 0.009, 0.01),
        (0.0, 1.0, -0.1),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, math.nan),
        (-0.5, 0.5, math.inf),
    ])
    def test_bad_ranges(self, args):
        # each message names what is wrong: the range or the step
        with pytest.raises(ParameterError, match=r"^(range|step)\b"):
            fig2_curve(*args)

    @pytest.mark.parametrize("args, rows", [
        ((-0.5, 0.5, 1e-6), "1000001"), ((-0.5, 0.5, 1e-300), "1e+300"),
        ((-0.5, 0.5, 5e-324), "inf"), ((-1.0, 1.0, 1e-9), "2e+09"),
    ])
    def test_row_cap(self, args, rows):
        with pytest.raises(ParameterError,
                           match=re.escape(f"about {rows} rows, more than 1000000")):
            fig2_curve(*args)


class TestCsvOutput:
    def test_grid_header_and_shape(self):
        res = validate_approx(0.02)
        lines = grid_csv_lines(res)
        assert lines[0] == "b,a1,d_exact,d_approx,rel_err"
        assert len(lines) == 121

    def test_grid_empirical_header(self):
        res = validate_approx(0.1, n_bits=20_000, seed=7)
        lines = grid_csv_lines(res)
        assert lines[0] == "b,a1,d_exact,d_approx,rel_err,n_bits,d_plugin,z"
        assert len(lines) == 1 + len(res.rows)

    def test_fig2_header_and_zero_row(self):
        lines = fig2_csv_lines(fig2_curve(-0.99, 0.99, 0.01))
        assert lines[0] == "a1,mi_exact,mi_approx"
        assert lines[100] == "0,0,0"
        assert len(lines) == 200

    def test_values_roundtrip_to_nine_significant_digits(self):
        for res in (validate_approx(0.02), validate_approx(0.1, n_bits=20_000, seed=7)):
            for line, row in zip(grid_csv_lines(res)[1:], res.rows, strict=True):
                cells = line.split(",")
                expect = [row.b, row.a1, row.deviation_exact,
                          row.deviation_approx, row.relative_error]
                if res.empirical:
                    # the bit count prints as an integer, not as a float
                    assert cells.pop(5) == "20000"
                    expect += [row.deviation_plugin, row.z_score]
                assert len(cells) == len(expect)
                for got, want in zip(cells, expect):
                    assert float(got) == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_write_csv(self, tmp_path):
        lines = fig2_csv_lines(fig2_curve(-0.1, 0.1, 0.1))
        target = tmp_path / "curve.csv"
        write_csv(lines, target)
        assert target.read_text().splitlines() == lines
