"""Experiment checks: grid sweep, curve table, concatenation, demo."""

import math
import re

import pytest

from randev.experiments import (
    CurveRow,
    GridResult,
    PrngDemo,
    concat_property,
    fig2_csv_lines,
    fig2_curve,
    grid_csv_lines,
    prng_demo,
    validate_approx,
    write_csv,
)
from randev.model import mi_exact_unbiased, mi_parabolic
from randev.sources import ParameterError, SourceConfig, generate

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


class TestConcatProperty:
    @pytest.mark.parametrize("config", [
        SourceConfig.ideal(seed=4),
        SourceConfig.bernoulli(0.3, seed=6),
        SourceConfig.splitter(0.2, seed=2),
        SourceConfig.markov(0.1, 0.1, seed=9),
        SourceConfig.deadtime(1000.0, 40.0, seed=5),
        SourceConfig.deadtime(1000.0, 40.0, seed=5, mode="loss"),
        SourceConfig.xorshift64(seed=3),
    ], ids=lambda c: f"{c.kind}-{c.deadtime_mode}" if c.kind == "deadtime" else c.kind)
    def test_every_kind(self, config):
        assert concat_property(config, [3, 5, 8])
        assert concat_property(config, [1000, 1, 777])

    def test_long_markov_partition_with_unit_piece(self):
        config = SourceConfig.markov(0.1, 0.1, seed=9)
        assert concat_property(config, [100_000, 1, 100_000])

    def test_deadtime_state_survives_cut(self):
        config = SourceConfig.deadtime(1000.0, 40.0, seed=5)
        assert concat_property(config, [10_000, 10_000])

    def test_zero_length_pieces(self):
        assert concat_property(SourceConfig.ideal(seed=4), [0, 5, 0])
        assert concat_property(SourceConfig.ideal(seed=4), [0])

    def test_seed_override(self):
        assert concat_property(SourceConfig.ideal(), [4, 4], seed=77)

    def test_rejects_negative_length(self):
        for lengths in ([4, -1], [2.5]):
            with pytest.raises(ParameterError):
                concat_property(SourceConfig.ideal(seed=1), lengths)


class TestPrngDemo:
    def test_bound_and_reproducibility(self):
        demo = prng_demo(12345, 1 << 20)
        assert isinstance(demo, PrngDemo)
        assert demo.entropy_bound == 6.103515625e-05
        assert demo.reproducible
        assert demo.n_bits == 1 << 20
        assert demo.report.n_bits == 1 << 20

    def test_statistically_clean_despite_zero_entropy(self):
        demo = prng_demo(12345, 1 << 20)
        z_bias = abs(demo.report.bias_hat) / demo.report.bias_sigma
        assert z_bias <= 4.0
        for entry in demo.report.autocorr:
            assert abs(entry.value) / entry.sigma <= 4.0

    def test_different_seeds_diverge_quickly(self):
        a = generate(SourceConfig.xorshift64(1), 128)
        b = generate(SourceConfig.xorshift64(2), 128)
        assert a != b

    def test_domain(self):
        with pytest.raises(ParameterError):
            prng_demo(1, 63)
        with pytest.raises(ParameterError):
            prng_demo(0, 1 << 20)


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
        res = validate_approx(0.02)
        lines = grid_csv_lines(res)
        for line, row in zip(lines[1:], res.rows):
            fields = [float(x) for x in line.split(",")]
            expect = [row.b, row.a1, row.deviation_exact,
                      row.deviation_approx, row.relative_error]
            for got, want in zip(fields, expect):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_write_csv(self, tmp_path):
        lines = fig2_csv_lines(fig2_curve(-0.1, 0.1, 0.1))
        target = tmp_path / "curve.csv"
        write_csv(lines, target)
        assert target.read_text().splitlines() == lines
