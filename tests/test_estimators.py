"""Estimator checks: hand counts, merge exactness, information identities."""

import concurrent.futures
import itertools
import math
import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from randev import estimators
from randev.bitstream import BitSequence
from randev.estimators import LagAccumulator, accumulate, analyze, analyze_parallel, merge
from randev.model import (binary_entropy, deviation_quadratic, deviation_sigma,
                          mi_exact_unbiased, n_max)
from randev.sources import SourceConfig, generate
from randev.stats import (AnalysisReport, DegenerateSequenceError, EmptyInputError,
                          EstimatorError, InsufficientDataError, LagEstimate, PairCounts,
                          bias_estimate, cond_entropy_lag1, deviation_plugin,
                          mutual_information_lag1)

S = BitSequence.from_string

LN2 = math.log(2.0)


def counts_of(text: str) -> PairCounts:
    return accumulate(PairCounts(), S(text))


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


class TestPairCounts:
    def test_hand_count(self):
        c = counts_of("0110")
        assert (c.n, c.ones) == (4, 2)
        assert (c.c00, c.c01, c.c10, c.c11) == (0, 1, 1, 1)
        assert (c.first_bit, c.last_bit) == (0, 0)

    def test_boundary_pair_across_accumulates(self):
        assert accumulate(counts_of("01"), S("10")) == counts_of("0110")

    def test_empty_cases(self):
        assert accumulate(PairCounts(), S("")) == PairCounts()
        assert counts_of("1") == PairCounts(
            n=1, ones=1, first_bit=1, last_bit=1
        )

    def test_merge_examples(self):
        assert merge(counts_of("0110"), counts_of("01")) == counts_of("011001")
        c = counts_of("0110")
        assert merge(c, PairCounts()) == c
        assert merge(PairCounts(), c) == c
        assert merge(PairCounts(), PairCounts()) == PairCounts()

    def test_merge_type_mismatch(self):
        with pytest.raises(TypeError):
            merge(PairCounts(), LagAccumulator(1))

    def test_pair_total_invariant(self):
        rng = random.Random(411)
        for _ in range(100):
            bits = random_bits(rng, rng.randrange(1, 120))
            c = counts_of(bits)
            assert c.pair_total == c.n - 1
            assert c.ones <= c.n

    def test_random_partitions_match_serial(self):
        rng = random.Random(1812)
        for _ in range(200):
            bits = random_bits(rng, rng.randrange(0, 250))
            n = len(bits)
            cuts = sorted(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 5)))
            edges = [0, *cuts, n]
            pieces = [bits[a:b] for a, b in zip(edges, edges[1:])]
            serial = PairCounts()
            merged = PairCounts()
            for piece in pieces:
                serial = accumulate(serial, S(piece))
                merged = merge(merged, counts_of(piece))
            assert serial == counts_of(bits)
            assert merged == counts_of(bits)


class TestBiasEstimate:
    def test_all_ones(self):
        assert bias_estimate(counts_of("11111111")) == (1.0, 1.0 / math.sqrt(8))

    def test_balanced(self):
        assert bias_estimate(counts_of("0101")) == (0.0, 0.5)

    def test_three_quarters(self):
        assert bias_estimate(counts_of("1101")) == (0.5, 0.5)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            bias_estimate(PairCounts())


def autocorr(seq: BitSequence, k: int) -> tuple[float, float]:
    """The lag-k estimate of ``analyze``, which makes every lag's."""
    estimate = analyze(seq, max_lag=k).autocorr[k - 1]
    assert estimate.lag == k
    return estimate.value, estimate.sigma


class TestAutocorr:
    def test_alternating_is_minus_one(self):
        value, sigma = autocorr(S("01010101"), 1)
        assert value == -1.0
        assert sigma == 1.0 / math.sqrt(8)

    def test_hand_value(self):
        value, _ = autocorr(S("0011"), 1)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_alternating_lag2_is_plus_one(self):
        value, _ = autocorr(S("0101010101"), 2)
        assert value == 1.0

    @pytest.mark.parametrize("text", ["0000", "1111111"])
    def test_constant_is_degenerate(self, text):
        with pytest.raises(DegenerateSequenceError):
            autocorr(S(text), 1)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            autocorr(S("01"), 1)
        with pytest.raises(InsufficientDataError):
            autocorr(S("0110"), 3)

    def test_bad_lag(self):
        for k in (0, 2.0):
            with pytest.raises(EstimatorError):
                analyze(S("0110"), max_lag=k)

    def test_markov_stream_recovers_a1(self):
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=11), 200_000)
        value, sigma = autocorr(seq, 1)
        assert sigma == 1.0 / math.sqrt(200_000)
        assert abs(value - 0.1) <= 3.0 * sigma


class TestLagAccumulator:
    def test_tracks_first_and_last_bits(self):
        # the state keeps its first and last k bits: a merge counts the
        # lag-k pairs that span the boundary, on either side
        def acc_of(text):
            acc = LagAccumulator(3)
            acc.add(S(text))
            return acc

        acc = acc_of("0110011")
        assert (acc.n, acc.sum_prod) == (7, 1)
        # last bits 011 against 111 after them: pairs (0,1), (1,1), (1,1)
        after = merge(acc, acc_of("111"))
        assert (after.n, after.sum_prod) == (10, 3)
        assert after == acc_of("0110011111")
        # 111 before the first bits 011: pairs (1,0), (1,1), (1,1)
        before = merge(acc_of("111"), acc)
        assert (before.n, before.sum_prod) == (10, 3)
        assert before == acc_of("1110110011")

    def test_window_sums_small_input(self):
        acc = LagAccumulator(3)
        acc.add(S("0110011"))
        assert (acc.k, acc.n, acc.ones, acc.sum_prod) == (3, 7, 4, 1)
        # a lag longer than the stream has no product
        acc = LagAccumulator(5)
        acc.add(S("011"))
        assert (acc.n, acc.ones, acc.sum_prod) == (3, 2, 0)

    def test_streaming_merge_and_direct_agree(self):
        rng = random.Random(2024)
        for _ in range(250):
            n = rng.randrange(0, 300)
            bits = random_bits(rng, n)
            k = rng.choice([1, 2, 3, 5, 8, 63, 64, 65, 130])
            whole = LagAccumulator(k)
            whole.add(S(bits))

            chunked = LagAccumulator(k)
            i = 0
            while i < n:
                j = min(n, i + rng.randrange(0, 100))
                chunked.add(S(bits[i:j]))
                i = j
            assert chunked == whole

            cuts = sorted(rng.randrange(0, n + 1) for _ in range(2))
            merged = None
            for piece in (bits[:cuts[0]], bits[cuts[0]:cuts[1]], bits[cuts[1]:]):
                one = LagAccumulator(k)
                one.add(S(piece))
                merged = one if merged is None else merge(merged, one)
            assert merged == whole

            assert (whole.n, whole.ones) == (n, bits.count("1"))
            arr = np.array([int(b) for b in bits], dtype=np.uint8)
            assert whole.sum_prod == int(np.count_nonzero(arr[:-k] & arr[k:]))

    def test_merge_lag_mismatch(self):
        with pytest.raises(EstimatorError):
            merge(LagAccumulator(1), LagAccumulator(2))

    def test_bad_lag(self):
        for k in (0, 2.5):
            with pytest.raises(EstimatorError):
                LagAccumulator(k)

    def test_numpy_integer_lag(self):
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=3), 5000)
        numpy_lag, int_lag = LagAccumulator(np.int64(3)), LagAccumulator(3)
        numpy_lag.add(seq)
        int_lag.add(seq)
        assert numpy_lag == int_lag
        assert type(numpy_lag.k) is int
        assert merge(numpy_lag, int_lag).n == 10_000

    def test_empty_add_is_noop(self):
        acc = LagAccumulator(4)
        acc.add(S("0110"))
        before = (acc.n, acc.ones, acc.sum_prod)
        acc.add(S(""))
        assert (acc.n, acc.ones, acc.sum_prod) == before
        same = LagAccumulator(4)
        same.add(S("0110"))
        assert acc == same

    def test_repr_shows_the_counts(self):
        acc = LagAccumulator(1)
        acc.add(S("0110011"))
        assert repr(acc) == "LagAccumulator(k=1, n=7, ones=4, sum_prod=2)"


def inject(c00: int, c01: int, c10: int, c11: int) -> PairCounts:
    total = c00 + c01 + c10 + c11
    return PairCounts(
        n=total + 1,
        ones=0,
        c00=c00,
        c01=c01,
        c10=c10,
        c11=c11,
        first_bit=0,
        last_bit=0,
    )


class TestInformationQuantities:
    def test_fair_independent_table(self):
        fair = inject(2500, 2500, 2500, 2500)
        assert mutual_information_lag1(fair) == 0.0
        assert cond_entropy_lag1(fair) == 1.0
        assert binary_entropy((fair.c01 + fair.c11) / fair.pair_total) == 1.0
        assert deviation_plugin(fair) == 0.0

    def test_product_table_has_zero_information(self):
        # joint equal to the product of its marginals, bias 0.1
        prod = inject(2025, 2475, 2475, 3025)
        assert abs(mutual_information_lag1(prod)) <= 1e-12

    def test_deterministic_same_table(self):
        same = inject(5000, 0, 0, 5000)
        assert mutual_information_lag1(same) == 1.0
        assert cond_entropy_lag1(same) == 0.0
        assert deviation_plugin(same) == 1.0

    def test_correlated_table_matches_closed_form(self):
        tbl = inject(1100, 900, 900, 1100)
        assert mutual_information_lag1(tbl) == pytest.approx(
            mi_exact_unbiased(0.1), abs=1e-12
        )
        assert cond_entropy_lag1(tbl) == pytest.approx(
            1.0 - mi_exact_unbiased(0.1), rel=1e-12
        )

    def test_alternating_stream(self):
        alt = counts_of("01" * 500)
        assert cond_entropy_lag1(alt) == 0.0
        assert deviation_plugin(alt) == 1.0
        # 500/499 pair split keeps the plug-in MI just under one bit
        assert mutual_information_lag1(alt) == pytest.approx(1.0, abs=1e-5)

    def test_chain_rule_random_tables(self):
        rng = random.Random(7)
        for _ in range(1000):
            cells = [rng.randrange(0, 10 ** rng.randrange(1, 7)) for _ in range(4)]
            if sum(cells) == 0:
                cells[rng.randrange(4)] = 1
            table = inject(*cells)
            mi = mutual_information_lag1(table)
            marginal = binary_entropy((table.c01 + table.c11) / table.pair_total)
            residual = abs(marginal - cond_entropy_lag1(table) - mi)
            assert residual <= 1e-12
            assert mi >= 0.0
            assert 0.0 <= deviation_plugin(table) <= 1.0

    def test_insufficient_data(self):
        for counts in (PairCounts(), counts_of("1")):
            for fn in (mutual_information_lag1, cond_entropy_lag1, deviation_plugin):
                with pytest.raises(InsufficientDataError):
                    fn(counts)

    def test_quadratic_form(self):
        assert deviation_quadratic(0.0, 0.0) == 0.0
        assert deviation_quadratic(0.02, 0.04) == pytest.approx(
            (0.02**2 + 0.04**2) / (2 * LN2), rel=1e-14
        )


class TestAnalyze:
    def test_chunked_input_is_identical(self):
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=11), 100_000)
        cut = 4321
        chunks = [
            BitSequence(seq.data[:cut], cut * 8),
            BitSequence(seq.data[cut:], seq.nbits - cut * 8),
        ]
        assert analyze(chunks) == analyze(seq)
        # longer than one measured piece, and cut by the caller off a byte
        # boundary, so the caller's cut and the piece cut differ
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=11), 2**22 + 37)
        cut = 2**21 + 3
        whole = analyze(seq)
        assert analyze([seq[:cut], seq[cut:]]) == whole
        assert analyze_parallel(seq, workers=2) == whole

    def test_parallel_is_identical(self, monkeypatch):
        seq = generate(SourceConfig.markov(0.05, -0.2, seed=3), 300_000)
        serial = analyze(seq)
        assert analyze_parallel(seq, workers=4) == serial
        assert analyze_parallel(seq, workers=1) == serial
        # one piece needs one thread, however many workers are offered
        seen = []

        def spy(max_workers):
            seen.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        assert analyze_parallel(seq, workers=64) == serial
        assert seen == [1]
        # each thread measures its own span in pieces of 2**22 bits, while
        # the serial fold cuts 2**20-bit pieces; exact counts merge alike
        seq = generate(SourceConfig.markov(0.05, -0.2, seed=3), 2**22 + 37)
        measured = []

        def measure_spy(piece, lags):
            measured.append(piece.nbits)
            return measure(piece, lags)

        measure = estimators._measure
        monkeypatch.setattr(estimators, "_measure", measure_spy)
        parallel = analyze_parallel(seq, workers=2)
        assert sorted(measured) == [37, 2**22]
        measured.clear()
        assert analyze(seq) == parallel
        assert measured == [2**20] * 4 + [37]

    def test_short_chunks_are_measured_as_one_piece(self, monkeypatch):
        # the fold cuts the stream, not each chunk: 100 chunks of 100 bits
        # are one piece, so a long max_lag costs what it costs on the whole
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=5), 10_000)
        chunks = [seq[i:i + 100] for i in range(0, seq.nbits, 100)]
        whole = analyze(seq, max_lag=5000)
        measured = []

        def spy(piece, lags):
            measured.append(piece.nbits)
            return measure(piece, lags)

        measure = estimators._measure
        monkeypatch.setattr(estimators, "_measure", spy)
        assert analyze(chunks, max_lag=5000) == whole
        assert measured == [10_000]
        # a max_lag past the chunks' end fails once the one piece is
        # measured, on the length the fold counted
        measured.clear()
        with pytest.raises(InsufficientDataError, match="got 10000$"):
            analyze(iter(chunks), max_lag=estimators._MAX_LAG)
        assert measured == [10_000]

    def test_temporaries_stay_below_the_input(self):
        # pieces bound what a measure allocates: below the 4 MiB packed
        # input, where measuring it whole takes about three times that
        data = np.random.default_rng(7).integers(0, 256, 2**22, dtype=np.uint8)
        seq = BitSequence(data.tobytes(), 2**25)
        for measure in (lambda: analyze(seq), lambda: accumulate(PairCounts(), seq)):
            tracemalloc.start()
            try:
                measure()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
        # each analyze_parallel thread cuts and measures one piece of its
        # span at a time, so its peak does not grow with the input either
        data = np.random.default_rng(8).integers(0, 256, 2**23, dtype=np.uint8)
        seq = BitSequence(data.tobytes(), 2**26)
        tracemalloc.start()
        try:
            analyze_parallel(seq, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_report_fields_are_consistent(self):
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=11), 200_000)
        report = analyze(seq)
        assert report.n_bits == 200_000
        assert [e.lag for e in report.autocorr] == list(range(1, 9))
        assert all(e.sigma == 1.0 / math.sqrt(200_000) for e in report.autocorr)
        assert report.deviation_sigma == deviation_sigma(
            report.deviation_plugin, report.n_bits
        )
        assert report.n_max == n_max(report.deviation_plugin)
        assert abs(report.autocorr[0].value - 0.1) <= 3.0 / math.sqrt(200_000)
        assert abs(report.mi_lag1_hat - mi_exact_unbiased(0.1)) <= 1e-3
        assert report.deviation_plugin == pytest.approx(
            mi_exact_unbiased(0.1), abs=3.0 * report.deviation_sigma
        )

    def test_max_lag_controls_report(self):
        seq = generate(SourceConfig.ideal(seed=5), 4096)
        report = analyze(seq, max_lag=3)
        assert len(report.autocorr) == 3

    def test_alternating_report(self):
        report = analyze(S("01" * 5000), max_lag=2)
        assert report.deviation_plugin == 1.0
        assert report.autocorr[0].value == -1.0
        assert report.autocorr[1].value == 1.0
        assert report.n_max == pytest.approx(2.8853900817779268, rel=1e-12)

    def test_ideal_noise_floor(self):
        seq = generate(SourceConfig.ideal(seed=5), 10_000_000)
        report = analyze(seq, max_lag=1)
        assert report.deviation_plugin <= 1e-5

    def test_json_schema(self):
        report = analyze(generate(SourceConfig.ideal(seed=2), 4096))
        payload = report.to_json_dict()
        assert set(payload) == {
            "n_bits", "bias", "autocorr", "mi_lag1", "cond_entropy",
            "deviation_plugin", "deviation_sigma", "n_max",
        }
        assert set(payload["bias"]) == {"value", "sigma"}
        assert len(payload["autocorr"]) == 8
        assert all(set(e) == {"lag", "value", "sigma"} for e in payload["autocorr"])
        assert isinstance(payload["n_max"], (int, float, str))

    def test_unbounded_n_max_serialization(self):
        report = analyze(S("00110"), max_lag=1)
        assert report.deviation_plugin == 0.0
        assert math.isinf(report.n_max)
        assert report.to_json_dict()["n_max"] == "unbounded"

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            analyze(S("0101"), max_lag=8)
        with pytest.raises(DegenerateSequenceError):
            analyze(S("1" * 100))
        with pytest.raises(EstimatorError):
            analyze(S("0110"), max_lag=0)

    def test_bernoulli_independence_statistic(self):
        # scaled plug-in MI is asymptotically chi-square with one
        # degree of freedom under independence
        seq = generate(SourceConfig.bernoulli(0.55, seed=8), 1_000_000)
        report = analyze(seq, max_lag=1)
        g = 2.0 * (report.n_bits - 1) * LN2 * report.mi_lag1_hat
        assert g <= 10.83

    def test_serial_and_parallel_fail_alike(self):
        def bad_read():
            raise ValueError("invalid ascii bit character 'x': expected '0' or '1'")
            yield

        def endless():
            yield from itertools.repeat(S("0110"), 10_000)
            pytest.fail("an endless stream was read to no end")

        for seq, max_lag, later in ((BitSequence(b"", 0), 8, ()), (S("0101"), 8, ()),
                                    (S("0110"), 0, ()), (S("0110" * 250), estimators._MAX_LAG, ()),
                                    (S("0110" * 250), 8.0, ()),
                                    # too short, and constant: the length
                                    # is checked before any statistic
                                    (BitSequence(bytes(125), 1000), estimators._MAX_LAG, ()),
                                    # max_lag is checked before any chunk is
                                    # read, so neither a read that would fail
                                    # nor an endless stream is read
                                    (S("0110" * 250), 0, bad_read()),
                                    (S("0110" * 250), -1, endless()),
                                    # so is a max_lag above the cap, whose
                                    # look-ahead would read 30 million bits
                                    (S("0110" * 250), 30_000_000, endless())):
            with pytest.raises(EstimatorError) as serial:
                analyze(seq, max_lag=max_lag)
            # chunks have no length up front; lags past the end must still
            # be cheap to measure, merge and reject
            start = time.perf_counter()
            with pytest.raises(EstimatorError) as chunked:
                analyze(itertools.chain([seq[:8], seq[8:]], later), max_lag=max_lag)
            assert time.perf_counter() - start < 5.0
            assert chunked.type is serial.type
            assert str(chunked.value) == str(serial.value)
            for workers in (1, 2):
                with pytest.raises(EstimatorError) as parallel:
                    analyze_parallel(seq, max_lag=max_lag, workers=workers)
                assert parallel.type is serial.type
                assert str(parallel.value) == str(serial.value)
        with pytest.raises(InsufficientDataError, match="got 1000$"):
            analyze(BitSequence(bytes(125), 1000), max_lag=estimators._MAX_LAG)
        for workers in (0, -1, 1.5):
            with pytest.raises(EstimatorError):
                analyze_parallel(S("01101001" * 4), workers=workers)

    def test_report_is_frozen_value(self):
        report = analyze(S("00110"), max_lag=1)
        assert isinstance(report, AnalysisReport)
        assert isinstance(report.autocorr[0], LagEstimate)
        with pytest.raises(Exception):
            report.n_bits = 5
