"""Property tests: packed slicing and joining, merge exactness under
arbitrary partitions of a stream, files read back in any chunks, and
generated bits against scalar references."""

import functools
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randev import bitstream, draws, estimators, sources, windows
from randev.bitstream import BitSequence, concat, from_raw_bytes, read_file, read_stream
from randev.config import markov_transition_matrix
from randev.estimators import LagAccumulator, analyze, analyze_parallel, merge
from randev.draws import _threshold
from randev.sources import Source, SourceConfig, generate
from randev.stats import EstimatorError, PairCounts
from splitmix_oracle import RngState, splitmix_next, uniform_from_output
from test_sources import markov_reference

FEW = settings(max_examples=60, deadline=None)

# a chunk's bits, and the SplitMix64 draws made and compared at a time
CHUNK, DRAWS = draws._GEN_CHUNK, draws._DRAWS
PHOTON_BLOCK = sources._PHOTON_BLOCK


def near(unit):
    """Lengths on and beside the multiples of unit."""
    return st.builds(lambda k, d: max(0, k * unit + d), st.integers(0, 3), st.integers(-1, 1))


@st.composite
def bits_and_cuts(draw, max_bits=300, max_cuts=5, min_bits=0):
    """A random bit array and sorted cut positions inside it."""
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=min_bits, max_size=max_bits)),
                    dtype=np.uint8)
    cuts = draw(st.lists(st.integers(0, bits.size), max_size=max_cuts))
    return bits, sorted(cuts)


def pieces(seq, cuts):
    edges = [0, *cuts, seq.nbits]
    return [seq[a:b] for a, b in zip(edges, edges[1:])]


def assert_canonical(seq):
    # zero pads are what make equal sequences equal as (data, nbits)
    assert len(seq.data) == -(-seq.nbits // 8)
    if seq.nbits % 8:
        assert seq.data[-1] >> (seq.nbits % 8) == 0


@FEW
@given(bits_and_cuts(max_cuts=2))
def test_slice_matches_unpacked_slice(case):
    bits, cuts = case
    i, j = (cuts + [bits.size, bits.size])[:2]
    seq = BitSequence.from_bits(bits)
    part = seq[i:j]
    assert part == BitSequence.from_bits(bits[i:j])
    assert_canonical(part)
    assert seq[i:] == BitSequence.from_bits(bits[i:])
    assert seq[:i] == BitSequence.from_bits(bits[:i])


@FEW
@given(bits_and_cuts())
def test_concat_of_split_is_identity(case):
    bits, cuts = case
    seq = BitSequence.from_bits(bits)
    # any number of pieces, empty ones included, joined in one call
    joined = concat(*pieces(seq, cuts))
    assert joined == seq
    assert_canonical(joined)


@FEW
@given(st.lists(st.integers(0, 1), max_size=80), st.lists(st.integers(0, 1), max_size=80))
def test_concat_matches_unpacked_join(a, b):
    joined = concat(BitSequence.from_bits(a), BitSequence.from_bits(b))
    assert joined == BitSequence.from_bits(a + b)
    assert_canonical(joined)


def test_slice_rejects_other_steps():
    seq = BitSequence.from_string("0110")
    with pytest.raises(ValueError, match="step"):
        seq[::2]


def outcome(f, errors=EstimatorError):
    try:
        return f()
    except errors as exc:
        return type(exc), str(exc)


@st.composite
def ascii_text(draw, seq):
    """seq as '0'/'1' text with LF, CRLF and CR newlines anywhere, and
    perhaps one bad character: the text's bytes and that character."""
    chars = list(seq.to_string())
    for _ in range(draw(st.integers(0, 6))):
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(["\n", "\r\n", "\r"])))
    bad = draw(st.one_of(st.none(), st.sampled_from(["2", " ", "x", "\t"])))
    if bad is not None:
        chars.insert(draw(st.integers(0, len(chars))), bad)
    return "".join(chars).encode("ascii"), bad


def read_back(stream, nbits, bad):
    """What reading ``stream``, the whole file, keeps of it or raises: a
    negative override, which needs no read, then a bad character
    anywhere, then an override past the bits there."""
    if nbits is not None and nbits < 0:
        return ValueError, f"nbits_override={nbits} must be non-negative"
    if bad is not None:
        return ValueError, f"invalid ascii bit character {bad!r}: expected '0' or '1'"
    if nbits is None:
        return stream
    if nbits > stream.nbits:
        return ValueError, f"nbits_override={nbits} outside [0, {stream.nbits}]"
    return stream[:nbits]


@FEW
@given(st.integers(1, 130), st.integers(1, 70), st.data())
def test_analyze_pieces_equals_whole(tmp_path_factory, max_lag, piece_bits, data):
    # lags past 64 give edges wider than one word, and most pieces are
    # shorter than max_lag; streams start at max_lag - 12 bits so that
    # both reports and too-short errors are drawn for every max_lag.
    # The whole is measured in one piece, the rest with a short piece
    # size, so the fold's own cut runs too, and with a pass budget of a
    # few words, so the lags of one word offset split across passes
    bits, cuts = data.draw(
        bits_and_cuts(max_bits=400, max_cuts=6, min_bits=max(0, max_lag - 12)))
    seq = BitSequence.from_bits(bits)
    whole = outcome(lambda: analyze(seq, max_lag=max_lag))
    with mock.patch.object(estimators, "_PIECE_BITS", piece_bits), \
         mock.patch.object(estimators, "_PASS_WORDS", data.draw(st.integers(1, 3))):
        assert outcome(lambda: analyze(seq, max_lag=max_lag)) == whole
        assert outcome(lambda: analyze(pieces(seq, cuts), max_lag=max_lag)) == whole
        assert outcome(lambda: analyze_parallel(seq, max_lag, workers=3)) == whole
    # the stream as a raw file (zero pads and all) and as an ascii one,
    # read back in reads of any size and cut at any bit, in range or not:
    # every reader keeps the same bits or raises the same error, and the
    # file's chunks give the report of those bits
    read_bytes = data.draw(st.integers(1, 70))
    nbits = data.draw(st.one_of(st.none(), st.integers(-2, seq.nbits + 10)))
    text, bad = data.draw(ascii_text(seq))
    folder = tmp_path_factory.mktemp("stream")
    for format, payload, want in (
        ("raw", seq.data, read_back(BitSequence(seq.data, 8 * len(seq.data)), nbits, None)),
        ("ascii", text, read_back(seq, nbits, bad)),
    ):
        path = folder / format
        path.write_bytes(payload)
        report = want if isinstance(want, tuple) else outcome(lambda: analyze(want, max_lag))
        with mock.patch.object(bitstream, "_READ_BYTES", read_bytes), \
             mock.patch.object(estimators, "_PIECE_BITS", piece_bits):
            streamed = read_stream(io.BytesIO(payload), format, nbits)
            assert outcome(lambda: concat(*streamed), ValueError) == want
            assert outcome(lambda: read_file(path, format, nbits), ValueError) == want
            if format == "raw":
                assert outcome(lambda: from_raw_bytes(payload, nbits), ValueError) == want
            streamed = read_stream(path, format, nbits)
            assert outcome(lambda: analyze(streamed, max_lag), ValueError) == report


@FEW
@given(bits_and_cuts(max_bits=200, max_cuts=8), st.integers(1, 130), st.integers(1, 70))
def test_lag_state_streamed_and_merged_equals_whole(case, k, piece_bits):
    # lags up to 130 are longer than most pieces, so the edge bits of
    # several pieces combine in one merge; the streamed and merged states
    # are measured with a short piece size, so the fold's own cut runs too
    bits, cuts = case
    seq = BitSequence.from_bits(bits)
    whole = LagAccumulator(k)
    whole.add(seq)
    streamed = LagAccumulator(k)
    merged = LagAccumulator(k)
    with mock.patch.object(estimators, "_PIECE_BITS", piece_bits):
        for piece in pieces(seq, cuts):
            streamed.add(piece)
            one = LagAccumulator(k)
            one.add(piece)
            merged = merge(merged, one)
    assert streamed == whole
    assert merged == whole
    assert whole.sum_prod == int(np.count_nonzero(bits[:-k] & bits[k:]))


@FEW
@given(st.lists(st.integers(0, 1), max_size=400),
       st.lists(st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 450)),
                min_size=1, max_size=12, unique=True),
       st.one_of(st.none(), st.integers(1, 3)))
@example([1] * 130, [63, 64, 65, 127, 128, 129, 130, 400], 1)
@example([1, 0, 1] * 43, [1, 63, 64, 65, 127, 128, 129], None)
@example([], [1, 8], None)
@example([1], [1, 2], None)
@example([1, 1, 0, 1, 0, 0, 1], [1, 2, 3, 8], None)
@example([1, 1, 0, 1, 1] * 40, [1], None)
@example([1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1] * 9 + [1, 1], [2, 3, 30], None)
def test_measure_matches_unpacked_products(bits, lags, pass_words):
    # lags on and beside the word boundaries, lags at or past the length,
    # and pass budgets of one to three words, or the default one that
    # puts all the lags of a word offset in one pass.  The ones are the
    # lag-0 row of the first pass, so streams of 0, 1 and 7 bits, a lone
    # lag and a tail edge that starts mid-byte (bit 71 of 101) pin them
    # and the edges
    bits = np.array(bits, dtype=np.uint8)
    lags = tuple(sorted(lags))
    budget = estimators._PASS_WORDS if pass_words is None else pass_words
    with mock.patch.object(estimators, "_PASS_WORDS", budget):
        state = estimators._measure(BitSequence.from_bits(bits), lags)
    assert state.prods == tuple(int(np.count_nonzero(bits[:-k] & bits[k:])) for k in lags)
    assert (state.n, state.ones) == (bits.size, int(bits.sum()))
    edge = min(lags[-1], bits.size)
    assert state.head == int("".join(map(str, bits[:edge][::-1])) or "0", 2)
    assert state.tail == int("".join(map(str, bits[bits.size - edge:][::-1])) or "0", 2)


@FEW
@given(st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 1027])), st.data())
def test_window_counts_equal_accumulate(w, data):
    # windows from one bit up, on and beside the 64-bit words, over a
    # stream read in chunks of whole bytes, one byte included; the last
    # window has 0, 1, 2 or any bits.  The lag-1 products are made a few
    # words at a time, so a chunk's product blocks join too
    tail = data.draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, w - 1)))
    n = data.draw(st.integers(0, 3)) * w + min(tail, w - 1)
    payload = data.draw(st.binary(min_size=-(-n // 8), max_size=-(-n // 8)))
    seq = BitSequence(payload, 8 * len(payload))[:n]
    steps = data.draw(st.lists(st.one_of(st.just(1), st.integers(1, 70)), min_size=1, max_size=5))
    cuts = [0, *itertools.takewhile(lambda c: c < n, itertools.accumulate(
        8 * steps[i % len(steps)] for i in itertools.count())), n]
    got = []

    def chunks():
        for a, b in zip(cuts, cuts[1:]):
            # every window the chunks so far complete is given before the
            # next chunk is read; the incomplete one follows the last chunk
            assert len(got) == a // w
            yield seq[a:b]

    # a few windows per batch, so a chunk's windows come in several
    with mock.patch.object(windows, "_PASS_WORDS", data.draw(st.integers(1, 3))), \
         mock.patch.object(windows, "_WINDOW_BATCH", data.draw(st.integers(1, 3))):
        for batch in windows._window_counts(chunks(), w):
            assert 0 < len(batch) <= windows._WINDOW_BATCH
            got += batch
    assert got == [estimators.accumulate(PairCounts(), seq[i:i + w])
                   for i in range(0, n, w)]


# ------------------------------------------------ integer thresholds


@functools.cache
def float_uniforms(seed, n):
    """uniform_from_output of SplitMix64 draws 1..n, one at a time."""
    state, out = RngState(seed), []
    for _ in range(n):
        state, z = splitmix_next(state)
        out.append(uniform_from_output(z))
    return np.array(out)


def assert_threshold_exact(p):
    # every integer near the threshold decides as its float uniform does
    t = _threshold(p)
    for k in range(max(0, t - 3), min(2**53, t + 3)):
        assert (k < t) == (k * 2.0**-53 < p)


UNIFORM_BITS = 3001


@FEW
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(2.0**-53)
@example(0.5)
@example(float(np.nextafter(0.5, 1.0)))
@example(1.0 - 2.0**-53)
@example(1.0)
def test_bernoulli_threshold_is_the_float_comparison(p):
    assert_threshold_exact(p)
    want = np.packbits(float_uniforms(3, UNIFORM_BITS) < p, bitorder="little").tobytes()
    assert generate(SourceConfig.bernoulli(p, seed=3), UNIFORM_BITS).data == want


@st.composite
def admissible_markov(draw):
    b = draw(st.floats(-0.99, 0.99))
    lo = -(1.0 - abs(b)) / (1.0 + abs(b))
    return b, draw(st.one_of(st.sampled_from([lo, 0.0, 1.0]), st.floats(lo, 1.0)))


@FEW
@given(admissible_markov())
def test_markov_thresholds_are_the_float_comparisons(case):
    b, a1 = case
    tm = markov_transition_matrix(b, a1)
    for p in (tm.p1_given_0, tm.p1_given_1, tm.pi1):
        assert_threshold_exact(p)
    bits, x = [], None
    for u in float_uniforms(4, UNIFORM_BITS):
        x = u < (tm.pi1 if x is None else tm.p1_given_1 if x else tm.p1_given_0)
        bits.append(x)
    want = np.packbits(bits, bitorder="little").tobytes()
    assert generate(SourceConfig.markov(b, a1, seed=4), UNIFORM_BITS).data == want


@FEW
@given(admissible_markov(), st.integers(0, 2**64 - 1), st.integers(1, 700),
       st.lists(st.one_of(st.integers(0, CHUNK + 700), near(DRAWS)), max_size=6))
@example((0.0, 1.0), 5, 700, [CHUNK + 1, 3])
@example((0.0, -1.0), 5, 700, [CHUNK - 1, CHUNK + 3])
@example((0.0, 0.999), 6, 64, [1, CHUNK + 63])
@example((0.0, -0.999), 6, 64, [CHUNK, 7])
# each first call draws the stationary first bit and then a second draw
# block, of one draw or of DRAWS - 1; a later call makes a chunk of
# DRAWS - 1 bits or of a single bit
@example((0.0, 1.0), 5, 1, [DRAWS + 1, CHUNK])
@example((0.0, -1.0), 5, 1, [DRAWS + 1, DRAWS + 2])
@example((0.1, 0.999), 5, 700, [2 * DRAWS - 1])
# at a1 = 0 the rows are equal, and every chunk is the packed compare
@example((0.0, 0.0), 7, 700, [DRAWS + 1, CHUNK])
@example((-0.3, 0.0), 8, 1, [1, DRAWS - 1, DRAWS + 2])
def test_live_markov_matches_sequential_definition(case, seed, extra, cuts):
    # one live source cut anywhere, in calls that cross chunks and draw
    # blocks, grow past the chunk function built before them or reuse it
    b, a1 = case
    n = CHUNK + extra
    src = Source(SourceConfig.markov(b, a1, seed=seed))
    ends = [0, *sorted(min(c, n) for c in cuts), n]
    got = concat(*(src.generate(j - i) for i, j in zip(ends, ends[1:])))
    assert got.to_array().tolist() == markov_reference(b, a1, seed, n)


# ----------------------------------------------- dead time, photon by photon


def block_uniforms(seed, first_draw, count):
    """Float uniforms of draws first_draw .. first_draw+count-1, in numpy."""
    idx = np.arange(first_draw, first_draw + count, dtype=np.uint64)
    z = np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class ScalarDeadtime:
    """The dead-time detector pair, one photon at a time in Python: the
    reference for the generator that resolves renewal points in vector
    form."""

    BLOCK = 1 << 15

    def __init__(self, cfg):
        self.cfg = cfg
        self.photon, self.t, self.dead = 0, 0.0, [0.0, 0.0]
        self.bits = []  # emitted, not yet returned
        self._block = (-1, None, None)

    def photon_block(self, g):
        if self._block[0] != g:
            u = block_uniforms(self.cfg.seed, 2 * g * self.BLOCK + 1, 2 * self.BLOCK)
            dts = (-self.cfg.tau) * np.log1p(-u[0::2])
            self._block = (g, dts.tolist(), (u[1::2] < 0.5).tolist())
        return self._block[1], self._block[2]

    def run(self, n, stop):
        """Run photons until n bits wait or photon ordinal stop is reached."""
        tau_d = self.cfg.tau_d
        reroute = self.cfg.deadtime_mode == "reroute"
        out = self.bits
        t, (d0, d1), j = self.t, self.dead, self.photon
        while len(out) < n and j < stop:
            g, off = divmod(j, self.BLOCK)
            dts, routes = self.photon_block(g)
            consumed = min(self.BLOCK, stop - g * self.BLOCK)
            for i in range(off, consumed):
                t += dts[i]
                if routes[i]:
                    if t >= d1:
                        out.append(1)
                        d1 = t + tau_d
                    elif reroute and t >= d0:
                        out.append(0)
                        d0 = t + tau_d
                elif t >= d0:
                    out.append(0)
                    d0 = t + tau_d
                elif reroute and t >= d1:
                    out.append(1)
                    d1 = t + tau_d
                if len(out) == n:
                    consumed = i + 1
                    break
            j = g * self.BLOCK + consumed
        self.t, self.dead, self.photon = t, [d0, d1], j

    def generate(self, n):
        self.run(n, math.inf)
        out, self.bits = self.bits[:n], self.bits[n:]
        return BitSequence.from_bits(out)

    def state_after(self, photons):
        """The clock and dead-until times once the first `photons` photons
        have arrived; the bits they emit wait for the next generate."""
        assert self.photon <= photons
        self.run(math.inf, photons)
        return self.t, self.dead


@st.composite
def deadtime_cases(draw):
    """(tau_d/tau, mode, seed, n, cuts): up to 40 000 bits, a tenth of that
    at ratios of 1 and more, and up to 4 cuts anywhere in them."""
    ratio = draw(st.sampled_from([0.0, 0.04, 1.0, 30.0]))
    mode = draw(st.sampled_from(["reroute", "loss"]))
    seed = draw(st.integers(0, 2**64 - 1))
    n = draw(st.integers(0, 40_000)) // (10 if ratio >= 1.0 else 1)
    return ratio, mode, seed, n, sorted(draw(st.lists(st.integers(0, n), max_size=4)))


@settings(max_examples=40, deadline=None)
@given(deadtime_cases())
# three photon blocks, cut at their ends; with these seeds photon
# PHOTON_BLOCK (56) or 2 * PHOTON_BLOCK (166, 16, 253) arrives within
# tau_d of the photon before it, so a block opens inside a cluster
@example((0.01, "reroute", 56, 3 * PHOTON_BLOCK + 1, [PHOTON_BLOCK, 2 * PHOTON_BLOCK]))
@example((0.01, "loss", 166, 3 * PHOTON_BLOCK + 1, [PHOTON_BLOCK, 2 * PHOTON_BLOCK]))
@example((0.04, "reroute", 16, 3 * PHOTON_BLOCK + 1, [PHOTON_BLOCK, 2 * PHOTON_BLOCK]))
@example((0.04, "loss", 253, 3 * PHOTON_BLOCK + 1, [PHOTON_BLOCK, 2 * PHOTON_BLOCK]))
def test_deadtime_matches_scalar_rule(case):
    # at tau_d/tau = 30 nearly every photon is in a long cluster; the
    # cuts put call boundaries inside clusters and photon blocks
    ratio, mode, seed, n, cuts = case
    cfg = SourceConfig.deadtime(1000.0, 1000.0 * ratio, seed=seed, mode=mode)
    src, oracle = Source(cfg), ScalarDeadtime(cfg)
    for a, b in zip([0, *cuts], [*cuts, n]):
        assert src.generate(b - a) == oracle.generate(b - a)
        # the source carries its state from the end of its last photon block
        assert (src._t, src._dead) == oracle.state_after(src._draws // 2)


# ------------------------------------------------- xorshift64, word by word


class ScalarXorshift:
    """xorshift64 one state word at a time on a Python int: the reference
    for the generator that jumps ahead by tables."""

    def __init__(self, seed):
        self.x = seed
        self.pending = BitSequence(b"", 0)  # made, not yet returned

    def generate(self, n):
        words = []
        while self.pending.nbits + 64 * len(words) < n:
            x = self.x
            x ^= (x << 13) & (2**64 - 1)
            x ^= x >> 7
            x ^= (x << 17) & (2**64 - 1)
            self.x = x
            words.append(x)
        made = concat(self.pending,
                      BitSequence(np.array(words, dtype="<u8").tobytes(), 64 * len(words)))
        self.pending = made[n:]
        return made[:n]


XORSHIFT_MAX_BITS = 3 * 2**16 + 70


@FEW
@given(st.integers(1, 2**64 - 1), st.integers(0, XORSHIFT_MAX_BITS),
       st.lists(st.one_of(st.integers(0, XORSHIFT_MAX_BITS), near(64), near(2**16)),
                max_size=4))
@example(1, XORSHIFT_MAX_BITS, [2**16, 1, 2**16 - 1, 64])
@example(2**64 - 1, XORSHIFT_MAX_BITS, [63, 2**16 + 1, 2**16])
def test_xorshift_matches_scalar_recurrence(seed, n, steps):
    # each cut lies a drawn length after the one before, so calls start
    # and end on and beside the 64-bit words and the 2^16-bit chunks
    cuts = [min(c, n) for c in itertools.accumulate(steps)]
    src, oracle = Source(SourceConfig.xorshift64(seed)), ScalarXorshift(seed)
    for a, b in zip([0, *cuts], [*cuts, n]):
        assert src.generate(b - a) == oracle.generate(b - a)
        assert src._x == oracle.x


@pytest.mark.parametrize("config, built", [
    (SourceConfig.ideal(seed=1), {"_gamma_steps"}),
    (SourceConfig.deadtime(1.0, 0.5, seed=1), {"_gamma_steps"}),
    (SourceConfig.markov(0.1, 0.2, seed=1), {"_gamma_steps"}),
    (SourceConfig.markov(0.1, -0.2, seed=1), {"_gamma_steps"}),
    (SourceConfig.xorshift64(seed=1), {"_xorshift_tables"}),
], ids=["ideal", "deadtime", "markov_carry", "markov_flip", "xorshift64"])
def test_cached_source_tables_are_shared_and_read_only(config, built):
    # each kind builds only the tables it uses, once per process, and
    # every source shares them, so none may be written to
    tables = [draws._gamma_steps, draws._xorshift_tables]
    for table in tables:
        table.cache_clear()
    first = generate(config, 3000)
    assert {t.__name__ for t in tables if t.cache_info().currsize} == built
    for table in tables:
        if table.cache_info().currsize:
            assert not table().flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table()[0] = 0
    assert generate(config, 3000) == first

