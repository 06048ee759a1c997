"""Property tests: packed slicing and joining, and merge exactness under
arbitrary partitions of a stream."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randev import estimators
from randev.bitstream import BitSequence, concat
from randev.estimators import (EstimatorError, LagAccumulator, analyze, analyze_parallel,
                               merge)

FEW = settings(max_examples=60, deadline=None)


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
@given(bits_and_cuts(max_cuts=1))
def test_concat_of_split_is_identity(case):
    bits, cuts = case
    seq = BitSequence.from_bits(bits)
    i = cuts[0] if cuts else 0
    joined = concat(seq[:i], seq[i:])
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


def outcome(f):
    try:
        return f()
    except EstimatorError as exc:
        return type(exc), str(exc)


@FEW
@given(st.integers(1, 130), st.integers(1, 70), st.data())
def test_analyze_pieces_equals_whole(max_lag, piece_bits, data):
    # lags past 64 give edges wider than one word, and most pieces are
    # shorter than max_lag; streams start at max_lag - 12 bits so that
    # both reports and too-short errors are drawn for every max_lag.
    # The whole is measured in one piece, the rest with a short piece
    # size, so the fold's own cut runs too
    bits, cuts = data.draw(
        bits_and_cuts(max_bits=400, max_cuts=6, min_bits=max(0, max_lag - 12)))
    seq = BitSequence.from_bits(bits)
    whole = outcome(lambda: analyze(seq, max_lag=max_lag))
    with mock.patch.object(estimators, "_PIECE_BITS", piece_bits):
        assert outcome(lambda: analyze(seq, max_lag=max_lag)) == whole
        assert outcome(lambda: analyze(pieces(seq, cuts), max_lag=max_lag)) == whole
        assert outcome(lambda: analyze_parallel(seq, max_lag, workers=3)) == whole


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
