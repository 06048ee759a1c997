import io
import random
import stat

import numpy as np
import pytest

from randev import bitstream
from randev.bitstream import (BitSequence, concat, from_raw_bytes, read_file, read_stream,
                              write_file, write_stream)


EMPTY = BitSequence(b"", 0)


def test_construction_validates_length_fit():
    BitSequence(b"\x06", 4)
    with pytest.raises(ValueError):
        BitSequence(b"\x06", 9)
    with pytest.raises(ValueError):
        BitSequence(b"\x06\x00", 4)
    with pytest.raises(ValueError):
        BitSequence(b"", 1)
    with pytest.raises(ValueError):
        BitSequence(b"\x01", 2.5)


def test_construction_rejects_nonzero_pad_bits():
    with pytest.raises(ValueError):
        BitSequence(b"\xff", 3)
    # same payload with pads cleared is fine
    assert BitSequence(b"\x07", 3).to_string() == "111"


def test_bit_order_lsb_first():
    # "0110" packs to 0x06: bit0=0, bit1=1, bit2=1, bit3=0
    seq = BitSequence.from_string("0110")
    assert seq.data == b"\x06"
    assert seq.nbits == 4
    assert [seq[i] for i in range(4)] == [0, 1, 1, 0]


def test_from_bits_roundtrip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    seq = BitSequence.from_bits(bits)
    assert seq.nbits == 9
    assert list(seq.to_array()) == bits
    assert seq.to_string() == "101100101"


def test_from_bits_rejects_non_binary():
    # other values than 0 and 1 are rejected, not truncated or wrapped
    for bits in ([0, 1, 2], [0.5], [1.7, 0.2], [-1], [256]):
        with pytest.raises(ValueError, match=r"^bit values must be 0 or 1$"):
            BitSequence.from_bits(bits)


def test_concat_identity_and_simple():
    x = BitSequence.from_string("10101")
    assert concat(EMPTY, x) == x
    assert concat(x, EMPTY) == x
    assert concat(BitSequence.from_string("01"), BitSequence.from_string("10")) \
        == BitSequence.from_string("0110")


def test_concat_lengths_sum():
    parts = [BitSequence.from_string("1" * n) for n in (3, 11, 0, 8, 5)]
    whole = EMPTY
    for p in parts:
        whole = concat(whole, p)
    assert whole.nbits == 27
    assert whole.to_string() == "1" * 27


def test_concat_associative_random_lengths():
    rng = random.Random(1905)
    for _ in range(200):
        seqs = []
        for _ in range(3):
            n = rng.randrange(0, 65)
            seqs.append(BitSequence.from_bits([rng.randrange(2) for _ in range(n)]))
        a, b, c = seqs
        left = concat(concat(a, b), c)
        right = concat(a, concat(b, c))
        assert left == right
        assert left.nbits == a.nbits + b.nbits + c.nbits


def test_concat_preserves_pad_invariant():
    rng = random.Random(77)
    for _ in range(100):
        a = BitSequence.from_bits([rng.randrange(2) for _ in range(rng.randrange(0, 40))])
        b = BitSequence.from_bits([rng.randrange(2) for _ in range(rng.randrange(0, 40))])
        out = concat(a, b)
        # re-constructing from the packed bytes re-runs the pad validation
        assert BitSequence(out.data, out.nbits) == out


def test_raw_roundtrip(tmp_path):
    seq = BitSequence.from_bits(np.arange(4096) % 3 == 1)
    p = tmp_path / "x.bits"
    write_file(seq, p, "raw")
    back = read_file(p, "raw")
    # byte-multiple length: exact identity
    assert back == seq


def test_raw_roundtrip_with_override(tmp_path):
    seq = BitSequence.from_string("1011001")
    p = tmp_path / "x.bits"
    write_file(seq, p, "raw")
    assert p.stat().st_size == 1
    back = read_file(p, "raw", nbits_override=7)
    assert back == seq


def test_raw_override_masks_pads(tmp_path):
    p = tmp_path / "ff.bits"
    p.write_bytes(b"\xff")
    seq = read_file(p, "raw", nbits_override=3)
    assert seq.to_string() == "111"
    assert seq.data == b"\x07"


def test_raw_override_too_large(tmp_path):
    p = tmp_path / "one.bits"
    p.write_bytes(b"\x00")
    with pytest.raises(ValueError):
        read_file(p, "raw", nbits_override=9)
    # negative counts too, with one message for raw, ascii and raw bytes
    text = tmp_path / "one.txt"
    text.write_text("00000000\n")
    for nbits in (9, -1, -5, -8):
        want = (rf"^nbits_override={nbits} outside \[0, 8\]$" if nbits > 0
                else rf"^nbits_override={nbits} must be non-negative$")
        for read in (lambda: read_file(p, "raw", nbits_override=nbits),
                     lambda: read_file(text, "ascii", nbits_override=nbits),
                     lambda: from_raw_bytes(b"\x00", nbits)):
            with pytest.raises(ValueError, match=want):
                read()


class Endless:
    """A raw stream with no end, as a pipe from /dev/zero: zero bytes for
    every read, which it counts."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        if size < 0 or self.reads > 100:  # a hang, cut short
            pytest.fail("an endless stream was read to no end")
        return bytes(size)


def test_negative_count_fails_before_any_read(tmp_path):
    # a negative or non-integer count needs no read to be rejected, so an
    # endless stream or a missing file is never read
    source = Endless()
    for nbits, message in ((-1, r"^nbits_override=-1 must be non-negative$"),
                           (2.5, r"^nbits_override must be an integer, got 2\.5$")):
        for read in (lambda: concat(*read_stream(source, "raw", nbits)),
                     lambda: concat(*read_stream(source, "ascii", nbits)),
                     lambda: read_file(source, "raw", nbits),
                     lambda: read_file(tmp_path / "nope.bits", "raw", nbits)):
            with pytest.raises(ValueError, match=message):
                read()
    assert source.reads == 0


def test_raw_override_far_past_the_file(tmp_path):
    # no read asks for the override's bytes, which no buffer could hold,
    # so counts past memory and past any index fail as any count past
    # the end does
    p = tmp_path / "two.bits"
    p.write_bytes(b"ab")
    for nbits in (17, 2**40, 2**63 + 1, 2**70):
        for read in (lambda: read_file(p, "raw", nbits_override=nbits),
                     lambda: concat(*read_stream(p, "raw", nbits))):
            with pytest.raises(ValueError, match=rf"^nbits_override={nbits} outside \[0, 16\]$"):
                read()


def test_ascii_roundtrip(tmp_path):
    seq = BitSequence.from_string("0110")
    p = tmp_path / "x.txt"
    write_file(seq, p, "ascii")
    assert p.read_text() == "0110\n"
    assert read_file(p, "ascii") == seq


def test_ascii_matches_raw_packing(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("0110")
    seq = read_file(p, "ascii")
    assert seq.data == b"\x06"
    assert seq.nbits == 4


def test_ascii_rejects_bad_characters(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0102")
    with pytest.raises(ValueError):
        read_file(p, "ascii")


def test_ascii_ignores_newlines(tmp_path):
    p = tmp_path / "nl.txt"
    p.write_text("01\n10\n")
    assert read_file(p, "ascii") == BitSequence.from_string("0110")


def test_stream_reads_only_what_it_must(monkeypatch):
    # reads of 3 bytes: a raw override stops the reads at the bytes it
    # keeps, while an ascii file is checked to its end
    monkeypatch.setattr(bitstream, "_READ_BYTES", 3)
    fh = io.BytesIO(bytes(range(10)))
    assert concat(*read_stream(fh, "raw", nbits_override=13)) == from_raw_bytes(b"\x00\x01", 13)
    assert fh.tell() == 2 and not fh.closed
    with pytest.raises(ValueError, match="invalid ascii bit character 'x'"):
        list(read_stream(io.BytesIO(b"0110\n1001x"), "ascii", nbits_override=2))


def test_write_stream_joins_chunks_at_any_bit(tmp_path):
    seq = BitSequence.from_bits(np.arange(300) % 7 < 3)
    cuts = [0, 5, 13, 64, 64, 299, 300]
    chunks = [seq[a:b] for a, b in zip(cuts, cuts[1:])]
    for format in ("raw", "ascii"):
        path = tmp_path / format
        assert write_stream(chunks, path, format) == 300
        write_file(seq, tmp_path / "whole", format)
        assert path.read_bytes() == (tmp_path / "whole").read_bytes()


def test_write_stream_replaces_a_path_once_complete(tmp_path):
    # the bits go to a new file beside the path, renamed over it once
    # complete: a chunk that fails midway leaves the old file whole
    path = tmp_path / "x.bits"
    path.write_bytes(b"OLD")
    path.chmod(0o640)
    seq = BitSequence.from_string("0110" * 4)

    def chunks():
        yield seq
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_stream(chunks(), path)
    assert path.read_bytes() == b"OLD"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bits"]
    assert write_stream([seq], path) == 16
    assert path.read_bytes() == b"\x66\x66"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_unknown_format_rejected(tmp_path):
    seq = BitSequence.from_string("01")
    with pytest.raises(ValueError):
        write_file(seq, tmp_path / "x", "hex")
    with pytest.raises(ValueError):
        read_file(tmp_path / "x", "hex")


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_file(tmp_path / "nope.bits", "raw")
