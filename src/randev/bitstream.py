"""Packed binary sequences with exact bit length and bit-exact file I/O.

A BitSequence stores bits packed 8 per byte, least-significant position
first: bit i lives in byte i // 8 at position i % 8.  Pad bits in the
final byte are always zero, so equal sequences are equal as (data, nbits)
pairs and raw dumps are directly comparable.  Step-1 slices and
``concat`` cut and join the packed bytes at any bit offset; no other
module does bit-offset arithmetic on packed bytes.

Two file formats are supported:

* ``raw``   -- the packed bytes, no header; bit count is 8 * file size
               unless overridden.
* ``ascii`` -- one '0' or '1' character per bit, newlines ignored.

``read_stream`` and ``write_stream`` are the one reader and the one
writer of each format.  They move a file a chunk at a time, so memory
stays at one chunk whatever the file's length; ``read_file``,
``from_raw_bytes`` and ``write_file`` are the same code on one whole
sequence.
"""

from __future__ import annotations

import io
import math

import numpy as np

__all__ = ["BitSequence", "concat", "from_raw_bytes", "read_file", "read_stream",
           "write_file", "write_stream"]

_FORMATS = ("raw", "ascii")

# bytes per read: 2**22 raw bits, one piece of the estimators' fold, so a
# raw chunk passes through the fold uncopied
_READ_BYTES = 1 << 19


class BitSequence:
    """Immutable packed bit vector.

    Args:
        data: packed bytes, bit i at byte i // 8, position i % 8.
        nbits: number of valid bits; pad bits of the last byte must be 0.
    """

    __slots__ = ("_data", "_nbits")

    def __init__(self, data: bytes, nbits: int):
        data = bytes(data)
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if not nbits <= 8 * len(data) < nbits + 8:
            raise ValueError(
                f"byte length {len(data)} does not fit nbits={nbits}: "
                f"need nbits <= 8*len < nbits+8"
            )
        if nbits % 8 and data[-1] >> (nbits % 8):
            raise ValueError("pad bits in the final byte must be zero")
        self._data = data
        self._nbits = nbits

    @property
    def data(self) -> bytes:
        return self._data

    @property
    def nbits(self) -> int:
        return self._nbits

    @classmethod
    def from_bits(cls, bits) -> "BitSequence":
        """Pack an iterable/array of 0/1 values into a sequence."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size and arr.max() > 1:
            raise ValueError("bit values must be 0 or 1")
        packed = np.packbits(arr, bitorder="little")
        return cls(packed.tobytes(), int(arr.size))

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        """Parse an ascii bit string such as ``"0110"``; newlines ignored."""
        return _from_ascii_bytes(text.encode("ascii"))

    def to_array(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values, length nbits."""
        raw = np.frombuffer(self._data, dtype=np.uint8)
        return np.unpackbits(raw, count=self._nbits, bitorder="little")

    def to_string(self) -> str:
        """Render as an ascii bit string ('0'/'1', no separators)."""
        return (self.to_array() + ord("0")).tobytes().decode("ascii")

    def __len__(self) -> int:
        return self._nbits

    def __getitem__(self, i):
        """Bit i, or for a step-1 slice the packed sequence of those bits."""
        if isinstance(i, slice):
            start, stop, step = i.indices(self._nbits)
            if step != 1:
                raise ValueError(f"slice step {step} unsupported: only step 1")
            n = max(stop - start, 0)
            if n == self._nbits:
                return self  # immutable: the whole needs no copy
            part = BitSequence.__new__(BitSequence)  # _bits zeroes the pads
            part._data, part._nbits = _bits(self._data, start, n), n
            return part
        if not 0 <= i < self._nbits:
            raise IndexError(f"bit index {i} out of range for {self._nbits} bits")
        return (self._data[i >> 3] >> (i & 7)) & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self._nbits == other._nbits and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._nbits, self._data))

    def __repr__(self) -> str:
        if self._nbits <= 32:
            return f"BitSequence({self.to_string()!r})"
        head = self[:32].to_string()
        return f"BitSequence({head!r}..., nbits={self._nbits})"


def concat(*seqs: BitSequence) -> BitSequence:
    """Concatenate sequences at bit granularity, in time linear in the total.

    The result holds each sequence's bits in turn.  When the bits so far
    end inside a byte, the next sequence's first bits fill its pad bits and
    the rest follows shifted, without unpacking any sequence.
    """
    parts, nbits = [], 0
    for s in seqs:
        data, r = s.data, nbits % 8
        if r and data:
            joint = (parts[-1][-1] | data[0] << r) & 0xFF
            parts[-1:] = memoryview(parts[-1])[:-1], bytes((joint,))
            data = s[8 - r:].data
        if data:
            parts.append(data)
        nbits += s.nbits
    return BitSequence(b"".join(parts), nbits)


def _bits(data: bytes, start: int, n: int) -> bytes:
    """Packed bits [start, start + n) of packed ``data`` with zero pads: a
    byte slice when start is byte-aligned, else one little-endian int shift."""
    q, s = divmod(start, 8)
    end = q + (n + 7) // 8
    pad = -n % 8
    if s == 0:
        if not pad:
            return data[q:end]
        last = data[end - 1] & 0xFF >> pad
        return b"".join((memoryview(data)[q:end - 1], bytes((last,))))
    v = int.from_bytes(data[q:end + 1], "little") >> s
    return (v & ~(-1 << n)).to_bytes(end - q, "little")


def write_file(seq: BitSequence, path, format: str = "raw") -> None:
    """Write a sequence to a file in raw or ascii format."""
    write_stream([seq], path, format)


def write_stream(chunks, target, format: str = "raw") -> int:
    """Write BitSequence chunks in stream order; return the bits written.

    Args:
        chunks: the sequences to write, joined as by ``concat``.
        target: a path, or a binary file object written at its position
            and left open.
        format: "raw" packs 8 bits per byte, the last byte zero-padded;
            "ascii" writes one '0' or '1' per bit and a final newline.

    Each chunk is written as it comes.  A raw chunk that ends inside a
    byte holds that byte back to be joined to the next chunk's bits.
    """
    _check_format(format)
    if not hasattr(target, "write"):
        with open(target, "wb") as fh:
            return write_stream(chunks, fh, format)
    held, nbits = BitSequence(b"", 0), 0
    for chunk in chunks:
        nbits += chunk.nbits
        if format == "ascii":
            chars = chunk.to_array()
            chars += ord("0")
            target.write(chars)
            continue
        held = concat(held, chunk)
        whole = held.nbits // 8
        target.write(memoryview(held.data)[:whole])
        held = held[8 * whole:]
    target.write(b"\n" if format == "ascii" else held.data)
    return nbits


def read_file(path, format: str = "raw", nbits_override: int | None = None) -> BitSequence:
    """Read a sequence from a file: the ``concat`` of ``read_stream``.

    Args:
        path: file to read.
        format: "raw" (packed, nbits = 8 * size) or "ascii" ('0'/'1' chars).
        nbits_override: keep only the first nbits_override bits.  For raw
            files this also zeroes the pad bits of the final kept byte.

    Returns:
        The decoded BitSequence.
    """
    return concat(*read_stream(path, format, nbits_override))


def from_raw_bytes(payload: bytes, nbits_override: int | None = None) -> BitSequence:
    """Build a BitSequence from packed little-endian bytes.

    Without an override every byte contributes eight bits.  With one, the
    payload must be at least as long as the override requires and any bits
    past the requested count are dropped.  Like ``read_file``, it is the
    ``concat`` of ``read_stream``, here over the bytes.
    """
    return concat(*read_stream(io.BytesIO(payload), "raw", nbits_override))


def read_stream(source, format: str = "raw", nbits_override: int | None = None):
    """The bits of a file, as BitSequence chunks in stream order.

    Args:
        source: a path, or a binary file object read from its position
            and left open.
        format: "raw" (packed, 8 bits per byte) or "ascii" ('0'/'1'
            characters, newlines ignored).
        nbits_override: keep only the first nbits_override bits.  A raw
            file is read only as far as they reach; an ascii file is still
            checked to its end.

    Each read of up to _READ_BYTES bytes makes one chunk.  A path is
    opened when the first chunk is asked for.  Errors are raised as the
    reads meet them: a bad character with its chunk, and an override
    outside [0, bits available] once the file is read to its end, after
    every chunk before it.
    """
    _check_format(format)
    return _first_bits(_chunks(source, format, nbits_override), nbits_override)


def _chunks(source, format: str, nbits: int | None):
    """The chunks of ``read_stream`` before the override cuts them."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            yield from _chunks(fh, format, nbits)
        return
    if format == "ascii":
        while block := source.read(_READ_BYTES):
            yield _from_ascii_bytes(block)
        return
    # a count in range needs only its own bytes; any other needs the total
    left = -(-nbits // 8) if nbits is not None and nbits >= 0 else math.inf
    while left and (block := source.read(min(left, _READ_BYTES))):
        left -= len(block)
        yield BitSequence(block, 8 * len(block))


def _first_bits(chunks, nbits_override: int | None):
    """The chunks up to their first nbits_override bits, all of them read."""
    if nbits_override is None:
        yield from chunks
        return
    owed, total = max(nbits_override, 0), 0
    for chunk in chunks:
        total += chunk.nbits
        if owed:
            part = chunk[:owed]
            owed -= part.nbits
            yield part
    if not 0 <= nbits_override <= total:
        raise ValueError(f"nbits_override={nbits_override} outside [0, {total}]")


def _from_ascii_bytes(payload: bytes) -> BitSequence:
    arr = np.frombuffer(payload, dtype=np.uint8)
    arr = arr[(arr != 10) & (arr != 13)]  # strip newlines
    bad = (arr != ord("0")) & (arr != ord("1"))
    if bad.any():
        ch = chr(int(arr[bad][0]))
        raise ValueError(f"invalid ascii bit character {ch!r}: expected '0' or '1'")
    return BitSequence.from_bits(arr - ord("0"))


def _check_format(format: str) -> None:
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}: expected one of {_FORMATS}")
