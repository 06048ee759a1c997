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
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitSequence", "concat", "from_raw_bytes", "read_file", "write_file"]

_FORMATS = ("raw", "ascii")


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
    _check_format(format)
    if format == "raw":
        with open(path, "wb") as fh:
            fh.write(seq.data)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(seq.to_string())
            fh.write("\n")


def read_file(path, format: str = "raw", nbits_override: int | None = None) -> BitSequence:
    """Read a sequence from a file.

    Args:
        path: file to read.
        format: "raw" (packed, nbits = 8 * size) or "ascii" ('0'/'1' chars).
        nbits_override: keep only the first nbits_override bits.  For raw
            files this also zeroes the pad bits of the final kept byte.

    Returns:
        The decoded BitSequence.
    """
    _check_format(format)
    with open(path, "rb") as fh:
        payload = fh.read()
    if format == "raw":
        return from_raw_bytes(payload, nbits_override)
    return _first_bits(_from_ascii_bytes(payload), nbits_override)


def from_raw_bytes(payload: bytes, nbits_override: int | None = None) -> BitSequence:
    """Build a BitSequence from packed little-endian bytes.

    Without an override every byte contributes eight bits.  With one, the
    payload must be at least as long as the override requires and any bits
    past the requested count are dropped.
    """
    return _first_bits(BitSequence(payload, 8 * len(payload)), nbits_override)


def _first_bits(seq: BitSequence, nbits_override: int | None) -> BitSequence:
    if nbits_override is None:
        return seq
    if not 0 <= nbits_override <= seq.nbits:
        raise ValueError(f"nbits_override={nbits_override} outside [0, {seq.nbits}]")
    return seq[:nbits_override]


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
