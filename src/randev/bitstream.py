"""Packed binary sequences with exact bit length and bit-exact file I/O.

A BitSequence stores bits packed 8 per byte, least-significant position
first: bit i lives in byte i // 8 at position i % 8.  Pad bits in the
final byte are always zero, so equal sequences are equal as (data, nbits)
pairs and raw dumps are directly comparable.  Step-1 slices and
``concat`` cut and join the packed bytes at any bit offset; no other
module cuts or joins them.  ``_pieces`` is the one cutter of a chunked
stream into pieces of a fixed size, ``_PIECE_BITS`` for the estimators'
fold, and ``_words`` the one view of packed bytes as the 64-bit words
that ``estimators`` and ``windows`` count, in passes of ``_PASS_WORDS``.

Two file formats are supported:

* ``raw``   -- the packed bytes, no header; bit count is 8 * file size
               unless overridden.
* ``ascii`` -- one '0' or '1' character per bit, newlines ignored.

``read_stream`` and ``write_stream`` are the one reader and the one
writer of each format.  They move a file a chunk at a time, so memory
stays at one chunk whatever the file's length; ``read_file``,
``from_raw_bytes`` and ``write_file`` are the same code on one whole
sequence, which a raw read without an override takes in one read.
``write_stream`` is also the one rule for writing a path: a new file
beside it, renamed over it once complete, so a failed write leaves the
old file whole.

Importing this module loads no numpy: the four functions that make
arrays, ``BitSequence.from_bits`` and ``to_array``, ``_words`` and
``_from_ascii_bytes``, import it where they run.  So raw reads and
writes, and ``randev concat`` of raw files, need none; and a ``generate``
child, which without bytecode files compiles randev from source,
compiles this module and ``sources`` before numpy is mapped in, so the
compile's transient memory does not sit on top of numpy's.
"""

from __future__ import annotations

import os

from randev.config import _FORMATS, _integer

__all__ = ["BitSequence", "concat", "from_raw_bytes", "read_file", "read_stream",
           "write_file", "write_stream"]

# the bits of one piece of a stream: what ``_pieces`` cuts for the
# estimators' fold, and what ``generate`` makes and writes at a time.
# At 2**20 bits a measure's temporaries take about 0.6 MiB.  Against
# 2**22, ``randev analyze`` of 2**26 bits has about half the page faults
# (5.1k against 9.9k) and 1.9 MiB less peak memory, and ``monitor`` a
# lower peak; ``generate`` has more faults, though a lower peak
_PIECE_BITS = 1 << 20

# most bytes per read: one piece of raw bits, so a whole raw chunk passes
# through the fold uncopied
_READ_BYTES = _PIECE_BITS // 8

# words of lag products the estimators make in one pass, and of lag-1
# products ``windows`` makes at a time: 128 KiB, so a 2**14-bit stream
# takes all the lags of a word offset at once and a piece of over 2**19
# bits one lag per pass.  At 2**16 words, a piece of 2**17 to 2**21 bits
# faulted both 512 KiB arrays in anew on every call and took twice as long
_PASS_WORDS = 1 << 14


class BitSequence:
    """Immutable packed bit vector.

    Args:
        data: packed bytes, bit i at byte i // 8, position i % 8.
        nbits: number of valid bits; pad bits of the last byte must be 0.
    """

    __slots__ = ("_data", "_nbits")

    def __init__(self, data: bytes, nbits: int):
        data = bytes(data)
        nbits = _integer(nbits, "nbits", ValueError)
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
        import numpy as np

        arr = np.asarray(bits).reshape(-1)
        if arr.dtype == np.uint8 or arr.dtype == np.bool_:
            bad = arr.size and arr.max() > 1
        else:
            # checked before the cast, which would wrap or truncate them
            bad = ((arr != 0) & (arr != 1)).any()
            arr = arr.astype(np.uint8)
        if bad:
            raise ValueError("bit values must be 0 or 1")
        packed = np.packbits(arr, bitorder="little")
        return cls(packed.tobytes(), int(arr.size))

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        """Parse an ascii bit string such as ``"0110"``; newlines ignored."""
        return _from_ascii_bytes(text.encode("ascii"))

    def to_array(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values, length nbits."""
        import numpy as np

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

    A path is written to a new file beside it (or beside the file a link
    at it names), which takes the old file's mode and is renamed over it
    once complete.  So a failed or interrupted write leaves the path as it
    was, and chunks read from the path are read whole before it is
    replaced.  A path that names no regular file, such as a device or a
    pipe, is written in place: there is nothing to replace.
    """
    _check_format(format)
    if not hasattr(target, "write"):
        target = os.fsdecode(target)
        path = os.path.realpath(target)
        exists = os.path.exists(path)
        if exists and not os.path.isfile(path):
            with open(target, "wb") as fh:
                return write_stream(chunks, fh, format)
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            fh = open(tmp, "xb")
        except OSError as exc:
            exc.filename = target  # name the file asked for, not the temporary one
            raise
        try:
            with fh:
                nbits = write_stream(chunks, fh, format)
            if exists:
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return nbits
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
    """Read a sequence from a file: the bits of ``read_stream``, in one
    read for a raw file without an override.

    Args:
        path: file to read, or a binary file object read from its position.
        format: "raw" (packed, nbits = 8 * size) or "ascii" ('0'/'1' chars).
        nbits_override: keep only the first nbits_override bits.  For raw
            files this also zeroes the pad bits of the final kept byte.

    Returns:
        The decoded BitSequence.
    """
    _check_format(format)
    return concat(*_first_bits(_chunks(path, format, nbits_override, whole=True),
                               nbits_override))


def from_raw_bytes(payload: bytes, nbits_override: int | None = None) -> BitSequence:
    """Build a BitSequence from packed little-endian bytes.

    Without an override every byte contributes eight bits.  With one, the
    payload must be at least as long as the override requires and any bits
    past the requested count are dropped.  The payload is one chunk cut by
    ``read_stream``'s own override rule, so it keeps the same bits and
    raises the same errors; a whole payload of ``bytes`` is kept uncopied.
    """
    whole = BitSequence(payload, 8 * memoryview(payload).nbytes)
    return concat(*_first_bits([whole], nbits_override))


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

    Each read makes one chunk: what one read of the file returns, up to
    _READ_BYTES bytes, so a pipe's bits come as they arrive.  When the
    first chunk is asked for, a negative override fails before any read;
    else a path is opened.  Errors of the file are raised as the reads
    meet them: a bad character with its chunk, and an override past the
    bits available once the file is read to its end.
    """
    _check_format(format)
    return _first_bits(_chunks(source, format, nbits_override), nbits_override)


def _chunks(source, format: str, nbits: int | None, whole: bool = False):
    """The chunks of ``read_stream`` before the override cuts them; with
    ``whole`` and no count, a raw file's bits as one chunk of one read."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            yield from _chunks(fh, format, nbits, whole)
        return
    # one OS read where the file object offers it, not a buffer's fill
    read = getattr(source, "read1", source.read)
    if format == "ascii":
        while block := read(_READ_BYTES):
            yield _from_ascii_bytes(block)
        return
    # a count needs only its own bytes, read a chunk at a time: a read
    # allocates what it asks for, and a count may be past the file's end
    # or any index; no count, -1, needs all
    left = -1 if nbits is None else -(-nbits // 8)
    read, size = (source.read, -1) if whole and left < 0 else (read, _READ_BYTES)
    while left and (block := read(size if left < 0 else min(left, size))):
        left -= len(block)
        yield BitSequence(block, 8 * len(block))


def _words(data: bytes, out: np.ndarray | None = None) -> np.ndarray:
    """Packed bytes as little-endian 64-bit words, the last one zero-padded,
    and one spare zero word for the carry of a shift.  Without ``out`` they
    view a padded copy of the bytes; with it, they are its first words,
    written over."""
    import numpy as np

    nw = -(-len(data) // 8) + 1
    if out is None:
        return np.frombuffer(data.ljust(8 * nw, b"\0"), dtype="<u8")
    view = out[:nw].view(np.uint8)
    view[:len(data)] = np.frombuffer(data, np.uint8)
    view[len(data):] = 0
    return out[:nw]


def _pieces(chunks, bits: int):
    """The stream of chunks cut into pieces of ``bits`` bits, the last one
    shorter.  Short chunks are joined with ``concat`` until a piece is
    full; a chunk that is one whole piece, or a whole stream shorter than
    one, passes through uncopied."""
    held, n = [], 0  # the start of the next piece, n bits long
    for chunk in chunks:
        i = 0
        if held:
            i = min(bits - n, chunk.nbits)
            held.append(chunk[:i])
            n += i
            if n < bits:
                continue
            yield concat(*held)
            held = []
        while chunk.nbits - i >= bits:
            yield chunk[i:i + bits]
            i += bits
        if i < chunk.nbits:
            held, n = [chunk[i:]], chunk.nbits - i
    if held:
        yield held[0] if len(held) == 1 else concat(*held)


def _first_bits(chunks, nbits_override: int | None):
    """The chunks up to their first nbits_override bits, all of them read."""
    if nbits_override is None:
        yield from chunks
        return
    nbits_override = _integer(nbits_override, "nbits_override", ValueError)
    if nbits_override < 0:
        raise ValueError(f"nbits_override={nbits_override} must be non-negative")
    owed, total = nbits_override, 0
    for chunk in chunks:
        total += chunk.nbits
        if owed:
            part = chunk[:owed]
            owed -= part.nbits
            yield part
    if nbits_override > total:
        raise ValueError(f"nbits_override={nbits_override} outside [0, {total}]")


def _from_ascii_bytes(payload: bytes) -> BitSequence:
    import numpy as np

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
