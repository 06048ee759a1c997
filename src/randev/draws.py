"""The base generators the source kinds are built on: SplitMix64 draws,
and the jump tables of the xorshift64 state stream.

SplitMix64 (Steele, Lea & Flood 2014) is fully specified on 64-bit
integers, so identical (config, n) pairs yield identical bit streams on
any platform.  Its state after d draws is seed + d*GAMMA mod 2**64, so
any range of draws is a base plus the fixed steps d*GAMMA, a table built
once per process, read-only, and only by the kinds that use it.  Each
call slices it, so a 2**14-bit ``generate`` after the first builds none.
``_draw`` makes a source's draws in blocks of at most ``_DRAWS`` =
2**15, so the draws of a 2**16-bit chunk take 256 KiB and are compared
into the chunk's buffers a block at a time.  A draw z stands for the
uniform (z >> 11) * 2**-53, and a bit that is 1 when that uniform is
below p compares z itself with ``_threshold(p) << 11``, so no draw is
shifted first.

The buffers a chunk is worked out in carry nothing from one chunk to the
next, so they belong to the thread, not to a source: ``_buffers`` gives
each thread its own, allocated on its first chunk, and a fresh source
allocates none.  Different sources may run on different threads at
once; numpy releases the GIL inside its ufuncs, so buffers shared by the
whole process would mix two threads' chunks.

xorshift64 (Marsaglia 2003) is linear over GF(2): one step is a fixed
64x64 bit matrix M, and word i + 2**k of the stream is M**(2**k) applied
to word i.  ``_xorshift_tables`` holds M**(2**k) for k = 0..10 (16 KiB
each), built once per process on first use, and ``_jump`` applies one of
them with one table lookup per byte of each word.

This module knows no source kind; ``randev.sources`` holds the kinds.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from randev.config import _MASK64

_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64's output mix, as numpy scalars built once
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)

# bits per chunk a source makes at a time; each chunk is packed as soon as
# it is made, and the longest xorshift64 jump spans one chunk's words
_GEN_CHUNK = 1 << 16

# SplitMix64 draws per block: a chunk draws and compares its bits a block
# at a time, so a thread's two uint64 buffers and the step table hold
# 256 KiB each, where a chunk's draws would take 512 KiB each
_DRAWS = 1 << 15

# the offset of byte b's row in a flattened (8, 256) jump table, as a
# column; a uint8 byte plus a uint16 offset stays a uint16 index
_BYTE_ROWS = np.arange(0, 8 * 256, 256, dtype=np.uint16)[:, None]


def _threshold(p: float) -> int:
    """The integer T with ``(z >> 11) < T`` exactly when ``(z >> 11) * 2**-53 < p``,
    the uniform in [0, 1) that a 64-bit output z stands for.

    ``(z >> 11) * 2**-53`` and ``p * 2**53`` are exact floats, and an
    integer is below a real exactly when it is below that real's ceiling.
    """
    return max(0, math.ceil(p * 2.0**53))


_scratch = threading.local()


def _buffers() -> tuple:
    """This thread's scratch: two uint64 buffers of ``_DRAWS`` draws, for
    ``_draw``, and two bool buffers of ``_GEN_CHUNK`` bits, allocated on
    the thread's first call.  A caller keeps nothing in them from one
    chunk to the next."""
    try:
        return _scratch.buffers
    except AttributeError:
        _scratch.buffers = (np.empty(_DRAWS, dtype=np.uint64), np.empty(_DRAWS, dtype=np.uint64),
                            np.empty(_GEN_CHUNK, dtype=bool), np.empty(_GEN_CHUNK, dtype=bool))
        return _scratch.buffers


def _draw(src, m: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 outputs z of the next m <= _DRAWS draws of src, a
    generator state with a seed ``src.config.seed`` and a count
    ``src._draws`` of the draws made so far, which it advances; a view of
    ``out``, worked out with ``tmp`` as scratch.  A caller compares z with
    ``_threshold(p) << 11``: ``(z >> 11) < T`` exactly when
    ``z < T * 2**11``, so no draw is shifted to be compared."""
    z, t = out[:m], tmp[:m]
    base = (src.config.seed + (src._draws + 1) * _GAMMA) & _MASK64
    src._draws += m
    np.add(_gamma_steps()[:m], base, out=z)
    # the output mix; uint64 arithmetic wraps mod 2**64
    np.bitwise_xor(z, np.right_shift(z, _S30, out=t), out=z)
    np.multiply(z, _MIX1, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S27, out=t), out=z)
    np.multiply(z, _MIX2, out=z)
    return np.bitwise_xor(z, np.right_shift(z, _S31, out=t), out=z)


def _read_only(table: np.ndarray) -> np.ndarray:
    """The table, made read-only: the cached tables below are shared by
    every source in the process."""
    table.flags.writeable = False
    return table


@functools.cache
def _gamma_steps() -> np.ndarray:
    """d*GAMMA mod 2**64 for the draws d = 0 .. _DRAWS - 1 of a block."""
    steps = np.arange(_DRAWS, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    return _read_only(steps)


@functools.cache
def _xorshift_tables() -> np.ndarray:
    """The (levels, 8, 256) tables of M**(2**k), k = 0 .. log2(_GEN_CHUNK/64),
    for one xorshift step M: entry [k, b, v] is M**(2**k) applied to the
    word v << 8*b (jump ahead by byte tables, as in Haramoto et al. 2008,
    "Efficient jump ahead for F2-linear random number generators").
    Built once per process; 16 KiB per level."""
    # column j of M is M applied to the word with only bit j set
    cols = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)).astype("<u8")
    cols ^= cols << np.uint64(13)
    cols ^= cols >> np.uint64(7)
    cols ^= cols << np.uint64(17)
    tables = np.zeros(((_GEN_CHUNK // 64).bit_length(), 8, 256), dtype=np.uint64)
    for table in tables:
        # entry v of byte b: the xor of columns 8b + i over the bits i of v
        for i, col in enumerate(cols.reshape(8, 8).T):
            table[:, 1 << i:2 << i] = table[:, :1 << i] ^ col[:, None]
        # the columns of the square
        _jump(table, cols, cols)
    return _read_only(tables)


def _jump(table: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """out = the linear map of ``table`` (see _xorshift_tables) applied to
    each of ``words``, little-endian uint64 arrays of one length."""
    idx = np.add(words.view(np.uint8).reshape(-1, 8).T, _BYTE_ROWS)
    np.bitwise_xor.reduce(table.take(idx), axis=0, out=out)
