"""Vectorized keyed-RNG streams: numpy's seeding pipeline as array ops.

The scalar fault oracles (:class:`repro.faults.FaultInjector`) derive a
fresh ``np.random.default_rng((seed, tag, round, client, attempt))`` per
decision.  That is the right *contract* — every decision is a pure
function of its coordinate — but constructing a ``SeedSequence`` +
``PCG64`` + ``Generator`` per client costs microseconds each, which caps
a simulated fleet at tens of thousands of devices.

This module reimplements the exact same derivation pipeline as numpy
uint32/uint64 **array** arithmetic, so one call produces the first
``ndraws`` uniforms of *every* client's keyed stream at once:

* ``SeedSequence`` entropy-pool mixing (O'Neill's seed_seq hash with
  numpy's constants, 4-word pool, zero-padding for short keys);
* ``generate_state(4, uint64)`` (the little-endian uint32-pair view);
* ``PCG64`` stream setup (``pcg_setseq_128_srandom``: the 128-bit LCG
  seeded with two pool-derived 128-bit words) via 32-bit limb
  multiplication; and
* the XSL-RR output function plus the ``>> 11`` 53-bit double
  conversion of ``Generator.random()``.

Each :class:`KeyedStream` allocates its state and a few uint64 scratch
arrays once and advances them in place (``out=`` ufuncs), so a draw
costs no temporaries beyond the fresh array it returns; a returned draw
never aliases the stream's buffers, and a key of scalars only stays
0-d throughout.

Bit-identity with ``default_rng(key).random()`` is a tested invariant
(`tests/test_fleet.py` proves it property-style against live numpy), so
the batch oracles built on top are replay-compatible with every scalar
schedule ever recorded under the same seed.

Nothing here is security-relevant; it is a *simulation determinism*
device.  The implementation follows the published PCG and seed_seq
algorithms that numpy itself ships.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KeyedStream", "keyed_uniforms", "entropy_words"]

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_WORDS = 4

# PCG64's default 128-bit multiplier, split into uint64 halves, and the
# low half's 32-bit limbs for the high half of ``state_lo * _MUL_LO``.
_MUL_HI = np.uint64(0x2360ED051FC65DA4)
_MUL_LO = np.uint64(0x4385DF649FCCF645)
_MUL_LO_0 = np.uint64(0x9FCCF645)
_MUL_LO_1 = np.uint64(0x4385DF64)

_M32 = np.uint64(0xFFFFFFFF)
_U32_MASK = 0xFFFFFFFF
_ONE = np.uint64(1)
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)
_SHIFT63 = np.uint64(63)
_ROT_SHIFT = np.uint64(58)
_ROT_MASK = np.uint64(63)
_WORD_BITS = np.uint64(64)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def entropy_words(*components):
    """Split key components into SeedSequence's uint32 entropy words.

    Scalar ints may be any non-negative size (they split into as many
    little-endian 32-bit words as they need, exactly like numpy's
    ``_coerce_to_uint32_array``); array components must fit in one word
    each (every id/round/attempt coordinate in this repo is ``< 2**32``)
    so the whole batch shares a single word layout.
    """
    words = []
    for component in components:
        if isinstance(component, (int, np.integer)):
            value = int(component)
            if value < 0:
                raise ValueError("entropy components must be non-negative")
            if value == 0:
                words.append(0)
                continue
            while value > 0:
                words.append(value & _U32_MASK)
                value >>= 32
        else:
            array = np.asarray(component)
            if array.dtype.kind not in "iu":
                raise TypeError("array key components must be integers")
            if array.size and (int(array.min()) < 0
                               or int(array.max()) > _U32_MASK):
                raise ValueError(
                    "array key components must lie in [0, 2**32) so every "
                    "element shares one entropy-word layout")
            words.append(array.astype(np.uint32))
    return words


def _hashmix(value, hash_const):
    """One seed_seq hash step; ``hash_const`` is a 1-slot mutable cell.

    The running constant is tracked as a Python int masked to 32 bits
    (scalar numpy uint32 multiplies warn on overflow; array ones wrap
    silently, which is the behaviour we need).
    """
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * _MULT_A) & _U32_MASK
    value *= np.uint32(hash_const[0])
    value ^= value >> _XSHIFT
    return value


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> _XSHIFT
    return result


def _mixed_pool(words):
    """The 4-word entropy pool for every element of the batch.

    Scalar key positions stay 0-d arrays as long as possible: the hash
    chain over a (seed, tag, round) prefix is computed once, not per
    client — broadcasting promotes a pool word to full batch shape only
    at its first contact with a vector word.
    """
    sources = [np.asarray(w, dtype=np.uint32).reshape(np.shape(w))
               for w in words]
    hash_const = [_INIT_A]
    zero = np.zeros((), dtype=np.uint32)
    pool = []
    for index in range(_POOL_WORDS):
        source = sources[index] if index < len(sources) else zero
        pool.append(_hashmix(source, hash_const))
    for i_src in range(_POOL_WORDS):
        for i_dst in range(_POOL_WORDS):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst],
                                   _hashmix(pool[i_src], hash_const))
    for i_src in range(_POOL_WORDS, len(sources)):
        for i_dst in range(_POOL_WORDS):
            pool[i_dst] = _mix(pool[i_dst],
                               _hashmix(sources[i_src], hash_const))
    return pool


def _generated_state(pool):
    """``generate_state(4, uint64)`` — eight hashed uint32 output words."""
    hash_const = [_INIT_B]
    out = []
    for index in range(2 * _POOL_WORDS):
        value = pool[index % _POOL_WORDS] ^ np.uint32(hash_const[0])
        hash_const[0] = (hash_const[0] * _MULT_B) & _U32_MASK
        value *= np.uint32(hash_const[0])
        value ^= value >> _XSHIFT
        out.append(value)
    return out


def _u64(lo32, hi32, shape):
    """A fresh ``shape`` uint64 array of ``hi32:lo32``."""
    out = np.empty(shape, dtype=np.uint64)
    out[...] = hi32
    out <<= _SHIFT32
    out |= lo32
    return out


class KeyedStream:
    """The PCG64 streams of a whole batch of entropy keys, advanced in step.

    Construction runs the full SeedSequence + PCG64 seeding for every
    element; each :meth:`next_uniform` call then advances every stream by
    exactly one draw, matching ``Generator.random()`` bit-for-bit.

    The 128-bit state lives in two uint64 arrays that every step updates
    in place, through five uint64 scratch arrays and one carry mask the
    stream allocates once.  A returned draw is always a fresh array: the
    next draw never changes it, and two streams share no buffer.  A key
    of scalars only keeps 0-d state, so its draws are 0-d too.
    """

    def __init__(self, components):
        with np.errstate(over="ignore"):
            self._init(components)

    def _init(self, components):
        # Modular wraparound is the algorithm here, not an accident; the
        # errstate guard covers the 0-d "scalar" ops numpy would warn on.
        words = entropy_words(*components)
        shape = np.broadcast_shapes(*[np.shape(w) for w in words])
        state = _generated_state(_mixed_pool(words))
        init_hi = _u64(state[0], state[1], shape)
        init_lo = _u64(state[2], state[3], shape)
        seq_hi = _u64(state[4], state[5], shape)
        seq_lo = _u64(state[6], state[7], shape)
        self._scratch = [np.empty(shape, dtype=np.uint64)
                         for _ in range(5)]
        self._carry = np.empty(shape, dtype=bool)
        # pcg_setseq_128_srandom: inc = (initseq << 1) | 1; step;
        # state += initstate; step.
        tmp = self._scratch[0]
        np.right_shift(seq_lo, _SHIFT63, out=tmp)
        seq_hi <<= _ONE
        seq_hi |= tmp
        seq_lo <<= _ONE
        seq_lo |= _ONE
        self._inc_hi, self._inc_lo = seq_hi, seq_lo
        # First srandom step from state 0 is just state = inc.
        init_lo += seq_lo
        init_hi += seq_hi
        np.less(init_lo, seq_lo, out=self._carry)
        init_hi += self._carry
        self._state_hi, self._state_lo = init_hi, init_lo
        self._step()

    def _step(self):
        """128-bit LCG advance, ``state = state * MUL + inc``, in place."""
        hi, lo = self._state_hi, self._state_lo
        a0, a1, acc, mid, tmp = self._scratch
        # acc = high 64 bits of lo * _MUL_LO, by 32-bit limbs.
        np.bitwise_and(lo, _M32, out=a0)
        np.right_shift(lo, _SHIFT32, out=a1)
        np.multiply(a0, _MUL_LO_0, out=acc)
        acc >>= _SHIFT32
        np.multiply(a1, _MUL_LO_0, out=mid)
        a0 *= _MUL_LO_1
        np.bitwise_and(mid, _M32, out=tmp)
        acc += tmp
        np.bitwise_and(a0, _M32, out=tmp)
        acc += tmp
        acc >>= _SHIFT32
        mid >>= _SHIFT32
        acc += mid
        a0 >>= _SHIFT32
        acc += a0
        a1 *= _MUL_LO_1
        acc += a1
        # hi = hi * MUL_LO + lo * MUL_HI + mulhi(lo, MUL_LO) + inc_hi + c.
        hi *= _MUL_LO
        np.multiply(lo, _MUL_HI, out=tmp)
        hi += tmp
        hi += acc
        hi += self._inc_hi
        lo *= _MUL_LO
        np.add(lo, self._inc_lo, out=tmp)
        np.less(tmp, lo, out=self._carry)
        hi += self._carry
        self._state_lo, self._scratch[4] = tmp, lo

    def _output(self, out):
        """The XSL-RR output of the current state, written into ``out``."""
        hi = self._state_hi
        rot, value = self._scratch[0], self._scratch[1]
        np.right_shift(hi, _ROT_SHIFT, out=rot)
        np.bitwise_xor(hi, self._state_lo, out=value)
        np.right_shift(value, rot, out=out)
        np.subtract(_WORD_BITS, rot, out=rot)
        rot &= _ROT_MASK
        value <<= rot
        out |= value
        return out

    def next_uint64(self):
        """One XSL-RR output per stream (advances every stream)."""
        with np.errstate(over="ignore"):
            self._step()
            return self._output(np.empty(self._state_hi.shape,
                                         dtype=np.uint64))

    def next_uniform(self):
        """One ``Generator.random()`` double in [0, 1) per stream."""
        with np.errstate(over="ignore"):
            self._step()
            bits = self._output(self._scratch[2])
        bits >>= _SHIFT11
        return bits * _DOUBLE_SCALE


def keyed_uniforms(components, ndraws):
    """First ``ndraws`` uniforms of every keyed stream, as a list of arrays.

    ``components`` is the entropy key with scalar and/or array positions
    (arrays broadcast against each other).  Element ``i`` of each
    returned array equals draw ``k`` of
    ``np.random.default_rng(tuple_of_element_i).random()``.
    """
    stream = KeyedStream(components)
    return [stream.next_uniform() for _ in range(int(ndraws))]
