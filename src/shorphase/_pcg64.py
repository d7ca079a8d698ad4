"""numpy's ``default_rng(seed).random()`` stream for a batch of seeds at once.

numpy's ``SeedSequence`` and PCG64 arithmetic (bit_generator.pyx, pcg64.h) on
(B,) arrays, so a batch pays numpy's per-seed set-up once. A seed in
[0, 2**128) is at most four 32-bit words, which ``SeedSequence`` mixes like
the same words padded with zeros.
"""

import numpy as np

#: Seeds this stream covers; numpy's generator takes every other one.
SEED_LIMIT = 2**128

_U32, _U64 = np.uint32, np.uint64

# SeedSequence's running hash constant, init * mult**k: 16 hashes mix the entropy
# pool and 8 fill the state, each using two constants. Then PCG64's multiplier.
_MIX_HASH = np.array([0x43B0D7E5 * 0x931E8875**k % 2**32 for k in range(17)], dtype=_U32)
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**k % 2**32 for k in range(9)], dtype=_U32)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_MUL_HI, _MUL_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)
_MUL_LO1, _MUL_LO0 = _U64(0x4385DF64), _U64(0x9FCCF645)
_M32, _S32 = _U64(0xFFFFFFFF), _U64(32)


def _hashmix(value, consts):
    """SeedSequence's ``hashmix`` of uint32 words, one call per constant but the last."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _U32(16))


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + increment mod 2**128, on uint64 halves."""
    # The high word of lo * _MUL_LO from 32-bit halves (Hacker's Delight, mulhu).
    lo0, lo1 = lo & _M32, lo >> _S32
    t = lo1 * _MUL_LO0 + (lo0 * _MUL_LO0 >> _S32)
    carry = (lo0 * _MUL_LO1 + (t & _M32)) >> _S32
    hi = lo1 * _MUL_LO1 + (t >> _S32) + carry + lo * _MUL_HI + hi * _MUL_LO
    lo = lo * _MUL_LO
    new_lo = lo + inc_lo
    return hi + inc_hi + (new_lo < lo), new_lo


class Pcg64:
    """The ``default_rng(seed)`` stream of each seed in a batch, every seed in [0, SEED_LIMIT)."""

    def __init__(self, seeds):
        lo = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=_U64)
        hi = np.array([s >> 64 for s in seeds], dtype=_U64)
        # The four entropy words, least significant first; then each pool word,
        # hashed, is mixed into the other three in turn.
        words = np.stack([lo & _M32, lo >> _S32, hi & _M32, hi >> _S32], axis=-1).astype(_U32)
        pool = _hashmix(words, _MIX_HASH[:5])
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            hashed = _hashmix(pool[:, src:src + 1], _MIX_HASH[4 + 3 * src:8 + 3 * src])
            mixed = _MIX_L * pool[:, dst] - _MIX_R * hashed
            pool[:, dst] = mixed ^ (mixed >> _U32(16))
        state = _hashmix(np.tile(pool, 2), _STATE_HASH).astype(_U64)
        init_hi, init_lo, seq_hi, seq_lo = (state[:, 0::2] | state[:, 1::2] << _S32).T
        # Increment (seq << 1) | 1; state ((inc + init) * multiplier + inc) mod 2**128.
        self.inc = seq_hi << _U64(1) | seq_lo >> _U64(63), seq_lo << _U64(1) | _U64(1)
        lo = self.inc[1] + init_lo
        self.hi, self.lo = _step(self.inc[0] + init_hi + (lo < init_lo), lo, *self.inc)

    def random(self, rows) -> np.ndarray:
        """The next ``random()`` double of the streams at ``rows``, advancing only those."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc[0][rows], self.inc[1][rows])
        self.hi[rows], self.lo[rows] = hi, lo
        # XSL-RR: the two words xor-ed, rotated right by the state's top six bits.
        x, r = hi ^ lo, hi >> _U64(58)
        return ((x >> r | x << (-r & _U64(63))) >> _U64(11)).astype(float) * 2.0**-53
