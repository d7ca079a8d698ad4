"""numpy's ``default_rng(seed).random()`` stream for a batch of seeds at once.

numpy's ``SeedSequence`` and PCG64 arithmetic (bit_generator.pyx, pcg64.h) on
(B,) arrays, so a batch pays numpy's per-seed set-up once. A seed in
[0, 2**128) is at most four 32-bit words, which ``SeedSequence`` mixes like
the same words padded with zeros.
"""

import numpy as np

#: Seeds this stream covers; numpy's generator takes every other one.
SEED_LIMIT = 2**128

#: Draws that one call takes at most per stream: one round of a batch's seeded draw.
JUMPS = 8

_U32, _U64 = np.uint32, np.uint64

# SeedSequence's running hash constant, init * mult**k: 16 hashes mix the entropy
# pool and 8 fill the state, each using two constants.
_MIX_HASH = np.array([0x43B0D7E5 * 0x931E8875**k % 2**32 for k in range(17)], dtype=_U32)
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**k % 2**32 for k in range(9)], dtype=_U32)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_M32, _S32, _ZERO = _U64(0xFFFFFFFF), _U64(32), _U64(0)


def _table(values) -> tuple:
    """(k, 1) uint64 tables (hi, lo, lo >> 32, lo & 0xFFFFFFFF) of k 128-bit multipliers."""
    hi = np.array([v >> 64 for v in values], dtype=_U64)[:, None]
    lo = np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=_U64)[:, None]
    return hi, lo, lo >> _S32, lo & _M32


# PCG64's step is state * M + inc mod 2**128, so k steps at once are
# state * M**k + inc * (M**(k-1) + ... + M + 1): entry k - 1 of each table.
_MUL = 0x2360ED051FC65DA4_4385DF649FCCF645
_POWERS = [pow(_MUL, k, 2**128) for k in range(JUMPS)]
_JUMP_MUL = _table([power * _MUL % 2**128 for power in _POWERS])
_JUMP_INC = _table([sum(_POWERS[:k]) % 2**128 for k in range(1, JUMPS + 1)])


def _hashmix(value, consts):
    """SeedSequence's ``hashmix`` of uint32 words, one call per constant but the last."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _U32(16))


def _muladd(hi, lo, mul, add_hi, add_lo):
    """(hi, lo) * mul + (add_hi, add_lo) mod 2**128 on uint64 halves; ``mul`` is a ``_table``."""
    mul_hi, mul_lo, mul_lo1, mul_lo0 = mul
    # The high word of lo * mul_lo from 32-bit halves (Hacker's Delight, mulhu).
    lo0, lo1 = lo & _M32, lo >> _S32
    t = lo1 * mul_lo0 + (lo0 * mul_lo0 >> _S32)
    carry = (lo0 * mul_lo1 + (t & _M32)) >> _S32
    hi = lo1 * mul_lo1 + (t >> _S32) + carry + lo * mul_hi + hi * mul_lo
    lo = lo * mul_lo
    new_lo = lo + add_lo
    return hi + add_hi + (new_lo < lo), new_lo


def _jump(hi, lo, inc_hi, inc_lo, count):
    """The (B,) states 1, 2, ..., ``count`` PCG64 steps on, as (count, B) arrays."""
    # Row by row, each table entry against the whole batch: numpy's inner loop runs over B.
    add = _muladd(inc_hi, inc_lo, [c[:count] for c in _JUMP_INC], _ZERO, _ZERO)
    return _muladd(hi, lo, [c[:count] for c in _JUMP_MUL], *add)


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
        (self.hi,), (self.lo,) = _muladd(self.inc[0] + init_hi + (lo < init_lo), lo,
                                         [c[:1] for c in _JUMP_MUL], *self.inc)

    def random(self, rows, count=None) -> np.ndarray:
        """The next ``random()`` double of the streams at ``rows``, advancing only those.

        With a ``count`` of at most ``JUMPS``, the next ``count`` doubles of
        each, one row per stream, in one jump.
        """
        hi, lo = _jump(self.hi[rows], self.lo[rows], self.inc[0][rows], self.inc[1][rows],
                       count or 1)
        self.hi[rows], self.lo[rows] = hi[-1], lo[-1]
        # XSL-RR: the two words xor-ed, rotated right by the state's top six bits.
        x, r = hi ^ lo, hi >> _U64(58)
        out = ((x >> r | x << (-r & _U64(63))) >> _U64(11)).astype(float) * 2.0**-53
        return out.T if count else out[0]
