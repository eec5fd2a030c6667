"""numpy's seeded uniform draw, batched over blocks of consecutive seeds: the per-trial
draws of the DV Hadamard-gadget trials and of the homodyne outcome sampler."""

from __future__ import annotations

import operator

import numpy as np

from .errors import ValidationError

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit words
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_LOW32 = np.uint64(0xFFFFFFFF)
_SEED_BLOCK = 4096  # seeds per pass: about 1 MiB of integer intermediates


def _hash32(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under the running constant; returns it with the next constant."""
    nxt = const * mult & 0xFFFFFFFF
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ (value >> np.uint32(16)), nxt


def _mul_high64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit partial products."""
    a0, a1, b0, b1 = a & _LOW32, a >> np.uint64(32), b & _LOW32, b >> np.uint64(32)
    low_high, high_low = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (low_high & _LOW32) + (high_low & _LOW32)
    return a1 * b1 + (low_high >> np.uint64(32)) + (high_low >> np.uint64(32)) + (mid >> np.uint64(32))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, state * multiplier + increment mod 2**128, on (high, low) uint64 halves."""
    m_hi, m_lo = _PCG_MULT
    new_lo = lo * m_lo + inc_lo
    new_hi = _mul_high64(lo, m_lo) + hi * m_lo + lo * m_hi + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def require_seeds(first: int, count: int) -> None:
    """Raise ``ValidationError`` unless ``count`` >= 0 and the seeds ``first .. first + count - 1`` all lie
    in [0, 2**128)."""
    if count < 0:
        raise ValidationError(f"seeded draws need a non-negative count, got {count}")
    if not 0 <= first < 2**128 or first + count > 2**128:
        raise ValidationError(f"seeded draws need seeds in [0, 2**128), got {first} .. {first + count - 1}")


def _seeded_uniforms(first: int, count: int) -> np.ndarray:
    """``np.random.default_rng(first + t).random()`` for t < count, bit for bit,
    ``_SEED_BLOCK`` seeds at a time, so the integer intermediates stay a fixed
    size and only the float64 result grows with ``count``.

    default_rng(s) hashes s into a four-word SeedSequence pool, expands the
    pool into PCG64's 128-bit state and increment, and random() keeps the top
    53 bits of one XSL-RR output (O'Neill, PCG, HMC-CS-2014-0905).  Each stage
    is integer arithmetic applied here to a block of seeds at once; no seed's
    draw depends on another's.  A seed below 2**128 is at most four 32-bit
    words, and zero-padding them is exactly numpy's pool; larger seeds mix
    differently and are rejected.
    """
    first = operator.index(first)
    require_seeds(first, count)
    out = np.empty(count)
    for start in range(0, count, _SEED_BLOCK):
        out[start : start + _SEED_BLOCK] = _uniform_block(first + start, min(_SEED_BLOCK, count - start))
    return out


def _uniform_block(first: int, count: int) -> np.ndarray:
    """:func:`_seeded_uniforms` of one block, its seeds checked by the caller."""
    t = np.arange(count, dtype=np.uint64)
    lo = np.uint64(first & 0xFFFFFFFFFFFFFFFF) + t
    hi = np.uint64(first >> 64) + (lo < t)
    words = [w.astype(np.uint32) for w in (lo & _LOW32, lo >> np.uint64(32), hi & _LOW32, hi >> np.uint64(32))]

    const, pool = _INIT_A, []
    for w in words:
        h, const = _hash32(w, const, _MULT_A)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hash32(pool[src], const, _MULT_A)
                mixed = _MIX_L * pool[dst] - _MIX_R * h
                pool[dst] = mixed ^ (mixed >> np.uint32(16))

    # generate_state(4, uint64): eight words cycling over the pool, paired little-endian
    const, state = _INIT_B, []
    for i in range(8):
        h, const = _hash32(pool[i % 4], const, _MULT_B)
        state.append(h.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4))

    # PCG64 seeding: inc = 2 * initseq + 1; a step from state 0 leaves inc, then add initstate and step
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # random(): one more step, the XSL-RR output, its top 53 bits
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    out = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53
