"""Array-code twin of the first two bounded draws of a trial's stream.

A trial's stream is ``default_rng(SeedSequence((seed, trial)))``: NumPy's
SeedSequence hash mixing seeds PCG64 (O'Neill, HMC-CS-2014-0905), whose
first XSL-RR output splits into a low and a buffered high 32-bit half, and
``integers(n)`` maps each half with Lemire's bounded draw (ACM TOMACS
29(1), 2019). Only one-word entropy is covered: rows whose seed or trial
index needs more than 32 bits, or whose draw falls below Lemire's rejection
threshold (where NumPy draws again), are flagged for NumPy to draw.
"""

import numpy as np

_MASK32 = 0xFFFFFFFF
_ONE, _U32, _U58, _U63, _LOW = (np.uint64(n) for n in (1, 32, 58, 63, _MASK32))
# SeedSequence's hash constants and PCG64's multiplier as (high, low) words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(const: int, mult: int):
    "SeedSequence's hashmix on uint32 arrays; every call advances the constant."
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _first_output(seed: int, trials):
    "First PCG64 output of each ``SeedSequence((seed, t))`` stream, t uint32."
    hashmix, zeros = _hasher(_INIT_A, _MULT_A), np.zeros_like(trials)
    pool = [hashmix(word) for word in (zeros + np.uint32(seed), trials, zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = mixed ^ (mixed >> 16)
    hashmix = _hasher(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (half[i] | half[i + 1] << _U32
                                        for i in range(0, 8, 2))
    inc_hi, inc_lo = inc_hi << _ONE | inc_lo >> _U63, inc_lo << _ONE | _ONE
    # Seeding steps from 0 to state = inc, adds the seed and steps again;
    # the first output steps once more. A step is state * mult + inc.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    for _ in range(2):
        # high word of lo * _PCG_LO from 32-bit halves
        a_lo, a_hi, b_lo, b_hi = lo & _LOW, lo >> _U32, _PCG_LO & _MASK32, _PCG_LO >> 32
        cross = a_hi * np.uint64(b_lo) + (a_lo * np.uint64(b_lo) >> _U32)
        other = a_lo * np.uint64(b_hi) + (cross & _LOW)
        hi = (a_hi * np.uint64(b_hi) + (cross >> _U32) + (other >> _U32)
              + lo * np.uint64(_PCG_HI) + hi * np.uint64(_PCG_LO) + inc_hi)
        lo = lo * np.uint64(_PCG_LO) + inc_lo
        hi += lo < inc_lo
    # XSL-RR: xor the words, rotate right by the top six bits.
    x, rot = hi ^ lo, hi >> _U58
    return x >> rot | x << (-rot & _U63)


def first_indices(seed: int, trials, sizes):
    """(len(trials), 2) indices of each stream's ``integers(sizes[0])``,
    ``integers(sizes[1])``, and a flag per row whose indices are not its
    stream's. A one-point grid draws nothing, as ``integers(1)`` does."""
    trials = np.asarray(trials, dtype=np.uint64)
    flagged = (trials > _MASK32) | (seed > _MASK32)
    output = _first_output(seed & _MASK32, (trials & _LOW).astype(np.uint32))
    halves = iter((output & _LOW, output >> _U32))
    indices = np.zeros((len(trials), 2), dtype=np.int64)
    for column, size in enumerate(sizes):
        if size > 1:
            scaled = next(halves) * np.uint64(size)
            flagged |= (scaled & _LOW) < (1 << 32) % size
            indices[:, column] = scaled >> _U32
    return indices, flagged
