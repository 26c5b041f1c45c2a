"""A trial's stream, its grid indices and benchmark phases, and its array-code twin.

A trial's stream is ``default_rng(SeedSequence((seed, trial)))``
(``trial_stream``): NumPy's SeedSequence hash mixing seeds PCG64 (O'Neill,
HMC-CS-2014-0905), whose first XSL-RR output splits into a low and a
buffered high 32-bit half, and ``integers(n)`` maps each half with Lemire's
bounded draw (ACM TOMACS 29(1), 2019). Those two draws are the trial's
indices into grids of given point counts; the benchmark phases come next.
The twin computes the seeding and the first output of every trial at once,
and hands each trial's PCG64 state after its grid draws to NumPy's own
generator for the phases, which skips the SeedSequence hash per trial; the
sweep engine reads all its draws from the twin. Only one-word entropy is
covered: rows whose seed or trial index needs more than 32 bits, or whose
draw falls below Lemire's rejection threshold (where NumPy draws again), are
flagged and drawn by ``trial_stream`` itself, which also serves
``sim.sample_heights``: for one trial its own generator is cheaper.
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


def _seeded(seed: int, trials):
    """Each ``SeedSequence((seed, t))`` stream's PCG64 state before its first
    output and its increment, t uint32, as (high, low) uint64 word pairs."""
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
    inc = inc_hi << _ONE | inc_lo >> _U63, inc_lo << _ONE | _ONE
    # Seeding steps from 0 to state = inc, adds the seed and steps again.
    lo = inc[1] + seed_lo
    return _step((inc[0] + seed_hi + (lo < inc[1]), lo), inc), inc


def _step(state, inc):
    "One PCG64 step, state * multiplier + inc mod 2^128, on word pairs."
    hi, lo = state
    # high word of lo * _PCG_LO from 32-bit halves
    a_lo, a_hi, b_lo, b_hi = lo & _LOW, lo >> _U32, _PCG_LO & _MASK32, _PCG_LO >> 32
    cross = a_hi * np.uint64(b_lo) + (a_lo * np.uint64(b_lo) >> _U32)
    other = a_lo * np.uint64(b_hi) + (cross & _LOW)
    hi = (a_hi * np.uint64(b_hi) + (cross >> _U32) + (other >> _U32)
          + lo * np.uint64(_PCG_HI) + hi * np.uint64(_PCG_LO) + inc[0])
    lo = lo * np.uint64(_PCG_LO) + inc[1]
    return hi + (lo < inc[1]), lo


def trial_stream(seed: int, trial: int, sizes) -> "tuple[np.random.Generator, tuple[int, ...]]":
    """A trial's generator, hashed from (seed, trial) alone, after its grid
    draws ``integers(size)`` for each point count of ``sizes``, and those."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    return rng, tuple(int(rng.integers(size)) for size in sizes)


class TrialStreams:
    """The streams ``default_rng(SeedSequence((seed, t)))`` of ``trials``.

    ``indices`` is the ``(len(trials), 2)`` array of each stream's
    ``integers(sizes[0])`` and ``integers(sizes[1])``, sizes up to 2**32: the
    trial's grid indices. A one-point grid draws nothing, as ``integers(1)``
    does. ``flagged`` marks the rows the twin does not cover, a seed or trial
    index of 2^32 or more or a Lemire rejection; ``trial_stream`` draws their
    indices, and their state goes into the twin's arrays.
    """

    def __init__(self, seed: int, trials, sizes):
        trials = np.asarray(trials, dtype=np.uint64)
        self.flagged = (trials > _MASK32) | (seed > _MASK32)
        state, self._inc = _seeded(seed & _MASK32, (trials & _LOW).astype(np.uint32))
        first = _step(state, self._inc)
        # XSL-RR: xor the words, rotate right by the top six bits.
        x, rot = first[0] ^ first[1], first[0] >> _U58
        output = x >> rot | x << (-rot & _U63)
        halves = iter((output & _LOW, output >> _U32))
        self.indices = np.zeros((len(trials), 2), dtype=np.int64)
        draws = 0
        for column, size in enumerate(sizes):
            if size > 1:
                scaled = next(halves) * np.uint64(size)
                self.flagged |= (scaled & _LOW) < (1 << 32) % size
                self.indices[:, column] = scaled >> _U32
                draws += 1
        # What the grid draws leave: the first output's state once they use
        # it, and its high half, buffered after one draw and kept after two.
        self._state, self._draws, self._high = first if draws else state, draws, output >> _U32
        self._buffered = np.full(len(trials), draws == 1)
        for row in np.flatnonzero(self.flagged):
            rng, self.indices[row] = trial_stream(seed, int(trials[row]), sizes)
            drawn = rng.bit_generator.state
            for (hi, lo), key in ((self._state, "state"), (self._inc, "inc")):
                hi[row], lo[row] = divmod(drawn["state"][key], 1 << 64)
            self._buffered[row], self._high[row] = drawn["has_uint32"], drawn["uinteger"]

    def state(self, row: int) -> dict:
        "PCG64's ``state`` dict of the stream at ``row`` right after its grid draws."
        (hi, lo), (inc_hi, inc_lo) = self._state, self._inc
        return {"bit_generator": "PCG64",
                "state": {"state": int(hi[row]) << 64 | int(lo[row]),
                          "inc": int(inc_hi[row]) << 64 | int(inc_lo[row])},
                "has_uint32": int(self._buffered[row]),
                "uinteger": int(self._high[row]) if self._draws else 0}

    def phases(self, rows, count: int, rng):
        """``(len(rows), count)`` draws ``uniform(-pi, pi, count)`` of the
        streams at ``rows`` right after their grid draws: the benchmark
        phases. NumPy's PCG64 draws them from each row's ``state`` on the
        generator ``rng``, whose state they replace; calls on generators of
        their own may run on several threads."""
        out = np.empty((len(rows), count))
        for values, row in zip(out, rows):
            rng.bit_generator.state = self.state(row)
            values[:] = rng.uniform(-np.pi, np.pi, size=count)
        return out
