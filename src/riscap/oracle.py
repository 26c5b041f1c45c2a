"""Brute-force validators for the closed-form phase solvers.

Both search routines maximize one of two gain functionals over RIS phase
vectors on tiny instances:

* ``ris_only``: the coherent double-sum magnitude the RIS-only solver
  maximizes in closed form.
* ``joint``: the precoded sum with transmit phases re-derived optimally for
  every candidate phase vector, i.e. the quantity the joint scheme's
  capacity actually depends on.

The exhaustive search returns the exact maximizer of a quantized phase grid,
the one a walk of every candidate returns, bit for bit. Both functionals
ignore a common rotation of all phases, so it walks one member of each
rotation class and then every rotation of the few classes that come within
a derived rounding bound of the best (with a hard budget on the grid's size,
never silent truncation). The random-restart search runs deterministic
coordinate ascent from seeded uniform starts. Every function takes one
scene: a channel with batch axes is refused, naming its batch shape.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import CascadeChannel, gain_rows
from .geometry import require_int

TARGETS = ("ris_only", "joint")

# The most rows a phase table holds (a table holds at least one whole digit).
_CHUNK = 1 << 12
# The safety factor on the rounding bound that sets the width of
# exhaustive_best's band.
_MARGIN = 100
# An ascent start stops after a sweep whose largest step gains at most this.
_TOL = 1e-12
# The most candidates (levels**n_ris) an exhaustive search enumerates; a
# larger search is refused instead of subsampled. It counts the whole grid,
# not the levels**(n_ris-1) slice the search walks: exact ties can widen the
# band to the whole slice, whose rotations re-evaluate levels * levels**(n_ris-1)
# rows, the whole grid.
_BUDGET = 2**24


def _require_target(target: str) -> None:
    "Reject ``target`` unless it names one of the gain functionals."
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}, expected one of {TARGETS}")


@dataclass(frozen=True)
class QuantizedSearchSpec:
    "Exhaustive-search configuration over the phase grid {2*pi*m/levels}."

    levels: int
    target: str = "ris_only"

    def __post_init__(self):
        require_int("levels", self.levels, 2)
        _require_target(self.target)


def _scaled_rows(ch: CascadeChannel, target: str) -> NDArray[np.complex128]:
    "The target's gain rows times k_norm, of one scene; a batch is refused."
    batch = ch.u_mat.shape[:-2] or ch.v_mat.shape[:-2] or np.shape(ch.k_norm)
    if batch:
        raise ValueError(f"the oracle takes one scene, got a batch of shape {batch}")
    return ch.k_norm * gain_rows(ch, target)


def _objective(a_mat: NDArray[np.complex128], phi) -> float:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != a_mat.shape[-1:]:
        raise ValueError(f"phase vector has shape {phi.shape}, expected {a_mat.shape[-1:]}")
    return float(np.sum(np.abs(a_mat @ np.exp(1j * phi))))


def ris_only_objective(ch: CascadeChannel, phi) -> float:
    "Coherent double-sum gain at an arbitrary RIS phase vector."
    return _objective(_scaled_rows(ch, "ris_only"), phi)


def joint_objective(ch: CascadeChannel, phi) -> float:
    "Joint-scheme gain at an arbitrary RIS phase vector, transmit phases optimal."
    return _objective(_scaled_rows(ch, "joint"), phi)


def _gains(phases: NDArray[np.complex128], a_t: NDArray[np.complex128]) -> NDArray[np.float64]:
    "Gain of every row of a phase table: gain-row magnitudes added in row order."
    return sum(np.abs(phases @ a_t).T)


def exhaustive_best(ch: CascadeChannel, spec: QuantizedSearchSpec,
                    ) -> tuple[NDArray[np.float64], float]:
    """True maximum of the target functional over the quantized phase grid.

    Returns the first maximizer in odometer order (element 0 fastest) and
    its gain, bit for bit what a walk of all ``levels**n_ris`` candidates
    returns. Gain-row magnitudes are added in row order, NumPy's ``sum``
    order below 8 rows (pairwise from 8 on: last bits may differ). Raises
    over ``_BUDGET`` candidates, counted on the whole grid, naming the count.

    Both functionals ignore a common rotation of all phases and the grid is
    closed under one, so each candidate is one of ``levels`` rotations of a
    class with one exact gain. The search walks the slice with the last
    element at level 0, one member per class, in blocks: every combination
    of the ``low`` fastest digits (as many as fit in ``_CHUNK``, at least
    one) under fixed higher ones. The band is every class whose slice gain
    is within twice the rounding bound (below) of the slice maximum; no
    class outside it has a rotation that reaches that maximum. Every
    rotation of the band is evaluated again, in tables of whole classes: a
    row's gain bits do not depend on its table once the table has two or
    more rows (NumPy takes another kernel for one row), so they are the
    whole grid's bits. That is ``levels**(n_ris-1) + levels*|band|`` rows;
    exact ties between classes can widen the band up to the whole slice,
    about one walk of the grid.

    The rounding bound, with u = 2**-53, R gain rows and A their absolute
    sum: each grid factor is within 22u of exact (three roundings of a phase
    below 2*pi, then ``exp``); each row's n-term complex product adds at
    most sqrt(2)(n+1)u of its absolute row sum, in any order, fused or not;
    ``abs`` adds 2u of each magnitude and the row-order sum (R-1)u of the
    gain. So a computed gain is within (1.5n + R + 25)uA of its class's
    exact gain, to first order; the band takes ``_MARGIN`` times
    (2n + R + 32)uA.
    """
    n = ch.n_ris
    levels = int(spec.levels)
    candidates = levels**n
    if candidates > _BUDGET:
        raise ValueError(
            f"exhaustive search refused: {spec.levels}^{n} = {candidates} "
            f"candidates (budget: {_BUDGET})"
        )

    a_mat = _scaled_rows(ch, spec.target)
    u = np.finfo(float).eps / 2
    width = 2 * _MARGIN * (2 * n + len(a_mat) + 32) * u * float(np.sum(np.abs(a_mat)))
    grid = 2.0 * np.pi * np.arange(levels) / levels
    factors = np.exp(1j * grid)  # the only distinct phase factors
    free = n - 1  # the slice's digits: none for a single element
    low = next((k for k in range(free, 1, -1) if levels**k <= _CHUNK), min(free, 1))
    rest = np.arange(levels**low)
    digits = np.zeros((rest.size, n), dtype=np.intp)
    for l in range(low):  # element 0 varies fastest
        rest, digits[:, l] = np.divmod(rest, levels)
    phases = factors[digits]  # the low-digit table, built once

    top, kept, kept_gains = -np.inf, [], []
    for block in range(levels ** (free - low)):
        high = np.unravel_index(block, (levels,) * (free - low), order="F")
        phases[:, low:free] = factors[np.array(high, dtype=np.intp)]
        gains = _gains(phases, a_mat.T)
        top = max(top, gains.max())
        # kept as they come, so memory follows the band, not the slice;
        # cut to the final top below
        near = np.flatnonzero(gains >= top - width)
        kept.append(block * len(phases) + near)
        kept_gains.append(gains[near])
    band = np.concatenate(kept)[np.concatenate(kept_gains) >= top - width]

    strides = levels ** np.arange(n)
    shifts = np.arange(levels)[:, np.newaxis]
    best_gain, best_index = -np.inf, 0
    per_table = max(1, _CHUNK // levels)  # whole classes: at least two rows
    for start in range(0, band.size, per_table):
        classes = band[start:start + per_table, np.newaxis, np.newaxis]
        rotated = ((classes // strides + shifts) % levels).reshape(-1, n)
        gains = _gains(factors[rotated], a_mat.T)
        peak = gains.max()
        index = int((rotated @ strides)[gains == peak].min())  # lowest index wins a tie
        if peak > best_gain or (peak == best_gain and index < best_index):
            best_gain, best_index = float(peak), index
    return grid[best_index // strides % levels], best_gain


def _coordinate_ascent(a_mat: NDArray[np.complex128], phi0: NDArray[np.float64],
                       ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sweep the coordinates of a batch of starts with co-phasing steps.

    ``phi0`` has shape ``(starts, n)``; phases and gains come back per start.
    Each step aligns one element's contribution with the aggregate of the
    others (summed over the linear forms) and is accepted only where the
    exact objective improves, so every gain is monotone non-decreasing. A
    start stops after a sweep whose largest step gained at most ``_TOL``.

    The cost is NumPy dispatch, not arithmetic, so a step is one ufunc call
    per operation, written into buffers allocated once per call: the same
    ufuncs on the same operands in the same order as the plain expressions,
    so the same bits. A step
    records its proposal, step and acceptance in row ``l`` of per-sweep
    ``(n, starts)`` arrays; the sweep's end writes the accepted phases (read
    only at a sweep's start) and takes each start's largest accepted step.
    A stopped start's steps are compared against +inf, so none is accepted.
    """
    phi = np.array(phi0, dtype=float)
    starts, n = phi.shape
    a_t = a_mat.T
    gain = np.sum(np.abs(np.exp(1j * phi) @ a_t), axis=1)
    factors = np.empty_like(phi, dtype=complex)
    sums = np.empty((starts, len(a_mat)), dtype=complex)
    rest, conj, candidate = (np.empty_like(sums) for _ in range(3))
    magnitudes = np.empty(sums.shape)
    z, unit = np.empty(starts, dtype=complex), np.empty(starts, dtype=complex)
    z_imag, z_real, unit_col = z.imag, z.real, unit[:, np.newaxis]
    new_gain = np.empty(starts)
    proposals, steps = np.empty((n, starts)), np.empty((n, starts))
    accepts = np.empty((n, starts), dtype=bool)
    floor = np.zeros(starts)  # 0 while a start ascends, +inf once it stops
    while np.isfinite(floor).any():
        # per sweep against drift; phi is read only here
        np.exp(np.multiply(1j, phi, factors), factors)
        np.matmul(factors, a_t, sums)
        for col, factor, proposal, step, accept, accept_col in zip(
                a_t, factors.T[..., np.newaxis], proposals, steps, accepts,
                accepts[..., np.newaxis]):
            np.subtract(sums, np.multiply(factor, col, rest), rest)
            np.matmul(np.conjugate(rest, conj), col, z)
            np.negative(np.arctan2(z_imag, z_real, proposal), proposal)  # -np.angle(z), its own form
            np.exp(np.multiply(1j, proposal, unit), unit)
            np.add(rest, np.multiply(unit_col, col, candidate), candidate)
            np.add.reduce(np.abs(candidate, magnitudes), 1, None, new_gain)  # np.sum's own
            np.greater(np.subtract(new_gain, gain, step), floor, accept)
            np.copyto(gain, new_gain, "same_kind", accept)
            np.copyto(sums, candidate, "same_kind", accept_col)
        np.copyto(phi.T, proposals, "same_kind", accepts)
        floor[np.max(steps, axis=0, where=accepts, initial=0.0) <= _TOL] = np.inf
    return phi, gain


def random_restart_best(ch: CascadeChannel, target: str, restarts: int,
                        seed: int) -> tuple[NDArray[np.float64], float]:
    """Best coordinate-ascent local optimum over seeded uniform-random starts.

    All starts ascend together. Deterministic for a fixed (target,
    restarts, seed); repeat calls return bit-identical results.
    """
    _require_target(target)
    require_int("restarts", restarts, 1)
    require_int("seed", seed, 0)
    a_mat = _scaled_rows(ch, target)
    starts = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(restarts, ch.n_ris))
    phi, gain = _coordinate_ascent(a_mat, starts)
    best = int(np.argmax(gain))
    return phi[best], float(gain[best])
