"""Brute-force validators for the closed-form phase solvers.

Both search routines maximize one of two gain functionals over RIS phase
vectors on tiny instances:

* ``ris_only``: the coherent double-sum magnitude the RIS-only solver
  maximizes in closed form.
* ``joint``: the precoded sum with transmit phases re-derived optimally for
  every candidate phase vector, i.e. the quantity the joint scheme's
  capacity actually depends on.

The exhaustive search enumerates a quantized phase grid exactly (with a hard
candidate budget, never silent truncation); the random-restart search runs
deterministic coordinate ascent from seeded uniform starts.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import CascadeChannel, gain_rows
from .geometry import require_int

TARGETS = ("ris_only", "joint")

_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuantizedSearchSpec:
    """Exhaustive-search configuration over the phase grid {2*pi*m/levels}.

    ``budget`` bounds the enumeration size: a search of more than ``budget``
    candidates (``levels**n_ris``) is refused instead of subsampled.
    """

    levels: int
    target: str = "ris_only"
    budget: int = 2**24

    def __post_init__(self):
        require_int("levels", self.levels, 2)
        require_int("budget", self.budget, 1)
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")


def _objective(a_mat: NDArray[np.complex128], phi) -> float:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != a_mat.shape[-1:]:
        raise ValueError(f"phase vector has shape {phi.shape}, expected {a_mat.shape[-1:]}")
    return float(np.sum(np.abs(a_mat @ np.exp(1j * phi))))


def ris_only_objective(ch: CascadeChannel, phi) -> float:
    "Coherent double-sum gain at an arbitrary RIS phase vector."
    return _objective(ch.k_norm * gain_rows(ch, "ris_only"), phi)


def joint_objective(ch: CascadeChannel, phi) -> float:
    "Joint-scheme gain at an arbitrary RIS phase vector, transmit phases optimal."
    return _objective(ch.k_norm * gain_rows(ch, "joint"), phi)


def exhaustive_best(ch: CascadeChannel, spec: QuantizedSearchSpec,
                    ) -> tuple[NDArray[np.float64], float]:
    """True maximum of the target functional over the quantized phase grid.

    Candidates run as an odometer, element 0 fastest, in blocks: every
    combination of the ``low`` fastest digits (as many as fit in ``_CHUNK``,
    at least one) under fixed high digits. Returns the first maximizer in
    that order and its gain. Gain-row magnitudes are added in row order,
    NumPy's ``sum`` order below 8 rows (pairwise from 8 on: last bits may
    differ). Raises over the candidate budget, naming the count.
    """
    n = ch.n_ris
    levels = int(spec.levels)
    candidates = levels**n
    if candidates > spec.budget:
        raise ValueError(
            f"exhaustive search refused: {spec.levels}^{n} = {candidates} "
            f"candidates (budget: {spec.budget})"
        )

    a_mat = ch.k_norm * gain_rows(ch, spec.target)
    grid = 2.0 * np.pi * np.arange(levels) / levels
    factors = np.exp(1j * grid)  # the only distinct phase factors
    low = next((k for k in range(n, 1, -1) if levels**k <= _CHUNK), 1)
    rest = np.arange(levels**low)
    digits = np.zeros((rest.size, n), dtype=np.intp)
    for l in range(low):  # element 0 varies fastest
        rest, digits[:, l] = np.divmod(rest, levels)
    phases = factors[digits]  # the low-digit table, built once

    best_gain = -np.inf
    best_digits = np.zeros(n, dtype=np.intp)
    for block in range(candidates // len(phases)):
        digits[:, low:] = np.unravel_index(block, (levels,) * (n - low), order="F")
        phases[:, low:] = factors[digits[0, low:]]
        gains = sum(np.abs(phases @ a_mat.T).T)  # gain rows added in row order
        block_arg = int(np.argmax(gains))
        if gains[block_arg] > best_gain:
            best_gain = float(gains[block_arg])
            best_digits = digits[block_arg].copy()  # the buffer is reused

    return grid[best_digits], best_gain


def _coordinate_ascent(a_mat: NDArray[np.complex128], phi0: NDArray[np.float64],
                       tol: float = 1e-12) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sweep the coordinates of a batch of starts with co-phasing steps.

    ``phi0`` has shape ``(starts, n)``; phases and gains come back per start.
    Each step aligns one element's contribution with the aggregate of the
    others (summed over the linear forms) and is accepted only where the
    exact objective improves, so every gain is monotone non-decreasing. A
    start stops after a sweep whose largest step gained at most ``tol``.
    """
    phi = np.array(phi0, dtype=float)
    gain = np.sum(np.abs(np.exp(1j * phi) @ a_mat.T), axis=1)
    active = np.ones(phi.shape[0], dtype=bool)
    while active.any():
        improved = np.zeros_like(gain)
        sums = np.exp(1j * phi) @ a_mat.T  # recomputed per sweep to avoid drift
        for l, col in enumerate(a_mat.T):
            rest = sums - np.exp(1j * phi[:, l])[:, np.newaxis] * col
            proposal = -np.angle(rest.conj() @ col)
            candidate = rest + np.exp(1j * proposal)[:, np.newaxis] * col
            new_gain = np.sum(np.abs(candidate), axis=1)
            accept = active & (new_gain > gain)
            improved = np.maximum(improved, np.where(accept, new_gain - gain, 0.0))
            gain[accept] = new_gain[accept]
            phi[accept, l] = proposal[accept]
            sums[accept] = candidate[accept]
        active &= improved > tol
    return phi, gain


def random_restart_best(ch: CascadeChannel, target: str, restarts: int,
                        seed: int) -> tuple[NDArray[np.float64], float]:
    """Best coordinate-ascent local optimum over seeded uniform-random starts.

    All starts ascend together. Deterministic for a fixed (target,
    restarts, seed); repeat calls return bit-identical results.
    """
    require_int("restarts", restarts, 1)
    a_mat = ch.k_norm * gain_rows(ch, target)
    starts = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(restarts, ch.n_ris))
    phi, gain = _coordinate_ascent(a_mat, starts)
    best = int(np.argmax(gain))
    return phi[best], float(gain[best])
