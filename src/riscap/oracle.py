"""Brute-force validators for the closed-form phase solvers.

Both search routines maximize one of two gain functionals over RIS phase
vectors on tiny instances:

* ``ris_only``: the coherent double-sum magnitude the RIS-only solver
  maximizes in closed form.
* ``joint``: the precoded sum with transmit phases re-derived optimally for
  every candidate phase vector, i.e. the quantity the joint scheme's
  capacity actually depends on.

The exhaustive search enumerates a quantized phase grid exactly (with a hard
budget guard, never silent truncation); the random-restart search runs
deterministic coordinate ascent from seeded uniform starts.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import CascadeChannel, gain_rows

TARGETS = ("ris_only", "joint")

_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuantizedSearchSpec:
    """Exhaustive-search configuration over the phase grid {2*pi*m/levels}.

    ``max_elements`` and ``budget`` guard the enumeration size; exceeding
    either refuses the search instead of subsampling.
    """

    levels: int
    max_elements: int = 4
    target: str = "ris_only"
    budget: int = 2**24

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")


def _objective(a_mat: NDArray[np.complex128], phi) -> float:
    return float(np.sum(np.abs(a_mat @ np.exp(1j * np.asarray(phi, dtype=float)))))


def ris_only_objective(ch: CascadeChannel, phi) -> float:
    "Coherent double-sum gain at an arbitrary RIS phase vector."
    return _objective(ch.k_norm * gain_rows(ch, "ris_only"), phi)


def joint_objective(ch: CascadeChannel, phi) -> float:
    "Joint-scheme gain at an arbitrary RIS phase vector, transmit phases optimal."
    return _objective(ch.k_norm * gain_rows(ch, "joint"), phi)


def exhaustive_best(ch: CascadeChannel, spec: QuantizedSearchSpec,
                    ) -> tuple[NDArray[np.float64], float]:
    """True maximum of the target functional over the quantized phase grid.

    Returns the first maximizing phase vector in enumeration order and its
    gain. Raises if the grid exceeds the element or candidate budget, with
    the exact candidate count in the message.
    """
    n = ch.n_ris
    candidates = spec.levels**n
    if n > spec.max_elements or candidates > spec.budget:
        raise ValueError(
            f"exhaustive search refused: {spec.levels}^{n} = {candidates} "
            f"candidates (limits: {spec.max_elements} elements, "
            f"{spec.budget} candidates)"
        )

    a_mat = ch.k_norm * gain_rows(ch, spec.target)
    grid = 2.0 * np.pi * np.arange(spec.levels) / spec.levels
    strides = spec.levels ** np.arange(n)

    best_gain = -np.inf
    best_index = 0
    for start in range(0, candidates, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, candidates))
        digits = (idx[:, np.newaxis] // strides[np.newaxis, :]) % spec.levels
        phases = np.exp(1j * grid[digits])  # (chunk, n)
        gains = np.sum(np.abs(phases @ a_mat.T), axis=1)
        chunk_arg = int(np.argmax(gains))
        if gains[chunk_arg] > best_gain:
            best_gain = float(gains[chunk_arg])
            best_index = int(idx[chunk_arg])

    best_digits = (best_index // strides) % spec.levels
    return grid[best_digits], best_gain


def _coordinate_ascent(a_mat: NDArray[np.complex128], phi0: NDArray[np.float64],
                       tol: float = 1e-12) -> tuple[NDArray[np.float64], float]:
    """Sweep the coordinates with closed-form co-phasing steps until stalled.

    Each step aligns one element's contribution with the aggregate of the
    others (summed over the linear forms) and is accepted only if the exact
    objective improves, so the gain is monotone non-decreasing.
    """
    phi = np.array(phi0, dtype=float)
    gain = _objective(a_mat, phi)
    n = a_mat.shape[1]
    while True:
        improved = 0.0
        sums = a_mat @ np.exp(1j * phi)  # recomputed per sweep to avoid drift
        for l in range(n):
            contrib = a_mat[:, l] * np.exp(1j * phi[l])
            rest = sums - contrib
            proposal = -np.angle(np.vdot(rest, a_mat[:, l]))
            candidate = rest + a_mat[:, l] * np.exp(1j * proposal)
            new_gain = float(np.sum(np.abs(candidate)))
            if new_gain > gain:
                improved = max(improved, new_gain - gain)
                gain = new_gain
                phi[l] = proposal
                sums = candidate
        if improved <= tol:
            return phi, gain


def random_restart_best(ch: CascadeChannel, target: str, restarts: int,
                        seed: int) -> tuple[NDArray[np.float64], float]:
    """Best coordinate-ascent local optimum over seeded uniform-random starts.

    Deterministic for a fixed (target, restarts, seed); repeat calls return
    bit-identical results.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    a_mat = ch.k_norm * gain_rows(ch, target)
    rng = np.random.default_rng(seed)
    best_phi = None
    best_gain = -np.inf
    for _ in range(restarts):
        phi0 = rng.uniform(-np.pi, np.pi, size=ch.n_ris)
        phi, gain = _coordinate_ascent(a_mat, phi0)
        if gain > best_gain:
            best_gain = gain
            best_phi = phi
    return best_phi, float(best_gain)
