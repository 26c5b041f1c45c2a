"""Phase-only transmission schemes and their single-stream capacity map.

Four schemes share the same receive-side sum combiner and the capacity map
``C = log2(1 + gain^2 / (n_t*n_r) * es_over_n0)`` of ``capacity_from_gain``;
they differ in which phases they are allowed to adjust:

* RIS-only: adjusts the RIS phases, all-ones transmit precoder.
* Joint: adjusts the RIS phases by global co-phasing, then a transmit
  phase precoder on the resulting channel.
* Co-phasing MIMO (benchmark): transmit/receive phase precoding only, the
  RIS phases stay fixed.
* Basic MIMO (benchmark): no phase adjustment anywhere.

Solvers and gains take a single scene or a batch with leading axes, as the
channel functions do; slice ``i`` of a batched result is bit-identical to
the single-scene result, and a single scene's gains are Python floats.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import (
    CascadeChannel,
    assemble_h,
    fold_turn,
    gain_rows,
    principal_angle,
    scalar_or_array,
)


@dataclass(frozen=True)
class SnrPoint:
    "Symbol-energy to noise-density ratio, stored linear."

    es_over_n0: float

    def __post_init__(self):
        if not self.es_over_n0 > 0:
            raise ValueError(f"es_over_n0 must be positive, got {self.es_over_n0}")

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrPoint":
        return cls(es_over_n0=10.0 ** (snr_db / 10.0))

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.es_over_n0)


@dataclass(frozen=True)
class RisOnlySolution:
    "Optimal RIS phases and the resulting coherent sum gain."

    phi: NDArray[np.float64]
    b_gain: float


@dataclass(frozen=True)
class JointSolution:
    """RIS phases from global co-phasing plus transmit precoder phases.

    ``degenerate`` lists RIS elements whose joint gain-row column is exactly
    zero (their receive-side column summed to zero), where the co-phasing
    average is undefined and the phase was pinned to 0. For a batch it is
    the boolean mask of those elements, shaped like ``phi``.
    """

    phi: NDArray[np.float64]
    beta: NDArray[np.float64]
    degenerate: tuple[int, ...] | NDArray[np.bool_] = ()


@dataclass(frozen=True)
class CoPhasingSolution:
    "Receive (alpha) and transmit (gamma) precoder phases."

    alpha: NDArray[np.float64]
    gamma: NDArray[np.float64]


def capacity_from_gain(gain, n_t: int, n_r: int, snr: SnrPoint):
    "Single-stream capacity in bits for a coherent-sum gain value or array."
    return np.log2(1.0 + gain**2 / (n_t * n_r) * snr.es_over_n0)


# ---------------------------------------------------------------------------
# RIS-only scheme
# ---------------------------------------------------------------------------

def solve_ris_only(ch: CascadeChannel) -> RisOnlySolution:
    """Co-phase every RIS element's double antenna sum.

    Each element's phase rotates its summed contribution onto the positive
    real axis, so the magnitudes add: ``b_gain = k * sum_l |c_l|`` where
    ``c_l`` is the element's double sum. An exactly zero ``c_l`` gets phase
    0; it contributes nothing either way.
    """
    c = gain_rows(ch, "ris_only")[..., 0, :]
    phi = -principal_angle(c)
    b_gain = scalar_or_array(ch.k_norm * np.sum(np.abs(c), axis=-1))
    return RisOnlySolution(phi=phi, b_gain=b_gain)


# ---------------------------------------------------------------------------
# Joint scheme: global co-phasing at the RIS, then transmit phase precoding
# ---------------------------------------------------------------------------

def solve_joint(ch: CascadeChannel) -> JointSolution:
    """One-pass joint solution.

    Step 1 sets each RIS phase to the negative mean of the phase deviations
    of the transmit-antenna terms it influences (global co-phasing, target
    phase 0). Step 2 assembles the resulting channel and co-phases the
    per-transmit-antenna receive sums with precoder phases beta.

    The raw deviations satisfy ``sum_t(delta[t, l] + phi[l]) == 0`` per
    element by construction.
    """
    return _solve_joint(ch)[0]


def _solve_joint(ch: CascadeChannel) -> tuple[JointSolution, NDArray[np.complex128]]:
    "``solve_joint`` and the receive sums of the solved channel."
    terms = gain_rows(ch, "joint").swapaxes(-1, -2)  # (..., n_ris, n_t)
    zero = ~terms.any(axis=-1)
    # -principal_angle(terms).mean(axis=-1) bit for bit: one arctan2, and the
    # mean's division by n_t takes the sign. The terms are freed before the
    # channel is assembled.
    phi = fold_turn(np.angle(terms)).sum(axis=-1)
    del terms
    phi /= -ch.n_t
    phi = np.where(zero, 0.0, phi)

    sums = assemble_h(ch, phi).sum(axis=-2)
    beta = -principal_angle(sums)
    degenerate = tuple(map(int, np.flatnonzero(zero))) if zero.ndim == 1 else zero
    return JointSolution(phi=phi, beta=beta, degenerate=degenerate), sums


def _precoded_sum(sums: NDArray[np.complex128], beta: NDArray[np.float64]) -> float:
    "Coherent sum |sum_t sums_t exp(j*beta_t)| of per-transmit-antenna receive sums."
    return scalar_or_array(np.abs(np.sum(sums * np.exp(1j * beta), axis=-1)))


def joint_gain(sol: JointSolution, ch: CascadeChannel) -> float:
    "Coherent sum |sum_{r,t} H(r,t) exp(j*beta_t)| on the solved channel."
    return _precoded_sum(assemble_h(ch, sol.phi).sum(axis=-2), sol.beta)


def solved_joint_gain(ch: CascadeChannel) -> float:
    """``joint_gain(solve_joint(ch), ch)``, bit for bit.

    Reuses the receive sums the solver computed instead of assembling the
    solved channel a second time.
    """
    sol, sums = _solve_joint(ch)
    return _precoded_sum(sums, sol.beta)


# ---------------------------------------------------------------------------
# Benchmarks: co-phasing MIMO and basic MIMO on a fixed channel
# ---------------------------------------------------------------------------

def solve_cophasing_mimo(h: NDArray[np.complex128]) -> CoPhasingSolution:
    """Phase precoders for a channel with fixed (non-optimized) RIS phases.

    Transmit phases gamma come first, by global co-phasing over the raw
    channel entries; receive phases alpha then exactly co-phase each row's
    product with the realized transmit vector.
    """
    gamma = -principal_angle(h).sum(axis=-2) / h.shape[-1]
    t_vec = np.exp(1j * gamma)[..., np.newaxis]
    alpha = -principal_angle((h @ t_vec)[..., 0])
    return CoPhasingSolution(alpha=alpha, gamma=gamma)


def cophasing_gain(sol: CoPhasingSolution, h: NDArray[np.complex128]) -> float:
    "Precoded coherent sum |r^T H t|."
    r_vec = np.exp(1j * sol.alpha)[..., np.newaxis, :]
    t_vec = np.exp(1j * sol.gamma)[..., np.newaxis]
    return scalar_or_array(np.abs(r_vec @ h @ t_vec)[..., 0, 0])
