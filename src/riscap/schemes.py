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

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import (
    CascadeChannel,
    gain_rows,
    principal_angle,
    scalar_or_array,
)


@dataclass(frozen=True)
class SnrPoint:
    "Symbol-energy to noise-density ratio, stored linear: a value or an array."

    es_over_n0: float | NDArray[np.float64]

    def __post_init__(self):
        if not np.all(np.isfinite(self.es_over_n0) & (self.es_over_n0 > 0)):
            raise ValueError(f"es_over_n0 must be positive and finite, got {self.es_over_n0}")

    @classmethod
    def from_db(cls, snr_db) -> "SnrPoint":
        """Linear SNR ``10 ** (snr_db / 10)`` of a dB value or array; an array can
        differ from per-value ``**`` in the last bit, and the CSV uses the array."""
        with np.errstate(over="ignore"):
            return cls(es_over_n0=(10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))[()])


@dataclass(frozen=True)
class RisOnlySolution:
    "Optimal RIS phases and the resulting coherent sum gain."

    phi: NDArray[np.float64]
    b_gain: float


@dataclass(frozen=True)
class JointSolution:
    "RIS phases from global co-phasing plus transmit precoder phases."

    phi: NDArray[np.float64]
    beta: NDArray[np.float64]


@dataclass(frozen=True)
class CoPhasingSolution:
    "Receive (alpha) and transmit (gamma) precoder phases."

    alpha: NDArray[np.float64]
    gamma: NDArray[np.float64]


def capacity_from_gain(gain, n_t: int, n_r: int, snr: SnrPoint):
    "Single-stream capacity in bits of coherent-sum gains, broadcast against the SNRs."
    # log2(1 + x) through log1p, which keeps the digits of a small x
    return np.log1p(gain**2 / (n_t * n_r) * snr.es_over_n0) / np.log(2.0)


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
    c, b_gain = _ris_only_gain(ch)
    return RisOnlySolution(phi=-principal_angle(c), b_gain=scalar_or_array(b_gain))


def _ris_only_gain(ch: CascadeChannel, sums=None) -> tuple:
    """``solve_ris_only``'s gain row ``c`` and gain ``k * sum_l |c_l|``, from
    the antenna ``sums`` of ``gain_rows`` when they are given."""
    c = gain_rows(ch, "ris_only", sums)[..., 0, :]
    return c, ch.k_norm * np.sum(np.abs(c), axis=-1)


# ---------------------------------------------------------------------------
# Joint scheme: global co-phasing at the RIS, then transmit phase precoding
# ---------------------------------------------------------------------------

def solve_joint(ch: CascadeChannel) -> JointSolution:
    """One-pass joint solution.

    Step 1 sets each RIS phase to the negative mean of the phase deviations
    of the transmit-antenna terms it influences (global co-phasing, target
    phase 0). Step 2 sums the gain rows at the solved phases, assembling no
    channel, and co-phases the per-transmit-antenna receive sums with
    precoder phases beta.

    The raw deviations satisfy ``sum_t(delta[t, l] + phi[l]) == 0`` per
    element by construction; a zero gain row's phase, -0.0, moves no gain.
    """
    return _solve_joint(ch)[0]


def _receive_sums(ch: CascadeChannel, terms, phi) -> NDArray[np.complex128]:
    """Receive sums ``sum_r H(r, t)`` at RIS phases ``phi``, from the joint
    gain-row ``terms`` ``(..., n_ris, n_t)``: ``k_norm * exp(j*phi) @ terms``."""
    sums = (np.exp(1j * phi)[..., np.newaxis, :] @ terms)[..., 0, :]
    return sums * np.asarray(ch.k_norm)[..., np.newaxis]


def _solve_joint(ch: CascadeChannel, sums=None) -> tuple[JointSolution, NDArray[np.complex128]]:
    """``solve_joint`` and the receive sums of the solved channel, from the
    antenna ``sums`` of ``gain_rows`` when they are given."""
    terms = gain_rows(ch, "joint", sums).swapaxes(-1, -2)  # (..., n_ris, n_t)
    phi = principal_angle(terms).sum(axis=-1) / -ch.n_t
    received = _receive_sums(ch, terms, phi)
    return JointSolution(phi=phi, beta=-principal_angle(received)), received


def _precoded_sum(sol: JointSolution, sums: NDArray[np.complex128]) -> float:
    """Coherent sum |sum_t sums_t exp(j*beta_t)| of per-transmit-antenna
    receive sums at the solution's precoder phases ``sol.beta``."""
    return scalar_or_array(np.abs(np.sum(sums * np.exp(1j * sol.beta), axis=-1)))


def joint_gain(sol: JointSolution, ch: CascadeChannel) -> float:
    "Coherent sum |sum_{r,t} H(r,t) exp(j*beta_t)| on the solved channel."
    terms = gain_rows(ch, "joint").swapaxes(-1, -2)
    return _precoded_sum(sol, _receive_sums(ch, terms, sol.phi))


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


def basic_gain(h: NDArray[np.complex128]) -> float:
    "Unprecoded coherent sum |sum_{r,t} H(r,t)|."
    return scalar_or_array(np.abs(h.sum(axis=(-2, -1))))


def cophasing_gain(sol: CoPhasingSolution, h: NDArray[np.complex128]) -> float:
    "Precoded coherent sum |r^T H t|."
    r_vec = np.exp(1j * sol.alpha)[..., np.newaxis, :]
    t_vec = np.exp(1j * sol.gamma)[..., np.newaxis]
    return scalar_or_array(np.abs(r_vec @ h @ t_vec)[..., 0, 0])
