"""Cascade channel through the RIS: steering matrices, normalization, assembly.

The normalized channel is a product k * V * diag(exp(j*phi)) * U of
unit-modulus steering matrices, where k rescales the common free-space
amplitude to the reference center path. The unnormalized variant keeps the
per-path free-space amplitudes and exists for cross-validation only.

Every function on a :class:`CascadeChannel` also takes a batch of scenes:
arrays with leading batch axes, where slice ``i`` of each result is
bit-identical to the result for scene ``i`` alone. A single scene is the
batch with an empty batch shape, and its scalar results are Python floats.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import SceneConfig, ScenePositions


@dataclass(frozen=True)
class CascadeChannel:
    """Steering matrices and amplitude normalization of one scene or a batch.

    ``u_mat[l, t] = exp(-j*2*pi*d2[l, t]/wavelength)`` covers the transmit
    leg, ``v_mat[r, l]`` the receive leg, and ``k_norm`` is the ratio of the
    center reference path product to the element-(1,1) path product. A batch
    puts the same leading axes on all three.
    """

    u_mat: NDArray[np.complex128]
    v_mat: NDArray[np.complex128]
    k_norm: float

    @property
    def n_ris(self) -> int:
        return self.u_mat.shape[-2]

    @property
    def n_t(self) -> int:
        return self.u_mat.shape[-1]

    @property
    def n_r(self) -> int:
        return self.v_mat.shape[-2]


def scalar_or_array(x):
    "Python float for a single scene's 0-d result, the array for a batch."
    return float(x) if np.ndim(x) == 0 else x


def principal_angle(z) -> NDArray[np.float64]:
    "Argument of a complex number in (-pi, pi], with arg(0) defined as 0."
    # arctan2's angles lie in [-pi, pi]: in place, -pi becomes pi, -0.0
    # becomes 0.0, and every other angle keeps its bits
    phi = np.asarray(np.angle(z))
    phi += 0.0
    np.add(phi, 2.0 * np.pi, out=phi, where=phi <= -np.pi)
    return phi[()]


def normalization_constant(cfg: SceneConfig, d1_corner, d2_corner) -> float:
    """Amplitude normalization k: the center reference path product over the
    element-(1,1) path product ``d1[..., 0, 0] * d2[..., 0, 0]``.

    The reference legs run from the *mean* array heights to the RIS midpoint,
    so they do not depend on the realized h_t / h_r.
    """
    d1_c = np.hypot(cfg.h_r_mean, cfg.d_wall - cfg.d_ris)
    d2_c = np.hypot(cfg.h_t_mean, cfg.d_ris)
    return scalar_or_array(d1_c * d2_c / (d1_corner * d2_corner))


def steering(dist, wavelength: float) -> NDArray[np.complex128]:
    "Unit-modulus phase factors exp(-j*2*pi*dist/wavelength) of path lengths."
    # The same operations as np.exp(-2j * np.pi * dist / wavelength), in
    # one complex array.
    x = (-2j * np.pi) * dist
    x /= wavelength
    return np.exp(x, out=x)


def build_cascade(pos: ScenePositions, cfg: SceneConfig) -> CascadeChannel:
    "Populate the steering matrices and the normalization constant."
    return CascadeChannel(
        u_mat=steering(pos.d2, cfg.wavelength),
        v_mat=steering(pos.d1, cfg.wavelength),
        k_norm=normalization_constant(cfg, pos.d1[..., 0, 0], pos.d2[..., 0, 0]),
    )


def gain_rows(ch: CascadeChannel, scheme: str) -> NDArray[np.complex128]:
    """Rows A of a RIS-optimized gain, linear in exp(j*phi).

    The gain at RIS phases phi is ``k_norm * sum_i |A[i] @ exp(j*phi)|``
    (Wu & Zhang's passive-beamforming objective). ``ris_only`` has a single
    row, ``A[0, l] = (sum_r V[r, l]) * (sum_t U[l, t])``: each element's sum
    over all antenna pairs, which factorizes because the element couples the
    two legs multiplicatively. ``joint`` has one row per transmit antenna,
    ``A[t, l] = (sum_r V[r, l]) * U[l, t]``: optimal transmit phases
    co-phase each row, so their moduli add. Unscaled by k_norm.
    """
    if scheme == "ris_only":
        return (ch.v_mat.sum(axis=-2) * ch.u_mat.sum(axis=-1))[..., np.newaxis, :]
    if scheme == "joint":
        return (ch.v_mat.sum(axis=-2)[..., np.newaxis] * ch.u_mat).swapaxes(-1, -2)
    raise ValueError(f"no gain rows for {scheme!r}; expected 'ris_only' or 'joint'")


def assemble_h(ch: CascadeChannel, phi) -> NDArray[np.complex128]:
    """Normalized channel matrix for a given RIS phase vector.

    Parameters
    ----------
    ch : CascadeChannel
    phi : array_like, shape (..., n_ris)
        RIS element phase shifts in radians, with the channel's batch axes.

    Returns
    -------
    ndarray, shape (..., n_r, n_t), complex
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != ch.u_mat.shape[:-1]:
        raise ValueError(
            f"phase vector has shape {phi.shape}, expected {ch.u_mat.shape[:-1]}"
        )
    # k_norm * (v_mat * exp(j*phi)) @ u_mat bit for bit, in one temporary:
    # the product's operand order is the one that keeps the bits. Zero phases
    # skip the exp: v * (1+0j) is v bit for bit when no part of v is zero, as
    # in steering.
    k_norm = np.asarray(ch.k_norm)[..., np.newaxis, np.newaxis]
    if not phi.any():
        return (ch.v_mat * k_norm) @ ch.u_mat
    x = ch.v_mat * np.exp(1j * phi)[..., np.newaxis, :]
    x *= k_norm
    return x @ ch.u_mat


def unnormalized_h(pos: ScenePositions, cfg: SceneConfig, phi) -> NDArray[np.complex128]:
    """Channel matrix with exact per-path free-space amplitudes.

    Each RIS element contributes amplitude
    ``wavelength^2 / (16*pi^2 * d1[r, l] * d2[l, t])`` at the phase set by
    its total path length and phase shift. Kept for validating the
    normalized model; capacity computations consume the normalized form.
    """
    phi = np.asarray(phi, dtype=float)
    n_ris = pos.d2.shape[0]
    if phi.shape != (n_ris,):
        raise ValueError(f"phase vector has shape {phi.shape}, expected ({n_ris},)")
    # axes: (r, l, t)
    d1 = pos.d1[:, :, np.newaxis]
    d2 = pos.d2[np.newaxis, :, :]
    amplitude = cfg.wavelength**2 / (16.0 * np.pi**2 * d1 * d2)
    phase = -2.0 * np.pi * (d1 + d2) / cfg.wavelength + phi[np.newaxis, :, np.newaxis]
    return np.sum(amplitude * np.exp(1j * phase), axis=1)
