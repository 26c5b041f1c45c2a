"""Side-view scene geometry: two facing antenna walls and a floor-mounted RIS.

Everything lives in a single vertical 2D plane. The transmit array hangs on
the wall at x = 0, the receive array on the wall at x = D, and the RIS
elements sit on the floor (y = 0) between them. Arrays are vertical ULAs
centered on their midpoint heights; the RIS is a horizontal uniform line
centered on its midpoint offset.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class SceneConfig:
    """Physical setup of one scene realization.

    Lengths are in meters. ``h_t`` / ``h_r`` are the realized array-midpoint
    heights; ``h_t_mean`` / ``h_r_mean`` are the nominal midpoint heights used
    only by the path-loss normalization reference.
    """

    wavelength: float
    n_t: int
    n_r: int
    n_ris: int
    s_t: float
    s_r: float
    s_ris: float
    d_wall: float
    d_ris: float
    h_t: float
    h_r: float
    h_t_mean: float
    h_r_mean: float

    def __post_init__(self):
        for name in ("wavelength", "s_t", "s_r", "s_ris", "d_wall", "d_ris",
                     "h_t", "h_r", "h_t_mean", "h_r_mean"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        for name in ("n_t", "n_r", "n_ris"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.d_ris < self.d_wall:
            raise ValueError(
                f"RIS midpoint offset d_ris={self.d_ris} must lie strictly "
                f"inside the wall separation d_wall={self.d_wall}"
            )


@dataclass(frozen=True)
class ScenePositions:
    """Element coordinates and every pairwise distance/angle the model needs.

    ``d1[r, l]`` is the distance from RIS element ``l`` to receive antenna
    ``r``; ``d2[l, t]`` from transmit antenna ``t`` to RIS element ``l``.
    ``cos_theta_t[l]`` / ``cos_theta_r[l]`` are the direction cosines of RIS
    element ``l`` as seen from the array midpoints, measured against the
    upward vertical array axis.
    """

    tx_pos: NDArray[np.float64]
    rx_pos: NDArray[np.float64]
    ris_pos: NDArray[np.float64]
    d1: NDArray[np.float64]
    d2: NDArray[np.float64]
    d_t_mid: NDArray[np.float64]
    d_r_mid: NDArray[np.float64]
    cos_theta_t: NDArray[np.float64]
    cos_theta_r: NDArray[np.float64]


def _ula_offsets(n: int, spacing: float) -> NDArray[np.float64]:
    "Symmetric element offsets around the array midpoint, lowest-index first."
    return (np.arange(1, n + 1) - (n + 1) / 2.0) * spacing


def _ris_x(cfg: SceneConfig) -> NDArray[np.float64]:
    "RIS element x coordinates on the floor, lowest-index first."
    return cfg.d_ris + _ula_offsets(cfg.n_ris, cfg.s_ris)


def transmit_leg(cfg: SceneConfig, h_t) -> tuple[NDArray[np.float64], ...]:
    """Transmit-side geometry for arrays at midpoint heights ``h_t``.

    ``h_t`` may be a scalar or an array of any batch shape; ``cfg`` supplies
    everything but the height. Returns ``(tx_pos, d2, d_t_mid, cos_theta_t)``
    with shapes ``(..., n_t, 2)``, ``(..., n_ris, n_t)``, ``(..., n_ris)``
    and ``(..., n_ris)``, as in :class:`ScenePositions`.
    """
    h_t = np.asarray(h_t, dtype=float)[..., np.newaxis]
    ris_x = _ris_x(cfg)
    tx_y = h_t + _ula_offsets(cfg.n_t, cfg.s_t)
    tx_pos = np.stack([np.zeros_like(tx_y), tx_y], axis=-1)
    d2 = np.hypot(ris_x[:, np.newaxis], tx_y[..., np.newaxis, :])
    d_t_mid = np.hypot(ris_x, h_t)
    # Direction cosine of element l against the upward array axis: the
    # vector from the array midpoint down to the floor element has vertical
    # component -h, so the cosine is negative. Downstream use is sign-blind.
    return tx_pos, d2, d_t_mid, -h_t / d_t_mid


def receive_leg(cfg: SceneConfig, h_r) -> tuple[NDArray[np.float64], ...]:
    """Receive-side geometry for arrays at midpoint heights ``h_r``.

    The receive counterpart of :func:`transmit_leg`: ``(rx_pos, d1, d_r_mid,
    cos_theta_r)`` with shapes ``(..., n_r, 2)``, ``(..., n_r, n_ris)``,
    ``(..., n_ris)`` and ``(..., n_ris)``.
    """
    h_r = np.asarray(h_r, dtype=float)[..., np.newaxis]
    ris_dx = cfg.d_wall - _ris_x(cfg)
    rx_y = h_r + _ula_offsets(cfg.n_r, cfg.s_r)
    rx_pos = np.stack([np.full_like(rx_y, cfg.d_wall), rx_y], axis=-1)
    d1 = np.hypot(ris_dx, rx_y[..., :, np.newaxis])
    d_r_mid = np.hypot(ris_dx, h_r)
    return rx_pos, d1, d_r_mid, -h_r / d_r_mid


def build_positions(cfg: SceneConfig) -> ScenePositions:
    """Place every element in the vertical plane and derive distances/angles.

    Parameters
    ----------
    cfg : SceneConfig
        Validated scene parameters.

    Returns
    -------
    ScenePositions

    Raises
    ------
    ValueError
        If an antenna array would touch or cross the floor (lowest element
        at y <= 0) or an RIS element would fall outside the open interval
        (0, d_wall).
    """
    tx_pos, d2, d_t_mid, cos_theta_t = transmit_leg(cfg, cfg.h_t)
    rx_pos, d1, d_r_mid, cos_theta_r = receive_leg(cfg, cfg.h_r)
    ris_x = _ris_x(cfg)

    tx_low, rx_low = tx_pos[0, 1], rx_pos[0, 1]  # y of the lowest elements
    if tx_low <= 0:
        raise ValueError(
            f"transmit array intersects the floor (lowest element at y={tx_low:.6g})"
        )
    if rx_low <= 0:
        raise ValueError(
            f"receive array intersects the floor (lowest element at y={rx_low:.6g})"
        )
    if ris_x[0] <= 0 or ris_x[-1] >= cfg.d_wall:
        raise ValueError(
            f"RIS span [{ris_x[0]:.6g}, {ris_x[-1]:.6g}] m must lie strictly "
            f"between the walls (0, {cfg.d_wall})"
        )
    return ScenePositions(
        tx_pos=tx_pos, rx_pos=rx_pos, ris_pos=np.column_stack([ris_x, np.zeros(cfg.n_ris)]),
        d1=d1, d2=d2, d_t_mid=d_t_mid, d_r_mid=d_r_mid,
        cos_theta_t=cos_theta_t, cos_theta_r=cos_theta_r)


def normalization_reference(cfg: SceneConfig) -> tuple[float, float]:
    """Center-path reference distances used to normalize the channel.

    Both legs run through the RIS midpoint and use the *mean* array heights,
    so the reference is independent of the realized h_t / h_r:

        d1_c = sqrt(h_r_mean^2 + (d_wall - d_ris)^2)
        d2_c = sqrt(h_t_mean^2 + d_ris^2)

    Returns
    -------
    (d1_c, d2_c) : tuple of float, meters
    """
    d1_c = float(np.hypot(cfg.h_r_mean, cfg.d_wall - cfg.d_ris))
    d2_c = float(np.hypot(cfg.h_t_mean, cfg.d_ris))
    return d1_c, d2_c
