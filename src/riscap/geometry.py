"""Side-view scene geometry: two facing antenna walls and a floor-mounted RIS.

Everything lives in a single vertical 2D plane. The transmit array hangs on
the wall at x = 0, the receive array on the wall at x = D, and the RIS
elements sit on the floor (y = 0) between them. Arrays are vertical ULAs
centered on their midpoint heights; the RIS is a horizontal uniform line
centered on its midpoint offset.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray


def require_int(name: str, value, low: int, high=np.inf) -> None:
    "Reject ``value`` unless it is an integer in [``low``, ``high``); a bool is not a count."
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value < high:
        below = f" and below {high}" if high < np.inf else ""
        raise ValueError(f"{name} must be an integer >= {low}{below}, got {value!r}")


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
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        for name in ("n_t", "n_r", "n_ris"):
            require_int(name, getattr(self, name), 1)
        if not self.d_ris < self.d_wall:
            raise ValueError(
                f"RIS midpoint offset d_ris={self.d_ris} must lie strictly "
                f"inside the wall separation d_wall={self.d_wall}"
            )


@dataclass(frozen=True)
class ScenePositions:
    """Every pairwise distance and angle the model needs.

    ``d1[r, l]`` is the distance from RIS element ``l`` to receive antenna
    ``r``; ``d2[l, t]`` from transmit antenna ``t`` to RIS element ``l``.
    ``cos_theta_t[l]`` / ``cos_theta_r[l]`` are the direction cosines of RIS
    element ``l`` as seen from the array midpoints, measured against the
    upward vertical array axis.
    """

    d1: NDArray[np.float64]
    d2: NDArray[np.float64]
    cos_theta_t: NDArray[np.float64]
    cos_theta_r: NDArray[np.float64]


def _ula_offsets(n: int, spacing: float) -> NDArray[np.float64]:
    "Symmetric element offsets around the array midpoint, lowest-index first."
    return (np.arange(1, n + 1) - (n + 1) / 2.0) * spacing


@dataclass(frozen=True)
class Leg:
    """One array's side of the scene as a function of its midpoint height ``h``.

    Antenna ``i`` sits at height ``z = h + offsets[i]`` and RIS element ``l``
    lies ``x[l]`` from the array's wall, so their distance ``hypot(x[l], z)``
    depends on ``z`` alone. The transmit leg (``elements_first``) lays its
    distances out ``(..., n_ris, n_t)``, the receive leg ``(..., n_r, n_ris)``.
    """

    x: NDArray[np.float64]
    offsets: NDArray[np.float64]
    spacing: float
    elements_first: bool

    def heights(self, h) -> NDArray[np.float64]:
        "Element heights ``(..., n)`` of arrays at midpoint heights ``h``."
        return np.asarray(h, dtype=float)[..., np.newaxis] + self.offsets

    def rows(self, z) -> NDArray[np.float64]:
        "Distances ``(..., n_ris)`` from elements at heights ``z`` to each RIS element."
        return np.hypot(self.x, np.asarray(z)[..., np.newaxis])

    def corner(self, h) -> NDArray[np.float64]:
        """Distances ``d[..., 0, 0]`` from the lowest antenna of arrays at midpoint
        heights ``h`` to RIS element 0: ``rows`` of the leg cut to those two."""
        first = replace(self, x=self.x[:1], offsets=self.offsets[:1])
        return first.rows(first.heights(h))[..., 0, 0]

    def layout(self, rows):
        "Per-element ``rows`` ``(..., n, n_ris)`` in this leg's layout, C-ordered."
        return np.ascontiguousarray(rows.swapaxes(-1, -2)) if self.elements_first else rows

    def toward(self, h) -> NDArray[np.float64]:
        """Direction cosine of each RIS element seen from array midpoints at
        heights ``h``, against the upward array axis: negative, as the
        element lies below; downstream use is sign-blind."""
        h = np.asarray(h, dtype=float)
        return -h[..., np.newaxis] / self.rows(h)


def legs(cfg: SceneConfig) -> tuple[Leg, Leg]:
    "The scene's transmit and receive legs, whose distances are ``d2`` and ``d1``."
    ris_x = cfg.d_ris + _ula_offsets(cfg.n_ris, cfg.s_ris)
    return (Leg(ris_x, _ula_offsets(cfg.n_t, cfg.s_t), cfg.s_t, True),
            Leg(cfg.d_wall - ris_x, _ula_offsets(cfg.n_r, cfg.s_r), cfg.s_r, False))


def build_positions(cfg: SceneConfig) -> ScenePositions:
    """Distances and direction cosines between the arrays and the RIS.

    Raises ValueError if an antenna array would touch or cross the floor
    (lowest element at y <= 0) or an RIS element would fall outside the
    open interval (0, d_wall).
    """
    transmit, receive = legs(cfg)
    z_t, z_r = transmit.heights(cfg.h_t), receive.heights(cfg.h_r)  # lowest first
    for name, x, low in (("transmit", "t", z_t[0]), ("receive", "r", z_r[0])):
        if low <= 0:
            raise ValueError(f"{name} array intersects the floor (lowest element at "
                             f"y={low:.6g}, set by h_{x}, n_{x} and s_{x})")
    ris_x = transmit.x
    if ris_x[0] <= 0 or ris_x[-1] >= cfg.d_wall:
        raise ValueError(
            f"RIS span [{ris_x[0]:.6g}, {ris_x[-1]:.6g}] m, set by d_ris, n_ris and s_ris, "
            f"must lie strictly between the walls (0, d_wall={cfg.d_wall})"
        )
    return ScenePositions(
        d1=receive.layout(receive.rows(z_r)), d2=transmit.layout(transmit.rows(z_t)),
        cos_theta_t=transmit.toward(cfg.h_t), cos_theta_r=receive.toward(cfg.h_r))

