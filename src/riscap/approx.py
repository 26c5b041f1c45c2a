"""Closed-form approximation of the RIS-only coherent gain.

Far from the arrays, each RIS element sees both ULAs under essentially one
angle, so the element's double antenna sum collapses to a product of two
uniform-array factors |sin(N*x)/sin(x)|. Summing the products over the
elements (and rescaling by the channel normalization) approximates the
exact co-phased gain without touching the steering matrices. Valid when the
array lengths are much smaller than the array-to-RIS distances.
"""

import numpy as np

from .channel import normalization_constant, scalar_or_array
from .geometry import SceneConfig, ScenePositions, require_int

# |sin(x)| below this counts as a main-lobe center; the ratio limit is N.
_SINGULAR_EPS = 1e-9


def aux_g(n: int, x):
    """Uniform-array factor magnitude |sin(n*x)/sin(x)|.

    Returns the limit value ``n`` at x = 0 mod pi (lobe centers), where the
    raw ratio is 0/0. Vectorized over ``x``; scalar in, scalar out. Bounded
    by ``0 <= g <= n`` everywhere and even and pi-periodic in ``x``.
    """
    require_int("n", n, 1)
    # Fold x into [-pi/2, pi/2] first (g is pi-periodic): near a lobe center
    # k*pi, k != 0, the rounding of n*x is not small next to sin(n*x).
    x = np.asarray(x, dtype=float)
    x = x - np.pi * np.round(x / np.pi)
    sin_x = np.sin(x)
    singular = np.abs(sin_x) < _SINGULAR_EPS
    ratio = np.abs(np.sin(n * x) / np.where(singular, 1.0, sin_x))
    out = np.where(singular, float(n), ratio)
    return float(out) if out.ndim == 0 else out


def array_factor(n: int, spacing: float, cos_theta, wavelength: float):
    "Factor g(n, pi*spacing*cos_theta/wavelength) of one array toward each element."
    return aux_g(n, np.pi * spacing * cos_theta / wavelength)


def approx_gain(pos: ScenePositions, cfg: SceneConfig) -> float:
    """Approximate RIS-only coherent gain from midpoint angles only.

    Per element l the double antenna sum magnitude is approximated by
    ``g(n_t, pi*s_t*cos_theta_t[l]/wavelength) * g(n_r, ...)``; the gains
    add across elements after co-phasing, scaled by the normalization
    constant so the value is directly comparable to the exact solver's.
    Positions with leading batch axes give a gain per scene.
    """
    return scalar_or_array(factor_gain(
        normalization_constant(cfg, pos.d1[..., 0, 0], pos.d2[..., 0, 0]),
        array_factor(cfg.n_t, cfg.s_t, pos.cos_theta_t, cfg.wavelength),
        array_factor(cfg.n_r, cfg.s_r, pos.cos_theta_r, cfg.wavelength)))


def factor_gain(k_norm, f_t, f_r):
    "Approximate gain ``k_norm * sum_l f_t[l] * f_r[l]`` from each leg's array factors."
    return k_norm * np.sum(f_t * f_r, axis=-1)
