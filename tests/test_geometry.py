import math
from dataclasses import replace

import numpy as np
import pytest

from riscap import (
    QuantizedSearchSpec,
    build_cascade,
    build_positions,
    load_preset,
    random_restart_best,
)
from riscap.channel import normalization_constant


def coordinates(cfg):
    """(x, y) coordinates of the transmit antennas, receive antennas and RIS
    elements, derived from the config: arrays on the walls x = 0 and
    x = d_wall, the RIS on the floor y = 0, each lowest or nearest first."""
    def ula(n, spacing):
        return (np.arange(n) - (n - 1) / 2) * spacing
    tx = np.column_stack([np.zeros(cfg.n_t), cfg.h_t + ula(cfg.n_t, cfg.s_t)])
    rx = np.column_stack([np.full(cfg.n_r, cfg.d_wall), cfg.h_r + ula(cfg.n_r, cfg.s_r)])
    ris = np.column_stack([cfg.d_ris + ula(cfg.n_ris, cfg.s_ris), np.zeros(cfg.n_ris)])
    return tx, rx, ris


class TestSceneConfig:
    def test_rejects_nonpositive_lengths(self, scene):
        for field in ("wavelength", "s_t", "s_r", "s_ris", "d_wall", "h_t",
                      "h_r", "h_t_mean", "h_r_mean"):
            with pytest.raises(ValueError, match=field):
                scene(**{field: 0.0})

    @pytest.mark.parametrize("field", ["wavelength", "s_t", "s_r", "s_ris", "d_wall", "d_ris",
                                       "h_t", "h_r", "h_t_mean", "h_r_mean"])
    def test_rejects_infinite_lengths(self, scene, field):
        # inf > 0 holds: an infinite wavelength would give finite-looking
        # capacities, an infinite wall separation NaN rows
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            scene(**{field: math.inf})

    def test_rejects_bad_counts(self, scene):
        with pytest.raises(ValueError, match="n_t"):
            scene(n_t=0)
        with pytest.raises(ValueError, match="n_r"):
            scene(n_r=-3)
        with pytest.raises(ValueError, match="n_ris"):
            scene(n_ris=2.0)  # non-integer count

    def test_bool_is_not_a_count(self, scene):
        # isinstance(True, int) holds, so a bare int check lets bools through
        ch = build_cascade(build_positions(scene()), scene())
        for field, build in [
            ("n_t", lambda: replace(load_preset("panel_a"), n_t=True)),
            ("n_ris", lambda: scene(n_ris=True)),
            ("levels", lambda: QuantizedSearchSpec(levels=True)),
            ("restarts", lambda: random_restart_best(ch, "ris_only", restarts=True, seed=1)),
        ]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                build()

    def test_rejects_ris_offset_outside_walls(self, scene):
        with pytest.raises(ValueError, match="d_ris"):
            scene(d_ris=5.0)  # equal to d_wall
        with pytest.raises(ValueError):
            scene(d_ris=-1.0)

    def test_rejects_zero_mean_height(self, scene):
        # A degenerate normalization path (h_r_mean = 0 at d_ris = d_wall)
        # never reaches the distance formula; positivity rejects it first.
        with pytest.raises(ValueError, match="h_r_mean"):
            scene(h_r_mean=0.0)


class TestBuildPositions:
    def test_single_element_distances(self, scene):
        pos = build_positions(scene())
        assert pos.d2[0, 0] == pytest.approx(math.hypot(2.5, 2.5), abs=1e-12)
        assert pos.d1[0, 0] == pytest.approx(math.hypot(1.3, 2.5), abs=1e-12)
        assert pos.d2[0, 0] == pytest.approx(3.5355339, abs=1e-7)
        assert pos.d1[0, 0] == pytest.approx(2.8178006, abs=1e-7)

    def test_two_antenna_tx_offsets(self, scene):
        # antennas at h_t -/+ s_t/2 on the wall x = 0, lowest first, seen
        # from the single RIS element at (d_ris, 0)
        pos = build_positions(scene(n_t=2))
        assert pos.d2[0] == pytest.approx(np.hypot(2.5, [2.49875, 2.50125]), abs=1e-12)

    def test_ris_span_50_elements(self, scene):
        cfg = scene(n_ris=50)
        pos = build_positions(cfg)
        # each element's offset from either wall, recovered from its distance
        # to the single antenna there: the two add up to d_wall only if the
        # elements lie on the floor
        x_t = np.sqrt(pos.d2[:, 0] ** 2 - cfg.h_t**2)
        x_r = np.sqrt(pos.d1[0] ** 2 - cfg.h_r**2)
        assert x_t[0] == pytest.approx(2.5 - 0.06125, abs=1e-12)
        assert x_t[-1] == pytest.approx(2.5 + 0.06125, abs=1e-12)
        assert np.diff(x_t) == pytest.approx(0.0025, abs=1e-12)
        assert x_t + x_r == pytest.approx(np.full(50, cfg.d_wall), abs=1e-12)
        assert x_t == pytest.approx(coordinates(cfg)[2][:, 0], abs=1e-12)

    def test_rejects_array_below_floor(self, scene):
        with pytest.raises(ValueError, match="floor"):
            build_positions(scene(n_t=8, h_t=0.008))
        # exactly on the floor is rejected too
        with pytest.raises(ValueError, match="floor"):
            build_positions(scene(n_r=3, h_r=0.0025))

    def test_rejects_ris_outside_walls(self, scene):
        with pytest.raises(ValueError, match="RIS span"):
            build_positions(scene(n_ris=50, d_ris=0.05))
        with pytest.raises(ValueError, match="RIS span"):
            build_positions(scene(n_ris=50, d_ris=4.97))

    def test_shapes_and_positivity(self, scene):
        pos = build_positions(scene(n_t=8, n_r=4, n_ris=50))
        assert pos.d1.shape == (4, 50)
        assert pos.d2.shape == (50, 8)
        assert pos.cos_theta_t.shape == pos.cos_theta_r.shape == (50,)
        assert np.all(pos.d1 > 0) and np.all(pos.d2 > 0)
        assert np.all(np.abs(pos.cos_theta_t) <= 1.0)
        assert np.all(np.abs(pos.cos_theta_r) <= 1.0)

    def test_distances_match_coordinates(self, scene):
        cfg = scene(n_t=8, n_r=4, n_ris=50)
        pos = build_positions(cfg)
        tx, rx, ris = coordinates(cfg)
        d2 = np.linalg.norm(ris[:, None, :] - tx[None, :, :], axis=-1)
        d1 = np.linalg.norm(rx[:, None, :] - ris[None, :, :], axis=-1)
        assert np.allclose(pos.d2, d2, rtol=1e-14)
        assert np.allclose(pos.d1, d1, rtol=1e-14)

    def test_distance_within_midpoint_band(self, scene):
        cfg = scene(n_t=8, n_r=4, n_ris=50)
        pos = build_positions(cfg)
        half_rx = (cfg.n_r - 1) / 2 * cfg.s_r
        half_tx = (cfg.n_t - 1) / 2 * cfg.s_t
        x_l = coordinates(cfg)[2][:, 0]
        d_r_mid, d_t_mid = np.hypot(cfg.d_wall - x_l, cfg.h_r), np.hypot(x_l, cfg.h_t)
        assert np.all(np.abs(pos.d1 - d_r_mid[None, :]) <= half_rx + 1e-12)
        assert np.all(np.abs(pos.d2 - d_t_mid[:, None]) <= half_tx + 1e-12)

    def test_cos_theta_definition(self, scene):
        cfg = scene(n_t=4, n_r=3, n_ris=7)
        pos = build_positions(cfg)
        ris = coordinates(cfg)[2]
        # dot of the upward unit axis with the unit vector midpoint->element
        for l in range(cfg.n_ris):
            to_elem = ris[l] - np.array([0.0, cfg.h_t])
            expected = to_elem[1] / np.linalg.norm(to_elem)
            assert pos.cos_theta_t[l] == pytest.approx(expected, abs=1e-14)
            to_elem = ris[l] - np.array([cfg.d_wall, cfg.h_r])
            expected = to_elem[1] / np.linalg.norm(to_elem)
            assert pos.cos_theta_r[l] == pytest.approx(expected, abs=1e-14)

    def test_translation_invariance(self, scene):
        shift = 0.37
        cfg = scene(n_t=4, n_r=2, n_ris=9)
        lifted = replace(cfg, h_t=cfg.h_t + shift, h_r=cfg.h_r + shift,
                         h_t_mean=cfg.h_t_mean + shift, h_r_mean=cfg.h_r_mean + shift)
        pos_lifted = build_positions(lifted)
        tx, rx, ris = coordinates(cfg)
        # distances follow the shifted antenna heights over the same RIS
        # elements, nothing else
        x_l = ris[:, 0]
        expected_d2 = np.hypot(x_l[:, None], tx[None, :, 1] + shift)
        expected_d1 = np.hypot(cfg.d_wall - x_l[None, :], rx[:, None, 1] + shift)
        assert np.allclose(pos_lifted.d2, expected_d2, rtol=1e-15)
        assert np.allclose(pos_lifted.d1, expected_d1, rtol=1e-15)
        # and the direction cosines the shifted midpoints
        cos_t = -(cfg.h_t + shift) / np.hypot(x_l, cfg.h_t + shift)
        assert np.allclose(pos_lifted.cos_theta_t, cos_t, rtol=1e-15)

    def test_mirror_symmetry(self, scene):
        cfg = scene(n_t=5, n_r=3, n_ris=8, s_t=0.003, s_r=0.002,
                    h_t=2.2, h_r=1.1, d_ris=1.7)
        mirrored = replace(
            cfg,
            n_t=cfg.n_r, s_t=cfg.s_r, h_t=cfg.h_r, h_t_mean=cfg.h_r_mean,
            n_r=cfg.n_t, s_r=cfg.s_t, h_r=cfg.h_t, h_r_mean=cfg.h_t_mean,
            d_ris=cfg.d_wall - cfg.d_ris,
        )
        pos = build_positions(cfg)
        pos_m = build_positions(mirrored)
        rev = slice(None, None, -1)
        assert np.allclose(pos_m.d2, pos.d1.T[rev, :], rtol=1e-14)
        assert np.allclose(pos_m.d1, pos.d2.T[:, rev], rtol=1e-14)


class TestNormalizationReference:
    "k's numerator, the center reference path product, read off 1 m corner paths."

    def test_reference_values(self, scene):
        # legs hypot(h_r_mean, d_wall - d_ris) = 2.8178006 and
        # hypot(h_t_mean, d_ris) = 3.5355339
        k = normalization_constant(scene(), 1.0, 1.0)
        assert k == pytest.approx(2.8178006 * 3.5355339, rel=1e-7)
        # each leg reads its own mean height and RIS offset
        k = normalization_constant(scene(d_ris=2.0), 1.0, 1.0)
        assert k == pytest.approx(math.hypot(1.3, 3.0) * math.hypot(2.5, 2.0), rel=1e-15)
        # and the corner paths divide it
        assert normalization_constant(scene(), 2.0, 4.0) == normalization_constant(scene(), 1.0, 1.0) / 8

    def test_uses_mean_heights_only(self, scene):
        moved = scene(h_t=2.04, h_r=1.76)
        assert normalization_constant(moved, 1.0, 1.0) == normalization_constant(scene(), 1.0, 1.0)

    def test_symmetric_when_ris_centered(self, scene):
        # equal mean heights over a centered RIS make the two legs equal
        cfg = scene(h_t_mean=1.9, h_r_mean=1.9, d_ris=2.5)
        k = normalization_constant(cfg, 1.0, 1.0)
        assert k == pytest.approx(math.hypot(1.9, 2.5) ** 2, rel=1e-15)
        # and mirroring a scene swaps its legs, which leaves k
        cfg = scene(h_t_mean=2.2, h_r_mean=1.1, d_ris=1.7)
        mirrored = replace(cfg, h_t_mean=1.1, h_r_mean=2.2, d_ris=cfg.d_wall - 1.7)
        k = normalization_constant(cfg, 1.0, 1.0)
        assert normalization_constant(mirrored, 1.0, 1.0) == pytest.approx(k, rel=1e-15)
