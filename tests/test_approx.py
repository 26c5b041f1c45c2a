import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riscap import approx_gain, build_cascade, build_positions, solve_ris_only
from riscap.approx import aux_g
from riscap.channel import normalization_constant


class TestAuxG:
    def test_lobe_center_limit(self):
        for n in (1, 2, 4, 8, 16):
            assert aux_g(n, 0.0) == float(n)
            assert aux_g(n, math.pi) == float(n)
            assert aux_g(n, -3 * math.pi) == float(n)

    def test_analytic_values(self):
        assert aux_g(4, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
        assert aux_g(2, math.pi / 4) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_near_singular_values_stay_close_to_limit(self):
        # just outside the limit branch the ratio is still ~= n
        for x in (1e-8, math.pi - 1e-8):
            assert aux_g(8, x) == pytest.approx(8.0, abs=1e-6)

    def test_bounds_on_dense_grid(self):
        x = np.linspace(-2 * math.pi, 2 * math.pi, 20001)
        for n in (1, 2, 5, 16):
            g = aux_g(n, x)
            assert np.all(g >= 0.0)
            assert np.all(g <= n + 1e-12)

    def test_even_in_x(self):
        x = np.linspace(0, math.pi, 1001)
        for n in (2, 4, 7):
            assert np.array_equal(aux_g(n, x), aux_g(n, -x))

    def test_pi_periodic(self):
        x = np.linspace(-1.5, 1.5, 501)
        for n in (2, 4, 7):
            assert np.allclose(aux_g(n, x + math.pi), aux_g(n, x), atol=1e-12)

    def test_main_lobe_narrows_with_n(self):
        def half_width(n):
            # first crossing below n/2, located by bisection on a bracket
            xs = np.linspace(0.0, math.pi / 2, 4096)
            vals = aux_g(n, xs)
            above = vals >= n / 2
            first = int(np.argmin(above))  # first False
            lo, hi = xs[first - 1], xs[first]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if aux_g(n, mid) >= n / 2:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        widths = [half_width(n) for n in (2, 4, 8, 16)]
        assert np.all(np.diff(widths) < 0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            aux_g(0, 1.0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integer_n(self, n):
        # a bool is not a count, and sin(2.5*x)/sin(x) is no array factor
        with pytest.raises(ValueError, match="n must be an integer"):
            aux_g(n, 0.3)

    def test_scalar_in_scalar_out(self):
        assert isinstance(aux_g(3, 0.3), float)
        assert isinstance(aux_g(3, np.array([0.3, 0.4])), np.ndarray)


class TestAuxGProperties:
    "Bounds and symmetries at random orders, lobes and offsets from a lobe center."

    ROUNDING = 1e-12

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), lobe=st.integers(-8, 8),
           offset=st.floats(-math.pi / 2, math.pi / 2))
    @example(n=5, lobe=1, offset=1e-7)  # unfolded, x + pi read 5.0000000178
    def test_bounded_even_and_pi_periodic(self, n, lobe, offset):
        x = lobe * math.pi + offset
        g = aux_g(n, x)
        assert 0.0 <= g <= n * (1 + self.ROUNDING)
        assert aux_g(n, -x) == pytest.approx(g, rel=0, abs=n * self.ROUNDING)
        assert aux_g(n, x + math.pi) == pytest.approx(g, rel=0, abs=n * self.ROUNDING)


class TestApproxGain:
    def test_single_antennas_give_element_count(self, scene):
        cfg = scene(n_ris=50)
        pos = build_positions(cfg)
        k = normalization_constant(cfg, pos.d1[0, 0], pos.d2[0, 0])
        assert approx_gain(pos, cfg) == pytest.approx(k * cfg.n_ris, rel=1e-12)

    def test_matches_exact_gain_at_reference_geometry(self, scene):
        # Observed relative error 7.6e-5 at these dimensions; the frozen
        # regression bound leaves an order of magnitude of headroom.
        cfg = scene(n_t=8, n_r=4, n_ris=50)
        pos = build_positions(cfg)
        exact = solve_ris_only(build_cascade(pos, cfg)).b_gain
        approx = approx_gain(pos, cfg)
        assert abs(approx - exact) / exact <= 0.02
        assert abs(approx - exact) / exact <= 1e-3

    def test_broadside_per_element_contribution(self):
        # at cos(theta) = 0 both array factors peak, so one element carries
        # the full n_t * n_r product
        assert aux_g(8, 0.0) * aux_g(4, 0.0) == 32.0

    def test_sign_of_cosines_is_irrelevant(self, scene):
        cfg = scene(n_t=8, n_r=4, n_ris=50)
        pos = build_positions(cfg)
        flipped = replace(pos, cos_theta_t=-pos.cos_theta_t,
                          cos_theta_r=-pos.cos_theta_r)
        assert approx_gain(flipped, cfg) == approx_gain(pos, cfg)

    def test_within_global_bounds(self, scene):
        for dims in ((8, 4, 50), (16, 4, 100), (2, 2, 25)):
            cfg = scene(n_t=dims[0], n_r=dims[1], n_ris=dims[2])
            pos = build_positions(cfg)
            k = normalization_constant(cfg, pos.d1[0, 0], pos.d2[0, 0])
            gain = approx_gain(pos, cfg)
            assert 0.0 <= gain <= k * cfg.n_ris * cfg.n_t * cfg.n_r
