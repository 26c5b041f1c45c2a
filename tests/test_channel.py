import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riscap import (
    CascadeChannel,
    SnrPoint,
    assemble_h,
    build_cascade,
    build_positions,
    capacity_from_gain,
    cophasing_gain,
    joint_gain,
    load_preset,
    sample_heights,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
)
from riscap.channel import gain_rows, principal_angle, steering, unnormalized_h
from riscap.config import PRESETS
from riscap.geometry import legs


@pytest.fixture
def panel(scene):
    "8x4 arrays over a 50-element RIS at the nominal heights."
    cfg = scene(n_t=8, n_r=4, n_ris=50)
    pos = build_positions(cfg)
    return cfg, pos, build_cascade(pos, cfg)


class TestPhaseHelpers:
    def test_principal_angle_zero(self):
        assert principal_angle(0) == 0.0
        assert principal_angle(complex(-1.0, 0.0)) == math.pi


def formula_wrap(phi):
    "The closed-form wrap to (-pi, pi]: phi - 2*pi*ceil((phi - pi) / (2*pi))."
    phi = np.asarray(phi, dtype=float)
    return phi - np.ceil((phi - np.pi) / (2.0 * np.pi)) * (2.0 * np.pi)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def near(x):
    "Floats within a few hundred ulp of x."
    return st.integers(-300, 300).map(lambda k: float(x + k * np.spacing(x)))


class TestPhaseProperties:
    "principal_angle lands in (-pi, pi] and moves nothing else."

    @given(re=st.one_of(st.floats(-1e3, 1e3), near(-1.0)),
           im=st.one_of(st.floats(-1e3, 1e3), near(1e-300), near(-1e-16), st.just(-0.0)))
    @example(re=-1.0, im=-4.44e-16)
    def test_principal_angle_in_interval_and_bits_kept(self, re, im):
        angle = principal_angle(complex(re, im))
        assert -np.pi < angle <= np.pi
        old = formula_wrap(np.angle(complex(re, im)))
        if -np.pi < old <= np.pi:
            assert same_bits(angle, old)
        batch = principal_angle(np.array([complex(re, im), 1j]))
        assert same_bits(batch[0], angle)


class TestBuildCascade:
    def test_unit_modulus(self, panel):
        _, _, ch = panel
        assert np.allclose(np.abs(ch.u_mat), 1.0, atol=1e-12)
        assert np.allclose(np.abs(ch.v_mat), 1.0, atol=1e-12)

    def test_k_is_one_for_center_reference(self, scene):
        cfg = scene()  # single elements at the mean heights
        ch = build_cascade(build_positions(cfg), cfg)
        assert ch.k_norm == pytest.approx(1.0, abs=1e-14)

    def test_k_close_to_one_at_reference_geometry(self, panel):
        # element-1 corner path differs from the center path by <1% here
        _, _, ch = panel
        assert 0.99 <= ch.k_norm <= 1.01

    def test_full_wavelength_distance_gives_unity_entry(self, scene):
        lam = math.sqrt(2.0)
        cfg = scene(wavelength=lam, d_wall=2.0, d_ris=1.0, h_t=1.0, h_r=1.0,
                    h_t_mean=1.0, h_r_mean=1.0)
        ch = build_cascade(build_positions(cfg), cfg)
        assert ch.u_mat[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)


class TestAssembleH:
    def test_zero_phase_is_plain_product(self, panel):
        _, _, ch = panel
        h = assemble_h(ch, np.zeros(ch.n_ris))
        assert np.allclose(h, ch.k_norm * ch.v_mat @ ch.u_mat, rtol=1e-14)

    def test_single_element_magnitude_phase_free(self, scene):
        cfg = scene(n_t=3, n_r=2, n_ris=1)
        ch = build_cascade(build_positions(cfg), cfg)
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = assemble_h(ch, rng.uniform(-np.pi, np.pi, 1))
            assert np.allclose(np.abs(h), ch.k_norm, atol=1e-12)

    def test_perfect_cophasing_reaches_element_count(self, scene):
        cfg = scene(n_ris=50)
        ch = build_cascade(build_positions(cfg), cfg)
        phi = -np.angle(ch.v_mat[0] * ch.u_mat[:, 0])
        h = assemble_h(ch, phi)
        assert h[0, 0] == pytest.approx(ch.k_norm * cfg.n_ris, abs=1e-10)

    def test_global_phase_shift_invariance(self, panel):
        _, _, ch = panel
        rng = np.random.default_rng(11)
        phi = rng.uniform(-np.pi, np.pi, ch.n_ris)
        shift = 0.83
        h = assemble_h(ch, phi)
        h_shifted = assemble_h(ch, phi + shift)
        assert np.allclose(h_shifted, h * np.exp(1j * shift), atol=1e-10)
        assert np.allclose(np.abs(h_shifted), np.abs(h), atol=1e-10)

    def test_matches_elementwise_sum(self, panel):
        _, _, ch = panel
        rng = np.random.default_rng(5)
        phi = rng.uniform(-np.pi, np.pi, ch.n_ris)
        h = assemble_h(ch, phi)
        direct = np.zeros((ch.n_r, ch.n_t), dtype=complex)
        for r in range(ch.n_r):
            for t in range(ch.n_t):
                acc = 0.0 + 0.0j
                for l in range(ch.n_ris):
                    acc += ch.v_mat[r, l] * np.exp(1j * phi[l]) * ch.u_mat[l, t]
                direct[r, t] = ch.k_norm * acc
        assert np.allclose(h, direct, rtol=1e-10)

    def test_triangle_bounds(self, panel):
        cfg, _, ch = panel
        rng = np.random.default_rng(17)
        for _ in range(20):
            h = assemble_h(ch, rng.uniform(-np.pi, np.pi, ch.n_ris))
            assert np.all(np.abs(h) <= ch.k_norm * cfg.n_ris + 1e-9)
            assert abs(h.sum()) <= ch.k_norm * cfg.n_t * cfg.n_r * cfg.n_ris + 1e-9

    def test_rejects_wrong_length(self, panel):
        _, pos, ch = panel
        with pytest.raises(ValueError, match="shape"):
            assemble_h(ch, np.zeros(ch.n_ris + 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.lists(st.integers(1, 3), max_size=2),
           dims=st.tuples(*[st.integers(1, 40)] * 3))
    def test_bytes_equal_the_two_temporary_form(self, seed, batch, dims):
        rng = np.random.default_rng(seed)
        n_t, n_r, n_ris = dims
        ch = CascadeChannel(
            u_mat=np.exp(1j * rng.uniform(-1e3, 1e3, (*batch, n_ris, n_t))),
            v_mat=np.exp(1j * rng.uniform(-1e3, 1e3, (*batch, n_r, n_ris))),
            k_norm=(rng.uniform(0.1, 10.0, batch) if batch else float(rng.uniform(0.1, 10.0))))
        phi = rng.uniform(-np.pi, np.pi, (*batch, n_ris))
        # zero phases, some of them -0.0, take the path that skips the exp
        zeros = np.where(rng.random(phi.shape) < 0.5, -0.0, 0.0)
        k_norm = np.asarray(ch.k_norm)[..., np.newaxis, np.newaxis]
        for phases in (phi, zeros):
            old = k_norm * (ch.v_mat * np.exp(1j * phases)[..., np.newaxis, :]) @ ch.u_mat
            assert assemble_h(ch, phases).tobytes() == old.tobytes()


class TestGainRows:
    def test_rows_give_the_solver_gains(self, panel):
        cfg, _, ch = panel
        ris, joint = solve_ris_only(ch), solve_joint(ch)
        for scheme, n_rows, phi, gain in (
            ("ris_only", 1, ris.phi, ris.b_gain),
            ("joint", cfg.n_t, joint.phi, joint_gain(joint, ch)),
        ):
            rows = gain_rows(ch, scheme)
            assert rows.shape == (n_rows, cfg.n_ris)
            value = ch.k_norm * np.sum(np.abs(rows @ np.exp(1j * phi)))
            assert value == pytest.approx(gain, rel=1e-12)

    def test_rejects_unknown_scheme(self, panel):
        with pytest.raises(ValueError, match="basic"):
            gain_rows(panel[2], "basic")


class TestUnnormalizedH:
    def test_center_path_amplitude(self, scene):
        cfg = scene()
        pos = build_positions(cfg)
        h = unnormalized_h(pos, cfg, np.zeros(1))
        expected = cfg.wavelength**2 / (
            16 * math.pi**2 * math.hypot(1.3, 2.5) * math.hypot(2.5, 2.5)
        )
        assert abs(h[0, 0]) == pytest.approx(expected, rel=1e-12)
        assert abs(h[0, 0]) == pytest.approx(1.5891e-8, rel=1e-4)

    def test_tracks_normalized_model(self, panel):
        # After dividing out the center free-space factor, the exact-amplitude
        # model deviates entrywise by well under 2% at this geometry (observed
        # max 0.8% with zero and with co-phased RIS phases).
        cfg, pos, ch = panel
        fspl_c = cfg.wavelength**2 / (
            16 * math.pi**2 * math.hypot(1.3, 2.5) * math.hypot(2.5, 2.5)
        )
        for phi in (np.zeros(cfg.n_ris), solve_ris_only(ch).phi):
            h_norm = assemble_h(ch, phi)
            h_exact = unnormalized_h(pos, cfg, phi)
            deviation = np.abs(h_exact / fspl_c - h_norm) / np.abs(h_norm)
            assert deviation.max() < 0.02

    def test_doubling_distances_quarters_amplitude(self, scene):
        cfg = scene()
        doubled = replace(cfg, d_wall=10.0, d_ris=5.0, h_t=5.0, h_r=2.6,
                          h_t_mean=5.0, h_r_mean=2.6)
        h = unnormalized_h(build_positions(cfg), cfg, np.zeros(1))
        h2 = unnormalized_h(build_positions(doubled), doubled, np.zeros(1))
        assert abs(h2[0, 0]) == pytest.approx(abs(h[0, 0]) / 4.0, rel=1e-12)

    def test_rejects_wrong_length(self, scene):
        cfg = scene(n_ris=3)
        with pytest.raises(ValueError, match="shape"):
            unnormalized_h(build_positions(cfg), cfg, np.zeros(2))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended long double")
class TestExtendedPrecisionReference:
    """Leg distances, steering, each scheme's gain and ``capacity_from_gain``
    against an evaluation in ``np.longdouble`` and ``np.clongdouble`` of the
    same float64 inputs. On x86-64 Linux, CI's ubuntu-latest included,
    ``np.longdouble`` is x87 80-bit extended (eps 1.08e-19), so the
    reference's own error, about 4e-16 on steering, is far below the bounds.
    Each bound was set from the error measured before any change to the
    functions, times the margin stated beside it: on these heights, and for
    the capacity map over a range of gains, so it holds for gains a change
    to the solvers may produce."""

    # measured 1.17e-16 relative (hypot to about half an ulp); margin 2x
    ROWS_REL = 2.4e-16
    # measured 9.0e-13 absolute: the float64 rounding of a phase 2*pi*d/lambda
    # of up to about 5,200 rad; margin 1.5x
    STEERING_ABS = 1.35e-12
    # each gain at its float64 solver's phases, relative; measured 3.85e-16,
    # 2.99e-15, 2.35e-14 and 1.12e-13 (basic's sum cancels most); margin 2x
    GAIN_REL = {"ris_only": 7.7e-16, "joint": 6.0e-15, "cophasing": 4.8e-14, "basic": 2.3e-13}
    # relative, over 10,000 gains log-spaced across [1e-6, 1e4] at the
    # presets' SNRs and at 8x4, 8x2, 16x4 and 32x16 arrays: measured 4.38e-16;
    # margin 2x
    CAPACITY_REL = 8.8e-16
    TRIALS = 64

    @staticmethod
    def plan(name):
        "A shipped preset, or wide: the benchmark's scene, 32x16x256 on 0.1 mm grids, seed 1."
        return load_preset(name) if name != "wide" else replace(
            load_preset("panel_a"), n_t=32, n_r=16, n_ris=256, seed=1,
            h_t_grid=(2.0, 3.0, 0.0001), h_r_grid=(0.8, 1.8, 0.0001))

    @staticmethod
    def exact_capacity(gain, n_t, n_r, snr_db):
        """log2(1 + x) in np.longdouble, through log1p: 1 + x would lose the
        digits of a small x (5.4e-13 relative for x in [1e-7, 1e-5))."""
        x = np.longdouble(gain) ** 2 / (n_t * n_r) * 10 ** (np.longdouble(snr_db) / 10)
        return np.log1p(x) / np.log(np.longdouble(2))

    @pytest.mark.parametrize("n_t, n_r", [(8, 4), (8, 2), (16, 4), (32, 16)])
    def test_capacity_within_its_bound_over_a_gain_range(self, n_t, n_r):
        snr_db = np.array(sorted({snr for name in PRESETS for snr in load_preset(name).snr_db}))
        gains, snr_db = np.logspace(-6, 4, 10_000), snr_db[:, np.newaxis]
        capacity = capacity_from_gain(gains, n_t, n_r, SnrPoint.from_db(snr_db))
        exact = self.exact_capacity(gains, n_t, n_r, snr_db)
        assert np.max(np.abs(capacity - exact) / exact) <= self.CAPACITY_REL

    @pytest.mark.parametrize("name", [*PRESETS, "wide"])
    def test_rows_and_steering_within_their_bounds(self, name):
        plan = self.plan(name)
        heights = np.array([sample_heights(plan, i) for i in range(self.TRIALS)])
        cfg = plan.scene(*heights[0])
        two_pi = 8 * np.arctan(np.longdouble(1))
        for leg, h in zip(legs(cfg), heights.T):
            z = leg.heights(h)
            dist = leg.rows(z)
            x, z = leg.x.astype(np.longdouble), z.astype(np.longdouble)[..., np.newaxis]
            exact = np.sqrt(x * x + z * z)
            assert np.max(np.abs(dist - exact) / exact) <= self.ROWS_REL
            phase = two_pi * dist.astype(np.longdouble) / np.longdouble(cfg.wavelength)
            exact = np.cos(phase) - 1j * np.sin(phase)
            error = np.abs(steering(dist, cfg.wavelength).astype(np.clongdouble) - exact)
            assert np.max(error) <= self.STEERING_ABS

    @pytest.mark.parametrize("name", [*PRESETS, "wide"])
    def test_gains_and_capacity_within_their_bounds(self, name):
        # from the same float64 steering and k_norm; the benchmarks at zero
        # RIS phases
        plan = self.plan(name)
        snr = SnrPoint.from_db(plan.snr_db)

        def rotor(phi):
            return np.exp(1j * np.longdouble(phi))
        for trial in range(self.TRIALS):
            cfg = plan.scene(*sample_heights(plan, trial))
            ch = build_cascade(build_positions(cfg), cfg)
            u, v, k = ch.u_mat.astype(np.clongdouble), ch.v_mat.astype(np.clongdouble), \
                np.longdouble(ch.k_norm)
            h, exact_h = assemble_h(ch, np.zeros(plan.n_ris)), k * (v @ u)
            ris, joint, cophasing = solve_ris_only(ch), solve_joint(ch), solve_cophasing_mimo(h)
            gains = {
                "ris_only": (ris.b_gain, k * abs(np.sum(v.sum(0) * u.sum(1) * rotor(ris.phi)))),
                "joint": (joint_gain(joint, ch),
                          k * abs(np.sum((v * rotor(joint.phi)) @ u * rotor(joint.beta)))),
                "cophasing": (cophasing_gain(cophasing, h),
                              abs(rotor(cophasing.alpha) @ exact_h @ rotor(cophasing.gamma))),
                "basic": (abs(h.sum()), abs(exact_h.sum())),
            }
            for scheme, (gain, exact) in gains.items():
                assert abs(gain - exact) <= self.GAIN_REL[scheme] * exact, scheme
                capacity = capacity_from_gain(gain, plan.n_t, plan.n_r, snr)
                exact = self.exact_capacity(gain, plan.n_t, plan.n_r, plan.snr_db)
                assert np.all(np.abs(capacity - exact) <= self.CAPACITY_REL * exact), scheme
