import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riscap import (
    CascadeChannel,
    CoPhasingSolution,
    JointSolution,
    ScenePositions,
    SnrPoint,
    approx_gain,
    assemble_h,
    build_cascade,
    build_positions,
    capacity_from_gain,
    cophasing_gain,
    joint_gain,
    load_preset,
    ris_only_objective,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
)
from riscap import channel, schemes, sim
from riscap.channel import gain_rows, normalization_constant, principal_angle
from riscap.schemes import _precoded_sum, _solve_joint

from conftest import cascade_for


class TestSnrPoint:
    def test_db_roundtrip(self):
        snr = SnrPoint.from_db(17.0)
        assert 10 * np.log10(snr.es_over_n0) == pytest.approx(17.0, abs=1e-12)
        assert SnrPoint.from_db(0.0).es_over_n0 == 1.0

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, [0.0, 10.0, 4000.0]])
    def test_from_db_out_of_range_names_es_over_n0(self, snr_db):
        # 4000 dB overflows to an infinite linear SNR, -4000 dB underflows to 0
        with pytest.raises(ValueError, match="es_over_n0 must be positive and finite"):
            SnrPoint.from_db(snr_db)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8))
    def test_from_db_keeps_the_bits_of_either_power(self, values):
        # a value keeps Python's float power; an array keeps NumPy's array
        # power, whose last bit can differ and which the CSV is pinned to
        for value in values:
            assert SnrPoint.from_db(value).es_over_n0 == 10.0 ** (value / 10.0)
        expected = 10.0 ** (np.asarray(values) / 10.0)
        assert SnrPoint.from_db(values).es_over_n0.tobytes() == expected.tobytes()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SnrPoint(0.0)
        with pytest.raises(ValueError):
            SnrPoint(-2.0)
        with pytest.raises(ValueError):
            SnrPoint(np.array([[1.0], [0.0]]))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_naming_it(self, value):
        # capacity_from_gain would return inf or nan bits
        with pytest.raises(ValueError, match="es_over_n0 must be positive and finite"):
            SnrPoint(value)
        with pytest.raises(ValueError, match="es_over_n0 must be positive and finite"):
            SnrPoint(np.array([[1.0], [value]]))

    def test_column_maps_gains_to_one_row_per_snr(self):
        gains, rho = np.array([0.5, 2.0, 7.0]), np.array([1.0, 10.0, 1000.0])
        snr = SnrPoint(rho[:, np.newaxis])
        db = 10 * np.log10(snr.es_over_n0[:, 0])
        assert db == pytest.approx([0.0, 10.0, 30.0], abs=1e-12)
        caps = capacity_from_gain(gains, 4, 2, snr)
        assert caps.shape == (3, 3)
        for row, value in zip(caps, rho):
            assert row.tobytes() == capacity_from_gain(gains, 4, 2, SnrPoint(value)).tobytes()


class TestRisOnly:
    def test_rotated_terms_are_real_nonnegative(self, scene):
        _, ch = cascade_for(scene, 8, 4, 50)
        sol = solve_ris_only(ch)
        rotated = np.exp(1j * sol.phi) * gain_rows(ch, "ris_only")[0]
        assert np.all(rotated.real >= 0)
        assert np.all(np.abs(rotated.imag) <= 1e-9 * np.abs(rotated))

    def test_gain_is_sum_of_magnitudes(self, scene):
        _, ch = cascade_for(scene, 8, 4, 50)
        sol = solve_ris_only(ch)
        assert sol.b_gain == pytest.approx(
            ch.k_norm * np.sum(np.abs(gain_rows(ch, "ris_only"))), rel=1e-12
        )
        assert sol.b_gain <= ch.k_norm * 50 * 8 * 4

    def test_single_antenna_pair_reaches_element_count(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 50)
        sol = solve_ris_only(ch)
        assert sol.b_gain == pytest.approx(ch.k_norm * cfg.n_ris, rel=1e-12)
        expected_phi = -np.angle(ch.v_mat[0] * ch.u_mat[:, 0])
        assert np.allclose(np.exp(1j * sol.phi), np.exp(1j * expected_phi), atol=1e-12)

    def test_single_element_gain_phase_free(self, scene):
        _, ch = cascade_for(scene, 3, 2, 1)
        sol = solve_ris_only(ch)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi = rng.uniform(-np.pi, np.pi, 1)
            assert ris_only_objective(ch, phi) == pytest.approx(sol.b_gain, rel=1e-12)

    def test_beats_ten_thousand_random_phase_vectors(self, scene):
        _, ch = cascade_for(scene, 4, 2, 20)
        sol = solve_ris_only(ch)
        rng = np.random.default_rng(99)
        draws = rng.uniform(-np.pi, np.pi, size=(10_000, ch.n_ris))
        c = ch.k_norm * gain_rows(ch, "ris_only")[0]
        gains = np.abs(np.exp(1j * draws) @ c)
        assert gains.max() <= sol.b_gain + 1e-9

    def test_zero_column_sum_gets_zero_phase(self):
        # synthetic two-element cascade whose first column cancels exactly
        v = np.array([[1.0 + 0j, 1.0 + 0j], [-1.0 + 0j, 1.0 + 0j]])
        u = np.ones((2, 1), dtype=complex)
        ch = CascadeChannel(u_mat=u, v_mat=v, k_norm=1.0)
        sol = solve_ris_only(ch)
        assert sol.phi[0] == 0.0
        assert sol.b_gain == pytest.approx(2.0, rel=1e-12)


class TestCapacityRisOnly:
    def test_unit_system_at_zero_db(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 1)
        sol = solve_ris_only(ch)
        c = capacity_from_gain(sol.b_gain, cfg.n_t, cfg.n_r, SnrPoint.from_db(0.0))
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_zero_gain_zero_capacity(self):
        assert capacity_from_gain(0.0, 4, 2, SnrPoint.from_db(30.0)) == 0.0

    def test_high_snr_slope(self, scene):
        cfg, ch = cascade_for(scene, 2, 2, 10)
        sol = solve_ris_only(ch)
        c1 = capacity_from_gain(sol.b_gain, cfg.n_t, cfg.n_r, SnrPoint(1e6))
        c4 = capacity_from_gain(sol.b_gain, cfg.n_t, cfg.n_r, SnrPoint(4e6))
        assert c4 - c1 == pytest.approx(2.0, abs=1e-3)

    def test_monotone_in_snr(self, scene):
        cfg, ch = cascade_for(scene, 4, 2, 10)
        sol = solve_ris_only(ch)
        caps = [capacity_from_gain(sol.b_gain, cfg.n_t, cfg.n_r, SnrPoint.from_db(db))
                for db in np.linspace(-10, 30, 9)]
        assert np.all(np.diff(caps) > 0)

    def test_every_capacity_op_monotone_in_snr(self, scene):
        cfg, ch = cascade_for(scene, 4, 2, 10)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        gains = (
            solve_ris_only(ch).b_gain,
            joint_gain(solve_joint(ch), ch),
            cophasing_gain(solve_cophasing_mimo(h), h),
            abs(h.sum()),
        )
        points = [SnrPoint.from_db(db) for db in np.linspace(-10, 30, 9)]
        for gain in gains:
            caps = [capacity_from_gain(gain, cfg.n_t, cfg.n_r, snr) for snr in points]
            assert np.all(np.diff(caps) > 0)


class TestJoint:
    def test_cophasing_residual_is_zero(self, scene):
        _, ch = cascade_for(scene, 8, 4, 50)
        sol = solve_joint(ch)
        delta = principal_angle(ch.v_mat.sum(axis=0)[:, None] * ch.u_mat)
        residual = (delta + sol.phi[:, None]).sum(axis=1)
        assert np.all(np.abs(residual) < 1e-9)

    def test_single_tx_degenerates_to_exact_cophasing(self, scene):
        cfg, ch = cascade_for(scene, 1, 4, 50)
        sol = solve_joint(ch)
        expected = ch.k_norm * np.sum(np.abs(ch.v_mat.sum(axis=0)))
        assert joint_gain(sol, ch) == pytest.approx(expected, rel=1e-12)

    def test_1x1_equals_ris_only(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 30)
        snr = SnrPoint.from_db(10.0)
        c_joint = capacity_from_gain(joint_gain(solve_joint(ch), ch), cfg.n_t, cfg.n_r, snr)
        c_ris = capacity_from_gain(solve_ris_only(ch).b_gain, cfg.n_t, cfg.n_r, snr)
        assert c_joint == pytest.approx(c_ris, abs=1e-9)

    def test_zero_beta_with_ris_only_phases_reduces(self, scene):
        cfg, ch = cascade_for(scene, 8, 4, 50)
        ris = solve_ris_only(ch)
        sol = JointSolution(phi=ris.phi, beta=np.zeros(cfg.n_t))
        snr = SnrPoint.from_db(5.0)
        assert capacity_from_gain(joint_gain(sol, ch), cfg.n_t, cfg.n_r, snr) == pytest.approx(
            capacity_from_gain(ris.b_gain, cfg.n_t, cfg.n_r, snr), abs=1e-9
        )

    def test_all_zero_solution_on_single_element_is_basic(self, scene):
        cfg, ch = cascade_for(scene, 4, 2, 1)
        sol = JointSolution(phi=np.zeros(1), beta=np.zeros(cfg.n_t))
        h = assemble_h(ch, np.zeros(1))
        snr = SnrPoint.from_db(12.0)
        assert capacity_from_gain(joint_gain(sol, ch), cfg.n_t, cfg.n_r, snr) == pytest.approx(
            capacity_from_gain(abs(h.sum()), cfg.n_t, cfg.n_r, snr), abs=1e-12
        )

    def test_zero_column_phase_moves_no_gain(self):
        # element 0's receive column sums to zero, so its gain row is zero
        # and no phase of it moves a bit of the gain
        v = np.array([[1.0 + 0j, 1j], [-1.0 + 0j, 1j]])
        u = np.ones((2, 3), dtype=complex)
        ch = CascadeChannel(u_mat=u, v_mat=v, k_norm=1.0)
        sol = solve_joint(ch)
        assert sol.phi[0] == 0.0
        gain = joint_gain(sol, ch).hex()
        for phase in (0.0, np.pi, -np.pi, -1.0, 0.25, 1e-300, 1e3):
            moved = JointSolution(phi=np.array([phase, sol.phi[1]]), beta=sol.beta)
            assert joint_gain(moved, ch).hex() == gain


class TestCoPhasingMimo:
    def test_gamma_then_alpha_order(self, scene):
        _, ch = cascade_for(scene, 8, 4, 50)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        sol = solve_cophasing_mimo(h)
        # gamma from the raw channel entries, averaged down the columns
        expected_gamma = -principal_angle(h).sum(axis=0) / h.shape[1]
        assert np.allclose(sol.gamma, expected_gamma, atol=1e-12)
        # alpha exactly co-phases the realized row products
        rotated = np.exp(1j * sol.alpha) * (h @ np.exp(1j * sol.gamma))
        assert np.all(np.abs(rotated.imag) <= 1e-9 * np.abs(rotated))

    # gamma sums the angles down the n_r receive rows but divides by n_t, so
    # stacking the rows twice doubles it; on these scenes it moves 0.41-0.47
    # rad. Any per-column mean of the receive rows, arithmetic or phasor,
    # leaves it unchanged.
    @pytest.mark.xfail(strict=True, reason="gamma divides a sum over n_r rows by n_t")
    @pytest.mark.parametrize("heights", [(2.52, 1.06), (2.5, 1.3)])
    def test_gamma_ignores_stacked_receive_rows(self, heights):
        cfg = load_preset("panel_a").scene(*heights)
        ch = build_cascade(build_positions(cfg), cfg)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        gamma = solve_cophasing_mimo(h).gamma
        stacked = solve_cophasing_mimo(np.concatenate([h, h], axis=-2)).gamma
        assert np.max(np.abs(np.exp(1j * stacked) - np.exp(1j * gamma))) <= 1e-12

    def test_single_rx_row(self, scene):
        cfg, ch = cascade_for(scene, 8, 1, 20)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        sol = solve_cophasing_mimo(h)
        expected = abs(np.sum(h[0] * np.exp(1j * sol.gamma)))
        assert cophasing_gain(sol, h) == pytest.approx(expected, rel=1e-12)

    def test_single_tx_column_sums_magnitudes(self, scene):
        cfg, ch = cascade_for(scene, 1, 4, 20)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        sol = solve_cophasing_mimo(h)
        assert cophasing_gain(sol, h) == pytest.approx(
            np.sum(np.abs(h[:, 0])), rel=1e-12
        )

    def test_identity_precoders_reduce_to_basic(self, scene):
        cfg, ch = cascade_for(scene, 4, 3, 10)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        sol = CoPhasingSolution(alpha=np.zeros(cfg.n_r), gamma=np.zeros(cfg.n_t))
        snr = SnrPoint.from_db(10.0)
        assert capacity_from_gain(cophasing_gain(sol, h), cfg.n_t, cfg.n_r, snr) == pytest.approx(
            capacity_from_gain(abs(h.sum()), cfg.n_t, cfg.n_r, snr), abs=1e-12
        )

    def test_1x1_equals_basic(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 10)
        h = assemble_h(ch, np.zeros(ch.n_ris))
        snr = SnrPoint.from_db(10.0)
        sol = solve_cophasing_mimo(h)
        assert capacity_from_gain(cophasing_gain(sol, h), cfg.n_t, cfg.n_r, snr) == pytest.approx(
            capacity_from_gain(abs(h.sum()), cfg.n_t, cfg.n_r, snr), abs=1e-9
        )

    def test_zero_row_product_zero_alpha(self):
        h = np.array([[0.0 + 0j, 0.0 + 0j], [1.0 + 0j, 1.0 + 0j]])
        sol = solve_cophasing_mimo(h)  # first row product is exactly zero
        assert sol.alpha[0] == 0.0
        assert cophasing_gain(sol, h) == pytest.approx(2.0, rel=1e-12)

    def test_mostly_beats_basic_on_random_channels(self):
        # Not a theorem: the transmit averaging can lose to identity
        # precoding on adversarial channels. Observed violation rate 2.2%
        # over this ensemble; bound frozen at 5%.
        rng = np.random.default_rng(42)
        violations = 0
        for _ in range(1000):
            h = np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 8)))
            sol = solve_cophasing_mimo(h)
            if cophasing_gain(sol, h) < abs(h.sum()) - 1e-9:
                violations += 1
        print(f"cophasing-below-basic rate: {violations}/1000")
        assert violations <= 50


class TestCapacityBasic:
    def test_all_ones_channel(self):
        h = np.ones((2, 3), dtype=complex)
        snr = SnrPoint(2.0)
        expected = math.log2(1 + (6.0**2) / 6.0 * 2.0)
        assert capacity_from_gain(abs(h.sum()), 3, 2, snr) == pytest.approx(expected, rel=1e-12)

    def test_cancelled_channel_zero_capacity(self):
        h = np.array([[1.0 + 0j, -1.0 + 0j]])
        assert capacity_from_gain(abs(h.sum()), 2, 1, SnrPoint(100.0)) == 0.0

    def test_unit_system_equals_ris_only(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 1)
        h = assemble_h(ch, np.zeros(1))
        snr = SnrPoint.from_db(7.0)
        assert capacity_from_gain(abs(h.sum()), cfg.n_t, cfg.n_r, snr) == pytest.approx(
            capacity_from_gain(solve_ris_only(ch).b_gain, cfg.n_t, cfg.n_r, snr), abs=1e-9
        )

    def test_ris_only_dominates_basic_per_scene(self, scene):
        # triangle inequality: the co-phased magnitude sum bounds the plain sum
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg, ch = cascade_for(
                scene, 8, 4, 50,
                h_t=float(rng.uniform(2.0, 3.0)), h_r=float(rng.uniform(0.8, 1.8)),
            )
            h0 = assemble_h(ch, np.zeros(cfg.n_ris))
            assert solve_ris_only(ch).b_gain >= abs(h0.sum()) - 1e-9


def stack_channels(*chs):
    return CascadeChannel(
        u_mat=np.stack([ch.u_mat for ch in chs]),
        v_mat=np.stack([ch.v_mat for ch in chs]),
        k_norm=np.array([ch.k_norm for ch in chs]),
    )


class TestBatchAxes:
    "A leading batch axis gives, slice by slice, exactly the single-scene results."

    @pytest.fixture
    def pair(self, scene):
        cfgs = [scene(n_t=8, n_r=4, n_ris=50),
                scene(n_t=8, n_r=4, n_ris=50, h_t=2.34, h_r=1.06)]
        pos = [build_positions(cfg) for cfg in cfgs]
        return cfgs, pos, [build_cascade(p, c) for p, c in zip(pos, cfgs)]

    def test_slices_equal_single_scene_results(self, pair):
        cfgs, pos, chs = pair
        batch = stack_channels(*chs)
        phis = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(2, 50))
        h_batch = assemble_h(batch, phis)
        pos_batch = ScenePositions(**{f.name: np.stack([getattr(p, f.name) for p in pos])
                                      for f in fields(ScenePositions)})
        ris, joint = solve_ris_only(batch), solve_joint(batch)
        cop = solve_cophasing_mimo(h_batch)
        for i, (cfg, p, ch, phi) in enumerate(zip(cfgs, pos, chs, phis)):
            h = assemble_h(ch, phi)
            assert np.array_equal(h_batch[i], h)
            for scheme in ("ris_only", "joint"):
                assert np.array_equal(gain_rows(batch, scheme)[i], gain_rows(ch, scheme))
            k = normalization_constant(cfg, pos_batch.d1[..., 0, 0], pos_batch.d2[..., 0, 0])
            assert k[i] == ch.k_norm
            assert approx_gain(pos_batch, cfg)[i] == approx_gain(p, cfg)
            single = solve_ris_only(ch)
            assert np.array_equal(ris.phi[i], single.phi)
            assert ris.b_gain[i] == single.b_gain
            single = solve_joint(ch)
            assert np.array_equal(joint.phi[i], single.phi)
            assert np.array_equal(joint.beta[i], single.beta)
            assert joint_gain(joint, batch)[i] == joint_gain(single, ch)
            single = solve_cophasing_mimo(h)
            assert np.array_equal(cop.alpha[i], single.alpha)
            assert np.array_equal(cop.gamma[i], single.gamma)
            assert cophasing_gain(cop, h_batch)[i] == cophasing_gain(single, h)

    def test_single_scene_results_stay_scalar(self, pair):
        cfgs, pos, chs = pair
        cfg, p, ch = cfgs[0], pos[0], chs[0]
        h = assemble_h(ch, np.zeros(cfg.n_ris))
        sol = solve_joint(ch)
        for gain in (solve_ris_only(ch).b_gain, joint_gain(sol, ch),
                     cophasing_gain(solve_cophasing_mimo(h), h),
                     approx_gain(p, cfg), normalization_constant(cfg, p.d1[0, 0], p.d2[0, 0])):
            assert type(gain) is float

    def test_degenerate_element_pinned_inside_batch(self):
        # element 0 of the first channel has a zero receive-column sum
        v = np.array([[1.0 + 0j, 1j], [-1.0 + 0j, 1j]])
        u = np.ones((2, 3), dtype=complex)
        flat = CascadeChannel(u_mat=u, v_mat=v, k_norm=1.0)
        other = CascadeChannel(u_mat=u, v_mat=np.full((2, 2), 1j), k_norm=1.0)
        sol = solve_joint(stack_channels(flat, other))
        assert sol.phi[0, 0] == 0.0
        for i, ch in enumerate((flat, other)):
            single = solve_joint(ch)
            assert np.array_equal(sol.phi[i], single.phi)
            assert np.array_equal(sol.beta[i], single.beta)


@st.composite
def phasor_channels(draw):
    """Unit-modulus channels of one scene or a batch, whose last element has
    a zero receive-column sum when there are two receive antennas or more."""
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    n_t, n_r = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    n_ris = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def phasors(*shape):
        return np.exp(1j * rng.uniform(-np.pi, np.pi, size=(*batch, *shape)))
    v = phasors(n_r, n_ris)
    v[..., 0] = 1.0
    if n_r > 1 and n_ris > 1:
        v[..., -1] = 0.0
        v[..., 0, -1], v[..., 1, -1] = 1.0, -1.0
    return CascadeChannel(u_mat=phasors(n_ris, n_t), v_mat=v,
                          k_norm=rng.uniform(0.5, 2.0, size=tuple(batch)))


class TestJointReceiveSums:
    """The joint scheme sums its gain rows at the solved phases: the assembled
    channel's receive sums to rounding, and no channel is assembled."""

    @settings(max_examples=60, deadline=None)
    @given(ch=phasor_channels())
    def test_sums_and_gain_match_the_assembled_channel(self, ch):
        sol, sums = _solve_joint(ch)
        assembled = assemble_h(ch, sol.phi).sum(axis=-2)
        # relative to the largest modulus a receive sum can reach
        scale = np.asarray(ch.k_norm)[..., np.newaxis] * ch.n_r * ch.n_ris
        assert np.all(np.abs(sums - assembled) <= 1e-12 * scale)
        gain = np.abs(np.sum(assembled * np.exp(1j * sol.beta), axis=-1))
        assert np.all(np.abs(joint_gain(sol, ch) - gain) <= 1e-12 * scale[..., 0] * ch.n_t)
        assert np.array_equal(_precoded_sum(*_solve_joint(ch)), joint_gain(sol, ch))

    @settings(max_examples=60, deadline=None)
    @given(ch=phasor_channels(), zeros=st.lists(st.integers(0, 10**6), max_size=6),
           rows=st.lists(st.integers(0, 10**6), max_size=3))
    def test_zero_rows_need_no_mask(self, ch, zeros, rows):
        # zeroed terms, zeroed rows, and first terms that underflow to zero:
        # pinning the phase of every all-zero gain row to 0.0 moves no gain bit
        u, v = ch.u_mat.reshape(-1, ch.n_t), ch.v_mat
        for i in zeros:
            u[i % len(u), i // len(u) % ch.n_t] = 0.0
        for i in rows:
            u[i % len(u)] = 0.0
        u[:, 0] *= 1e-170
        v[..., 0, :] *= 1e-170
        sol, sums = _solve_joint(ch)
        zero = ~gain_rows(ch, "joint").any(axis=-2)
        pinned = JointSolution(phi=np.where(zero, 0.0, sol.phi), beta=sol.beta)
        want = joint_gain(pinned, ch)
        assert np.asarray(_precoded_sum(sol, sums)).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(joint_gain(sol, ch)).tobytes() == np.asarray(want).tobytes()

    def test_joint_calls_assemble_nothing(self, scene):
        _, ch = cascade_for(scene, 4, 3, 12)
        with mock.patch.object(channel, "assemble_h", side_effect=AssertionError):
            _precoded_sum(*_solve_joint(ch))
            joint_gain(solve_joint(ch), ch)
        assert not hasattr(schemes, "assemble_h")


@settings(max_examples=40, deadline=None)
@given(ch=phasor_channels())
def test_sweep_ris_only_gain_is_the_solvers_bit_for_bit(ch):
    # the sweep's gain-only form skips the phases
    sums = ch.u_mat.sum(axis=-1), ch.v_mat.sum(axis=-2)
    got = sim._SCHEME_GAINS["ris_only"](ch, sums, None)
    assert np.array_equal(got, solve_ris_only(ch).b_gain)


@settings(max_examples=40, deadline=None)
@given(ch=phasor_channels(), others=st.integers(0, 3))
def test_sweep_joint_gain_from_column_sums_is_the_solvers_bit_for_bit(ch, others):
    # column sums gathered out of a leg table with other heights in it
    v = ch.v_mat.reshape(-1, ch.n_r, ch.n_ris)
    table = np.concatenate([np.exp(1j * np.arange(others * v[0].size)).reshape(-1, *v[0].shape),
                            v])
    column_sums = table.sum(axis=-2)[others:].reshape(*ch.v_mat.shape[:-2], ch.n_ris)
    got = sim._SCHEME_GAINS["joint"](ch, (None, column_sums), None)
    assert np.array_equal(got, joint_gain(solve_joint(ch), ch))


class TestJointPhasesForm:
    "The joint phases keep the form -mean(principal angle) bit for bit."

    @staticmethod
    def mean_form(ch):
        "The phases as one mean of wrapped angles, built with principal_angle."
        terms = gain_rows(ch, "joint").swapaxes(-1, -2)
        return -principal_angle(terms).mean(axis=-1)

    @settings(max_examples=40, deadline=None)
    @given(ch=phasor_channels())
    def test_equals_negated_mean_of_principal_angles(self, ch):
        # a term at angle -pi, which wraps to pi
        ch.u_mat[..., 0, 0] = complex(-1.0, -0.0)
        assert np.angle(gain_rows(ch, "joint")[..., 0, 0]).flat[0] == -np.pi
        phi = solve_joint(ch).phi
        assert phi.tobytes() == self.mean_form(ch).tobytes()
