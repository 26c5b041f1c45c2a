import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riscap.oracle as oracle_mod
from riscap import (
    QuantizedSearchSpec,
    assemble_h,
    build_cascade,
    build_positions,
    cophasing_gain,
    exhaustive_best,
    joint_gain,
    joint_objective,
    load_preset,
    parse_plan_text,
    random_restart_best,
    ris_only_objective,
    sample_heights,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
)
from riscap import config, sim
from riscap.channel import CascadeChannel, gain_rows

from conftest import GEOMETRY, cascade_for

SHIPPED_CHUNK = oracle_mod._CHUNK

# The benchmark's certification geometry; its scenes take the heights that
# the plan's seed draws for trial 0.
CERTIFY_GEOMETRY = GEOMETRY + "trials = 1\n"


def certify_cascade(n_t, n_r, n_ris, seed):
    "A scene of the benchmark's certification geometry at the seed's heights."
    plan = parse_plan_text(CERTIFY_GEOMETRY + f"n_t = {n_t}\nn_r = {n_r}\n"
                           f"n_ris = {n_ris}\nseed = {seed}\n")
    cfg = plan.scene(*sample_heights(plan, 0))
    return build_cascade(build_positions(cfg), cfg)


# Test-only copies of the earlier per-candidate-exp enumeration and serial
# per-restart ascent, the references the table and batch versions must match.
def reference_exhaustive(ch, spec, chunk):
    n, a_mat = ch.n_ris, ch.k_norm * gain_rows(ch, spec.target)
    grid = 2.0 * np.pi * np.arange(spec.levels) / spec.levels
    strides = spec.levels ** np.arange(n)
    best_gain, best_index = -np.inf, 0
    for start in range(0, spec.levels**n, chunk):
        idx = np.arange(start, min(start + chunk, spec.levels**n))
        digits = (idx[:, np.newaxis] // strides[np.newaxis, :]) % spec.levels
        gains = np.sum(np.abs(np.exp(1j * grid[digits]) @ a_mat.T), axis=1)
        chunk_arg = int(np.argmax(gains))
        if gains[chunk_arg] > best_gain:
            best_gain, best_index = float(gains[chunk_arg]), int(idx[chunk_arg])
    return grid[(best_index // strides) % spec.levels], best_gain


def reference_ascent_gain(a_mat, phi0, tol=1e-12):
    phi = np.array(phi0, dtype=float)
    gain = float(np.sum(np.abs(a_mat @ np.exp(1j * phi))))
    while True:
        improved = 0.0
        sums = a_mat @ np.exp(1j * phi)
        for l in range(a_mat.shape[1]):
            rest = sums - a_mat[:, l] * np.exp(1j * phi[l])
            proposal = -np.angle(np.vdot(rest, a_mat[:, l]))
            candidate = rest + a_mat[:, l] * np.exp(1j * proposal)
            new_gain = float(np.sum(np.abs(candidate)))
            if new_gain > gain:
                improved, gain = max(improved, new_gain - gain), new_gain
                phi[l], sums = proposal, candidate
        if improved <= tol:
            return gain


def reference_batch_ascent(a_mat, phi0, tol=1e-12):
    "The batched ascent that allocates per step, the bits the buffered one keeps."
    phi = np.array(phi0, dtype=float)
    gain = np.sum(np.abs(np.exp(1j * phi) @ a_mat.T), axis=1)
    active = np.ones(phi.shape[0], dtype=bool)
    while active.any():
        improved = np.zeros_like(gain)
        factors = np.exp(1j * phi)
        sums = factors @ a_mat.T
        for l, col in enumerate(a_mat.T):
            rest = sums - factors[:, l, np.newaxis] * col
            z = rest.conj() @ col
            proposal = -np.arctan2(z.imag, z.real)
            candidate = rest + np.exp(1j * proposal)[:, np.newaxis] * col
            new_gain = np.sum(np.abs(candidate), axis=1)
            step = new_gain - gain
            accept = active & (step > 0)
            np.maximum(improved, step, out=improved, where=accept)
            np.copyto(gain, new_gain, where=accept)
            np.copyto(phi[:, l], proposal, where=accept)
            np.copyto(sums, candidate, where=accept[:, np.newaxis])
        active &= improved > tol
    return phi, gain


def assert_same_bits(actual, expected):
    "Equal bit for bit, signed zeros included."
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_ascent_matches_reference(a_mat, starts):
    phi, gain = oracle_mod._coordinate_ascent(a_mat, starts)
    ref_phi, ref_gain = reference_batch_ascent(a_mat, starts)
    assert_same_bits(phi, ref_phi)
    assert_same_bits(gain, ref_gain)


def batch_of_three(ch):
    "Three copies of a scene stacked on a leading batch axis, k_norm kept scalar."
    return CascadeChannel(u_mat=np.stack([ch.u_mat] * 3), v_mat=np.stack([ch.v_mat] * 3),
                          k_norm=ch.k_norm)


class TestSearchSpec:
    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            QuantizedSearchSpec(levels=1)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            QuantizedSearchSpec(levels=4, target="other")

    @pytest.mark.parametrize("field, value", [
        ("levels", 2.5), ("levels", 8.0), ("levels", "8"),
    ])
    def test_rejects_non_integer_or_too_small_sizes(self, field, value):
        params = {"levels": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuantizedSearchSpec(**params)

    def test_accepts_numpy_integers(self):
        assert QuantizedSearchSpec(levels=np.int64(4)).levels == 4


class TestObjectives:
    @pytest.mark.parametrize("objective", [ris_only_objective, joint_objective])
    @pytest.mark.parametrize("phi", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.0])
    def test_rejects_wrong_phase_shape(self, scene, objective, phi):
        _, ch = cascade_for(scene, 2, 2, 3)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            objective(ch, phi)

    @pytest.mark.parametrize("objective", [ris_only_objective, joint_objective])
    def test_rejects_a_batch_naming_its_shape(self, scene, objective):
        # summed over every scene, a batch gave one meaningless float
        _, ch = cascade_for(scene, 2, 2, 3)
        with pytest.raises(ValueError, match=r"batch of shape \(3,\)"):
            objective(batch_of_three(ch), np.zeros(3))
        with pytest.raises(ValueError, match=r"batch of shape \(2,\)"):
            objective(dataclasses.replace(ch, k_norm=np.full(2, ch.k_norm)), np.zeros(3))


class TestExhaustiveBest:
    def test_refuses_over_budget_with_count(self, scene, monkeypatch):
        _, ch = cascade_for(scene, 1, 1, 3)
        spec = QuantizedSearchSpec(levels=64)
        monkeypatch.setattr(oracle_mod, "_BUDGET", 1000)
        with pytest.raises(ValueError, match=r"64\^3 = 262144 candidates \(budget: 1000\)"):
            exhaustive_best(ch, spec)
        monkeypatch.setattr(oracle_mod, "_BUDGET", 64**3 - 1)
        with pytest.raises(ValueError, match="262144"):
            exhaustive_best(ch, spec)
        monkeypatch.setattr(oracle_mod, "_BUDGET", 64**3)
        exhaustive_best(ch, spec)

    def test_rejects_a_batch_naming_its_shape(self, scene):
        _, ch = cascade_for(scene, 2, 2, 3)
        with pytest.raises(ValueError, match=r"batch of shape \(3,\)"):
            exhaustive_best(batch_of_three(ch), QuantizedSearchSpec(levels=4))

    def test_element_count_bounded_by_budget_alone(self, scene):
        # 8^5 = 32768 candidates: five elements fit the default budget
        _, ch = cascade_for(scene, 2, 2, 5)
        phi, best = exhaustive_best(ch, QuantizedSearchSpec(levels=8))
        assert best == pytest.approx(ris_only_objective(ch, phi), rel=1e-12)
        assert best <= solve_ris_only(ch).b_gain + 1e-9

    def test_numpy_integer_levels_counted_without_overflow(self, scene):
        _, ch = cascade_for(scene, 1, 1, 12)
        spec = QuantizedSearchSpec(levels=np.int64(64))
        with pytest.raises(ValueError, match=str(64**12)):
            exhaustive_best(ch, spec)

    def test_single_element_gain_phase_free(self, scene):
        _, ch = cascade_for(scene, 2, 2, 1)
        _, best = exhaustive_best(ch, QuantizedSearchSpec(levels=16))
        assert best == pytest.approx(ris_only_objective(ch, [0.0]), rel=1e-12)

    def test_quantization_loss_bound_1x1(self, scene):
        cfg, ch = cascade_for(scene, 1, 1, 3)
        levels = 64
        _, best = exhaustive_best(ch, QuantizedSearchSpec(levels=levels))
        assert best >= ch.k_norm * cfg.n_ris * math.cos(math.pi / levels)

    def test_sandwich_against_closed_form_2x2x3(self, scene):
        _, ch = cascade_for(scene, 2, 2, 3)
        levels = 64
        phi, best = exhaustive_best(ch, QuantizedSearchSpec(levels=levels))
        closed = solve_ris_only(ch).b_gain
        assert best <= closed + 1e-9
        assert best >= closed * math.cos(math.pi / levels)
        assert ris_only_objective(ch, phi) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_matches_plain_python_enumeration(self, scene, target):
        # independent re-enumeration with itertools at a coarse grid
        _, ch = cascade_for(scene, 2, 2, 3)
        levels = 8
        objective = ris_only_objective if target == "ris_only" else joint_objective
        grid = 2 * math.pi * np.arange(levels) / levels
        expected = max(
            objective(ch, np.array(combo))
            for combo in itertools.product(grid, repeat=3)
        )
        _, best = exhaustive_best(ch, QuantizedSearchSpec(levels=levels, target=target))
        assert best == pytest.approx(expected, rel=1e-12)

    def test_chunked_enumeration_consistent(self, scene, monkeypatch):
        _, ch = cascade_for(scene, 2, 2, 3)
        spec = QuantizedSearchSpec(levels=12)
        phi_full, best_full = exhaustive_best(ch, spec)
        monkeypatch.setattr(oracle_mod, "_CHUNK", 17)
        phi_chunked, best_chunked = exhaustive_best(ch, spec)
        assert best_chunked == best_full
        assert np.array_equal(phi_chunked, phi_full)

    @pytest.mark.parametrize("dims", [(1, 1, 2), (2, 2, 3), (3, 2, 3)])
    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_bit_identical_to_per_candidate_exp(self, scene, monkeypatch, dims, target):
        # The reference runs at the shipped chunk for every patched _CHUNK:
        # NumPy computes a one-row product with another kernel, so a
        # reference chunk of 1 differs in the last bit from any block.
        _, ch = cascade_for(scene, *dims)
        for chunk in (1, 17, 4096, 65536):
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
            for levels in range(2, 13):
                spec = QuantizedSearchSpec(levels=levels, target=target)
                phi, gain = exhaustive_best(ch, spec)
                ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
                assert gain == ref_gain
                assert np.array_equal(phi, ref_phi)

    @pytest.mark.parametrize("levels", [16, 32])
    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_odometer_blocks_bit_identical(self, scene, monkeypatch, levels, target):
        # The slice holds the three fastest digits. Shipped _CHUNK: 16 levels
        # walk it as one block of all three, 32 levels as 32 blocks of two.
        # At 64 both run blocks of one low digit under two high ones, so the
        # carry crosses high digits; at 1 each class verifies in its own table.
        _, ch = cascade_for(scene, 3, 2, 4)
        spec = QuantizedSearchSpec(levels=levels, target=target)
        ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
        for chunk in (SHIPPED_CHUNK, 64, 1):
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
            phi, gain = exhaustive_best(ch, spec)
            assert gain == ref_gain
            assert np.array_equal(phi, ref_phi)

    def test_more_levels_than_chunk_run_as_one_block(self, scene):
        _, ch = cascade_for(scene, 2, 2, 1)
        spec = QuantizedSearchSpec(levels=200_000)
        phi, gain = exhaustive_best(ch, spec)
        ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
        assert gain == ref_gain
        assert np.array_equal(phi, ref_phi)

    def test_eight_gain_rows_match_numpy_sum_to_rounding(self, scene):
        # From 8 rows on NumPy's sum differs from the row-order sum in the
        # last bits (documented in exhaustive_best); here by 2e-16.
        _, ch = cascade_for(scene, 8, 2, 3)
        spec = QuantizedSearchSpec(levels=12, target="joint")
        phi, gain = exhaustive_best(ch, spec)
        _, ref_gain = reference_exhaustive(ch, spec, 65536)
        assert gain == pytest.approx(ref_gain, rel=1e-15)
        assert joint_objective(ch, phi) == pytest.approx(gain, rel=1e-15)

    @pytest.mark.parametrize("zeroed", [0, 3])
    @pytest.mark.parametrize("levels", [4, 8, 12])
    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_exact_tie_returns_lowest_odometer_index(self, scene, zeroed, levels, target):
        # A zero gain-row column leaves its element's phase free: the levels
        # candidates that differ only there tie bit for bit, and their classes
        # all fall in the band. The lowest index sets that element to level 0.
        _, ch = cascade_for(scene, 2, 2, 4)
        v_mat = ch.v_mat.copy()
        v_mat[:, zeroed] = 0.0
        ch = dataclasses.replace(ch, v_mat=v_mat)
        assert not gain_rows(ch, target)[:, zeroed].any()
        spec = QuantizedSearchSpec(levels=levels, target=target)
        phi, gain = exhaustive_best(ch, spec)
        ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
        assert gain == ref_gain
        assert np.array_equal(phi, ref_phi)
        assert phi[zeroed] == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_mirror_class_near_tie_matches_full_grid(self, seed):
        # Real gain rows give a class and its mirror (every phase negated)
        # the same exact gain, and computed gains that differ in the last
        # bits, so the maximizer can be a rotation of a class whose slice
        # gain is below the slice maximum: a band narrower than the rounding
        # bound drops it.
        rng = np.random.default_rng(seed)
        for n_t, n_r, n_ris in ((2, 2, 4), (1, 1, 3), (3, 2, 4)):
            ch = CascadeChannel(u_mat=rng.standard_normal((n_ris, n_t)) + 0j,
                                v_mat=rng.standard_normal((n_r, n_ris)) + 0j, k_norm=1.0)
            for levels in (5, 8, 12):
                for target in oracle_mod.TARGETS:
                    spec = QuantizedSearchSpec(levels=levels, target=target)
                    phi, gain = exhaustive_best(ch, spec)
                    ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
                    assert gain == ref_gain
                    assert np.array_equal(phi, ref_phi)

    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_toy_scene_evaluates_slice_and_one_band_class(self, monkeypatch, target):
        # 32^3 slice rows, then the 32 rotations of the one class in the band
        ch = certify_cascade(2, 2, 4, seed=1)
        gains, rows = oracle_mod._gains, []

        def counted(phases, a_t):
            rows.append(len(phases))
            return gains(phases, a_t)

        monkeypatch.setattr(oracle_mod, "_gains", counted)
        exhaustive_best(ch, QuantizedSearchSpec(levels=32, target=target))
        assert sum(rows) == 32**3 + 32
        assert rows[-1] == 32

    @pytest.mark.parametrize("size", [2, 3, 17, 1000])
    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_row_gain_bits_do_not_depend_on_the_table(self, scene, size, target):
        # The premise of the quotient search: a candidate's gain bits are the
        # same in any table of two or more rows, wherever the row sits.
        _, ch = cascade_for(scene, 3, 2, 4)
        a_t = (ch.k_norm * gain_rows(ch, target)).T
        levels = 8
        factors = np.exp(1j * 2.0 * np.pi * np.arange(levels) / levels)
        digits = np.array(list(itertools.product(range(levels), repeat=4)), dtype=np.intp)
        full = oracle_mod._gains(factors[digits], a_t)
        rng = np.random.default_rng(size)
        for _ in range(20):
            pick = rng.choice(len(digits), size=size, replace=False)
            assert np.array_equal(oracle_mod._gains(factors[digits[pick]], a_t), full[pick])


class TestRandomRestartBest:
    def test_deterministic_repeat(self, scene):
        _, ch = cascade_for(scene, 2, 2, 4)
        first = random_restart_best(ch, "joint", restarts=3, seed=5)
        second = random_restart_best(ch, "joint", restarts=3, seed=5)
        assert first[1] == second[1]
        assert np.array_equal(first[0], second[0])

    def test_rejects_a_batch_naming_its_shape(self, scene):
        _, ch = cascade_for(scene, 2, 2, 3)
        with pytest.raises(ValueError, match=r"batch of shape \(3,\)"):
            random_restart_best(batch_of_three(ch), "joint", restarts=2, seed=0)

    def test_rejects_bad_restarts(self, scene):
        _, ch = cascade_for(scene, 1, 1, 2)
        for restarts in (0, 2.5, 4.0):
            with pytest.raises(ValueError, match="restarts must be an integer"):
                random_restart_best(ch, "ris_only", restarts=restarts, seed=0)

    @pytest.mark.parametrize("target", ["basic", "other"])
    def test_rejects_unknown_target_naming_it(self, scene, target):
        _, ch = cascade_for(scene, 1, 1, 2)
        with pytest.raises(ValueError, match=f"unknown target '{target}'"):
            random_restart_best(ch, target, restarts=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seed_naming_it(self, scene, seed):
        # NumPy's own errors for these name no argument
        _, ch = cascade_for(scene, 1, 1, 2)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            random_restart_best(ch, "ris_only", restarts=1, seed=seed)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_matches_serial_per_restart_ascent(self, scene, seed):
        # the 8x4x50 scene the benchmark certifies, at heights that vary
        # with the seed; batched BLAS may move the last bits only
        _, ch = cascade_for(scene, 8, 4, 50, h_t=2.0 + 0.05 * seed, h_r=0.8 + 0.05 * seed)
        restarts = 8
        for target in ("ris_only", "joint"):
            a_mat = ch.k_norm * gain_rows(ch, target)
            starts = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(restarts, 50))
            expected = max(reference_ascent_gain(a_mat, phi0) for phi0 in starts)
            _, gain = random_restart_best(ch, target, restarts, seed)
            assert gain == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_bit_identical_to_reference_batch_on_certify_scene(self, seed):
        # the benchmark's 8x4x50 scene and restart count; every start's
        # phases and gain, not only the best
        ch = certify_cascade(8, 4, 50, seed)
        starts = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(32, 50))
        for target in oracle_mod.TARGETS:
            assert_ascent_matches_reference(ch.k_norm * gain_rows(ch, target), starts)

    @pytest.mark.parametrize("target", ["ris_only", "joint"])
    def test_bit_identical_to_reference_batch_where_z_is_real(self, target):
        # All-ones steering with one zero element column: gain rows are real
        # or exactly zero, so from phases of 0 and pi every aggregate z has
        # an imaginary part of exactly +-0, its proposals are +-0 or +-pi, and
        # the zero column's proposal is -arctan2(0, 0).
        u_mat = np.ones((5, 3), dtype=complex)
        v_mat = np.ones((2, 5), dtype=complex)
        v_mat[:, 2] = 0.0
        a_mat = gain_rows(CascadeChannel(u_mat=u_mat, v_mat=v_mat, k_norm=1.0), target)
        starts = np.array([[0.0, 0.0, 0.0, 0.0, 0.0],
                           [np.pi, 0.0, -0.0, np.pi, 0.0],
                           [-np.pi, np.pi, 0.0, 0.0, -0.0],
                           [0.0, np.pi, np.pi, -np.pi, np.pi]])
        rng = np.random.default_rng(0)
        starts = np.concatenate([starts, rng.uniform(-np.pi, np.pi, size=(4, 5))])
        assert_ascent_matches_reference(a_mat, starts)
        for restart in starts:  # a single start takes the one-row kernels
            assert_ascent_matches_reference(a_mat, restart[np.newaxis])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ris_only_recovers_closed_form_from_any_start(self, scene, seed):
        # the co-phasing objective has no spurious coordinatewise maxima:
        # a single restart lands on the closed-form optimum
        _, ch = cascade_for(scene, 2, 2, 5)
        closed = solve_ris_only(ch).b_gain
        _, gain = random_restart_best(ch, "ris_only", restarts=1, seed=seed)
        assert gain == pytest.approx(closed, abs=1e-9)

    def test_joint_search_bounds_heuristic_gap(self, scene):
        cfg, ch = cascade_for(scene, 2, 2, 4)
        heuristic = joint_gain(solve_joint(ch), ch)
        _, searched = random_restart_best(ch, "joint", restarts=8, seed=2)
        cap = ch.k_norm * cfg.n_ris * cfg.n_t * cfg.n_r
        assert heuristic <= searched + 1e-9
        assert searched <= cap + 1e-9

    def test_heuristic_and_cap_bounds_on_every_instance(self, scene):
        for dims in ((1, 1, 3), (2, 2, 4), (3, 2, 5), (4, 2, 4)):
            cfg, ch = cascade_for(scene, *dims)
            cap = ch.k_norm * cfg.n_ris * cfg.n_t * cfg.n_r
            heuristic = joint_gain(solve_joint(ch), ch)
            for target in ("ris_only", "joint"):
                _, gain = random_restart_best(ch, target, restarts=4, seed=11)
                assert gain <= cap + 1e-9
                if target == "joint":
                    assert heuristic <= gain + 1e-9

    def test_beats_quantized_exhaustive(self, scene):
        # continuous local search should never fall below the best grid point
        _, ch = cascade_for(scene, 2, 2, 3)
        for target in ("ris_only", "joint"):
            _, grid_best = exhaustive_best(
                ch, QuantizedSearchSpec(levels=16, target=target)
            )
            _, gain = random_restart_best(ch, target, restarts=8, seed=3)
            assert gain >= grid_best - 1e-9


@st.composite
def oracle_cases(draw):
    "Scenes of 1-3 antennas a side and 1-4 elements, a phase vector and a seed."
    n_ris = draw(st.integers(1, 4))
    dims = dict(n_t=draw(st.integers(1, 3)), n_r=draw(st.integers(1, 3)), n_ris=n_ris,
                h_t=draw(st.floats(2.0, 3.0)), h_r=draw(st.floats(0.8, 1.8)))
    phi = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n_ris,
                                 max_size=n_ris)))
    return dims, phi, draw(st.integers(0, 2**32 - 1))


def rotation_slice_best(ch, spec):
    "Best gain over the grid slice where element 0 has phase 0, enumerated whole."
    n, a_mat = ch.n_ris, ch.k_norm * gain_rows(ch, spec.target)
    combos = list(itertools.product(range(spec.levels), repeat=n - 1))
    digits = np.zeros((len(combos), n), dtype=np.intp)
    digits[:, 1:] = np.array(combos, dtype=np.intp).reshape(len(combos), n - 1)
    phases = np.exp(2j * np.pi * digits / spec.levels)
    return float(np.max(np.sum(np.abs(phases @ a_mat.T), axis=1)))


class TestRotationQuotient:
    """Both functionals ignore a common rotation of all RIS phases, and the
    grid is closed under a rotation by one step, so pinning element 0 at
    phase 0 loses no maximum."""

    @settings(max_examples=24, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases(), levels=st.sampled_from([4, 8, 16]))
    def test_slice_with_element_zero_at_phase_zero_holds_the_maximum(self, scene, case,
                                                                      levels):
        dims, _, _ = case
        _, ch = cascade_for(scene, **dims)
        for target in oracle_mod.TARGETS:
            spec = QuantizedSearchSpec(levels=levels, target=target)
            _, best = exhaustive_best(ch, spec)
            assert rotation_slice_best(ch, spec) == pytest.approx(best, rel=1e-14, abs=0)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases(), levels=st.integers(2, 16))
    def test_quotient_search_matches_full_grid_bit_for_bit(self, scene, monkeypatch, case,
                                                           levels):
        dims, _, _ = case
        _, ch = cascade_for(scene, **dims)
        for target in oracle_mod.TARGETS:
            spec = QuantizedSearchSpec(levels=levels, target=target)
            ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
            for chunk in (1, 17, SHIPPED_CHUNK):
                monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
                phi, gain = exhaustive_best(ch, spec)
                assert gain == ref_gain
                assert np.array_equal(phi, ref_phi)


class TestOracleProperties:
    "Invariants of the two gain functionals and the ascent on random scenes."

    ROUNDING = 1e-12

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases())
    def test_functional_bounds(self, scene, case):
        dims, phi, _ = case
        cfg, ch = cascade_for(scene, **dims)
        ris_only = ris_only_objective(ch, phi)
        joint = joint_objective(ch, phi)
        cap = ch.k_norm * cfg.n_ris * cfg.n_t * cfg.n_r
        assert ris_only <= solve_ris_only(ch).b_gain * (1 + self.ROUNDING)
        assert ris_only <= joint * (1 + self.ROUNDING)  # triangle inequality
        assert joint <= cap * (1 + self.ROUNDING)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases(), restarts=st.integers(1, 4))
    def test_ascent_invariants(self, scene, case, restarts):
        dims, _, seed = case
        _, ch = cascade_for(scene, **dims)
        first = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=ch.n_ris)
        objective = {"ris_only": ris_only_objective, "joint": joint_objective}
        for target, fn in objective.items():
            phi, gain = random_restart_best(ch, target, restarts, seed)
            assert gain >= fn(ch, first) * (1 - self.ROUNDING)
            assert gain == pytest.approx(fn(ch, phi), rel=self.ROUNDING)
            if target == "ris_only":
                assert gain == pytest.approx(solve_ris_only(ch).b_gain, rel=1e-9)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=oracle_cases(), restarts=st.integers(1, 4))
    def test_ascent_bit_identical_to_reference_batch(self, scene, case, restarts):
        # covers n_ris = 1 and the one-row ris_only target
        dims, _, seed = case
        _, ch = cascade_for(scene, **dims)
        starts = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(restarts, ch.n_ris))
        for target in oracle_mod.TARGETS:
            assert_ascent_matches_reference(ch.k_norm * gain_rows(ch, target), starts)


def joint_certificate(ch):
    """Search-free bound ``B = k * n_t * sum_l |b_l|`` on every joint gain,
    ``b_l = sum_r V[r, l]``: the joint gain ``k * sum_t |sum_l b_l U[l, t]
    exp(j phi_l)|`` is at most ``k * sum_t sum_l |b_l|`` by the triangle
    inequality, as ``|U[l, t]| = 1``."""
    return ch.k_norm * ch.n_t * np.sum(np.abs(ch.v_mat.sum(axis=-2)), axis=-1)


class TestJointCertificate:
    "B bounds the joint heuristic and the joint ascent, with no search."

    ROUNDING = 1e-12

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_t=st.integers(1, 4), n_r=st.integers(1, 4), n_ris=st.integers(1, 6),
           h_t=st.floats(2.0, 3.0), h_r=st.floats(0.8, 1.8), seed=st.integers(0, 2**32 - 1))
    def test_bounds_the_heuristic_and_the_ascent(self, scene, n_t, n_r, n_ris, h_t, h_r,
                                                  seed):
        _, ch = cascade_for(scene, n_t, n_r, n_ris, h_t=h_t, h_r=h_r)
        bound = joint_certificate(ch) * (1 + self.ROUNDING)
        assert joint_gain(solve_joint(ch), ch) <= bound
        assert random_restart_best(ch, "joint", restarts=4, seed=seed)[1] <= bound

    @pytest.mark.parametrize("preset", config.PRESETS)
    def test_bounds_every_unit_of_a_shipped_preset(self, preset):
        # the sweep's joint gain of each unit against B from the unit's own
        # build_cascade; joint reads a median 0.05-0.08 of B here, and as
        # little as 0.003
        gains, units = sim._plan_gains(load_preset(preset))[0]["joint"], preset_units(preset)
        # the units are the sweep's, in its order
        assert [joint_gain(solve_joint(ch), ch) for ch in units] == gains.tolist()
        assert len(units) == 815
        for gain, ch in zip(gains, units):
            assert 0 < gain <= joint_certificate(ch) * (1 + self.ROUNDING)


def preset_units(preset):
    """The cascade of each unit of a shipped preset's sweep, through the
    public calls: the distinct (h_t, h_r) pairs its trials draw, in the
    sweep's order, which is that of their grid indices."""
    plan = load_preset(preset)
    pairs = sorted({sample_heights(plan, trial) for trial in range(plan.trials)})
    return [build_cascade(build_positions(cfg), cfg)
            for cfg in itertools.starmap(plan.scene, pairs)]


def cophasing_certificate(h):
    """Search-free bound ``sum_{r,t} |h[r, t]|`` on every gain ``|r^T H t|``
    of unit-modulus ``r`` and ``t`` on the channel ``h``, by the triangle
    inequality: the cophasing benchmark's, the basic one's and the ascent's."""
    return np.sum(np.abs(h), axis=(-2, -1))


def cophasing_ascent(h, steps=100):
    """``|r^T H t|`` after ``steps`` alternating steps from ``t = 1``: each
    co-phases the receive phases with ``H t``, then the transmit phases
    with ``r^T H``, and neither lowers the gain."""
    t = np.ones(h.shape[-1])
    for _ in range(steps):
        r = np.exp(-1j * np.angle(np.einsum("...rt,...t->...r", h, t)))
        t = np.exp(-1j * np.angle(np.einsum("...r,...rt->...t", r, h)))
    return np.abs(np.einsum("...r,...rt,...t->...", r, h, t))


class TestCophasingCertificate:
    "The bound holds for the cophasing and basic benchmarks and the ascent, with no search."

    ROUNDING = 1e-12

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_t=st.integers(1, 4), n_r=st.integers(1, 4), n_ris=st.integers(1, 6),
           h_t=st.floats(2.0, 3.0), h_r=st.floats(0.8, 1.8), seed=st.integers(0, 2**32 - 1))
    def test_bounds_the_benchmarks_and_the_ascent(self, scene, n_t, n_r, n_ris, h_t, h_r,
                                                   seed):
        _, ch = cascade_for(scene, n_t, n_r, n_ris, h_t=h_t, h_r=h_r)
        random = np.random.default_rng(seed).uniform(-np.pi, np.pi, n_ris)
        for h in (assemble_h(ch, np.zeros(n_ris)), assemble_h(ch, random)):
            bound = cophasing_certificate(h) * (1 + self.ROUNDING)
            assert cophasing_gain(solve_cophasing_mimo(h), h) <= bound
            assert abs(h.sum()) <= bound
            assert cophasing_ascent(h) <= bound

    @pytest.mark.parametrize("preset", config.PRESETS)
    def test_bounds_every_unit_of_a_shipped_preset(self, preset):
        # each unit's channel at the presets' zero benchmark phases; cophasing
        # reads a median 0.07-0.20 of the bound here, and as little as 0.0004,
        # and the ascent a median 1.0000, and at least 0.984
        h = np.array([assemble_h(ch, np.zeros(ch.n_ris)) for ch in preset_units(preset)])
        bound = cophasing_certificate(h) * (1 + self.ROUNDING)
        for gain in (cophasing_gain(solve_cophasing_mimo(h), h), np.abs(h.sum(axis=(-2, -1))),
                     cophasing_ascent(h)):
            assert np.all((0 < gain) & (gain <= bound))
