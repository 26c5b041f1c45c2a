import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riscap.oracle as oracle_mod
from riscap import (
    QuantizedSearchSpec,
    build_cascade,
    build_positions,
    exhaustive_best,
    joint_gain,
    joint_objective,
    random_restart_best,
    ris_only_objective,
    solve_joint,
    solve_ris_only,
)
from riscap.channel import gain_rows


def cascade_for(scene, n_t, n_r, n_ris, **overrides):
    cfg = scene(n_t=n_t, n_r=n_r, n_ris=n_ris, **overrides)
    return cfg, build_cascade(build_positions(cfg), cfg)


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


class TestSearchSpec:
    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            QuantizedSearchSpec(levels=1)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            QuantizedSearchSpec(levels=4, target="other")

    @pytest.mark.parametrize("field, value", [
        ("levels", 2.5), ("levels", 8.0), ("levels", "8"),
        ("budget", 0), ("budget", 1e6),
    ])
    def test_rejects_non_integer_or_too_small_sizes(self, field, value):
        params = {"levels": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuantizedSearchSpec(**params)

    def test_accepts_numpy_integers(self):
        spec = QuantizedSearchSpec(levels=np.int64(4), budget=np.int32(16))
        assert (spec.levels, spec.budget) == (4, 16)


class TestObjectives:
    @pytest.mark.parametrize("objective", [ris_only_objective, joint_objective])
    @pytest.mark.parametrize("phi", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.0])
    def test_rejects_wrong_phase_shape(self, scene, objective, phi):
        _, ch = cascade_for(scene, 2, 2, 3)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            objective(ch, phi)


class TestExhaustiveBest:
    def test_refuses_over_budget_with_count(self, scene):
        _, ch = cascade_for(scene, 1, 1, 3)
        with pytest.raises(ValueError, match=r"64\^3"):
            exhaustive_best(ch, QuantizedSearchSpec(levels=64, budget=1000))
        with pytest.raises(ValueError, match="262144"):
            exhaustive_best(ch, QuantizedSearchSpec(levels=64, budget=64**3 - 1))
        exhaustive_best(ch, QuantizedSearchSpec(levels=64, budget=64**3))

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
        # Shipped _CHUNK: 16 levels are one block of all four digits, 32
        # levels 32 blocks of three. At 1024 both run blocks of two low
        # digits under two high ones, so the carry crosses high digits.
        _, ch = cascade_for(scene, 3, 2, 4)
        spec = QuantizedSearchSpec(levels=levels, target=target)
        ref_phi, ref_gain = reference_exhaustive(ch, spec, 65536)
        for chunk in (65536, 1024):
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


class TestRandomRestartBest:
    def test_deterministic_repeat(self, scene):
        _, ch = cascade_for(scene, 2, 2, 4)
        first = random_restart_best(ch, "joint", restarts=3, seed=5)
        second = random_restart_best(ch, "joint", restarts=3, seed=5)
        assert first[1] == second[1]
        assert np.array_equal(first[0], second[0])

    def test_rejects_bad_restarts(self, scene):
        _, ch = cascade_for(scene, 1, 1, 2)
        for restarts in (0, 2.5, 4.0):
            with pytest.raises(ValueError, match="restarts must be an integer"):
                random_restart_best(ch, "ris_only", restarts=restarts, seed=0)

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
