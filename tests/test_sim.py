import gc
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import ExitStack, contextmanager
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riscap import (
    ResultRow,
    ResultTable,
    SnrPoint,
    approx_gain,
    assemble_h,
    build_cascade,
    build_positions,
    capacity_from_gain,
    cophasing_gain,
    joint_gain,
    load_preset,
    run_plan,
    sample_heights,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
    trial_gains,
    write_csv,
)
from riscap import approx, channel, schemes, sim
from riscap._stream import TrialStreams
from riscap.geometry import Leg
from riscap.schemes import basic_gain
from riscap.sim import SCHEMES, grid_points

from conftest import geometry_plan
from goldens import GOLDEN, golden_plan


def tiny_plan(**overrides):
    "The reference geometry's one-antenna, one-element plan at its nominal heights alone."
    params = dict(h_t_grid=(2.5, 2.5, 0.02), h_r_grid=(1.3, 1.3, 0.02),
                  snr_db=(0.0,), trials=1, seed=0, schemes=("basic",))
    return geometry_plan(**{**params, **overrides})


class TestHeightGrid:
    def test_default_grids_have_51_values(self):
        assert grid_points(2.0, 3.0, 0.02) == grid_points(0.8, 1.8, 0.02) == 51
        plan = load_preset("panel_a")
        assert sim._heights(plan, 0, 0) == (2.0, 0.8)
        assert sim._heights(plan, 50, 50) == pytest.approx((3.0, 1.8), abs=1e-12)

    def test_rejects_non_dividing_step(self):
        # 1.0000001e-9 over [0, 4] is 4e-5 steps off a whole count
        for spec in [(2.0, 3.0, 0.03), (0.0, 4.0, 1.0000001e-9)]:
            with pytest.raises(ValueError, match="divide"):
                grid_points(*spec)

    @pytest.mark.parametrize("spec, count", [
        ((2.0, 3.0, 1e-8), 100_000_001), ((0.5, 0.6, 1e-8), 10_000_001),
        ((2.0, 3.0, 1e-9), 1_000_000_001), ((2.0, 3.0 - 2.0**-32, 2.0**-32), 2**32),
    ])
    def test_fine_grids_that_divide_their_range(self, spec, count):
        # (hi - lo) / step is 1.9e-9 steps off 1e7 and 1.2e-7 off 1e9 on the
        # two decimal grids: rounding at the count's scale, not a remainder
        assert grid_points(*spec) == count

    @pytest.mark.parametrize("spec, message", [
        ((2.0, 3.0, 0.0), "positive"), ((3.0, 2.0, 0.02), "empty"),
        # 1e-9 steps off a whole count of 0, which would draw every trial at lo
        ((2.0, 3.0, 1e9), "larger than the range"),
    ])
    def test_rejects_bad_step_or_range(self, spec, message):
        with pytest.raises(ValueError, match=message):
            grid_points(*spec)

    def test_single_point_grid(self):
        assert grid_points(1.3, 1.3, 0.02) == 1
        assert sim._heights(tiny_plan(), 0, 0) == (2.5, 1.3)

    @pytest.mark.parametrize("h_t_grid, h_r_grid", [
        ((2.0, 3.0, 0.02), (0.8, 1.8, 0.02)), ((2.0, 3.0, 0.0001), (0.8, 1.8, 0.0001)),
        ((2.5, 2.5, 0.02), (1.3, 1.3, 0.02)), ((2.0, 2.2, 0.01), (0.75, 1.8, 0.05)),
        ((0.1, 0.7, 0.003), (1.0, 2.0, 2.0**-20)),
    ])
    def test_heights_are_the_built_grid_bit_for_bit(self, h_t_grid, h_r_grid):
        "Heights at drawn indices, as arrays or ints, are lo + step * np.arange(n) there."
        plan = tiny_plan(h_t_grid=h_t_grid, h_r_grid=h_r_grid)
        grids = [lo + step * np.arange(n)
                 for (lo, _, step), n in zip((h_t_grid, h_r_grid), sim._grid_sizes(plan))]
        rng = np.random.default_rng(3)
        t, r = (np.append(rng.integers(len(grid), size=200), len(grid) - 1) for grid in grids)
        for got, grid, i in zip(sim._heights(plan, t, r), grids, (t, r)):
            assert got.tobytes() == grid[i].tobytes()
        for i, j in zip(t.tolist(), r.tolist()):
            assert sim._heights(plan, i, j) == (grids[0][i], grids[1][j])

    @pytest.mark.parametrize("spec", [
        (math.nan, 3.0, 0.02), (2.0, math.inf, 0.02), (-math.inf, 3.0, 0.02),
        (2.0, 3.0, math.nan), (2.0, 3.0, math.inf),
    ])
    def test_rejects_non_finite_bound_or_step(self, spec):
        with pytest.raises(ValueError, match="finite"):
            grid_points(*spec)

    @pytest.mark.parametrize("spec", [
        (2.0, 3.0, 1e-12), (0.0, 2.0**40, 1.0), (0.0, 2.0**32 - 0.5, 1.0),
        (-1e308, 1e308, 1.0), (0.0, 1.0, 1e-320),
    ])
    def test_refuses_more_than_2_to_the_32_points(self, spec):
        # past 2**32 points NumPy's integers(n) draws 64-bit words, which the
        # stream twin does not reproduce; refused before any allocation.
        # Every spec here, the one just past 2**32 points too, would fail
        # to allocate or fail to divide without the check, never build.
        with pytest.raises(ValueError, match=r"more than 2\*\*32 points"):
            grid_points(*spec)


class TestPlanValidation:
    def test_rejects_bad_trials_and_seed(self):
        with pytest.raises(ValueError, match="trials"):
            tiny_plan(trials=0)
        with pytest.raises(ValueError, match="seed"):
            tiny_plan(seed=-1)
        # floats (even whole ones), bools and strings are not counts
        for field, bad in [("seed", 1.5), ("seed", 3.0), ("seed", True), ("seed", "1"),
                           ("trials", 2.5), ("trials", 3.0), ("trials", True)]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                replace(tiny_plan(), **{field: bad})

    def test_accepts_numpy_integers(self):
        plan = tiny_plan(h_t_grid=(2.5, 2.6, 0.02), schemes=SCHEMES)
        numpy_ints = replace(plan, seed=np.uint32(7), trials=np.int64(3))
        assert run_plan(numpy_ints).rows == run_plan(replace(plan, seed=7, trials=3)).rows

    def test_rejects_unknown_or_duplicate_schemes(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            tiny_plan(schemes=("basic", "mystery"))
        with pytest.raises(ValueError, match="duplicate"):
            tiny_plan(schemes=("basic", "basic"))

    def test_rejects_bad_benchmark_mode(self):
        with pytest.raises(ValueError, match="benchmark_ris_phase"):
            tiny_plan(benchmark_ris_phase="fixed")

    def test_rejects_empty_snr_grid(self):
        with pytest.raises(ValueError, match="snr_db"):
            tiny_plan(snr_db=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -4000.0, 4000.0])
    def test_rejects_snr_without_finite_positive_linear_value(self, bad):
        # -4000 dB underflows to a linear SNR of 0 and 4000 dB overflows
        with pytest.raises(ValueError, match="snr_db"):
            tiny_plan(snr_db=(0.0, bad))

    @pytest.mark.parametrize("key, spec, message", [
        ("h_r_grid", (0.8, 1.8, 0.03), "does not divide"),
        ("h_t_grid", (2.0, 3.0, math.nan), "finite"),
        ("h_t_grid", (2.0, 3.0, 1e-12), "2\\*\\*32"),
        ("h_r_grid", (1.8, 0.8, 0.02), "empty"),
    ])
    def test_grid_errors_name_the_grid(self, key, spec, message):
        with pytest.raises(ValueError, match=f"^{key}: .*{message}"):
            tiny_plan(**{key: spec})

    @pytest.mark.parametrize("field", ["wavelength", "s_t", "s_r", "s_ris", "d_wall", "d_ris"])
    def test_rejects_infinite_lengths_naming_them(self, field):
        # one transmit antenna: an infinite s_t then reached _unit_order's
        # round(s_t / step) and raised a bare OverflowError
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            replace(load_preset("panel_a"), n_t=1, trials=3, **{field: math.inf})

    def test_rejects_geometry_invalid_at_grid_floor(self):
        # the lowest receive height would sink the array into the floor
        with pytest.raises(ValueError, match="floor"):
            tiny_plan(n_r=32, h_r_grid=(0.02, 1.8, 0.02))


# (lo, hi, step) of the 2**32-point transmit and receive grids, exact in binary
LIMIT_GRIDS = dict(h_t_grid=(2.0, 3.0 - 2.0**-32, 2.0**-32),
                   h_r_grid=(1.0, 2.0 - 2.0**-32, 2.0**-32))


class TestPlanGrids:
    "A grid is its (lo, hi, step): a plan builds no heights, only the drawn ones exist."

    def test_plan_holds_only_its_fields(self):
        plan = replace(load_preset("panel_a"), **LIMIT_GRIDS)
        assert vars(plan).keys() == {field.name for field in fields(plan)}
        assert sim._grid_sizes(plan) == (2**32, 2**32)

    def test_validating_million_point_grids_stays_small(self):
        # the two built grids alone would take 16 MB; building them peaked
        # at 22.95 MB traced
        tracemalloc.start()
        try:
            plan = tiny_plan(h_t_grid=(2.0, 3.0, 1e-6), h_r_grid=(1.0, 2.0, 1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim._grid_sizes(plan) == (1_000_001, 1_000_001)
        assert peak < 1 << 20

    def test_replace_revalidates_grids(self):
        plan = replace(load_preset("panel_a"), h_t_grid=(2.0, 2.1, 0.02))
        assert sim._grid_sizes(plan) == (6, 51)
        with pytest.raises(ValueError, match="^h_t_grid: .*does not divide"):
            replace(plan, h_t_grid=(2.0, 2.1, 0.03))

    def test_2_to_the_32_point_sweep_matches_trial_gains(self):
        # Pair codes t * n_r + r reach up to 2**64 - 1 here: 19 of the 40
        # trials draw t >= 2**31, whose int64 codes wrap and decode wrongly.
        plan = replace(load_preset("panel_a"), seed=1, trials=40, **LIMIT_GRIDS)
        assert (sweep_streams(plan).indices[:, 0] >= 2**31).sum() == 19
        table = run_plan(plan)
        assert table.metadata["distinct_pairs"] == 40
        assert table.rows == reference_rows(plan)


class TestSampleHeights:
    def test_deterministic_per_trial(self):
        plan = load_preset("panel_a")
        assert sample_heights(plan, 7) == sample_heights(plan, 7)

    def test_values_on_grid(self):
        plan = load_preset("panel_a")
        h_t_grid, h_r_grid = (set(np.round(lo + step * np.arange(n), 9)) for (lo, _, step), n
                              in zip((plan.h_t_grid, plan.h_r_grid), sim._grid_sizes(plan)))
        for i in range(200):
            h_t, h_r = sample_heights(plan, i)
            assert round(h_t, 9) in h_t_grid
            assert round(h_r, 9) in h_r_grid

    def test_trials_differ(self):
        plan = load_preset("panel_a")
        pairs = {sample_heights(plan, i) for i in range(50)}
        assert len(pairs) > 25

    def test_empirical_mean_of_h_t(self):
        # uniform over [2, 3] in 2 cm steps: std 0.289, so the mean of 1e5
        # draws lies within 2.5 +/- 0.003 at the 3-sigma level
        plan = load_preset("panel_a")
        draws = np.array([sample_heights(plan, i)[0] for i in range(100_000)])
        assert abs(draws.mean() - 2.5) < 0.003

    @pytest.mark.parametrize("bad", [True, 1.5, -1])
    def test_rejects_bad_trial_index_naming_it(self, bad):
        plan = load_preset("panel_a")
        for call in (sample_heights, trial_gains):
            with pytest.raises(ValueError, match="trial_index must be an integer"):
                call(plan, bad)

    def test_only_trial_gains_stops_below_the_twins_uint64_trials(self):
        # the stream twin holds trial indices as uint64; a trial's own
        # generator takes any non-negative index
        plan = load_preset("panel_a")
        with pytest.raises(ValueError, match="trial_index must be an integer >= 0 and below"):
            trial_gains(plan, 2**64)
        assert set(trial_gains(plan, 2**64 - 1)) == set(plan.schemes)
        _, (indices,) = numpy_streams(plan.seed, [2**64], sim._grid_sizes(plan))
        assert sample_heights(plan, 2**64) == sim._heights(plan, *indices)


def replay_trial(plan, trial):
    """Gains of one trial from the single-scene public calls.

    Random benchmark phases are replayed from the trial's own stream: the
    draws right after its two grid indices.
    """
    cfg = plan.scene(*sample_heights(plan, trial))
    pos = build_positions(cfg)
    ch = build_cascade(pos, cfg)
    phi = np.zeros(plan.n_ris)
    if plan.benchmark_ris_phase == "random":
        (rng,), _ = numpy_streams(plan.seed, [trial], sim._grid_sizes(plan))
        phi = rng.uniform(-np.pi, np.pi, size=plan.n_ris)
    return scene_gains(cfg, pos, ch, phi)


def scene_gains(cfg, pos, ch, phi):
    "Every scheme's gain of one scene's channel ``ch`` at benchmark RIS phases ``phi``."
    h = assemble_h(ch, phi)
    return {
        "basic": basic_gain(h),
        "cophasing": cophasing_gain(solve_cophasing_mimo(h), h),
        "joint": joint_gain(solve_joint(ch), ch),
        "ris_only": solve_ris_only(ch).b_gain,
        "ris_only_approx": approx_gain(pos, cfg),
    }


def numpy_streams(seed, trials, sizes):
    """Each trial's own NumPy generator ``default_rng(SeedSequence((seed,
    trial)))`` right after its grid draws ``integers(size)`` for each point
    count of ``sizes``, and those draws, the ``(len(trials), 2)`` grid
    indices. The generators draw the benchmark phases next."""
    rngs, indices = [], []
    for trial in trials:
        rngs.append(np.random.default_rng(np.random.SeedSequence((seed, int(trial)))))
        indices.append([int(rngs[-1].integers(size)) for size in sizes])
    return rngs, np.array(indices, dtype=np.int64).reshape(-1, 2)


def reference_rows(plan, gains=None):
    """run_plan's rows reduced from per-trial ``gains``, by default each
    trial's ``trial_gains``, whose draws come from each trial's own NumPy
    generator. Unless random phases are read, the units are the grid pairs
    NumPy drew: every trial of a pair must have its gains bit for bit, and
    the pair counts its trials."""
    if gains is None:
        gains = [trial_gains(plan, trial) for trial in range(plan.trials)]
        gains = {scheme: np.array([g[scheme] for g in gains]) for scheme in plan.schemes}
    if sim._reads_phases(plan):
        return per_snr_rows(plan, gains, np.ones(plan.trials, dtype=np.int64))
    _, indices = numpy_streams(plan.seed, range(plan.trials), sim._grid_sizes(plan))
    inverse, counts = trial_units(indices)
    first = np.unique(inverse, return_index=True)[1]
    units = {scheme: values[first] for scheme, values in gains.items()}
    for scheme, values in gains.items():
        assert values.tobytes() == units[scheme][inverse].tobytes(), scheme
    return per_snr_rows(plan, units, counts)


def sweep_streams(plan):
    "The stream twin of all of a plan's trials."
    return TrialStreams(plan.seed, np.arange(plan.trials), sim._grid_sizes(plan))


def trial_units(indices):
    """Each trial's unit among the distinct grid pairs of ``indices``, in
    pair-code order, and each unit's trial count."""
    _, inverse, counts = np.unique(indices, axis=0, return_inverse=True, return_counts=True)
    return inverse.ravel(), counts


def fine_plan(seed):
    "Plan with 10001-point height grids (0.1 mm steps)."
    return tiny_plan(h_t_grid=(2.0, 3.0, 0.0001), h_r_grid=(0.8, 1.8, 0.0001),
                     seed=seed, schemes=SCHEMES)


# Grids up to the 2**32-point limit. At 2**31 + 1 points Lemire's threshold
# 2**32 % size is 2**31 - 1, so about half the draws are rejections: that
# size goes only into comparisons of all rows, not the flag-count bound.
grid_sizes = st.one_of(st.just(1), st.integers(1, 10**4), st.sampled_from([2**32 - 1, 2**32]))
all_row_sizes = st.one_of(grid_sizes, st.just(2**31 + 1))


class TestStreamTwin:
    "The array-code twin of the per-trial stream against NumPy's generators."

    @settings(max_examples=100, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
           first=st.one_of(st.just(2**32 - 20), st.integers(0, 2**32 - 20)),
           sizes=st.tuples(grid_sizes, grid_sizes))
    def test_unflagged_rows_match_numpy(self, seed, first, sizes):
        trials = np.arange(first, first + 20)
        streams = TrialStreams(seed, trials, sizes)
        indices, flagged = streams.indices, streams.flagged
        _, expected = numpy_streams(seed, trials, sizes)
        np.testing.assert_array_equal(indices[~flagged], expected[~flagged])
        # one-word entropy flags only Lemire rejections, about size/2^32
        assert flagged.sum() <= 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
           first=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 5, 2**40)),
           sizes=st.tuples(all_row_sizes, all_row_sizes))
    def test_sweep_indices_match_numpy(self, seed, first, sizes):
        trials = np.arange(first, first + 10)
        np.testing.assert_array_equal(TrialStreams(seed, trials, sizes).indices,
                                      numpy_streams(seed, trials, sizes)[1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64)),
           first=st.integers(0, 2**32 - 6), n_ris=st.integers(1, 300),
           sizes=st.tuples(grid_sizes, grid_sizes))
    @example(seed=1, first=609287, n_ris=5, sizes=(10001, 10001))
    def test_benchmark_phases_match_numpy(self, seed, first, n_ris, sizes):
        trials = np.arange(first, first + 6)
        streams = TrialStreams(seed, trials, sizes)
        rows = np.array([5, 0, 3, 1])
        phases = streams.phases(rows, n_ris, np.random.default_rng(0))
        rngs, _ = numpy_streams(seed, trials[rows], sizes)
        for values, row, rng in zip(phases, rows, rngs):
            assert streams.state(row) == rng.bit_generator.state
            assert values.tobytes() == rng.uniform(-np.pi, np.pi, n_ris).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.sampled_from([1, 12345, 2**32 - 1, 2**32]),
                          st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
           others=st.lists(st.integers(0, 2**40), max_size=6),
           n_ris=st.integers(1, 40), data=st.data())
    def test_trial_sets_with_lemire_rows_match_numpy(self, seed, others, n_ris, data):
        # 609287 is a Lemire rejection at seed 1 and 236055 at seed 12345
        trials = np.array(others + [609287, 236055], dtype=np.uint64)
        sizes = (10001, 10001)
        streams = TrialStreams(seed, trials, sizes)
        if seed in (1, 12345):
            assert streams.flagged[len(others) + (seed == 12345)]
        rows = np.array(data.draw(st.permutations(range(len(trials)))))
        phases = streams.phases(rows, n_ris, np.random.default_rng(0))
        rngs, indices = numpy_streams(seed, trials[rows], sizes)
        np.testing.assert_array_equal(streams.indices[rows], indices)
        for values, rng in zip(phases, rngs):
            assert values.tobytes() == rng.uniform(-np.pi, np.pi, n_ris).tobytes()
        assert streams.phases(rows, n_ris, np.random.default_rng(0)).tobytes() == phases.tobytes()

    def test_threads_drawing_disjoint_rows_match_serial_draws(self):
        # a generator shared between calls took one thread's row state for
        # another's draws, so each call has its own; long rows keep each draw
        # out of the GIL while the other threads run, and there are more
        # threads than most hosts' CPUs
        streams = TrialStreams(1, np.arange(400), (10001, 10001))
        parts = np.arange(400).reshape(4, 100)

        def phases(rows):
            return streams.phases(rows, 4096, np.random.default_rng(0)).tobytes()
        serial = [phases(rows) for rows in parts]
        start, same = threading.Barrier(len(parts), timeout=10), [None] * len(parts)

        def draw(part):
            start.wait()
            same[part] = phases(parts[part]) == serial[part]
        # switching threads every microsecond interleaves the calls' rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                others = [threading.Thread(target=draw, args=(part,))
                          for part in range(1, len(parts))]
                for other in others:
                    other.start()
                draw(0)
                for other in others:
                    other.join(10)
                    assert not other.is_alive()
                assert same == [True] * len(parts)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size, flagged", [(2**32, 0), (2**32 - 1, 0), (2**31 + 1, 145)])
    def test_grid_limit_sizes_match_numpy(self, size, flagged):
        # 200 trials of grids at and near the 2**32-point limit
        trials = np.arange(200)
        streams = TrialStreams(1, trials, (size, size))
        assert streams.flagged.sum() == flagged
        np.testing.assert_array_equal(streams.indices, numpy_streams(1, trials, (size, size))[1])

    @pytest.mark.parametrize("seed, trial", [(1, 609287), (12345, 236055)])
    def test_lemire_rejection_falls_back(self, seed, trial):
        sizes = (10001, 10001)
        streams = TrialStreams(seed, [trial], sizes)
        # numpy draws again here, so the twin's own draw would be wrong
        assert streams.flagged.tolist() == [True]
        np.testing.assert_array_equal(streams.indices, numpy_streams(seed, [trial], sizes)[1])
        assert trial_gains(fine_plan(seed), trial) == replay_trial(fine_plan(seed), trial)

    @pytest.mark.parametrize("panel, seed, mode", [
        ("panel_a", 12345, "zero"), ("panel_d", 12345, "zero"),
        # a wide seed draws every trial through the fallback; with random
        # phases the units are trials, whose phases come from either
        ("panel_a", 2**32 + 7, "zero"), ("panel_a", 12345, "random"),
        ("panel_a", 2**32 + 7, "random"),
    ])
    def test_sweep_matches_reference_draws(self, panel, seed, mode):
        plan = replace(load_preset(panel), trials=60, seed=seed, benchmark_ris_phase=mode)
        assert sweep_streams(plan).flagged.all() == (seed >= 2**32)
        assert run_plan(plan).rows == reference_rows(plan)


class TestTrialGains:
    def test_contains_requested_schemes_only(self):
        plan = replace(load_preset("panel_a"), schemes=("basic", "joint"), trials=1)
        gains = trial_gains(plan, 0)
        assert set(gains) == {"basic", "joint"}

    def test_deterministic(self):
        plan = replace(load_preset("panel_a"), trials=1)
        assert trial_gains(plan, 3) == trial_gains(plan, 3)

    def test_matches_public_call_replay(self):
        plan = replace(load_preset("panel_a"), benchmark_ris_phase="zero")
        for trial in range(10):
            assert trial_gains(plan, trial) == replay_trial(plan, trial)

    @pytest.mark.parametrize("seed, trial", [(1, 609287), (2**32 + 7, 3), (1, 2**40 + 3)])
    def test_random_phase_twin_fallback_rows_match_public_call_replay(self, seed, trial):
        # rows the stream twin flags and NumPy draws: 609287 is a Lemire
        # rejection at seed 1 on the 0.1 mm grids, and seeds and trial
        # indices of 2**32 or more need more than one-word entropy
        plan = replace(fine_plan(seed), n_ris=8, benchmark_ris_phase="random")
        assert TrialStreams(seed, [trial], sim._grid_sizes(plan)).flagged.tolist() == [True]
        assert trial_gains(plan, trial) == replay_trial(plan, trial)

    def test_random_benchmark_mode_deterministic_and_different(self):
        plan = replace(load_preset("panel_a"), benchmark_ris_phase="random")
        zero_plan = load_preset("panel_a")
        g_rand = trial_gains(plan, 0)
        assert g_rand == trial_gains(plan, 0)
        # same trial heights, different benchmark channel
        assert g_rand["basic"] != trial_gains(zero_plan, 0)["basic"]
        assert g_rand["ris_only"] == trial_gains(zero_plan, 0)["ris_only"]


class TestBenchmarkLaziness:
    "The benchmark channel and its phases are made only for the schemes that read them."

    @pytest.mark.parametrize("mode", ["zero", "random"])
    @pytest.mark.parametrize("schemes", [("joint", "ris_only", "ris_only_approx"), ("basic",),
                                         ("cophasing", "joint")])
    def test_sweep_assembles_once_per_block_only_for_benchmark_schemes(self, mode, schemes):
        plan = replace(load_preset("panel_a"), trials=200, schemes=schemes,
                       benchmark_ris_phase=mode)
        benchmark = bool({"basic", "cophasing"} & set(schemes))
        drawn, draw = [], TrialStreams.phases

        def phases(streams, rows, count, rng):
            drawn.append(len(rows))
            return draw(streams, rows, count, rng)
        with mock.patch.object(sim, "assemble_h", wraps=sim.assemble_h) as assemble, \
                mock.patch.object(TrialStreams, "phases", phases):
            blocks = run_plan(plan).metadata["work"]["blocks"]
        assert blocks >= 2
        assert assemble.call_count == (blocks if benchmark else 0)
        random = benchmark and mode == "random"
        assert len(drawn) == (blocks if random else 0)

    def test_joint_only_sweep_assembles_no_channel(self):
        plan = replace(load_preset("panel_a"), trials=200, schemes=("joint",))
        with mock.patch.object(sim, "assemble_h", side_effect=AssertionError), \
                mock.patch.object(channel, "assemble_h", side_effect=AssertionError):
            assert run_plan(plan).metadata["work"]["blocks"] >= 2
            assert trial_gains(plan, 3).keys() == {"joint"}
        assert not hasattr(schemes, "assemble_h")

    @pytest.mark.parametrize("schemes, drawn", [
        (("joint", "ris_only", "ris_only_approx"), False),
        (("basic",), True),
    ])
    def test_random_trial_draws_phases_only_for_benchmark_schemes(self, schemes, drawn):
        plan = replace(load_preset("panel_a"), schemes=schemes, benchmark_ris_phase="random")
        with mock.patch.object(TrialStreams, "phases", autospec=True,
                               side_effect=TrialStreams.phases) as phases, \
                mock.patch.object(sim, "assemble_h", wraps=sim.assemble_h) as assemble:
            trial_gains(plan, 5)
        assert assemble.call_count == phases.call_count == (1 if drawn else 0)


@st.composite
def small_plans(draw):
    """Plans of 1-8 antennas and elements, both modes, and 1-5-point height
    grids, or up to 13 points at a fifth of the antenna spacing, which orders
    units by residue."""
    def grid(lo):
        step = draw(st.sampled_from([0.0005, 0.01, 0.02, 0.05]))
        return (lo, lo + step * draw(st.integers(0, 12 if step < 0.01 else 4)), step)

    return tiny_plan(
        n_t=draw(st.integers(1, 8)), n_r=draw(st.integers(1, 8)),
        n_ris=draw(st.integers(1, 8)),
        h_t_grid=grid(draw(st.sampled_from([2.0, 2.5]))),
        h_r_grid=grid(draw(st.sampled_from([0.8, 1.3]))),
        snr_db=(0.0, 10.0), trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32 - 1)), schemes=SCHEMES,
        benchmark_ris_phase=draw(st.sampled_from(["zero", "random"])),
    )


def cache_form(form):
    """Forces every leg's steering to ``form``, "table" or "carried"."""
    return mock.patch.object(sim, "_table_fits", lambda leg, count: form == "table")


def cpus(count):
    """Makes the sweep engine see ``count`` CPUs and a BLAS that runs each
    call on one thread, and so run up to ``count`` runs."""
    return mock.patch.object(sim, "_threads", return_value=count)


def budget(nbytes):
    "Sets the bytes a block's arrays may hold, ``_BLOCK_BYTES``, to ``nbytes``."
    return mock.patch.object(sim, "_BLOCK_BYTES", nbytes)


@contextmanager
def threads_started():
    "Counts the threads constructed, the runs past a sweep's first."
    with mock.patch("threading.Thread", wraps=threading.Thread) as spy:
        yield spy


def trial_unit_gains(plan):
    "Gain arrays and ``_Work`` record of a sweep that solves every trial as its own unit."
    streams = sweep_streams(plan)
    random = plan.benchmark_ris_phase == "random"
    return sim._sweep_gains(plan, streams.indices, streams if random else None)


def wide_plan(trials, seed=1, **fields):
    "The benchmark's wide sweep: the wide golden scene, random phases, at one SNR point."
    return replace(golden_plan("wide_random_50.csv"), trials=trials, seed=seed, snr_db=(0.0,),
                   **fields)


def unit_indices(plan):
    """The (h_t, h_r) grid indices of a sweep's units: every trial's when a
    requested benchmark scheme reads random phases, else each distinct pair's."""
    indices = sweep_streams(plan).indices
    return indices if sim._reads_phases(plan) else np.unique(indices, axis=0)


def element_heights(plan, indices):
    """Each leg's element heights z = h + offset of the arrays at grid
    ``indices`` in the documented unit order: by grid index, first by the
    transmit index modulo the antenna spacing in grid steps when that is whole."""
    keys, steps = [indices[:, 1], indices[:, 0]], plan.s_t / plan.h_t_grid[2]
    if round(steps) > 1 and abs(steps - round(steps)) <= 1e-9:
        keys.append(indices[:, 0] % round(steps))
    ordered = indices[np.lexsort(keys)].T
    return [(lo + step * i)[:, np.newaxis] + (np.arange(1, n + 1) - (n + 1) / 2.0) * spacing
            for (lo, _, step), i, n, spacing in zip((plan.h_t_grid, plan.h_r_grid), ordered,
                                                    (plan.n_t, plan.n_r), (plan.s_t, plan.s_r))]


def reference_leg_rows(z, size, firsts):
    """Rows a leg builds and takes for element heights ``z``, one row of them
    per unit, in blocks of ``size``: each block takes the distinct heights
    that it and the block before it in its run both hold and builds the
    others, and runs start at the units ``firsts``."""
    built, taken, held = 0, 0, np.array([])
    for start in range(0, len(z), size):
        if start in firsts:
            held = np.array([])
        distinct = np.unique(z[start:start + size])
        shared = len(np.intersect1d(distinct, held))
        built += len(distinct) - shared
        taken += shared
        held = distinct
    return built, taken


def reference_row_counts(plan, indices, runs=1, size=None):
    """Rows a sweep of carried legs builds and takes per leg, as ``[built,
    taken]``, from its documented rule: units in ``element_heights``' order,
    in blocks of ``size`` (by default the budget's), the blocks cut into
    ``runs`` runs of near-equal block counts, each as ``reference_leg_rows``."""
    size = size or sim._BLOCK_BYTES // sim._unit_bytes(plan)
    blocks = math.ceil(len(indices) / size)
    firsts = {size * (blocks * run // min(runs, blocks)) for run in range(runs)}
    counts = [reference_leg_rows(z, size, firsts) for z in element_heights(plan, indices)]
    return [list(side) for side in zip(*counts)]


@settings(max_examples=40, deadline=None)
@given(plan=small_plans(), block_trials=st.integers(1, 5), runs=st.integers(1, 3))
@example(plan=tiny_plan(trials=12, schemes=SCHEMES), block_trials=1, runs=1)
@example(plan=tiny_plan(h_t_grid=(2.0, 2.08, 0.02), schemes=SCHEMES), block_trials=1, runs=1)
# arrays a spacing apart in each block: a block holds each taken height at
# two elements, and takes its row once
@example(plan=tiny_plan(h_t_grid=(2.0, 2.006, 0.0005), n_t=8, trials=12, schemes=SCHEMES),
         block_trials=2, runs=2)
def check_every_trial_matches_single_scene_calls(plan, block_trials, runs, form):
    with cache_form(form), cpus(runs), budget(block_trials * sim._unit_bytes(plan)):
        gains, work = trial_unit_gains(plan)
        assert trial_gains(plan, plan.trials - 1) == replay_trial(plan, plan.trials - 1)
    for trial in range(plan.trials):
        got = {scheme: float(gains[scheme][trial]) for scheme in SCHEMES}
        assert got == replay_trial(plan, trial)
    # each leg builds as many rows as the rule says: a table one per
    # distinct element height, carried rows those the block before lacked
    indices = sweep_streams(plan).indices
    assert work.forms == [form, form]
    if form == "table":
        assert work.runs == 1
        assert work.built == [len(np.unique(z)) for z in element_heights(plan, indices)]
    else:
        assert work.runs == min(runs, math.ceil(plan.trials / block_trials))
        assert [work.built, work.taken] == reference_row_counts(plan, indices, runs, block_trials)


class TestBlockEngine:
    "The block engine against the single-scene calls, for any block size."

    def test_every_trial_matches_single_scene_calls(self):
        # the property reaches both forms of the row cache
        for form in ("table", "carried"):
            check_every_trial_matches_single_scene_calls(form=form)

    @pytest.mark.parametrize("panel", ["panel_a", "panel_d"])
    def test_leg_tables_do_not_change_the_table(self, panel):
        # 60 trials against 51-point grids: the shipped sweeps build both
        # legs' rows as a sweep table, and so do the goldens. Forced forms,
        # and one-unit blocks at 40 trials, give the same rows.
        plan = replace(load_preset(panel), trials=60)
        chosen = run_plan(plan)
        assert chosen.metadata["work"]["forms"] == ["table", "table"]
        for form in ("table", "carried"):
            with cache_form(form):
                assert run_plan(plan).rows == chosen.rows, form
        plan = replace(plan, trials=40)
        with budget(1):
            one_unit = run_plan(plan)
        assert one_unit.rows == run_plan(plan).rows


# Every function whose result the sweep shares with the single-scene calls,
# by the class or module that defines it.
SHARED = [(Leg, "rows"), (Leg, "toward"), (channel, "steering"),
          (channel, "normalization_constant"), (approx, "array_factor"),
          (approx, "factor_gain"), (channel, "gain_rows"), (channel, "principal_angle"),
          (channel, "assemble_h"), (schemes, "_receive_sums"), (schemes, "_precoded_sum"),
          (schemes, "solve_cophasing_mimo"), (schemes, "cophasing_gain"),
          (schemes, "basic_gain")]


def scaled(value):
    "``value`` times 1 + 2**-30, field by field for a solution dataclass."
    if is_dataclass(value):
        return replace(value, **{f.name: scaled(getattr(value, f.name)) for f in fields(value)})
    return value * (1 + 2**-30)


def bindings(function):
    "Each (module, name) of riscap's modules and the test modules that holds ``function``."
    here = Path(__file__).parent
    modules = [module for module in list(sys.modules.values())
               if getattr(module, "__name__", "").split(".")[0] == "riscap"
               or Path(getattr(module, "__file__", None) or "/").parent == here]
    return [(module, key) for module in modules
            for key, value in vars(module).items() if value is function]


@contextmanager
def wrapped(owner, name, around):
    """Replaces ``owner.name`` by ``around(owner.name)`` at every binding of
    it: a class's attribute, or each of the function's ``bindings``, as test
    modules import some functions by name."""
    original = getattr(owner, name)
    with ExitStack() as stack:
        for module, key in [(owner, name)] if isinstance(owner, type) else bindings(original):
            stack.enter_context(mock.patch.object(module, key, around(original)))
        yield


def perturbed(owner, name):
    "Scales the results of ``owner.name`` by 1 + 2**-30 at every binding of it."
    return wrapped(owner, name, lambda original: lambda *args, **kwargs: scaled(
        original(*args, **kwargs)))


class TestOneSource:
    """Each unit's gain is the single-scene calls' by construction: a change to
    any function they share moves both alike."""

    # 3 and 2 antennas, so the array factors read the direction cosines, and
    # arrays 5 grid steps apart share element heights
    PLAN = tiny_plan(n_t=3, n_r=2, n_ris=4, h_t_grid=(2.0, 2.006, 0.0005),
                     h_r_grid=(0.8, 0.9, 0.05), trials=8, schemes=SCHEMES,
                     benchmark_ris_phase="random")

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("form", ["table", "carried"])
    @pytest.mark.parametrize("owner, name", SHARED,
                             ids=[f"{owner.__name__.split('.')[-1]}.{name}" for owner, name in SHARED])
    def test_perturbed_function_moves_sweep_and_single_scene_calls_alike(self, owner, name,
                                                                          form, count):
        plan = self.PLAN
        with cache_form(form), cpus(count), budget(2 * sim._unit_bytes(plan)):
            before = trial_unit_gains(plan)[0]
            with perturbed(owner, name):
                gains, work = trial_unit_gains(plan)
                replays = [replay_trial(plan, trial) for trial in range(plan.trials)]
        assert work.forms == [form, form]
        assert work.runs == (count if form == "carried" else 1)
        assert any(gains[scheme].tobytes() != before[scheme].tobytes() for scheme in SCHEMES)
        for scheme in SCHEMES:
            want = np.array([replay[scheme] for replay in replays])
            assert gains[scheme].tobytes() == want.tobytes(), scheme


class TestRowCache:
    """Each distinct steering row is built once per sweep, or once per
    stretch of blocks that hold it within a run."""

    def test_panel_d_builds_each_distinct_row_once(self):
        # seed 1: 829 distinct pairs; per-height blocks built 1440 transmit
        # rows, and at 512 KiB of steering per block 52 blocks ran. Each
        # leg's table is laid out for its 51 distinct heights.
        table = run_plan(replace(load_preset("panel_d"), seed=1))
        assert table.metadata["distinct_pairs"] == 829
        assert table.metadata["work"] == {"built": [496, 204], "taken": [80, 0], "blocks": 40,
                                          "units": 829, "runs": 1, "forms": ["table", "table"],
                                          "factors": [54, 163]}
        json.dumps(table.metadata)

    @pytest.mark.parametrize("seed, runs", [(1, 1), (7, 1), (1, 2)])
    def test_wide_blocks_build_rows_the_block_before_lacked(self, seed, runs):
        # seed 1 built 32000 transmit and 16000 receive rows with one row per
        # unit and antenna, and at 512 KiB of steering per block 500 blocks
        # ran; a second run's first block holds no rows from the block before
        plan = wide_plan(1000, seed)
        with cpus(runs):
            work = run_plan(plan).metadata["work"]
        assert work["forms"] == ["carried", "carried"]
        assert (work["runs"], work["blocks"], work["units"]) == (runs, 250, 1000)
        counts = [work["built"], work["taken"]]
        assert counts == reference_row_counts(plan, unit_indices(plan), runs)
        if seed == 1:
            assert counts == {1: [[14464, 15919], [5515, 81]], 2: [[14489, 15919], [5490, 81]]}[runs]

    def test_carried_rows_match_the_reference_when_solved(self):
        # 25 grid steps per antenna spacing on a 201-point grid: residue
        # classes of a few units each share most transmit rows
        plan = wide_plan(100, h_t_grid=(2.0, 2.02, 0.0001))
        with cpus(1):
            carried = run_plan(plan)
        work = carried.metadata["work"]
        assert work["forms"] == ["carried", "carried"]
        assert [work["built"], work["taken"]] == reference_row_counts(plan, unit_indices(plan))
        assert work["built"][0] < 32 * plan.trials // 2
        with cache_form("table"):
            assert run_plan(plan).rows == carried.rows

    def test_fine_table_builds_each_distinct_row_once(self):
        # 0.1 mm steps against a 2.5 mm antenna spacing: arrays up to 175
        # steps apart share a row, so blocks of 4 heights built 1056
        # transmit rows
        plan = golden_plan("panel_a_fine_tx_200.csv")
        work = run_plan(plan).metadata["work"]
        assert work["forms"] == ["table", "table"]
        z = element_heights(plan, unit_indices(plan))[0]
        assert work["built"][0] == len(np.unique(z)) == 520

    @pytest.mark.parametrize("ratio", [25.0, 0.125, 1.0, 2.5])
    def test_residue_order_needs_whole_grid_steps(self, ratio):
        # carried blocks of 2 pairs on a 101-point transmit grid: which rows
        # a block takes follows the unit order, residues first only when the
        # antenna spacing is a whole number of grid steps
        plan = tiny_plan(n_t=4, h_t_grid=(2.0, 2.01, 0.0001), s_t=0.0001 * ratio, trials=40,
                         schemes=("ris_only",))
        with cache_form("carried"), cpus(1), budget(2 * sim._unit_bytes(plan)):
            work = run_plan(plan).metadata["work"]
        assert [work["built"], work["taken"]] == \
            reference_row_counts(plan, unit_indices(plan), size=2)

    @pytest.mark.parametrize("n_ris, want", [
        # against a budget of 1835008 bytes, 496 transmit rows of 140 or 141
        # elements take 1.67-1.68 MB to build, and laid out for 51 heights
        # 1827840 bytes at 140 elements and 1840896 at 141
        (140, ["table", "table"]), (141, ["carried", "table"]),
    ], ids=["panel_d_140", "panel_d_141"])
    def test_laid_out_tables_take_the_block_budget(self, n_ris, want):
        plan = replace(load_preset("panel_d"), seed=1, n_ris=n_ris)
        assert run_plan(plan).metadata["work"]["forms"] == want

    def test_approximation_evaluates_each_chunks_distinct_heights_once(self):
        # panel_d at seed 1: 829 pair units on 51-point grids, in chunks of
        # whole blocks; per unit, both legs would take 1658 heights
        work = run_plan(replace(load_preset("panel_d"), seed=1)).metadata["work"]
        assert work["factors"] == [54, 163] and sum(work["factors"]) < 2 * 829

    def test_approximation_alone_builds_no_steering(self):
        # its gains come from the array factors before any block runs
        plan = replace(load_preset("panel_d"), seed=1)
        approx_only = run_plan(replace(plan, schemes=("ris_only_approx",)))
        assert approx_only.metadata["work"] == {"built": [0, 0], "taken": [0, 0], "blocks": 0,
                                                "units": 829, "runs": 1, "forms": [],
                                                "factors": [54, 163]}
        assert approx_only.rows == tuple(row for row in run_plan(plan).rows
                                         if row.scheme == "ris_only_approx")


class TestBlockMemory:
    """A block's arrays, with the rows carried into it, stay within
    _BLOCK_BYTES, counted at _unit_bytes per unit, in each run; at one
    CPU the sweep is one run, whose blocks peak one at a time."""

    @staticmethod
    def isolated_sweep(plan, peaks):
        """The work record of a traced ``run_plan`` on ``plan``, whose
        readings, put in ``peaks``, do not depend on what ran before in the
        process.

        Objects that come out of a cache or free list are allocated untraced,
        and objects put back into one stay traced, so a reading depends on
        how full those were when the sweep began, by up to a few KB.
        An untraced sweep first fills the caches that NumPy and the
        interpreter fill on first use (a ufunc's dispatch table for a new
        dtype pairing, interned names), and its readings are dropped.
        ``gc.collect()`` then empties the interpreter's free lists (tuples,
        floats, lists, dicts), and NumPy's caches of freed shape buffers, up
        to 7 per dimension count, are filled.
        """
        run_plan(plan)
        peaks.clear()
        gc.collect()
        [np.empty((1,) * ndim) for ndim in range(1, 8) for _ in range(8)]
        tracemalloc.start()
        try:
            return run_plan(plan).metadata["work"]
        finally:
            tracemalloc.stop()

    def block_peaks(self, plan):
        """The units and traced peak of each block of ``plan`` on one run,
        measured from the first block's start, over the block's row build
        and its solve, so that the rows a block carries into the next count
        against the next; and the sweep's work record."""
        start, peaks = [0], []
        block_gains = sim._block_gains

        def spy(*args):
            if not peaks:
                start[0] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gains = block_gains(*args)
            peaks.append((len(next(iter(gains.values()))),
                          tracemalloc.get_traced_memory()[1] - start[0]))
            return gains
        with cpus(1), mock.patch.object(sim, "_block_gains", spy):
            work = self.isolated_sweep(plan, peaks)
        return peaks, work

    def leg_build_peaks(self, plan):
        """The traced peak of each leg's ``_leg_blocks`` call on ``plan``, and
        the form each leg took."""
        peaks, leg_blocks = [], sim._leg_blocks

        def spy(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            blocks = leg_blocks(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return blocks
        with mock.patch.object(sim, "_leg_blocks", spy):
            return peaks, self.isolated_sweep(plan, peaks)["forms"]

    @pytest.mark.parametrize("shape", ["panel_d", "wide_fine", "wide_carried"])
    def test_block_peaks_within_budget(self, shape):
        # panel_d runs grid pairs from sweep tables; the wide sweeps run
        # trials with random benchmark phases from carried rows, and on a
        # 201-point grid blocks carry many of them
        plan = {"panel_d": replace(load_preset("panel_d"), trials=60),
                "wide_fine": wide_plan(12),
                "wide_carried": wide_plan(40, h_t_grid=(2.0, 2.02, 0.0001))}[shape]
        peaks, work = self.block_peaks(plan)
        units = work["units"] if shape == "panel_d" else plan.trials
        unit_bytes = sim._unit_bytes(plan)
        per_block = sim._BLOCK_BYTES // unit_bytes
        full, rest = divmod(units, per_block)
        assert [n for n, _ in peaks] == [per_block] * full + [rest] * (rest > 0)
        assert work["blocks"] == len(peaks) >= 3
        # panel_d and wide_fine gather every block from tables, whose builds
        # take rows from the block before only on panel_d's 2 cm grid; the
        # blocks of wide_carried take rows from the block before
        assert work["forms"] == ["carried" if shape == "wide_carried" else "table"] * 2
        assert (work["taken"][0] > 0) == (shape != "wide_fine")
        for n, peak in peaks:
            assert peak <= n * unit_bytes <= sim._BLOCK_BYTES

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: a short last block peaks with "
                       "the steering of the full block before it")
    def test_short_last_block_peaks_within_its_units(self):
        # 42 carried trials in blocks of 4: the last block's 2 units peak at
        # about 1.07 MB traced against 901,120 B
        plan = wide_plan(42)
        peaks, _ = self.block_peaks(plan)
        assert [n for n, _ in peaks] == [4] * 10 + [2]
        n, peak = peaks[-1]
        assert peak <= n * sim._unit_bytes(plan)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: _unit_bytes leaves out a block's "
                       "fixed cost, which one-unit blocks do not absorb")
    def test_one_unit_blocks_peak_within_a_unit(self):
        # 12 trials at a one-unit budget peak at about 540 KB traced against
        # 450,560 B
        plan = wide_plan(12)
        unit_bytes = sim._unit_bytes(plan)
        with budget(unit_bytes):
            peaks, _ = self.block_peaks(plan)
        assert [n for n, _ in peaks] == [1] * 12
        assert max(peak for _, peak in peaks) <= unit_bytes

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: _unit_bytes leaves out a block's "
                       "fixed cost, which the one-unit last block of a shipped preset does "
                       "not absorb")
    def test_shipped_last_block_peaks_within_its_units(self):
        # panel_b as shipped runs 815 grid pairs in blocks of 74: its 1-unit
        # last block peaks at about 28 KB traced against 24,768 B
        plan = load_preset("panel_b")
        peaks, work = self.block_peaks(plan)
        assert work["units"] == 815
        assert [n for n, _ in peaks] == [74] * 11 + [1]
        n, peak = peaks[-1]
        assert peak <= n * sim._unit_bytes(plan)

    def test_tabled_leg_builds_within_the_budget(self):
        # a tabled leg's build holds its table and one block of heights; a
        # row table for the whole sweep held beside the layout took 2.56 MB
        # traced on panel_d's transmit leg
        peaks, forms = self.leg_build_peaks(replace(load_preset("panel_d"), seed=1))
        assert forms == ["table", "table"]
        assert peaks[0] <= sim._BLOCK_BYTES

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: blocks that span most of a "
                       "table's heights build above one budget")
    def test_fine_table_builds_within_the_budget(self):
        # the fine golden plan's transmit table build peaks at about 1.98 MB
        # traced against 1,835,008 B
        peaks, forms = self.leg_build_peaks(golden_plan("panel_a_fine_tx_200.csv"))
        assert forms == ["table", "table"]
        assert peaks[0] <= sim._BLOCK_BYTES


class TestRuns:
    """A sweep with a leg that builds its rows per block runs as contiguous
    runs of the unit order, one per CPU and no more than its blocks; a
    fully tabled sweep runs on this thread alone."""

    @pytest.mark.parametrize("plan", [
        # 60 wide units in 15 blocks; 277 panel_d grid pairs in 14 blocks of 21
        replace(wide_plan(60), benchmark_ris_phase="zero"), wide_plan(60),
        replace(load_preset("panel_d"), trials=300),
    ], ids=["wide_zero", "wide_random", "panel_d"])
    def test_csv_bytes_for_any_cpu_count(self, plan, tmp_path):
        # tabled legs run on this thread alone
        with cache_form("table"), threads_started() as threads:
            write_csv(run_plan(plan), tmp_path / "table.csv")
        assert threads.call_count == 0
        for count in (1, 2, 3, 8):
            with cpus(count), cache_form("carried"), threads_started() as threads:
                table = run_plan(plan)
            write_csv(table, tmp_path / f"{count}.csv")
            assert table.metadata["work"]["forms"] == ["carried", "carried"]
            assert threads.call_count == count - 1
            assert (tmp_path / f"{count}.csv").read_bytes() == \
                (tmp_path / "table.csv").read_bytes(), count

    @pytest.mark.parametrize("blas, started", [(1, 4), (2, 0), (None, 0)])
    def test_runs_only_where_blas_runs_each_call_on_one_thread(self, blas, started):
        # 8 CPUs and 20 trials in 5 blocks: the transmit leg builds its rows
        # per block, with one builder per run, and the receive leg is tabled,
        # so there are no more runs than blocks. A BLAS that threads its
        # calls itself, or one that cannot be asked, keeps the sweep on one run
        with mock.patch.object(sim, "_blas_threads", return_value=blas), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(range(8)),
                                  create=True), \
                threads_started() as threads:
            work = run_plan(wide_plan(20)).metadata["work"]
        assert work["forms"] == ["carried", "table"]
        assert threads.call_count == work["runs"] - 1 == started
        assert (work["blocks"], work["units"]) == (5, 20)

    @pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                        ["blas"]["name"], reason="NumPy's BLAS is not OpenBLAS")
    @pytest.mark.parametrize("count", [1, 2])
    def test_blas_threads_reads_the_loaded_openblas(self, count):
        if count > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS runs on no more threads than CPUs")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(count),
                   PYTHONPATH=str(Path(sim.__file__).parent.parent))
        out = subprocess.run([sys.executable, "-c", "from riscap import sim; print(sim._blas_threads())"],
                             check=True, capture_output=True, text=True, env=env).stdout
        assert out.strip() == str(count)

    def test_tabled_sweep_starts_no_thread(self):
        plan = replace(load_preset("panel_d"), seed=1)
        with cpus(8), mock.patch("threading.Thread", side_effect=AssertionError):
            work = run_plan(plan).metadata["work"]
        assert work["forms"] == ["table", "table"] and work["runs"] == 1

    def test_error_in_a_later_run_propagates_once_every_run_ends(self):
        # 40 trials in 10 blocks over 3 runs of 3, 3 and 4 blocks; the later
        # runs fail once this thread's run has solved its blocks
        plan = wide_plan(40)
        main, block_gains, solved = threading.get_ident(), sim._block_gains, []
        ended = threading.Event()

        def failing(*args):
            if threading.get_ident() != main:
                ended.wait(10)
                raise RuntimeError("block failed")
            solved.append(block_gains(*args))
            if len(solved) == 3:
                ended.set()
            return solved[-1]
        before = threading.active_count()
        with cpus(3), threads_started() as threads, \
                mock.patch.object(sim, "_block_gains", failing), \
                pytest.raises(RuntimeError, match="block failed"):
            run_plan(plan)
        assert threads.call_count == 2
        assert threading.active_count() == before


class TestPairUnits:
    "Sweeps solve each distinct grid pair once unless random phases are read."

    @settings(max_examples=40, deadline=None)
    @given(plan=small_plans(),
           schemes=st.lists(st.sampled_from(SCHEMES), unique=True, min_size=1))
    def test_pair_gains_equal_trial_gains(self, plan, schemes):
        # in blocks of one unit, and of every unit at once
        plan = replace(plan, schemes=tuple(schemes))
        want = reference_rows(plan, trial_unit_gains(plan)[0])
        with budget(1):
            assert run_plan(plan).rows == want
        with budget(plan.trials * sim._unit_bytes(plan)):
            assert run_plan(plan).rows == want

    @pytest.mark.parametrize("mode, schemes, unit", [
        ("zero", SCHEMES, "pairs"),
        ("random", ("joint", "ris_only", "ris_only_approx"), "pairs"),
        ("random", SCHEMES, "trials"),
        ("random", ("basic",), "trials"),
        ("random", ("cophasing",), "trials"),
    ])
    def test_unit_kind(self, mode, schemes, unit):
        plan = replace(load_preset("panel_a"), trials=200, schemes=schemes,
                       benchmark_ris_phase=mode)
        table = run_plan(plan)
        distinct = len({sample_heights(plan, trial) for trial in range(plan.trials)})
        assert table.metadata["distinct_pairs"] == distinct < plan.trials
        assert table.metadata["work"]["units"] == (distinct if unit == "pairs" else plan.trials)

    @pytest.mark.parametrize("mode", ["zero", "random"])
    def test_pair_units_draw_no_per_trial_stream(self, mode):
        # one generator state per trial would be set only to go unread
        plan = replace(load_preset("panel_d"), trials=100, benchmark_ris_phase=mode,
                       schemes=SCHEMES if mode == "zero" else ("joint", "ris_only"))
        with mock.patch.object(TrialStreams, "phases", side_effect=AssertionError), \
                mock.patch.object(sim, "trial_stream", side_effect=AssertionError):
            run_plan(plan)


class TestGainProperties:
    "Single-scene gains of every scheme on random small scenes and heights."

    ROUNDING = 1e-12

    @settings(max_examples=60, deadline=None)
    @given(plan=small_plans(), h_t=st.floats(2.0, 3.0), h_r=st.floats(0.8, 1.8))
    def test_every_scheme_within_coherent_cap(self, plan, h_t, h_r):
        plan = replace(plan, h_t_grid=(h_t, h_t, 0.01), h_r_grid=(h_r, h_r, 0.01))
        cfg = plan.scene(h_t, h_r)
        k_norm = build_cascade(build_positions(cfg), cfg).k_norm
        cap = k_norm * plan.n_ris * plan.n_t * plan.n_r
        for scheme, gain in replay_trial(plan, 0).items():
            assert 0.0 <= gain <= cap * (1 + self.ROUNDING), scheme


def rotated_legs(ch, theta_u, theta_v):
    "The channel with its transmit and receive steering rotated by exp(j*theta) each."
    return replace(ch, u_mat=ch.u_mat * np.exp(1j * theta_u),
                   v_mat=ch.v_mat * np.exp(1j * theta_v))


class TestGaugeInvariance:
    """A common phase on one leg's steering is only the carrier's phase
    reference, so no scheme's gain may depend on it."""

    # relative to the coherent cap k*n_ris*n_t*n_r: a gain that cancels to
    # near zero keeps no relative digits
    ROUNDING = 1e-12

    @settings(max_examples=60, deadline=None)
    @given(plan=small_plans(), h_t=st.floats(2.0, 3.0), h_r=st.floats(0.8, 1.8),
           theta_u=st.floats(-math.pi, math.pi), theta_v=st.floats(-math.pi, math.pi),
           seed=st.integers(0, 2**32 - 1))
    def test_phase_free_schemes_ignore_a_common_leg_phase(self, plan, h_t, h_r, theta_u,
                                                           theta_v, seed):
        cfg = plan.scene(h_t, h_r)
        pos = build_positions(cfg)
        ch = build_cascade(pos, cfg)
        phi = np.zeros(plan.n_ris)
        if plan.benchmark_ris_phase == "random":
            phi = np.random.default_rng(seed).uniform(-np.pi, np.pi, plan.n_ris)
        gains = scene_gains(cfg, pos, ch, phi)
        moved = scene_gains(cfg, pos, rotated_legs(ch, theta_u, theta_v), phi)
        cap = ch.k_norm * plan.n_ris * plan.n_t * plan.n_r
        for scheme in ("basic", "ris_only", "ris_only_approx"):
            assert abs(moved[scheme] - gains[scheme]) <= self.ROUNDING * cap, scheme

    # Global co-phasing averages term angles cut at +-pi, so a common leg
    # phase moves which angles wrap. On this panel_a scene the joint gain
    # moves by 28-72% and the co-phasing gain by 9-124% at these angles.
    @pytest.mark.xfail(strict=True, reason="global co-phasing takes the arithmetic mean "
                       "of wrapped angles, which a common leg phase moves")
    @pytest.mark.parametrize("scheme", ["joint", "cophasing"])
    @pytest.mark.parametrize("leg", ["u_mat", "v_mat"])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 3.0])
    def test_cophasing_schemes_ignore_a_common_leg_phase(self, scheme, leg, theta):
        cfg = load_preset("panel_a").scene(2.52, 1.06)
        pos = build_positions(cfg)
        ch = build_cascade(pos, cfg)
        phi = np.zeros(cfg.n_ris)
        thetas = (theta, 0.0) if leg == "u_mat" else (0.0, theta)
        moved = scene_gains(cfg, pos, rotated_legs(ch, *thetas), phi)[scheme]
        gain = scene_gains(cfg, pos, ch, phi)[scheme]
        cap = ch.k_norm * cfg.n_ris * cfg.n_t * cfg.n_r
        assert abs(moved - gain) <= self.ROUNDING * cap


class TestRunPlan:
    def test_unit_scene_single_trial(self):
        table = run_plan(tiny_plan())
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.scheme == "basic"
        assert row.snr_db == 0.0
        assert row.mean_capacity_bits == pytest.approx(1.0, abs=1e-9)
        assert row.stderr_bits == 0.0
        assert row.trials == 1

    def test_repeat_runs_identical(self):
        plan = replace(load_preset("panel_a"), trials=50)
        assert run_plan(plan) == run_plan(plan)

    def test_rejects_worker_count_below_one(self):
        with pytest.raises(ValueError, match="workers"):
            run_plan(tiny_plan(), workers=0)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_rejects_non_integer_worker_count(self, bad):
        with pytest.raises(ValueError, match="workers"):
            run_plan(tiny_plan(), workers=bad)

    def test_worker_count_does_not_change_rows(self):
        plan = replace(load_preset("panel_a"), trials=64)
        assert run_plan(plan, workers=1).rows == run_plan(plan, workers=8).rows

    def test_row_count_is_schemes_times_snrs(self):
        plan = replace(load_preset("panel_a"), trials=5)
        table = run_plan(plan)
        assert len(table.rows) == 5 * 7

    def test_rows_sorted(self):
        plan = replace(load_preset("panel_a"), trials=5)
        keys = [(r.scheme, r.snr_db) for r in run_plan(plan).rows]
        assert keys == sorted(keys)

    def test_stderr_shrinks_with_trials(self):
        base = replace(load_preset("panel_a"), n_ris=25, snr_db=(10.0,),
                       schemes=("ris_only",))
        small = run_plan(replace(base, trials=1000)).rows[0].stderr_bits
        large = run_plan(replace(base, trials=4000)).rows[0].stderr_bits
        assert large <= 0.6 * small

    def test_means_within_theoretical_cap(self):
        plan = replace(load_preset("panel_a"), trials=100)
        # k factorizes over heights: the first-element legs depend on one
        # height each, so the maximum is attained at the grid corners
        x1 = plan.d_ris - (plan.n_ris - 1) / 2 * plan.s_ris
        y1_t = plan.h_t_grid[0] - (plan.n_t - 1) / 2 * plan.s_t
        y1_r = plan.h_r_grid[0] - (plan.n_r - 1) / 2 * plan.s_r
        d1c = math.hypot(1.3, 2.5)
        d2c = math.hypot(2.5, 2.5)
        k_max = (d1c * d2c) / (
            math.hypot(plan.d_wall - x1, y1_r) * math.hypot(x1, y1_t)
        )
        g_max = k_max * plan.n_ris * plan.n_t * plan.n_r
        for row in run_plan(plan).rows:
            rho = 10 ** (row.snr_db / 10)
            cap = math.log2(1 + g_max**2 / (plan.n_t * plan.n_r) * rho)
            assert 0.0 <= row.mean_capacity_bits <= cap

    def test_metadata_echoes_plan(self):
        plan = tiny_plan()
        table = run_plan(plan)
        assert table.metadata["seed"] == plan.seed
        assert table.metadata["plan"]["n_ris"] == 1
        assert isinstance(table.metadata["version"], str)
        assert table.metadata["distinct_pairs"] == table.metadata["work"]["units"] == 1


def per_snr_rows(plan, gains, counts):
    """The table's rows from one scalar-SNR pass per scheme and SNR of the
    weighted reduction over units of gains ``gains`` and trial ``counts``."""
    n = int(counts.sum())
    rows = []
    for scheme in sorted(plan.schemes):
        for snr_db, rho in zip(plan.snr_db, SnrPoint.from_db(plan.snr_db).es_over_n0):
            caps = capacity_from_gain(gains[scheme], plan.n_t, plan.n_r, SnrPoint(rho))
            mean = np.sum(caps * counts) / n
            stderr = (np.sqrt(np.sum((caps - mean) ** 2 * counts) / (n - 1)) / np.sqrt(n)
                      if n > 1 else 0.0)
            rows.append(ResultRow(scheme, float(snr_db), float(mean), float(stderr), n))
    return tuple(rows)


def trial_order_rows(plan, gains):
    """The table's rows from per-trial ``gains``: np.mean and np.std(ddof=1)
    of every trial's capacity, in trial order."""
    snr = SnrPoint.from_db(np.asarray(plan.snr_db)[:, np.newaxis])
    rows = []
    for scheme in sorted(plan.schemes):
        caps = capacity_from_gain(gains[scheme], plan.n_t, plan.n_r, snr)
        stderrs = (np.std(caps, axis=-1, ddof=1) / np.sqrt(plan.trials)
                   if plan.trials > 1 else np.zeros(len(caps)))
        rows += [ResultRow(scheme, float(snr_db), float(mean), float(stderr), plan.trials)
                 for snr_db, mean, stderr in zip(plan.snr_db, np.mean(caps, axis=-1), stderrs)]
    return tuple(rows)


class TestReduction:
    "The capacity table, one weighted broadcast per scheme over the sweep's units."

    # Weighted sums add each pair's capacity once, times its count, in
    # pair-code order; the trial-order reduction adds every trial's in trial
    # order. Over the cases below, and 5000 zero-phase trials too, the rows
    # differed by at most 4.3e-16 of their value (2 ulps); 2e-15 leaves a
    # margin of more than 4x.
    RELATIVE = 2e-15

    @pytest.mark.parametrize("overrides", [
        dict(trials=300), dict(trials=300, benchmark_ris_phase="random"),
        dict(trials=1), dict(trials=40, snr_db=(12.5,)), dict(trials=1, snr_db=(-3.0,)),
    ])
    def test_rows_equal_scalar_snr_passes(self, overrides):
        plan = replace(load_preset("panel_d"), **overrides)
        assert run_plan(plan).rows == reference_rows(plan, trial_unit_gains(plan)[0])

    @pytest.mark.parametrize("mode", ["zero", "random"])
    @pytest.mark.parametrize("panel", ["panel_a", "panel_b", "panel_c", "panel_d"])
    def test_weighted_rows_match_trial_order_reduction(self, panel, mode):
        for seed in (1, 2, 7, 99, 2024):
            for trials in (1, 2, 3, 17, 1000):
                plan = replace(load_preset(panel), seed=seed, trials=trials,
                               benchmark_ris_phase=mode)
                rows = run_plan(plan).rows
                expected = trial_order_rows(plan, trial_unit_gains(plan)[0])
                assert [(r.scheme, r.snr_db, r.trials) for r in rows] == \
                    [(r.scheme, r.snr_db, r.trials) for r in expected]
                for row, want in zip(rows, expected):
                    for got, ref in ((row.mean_capacity_bits, want.mean_capacity_bits),
                                     (row.stderr_bits, want.stderr_bits)):
                        assert f"{got:.9g}" == f"{ref:.9g}"
                        assert abs(got - ref) <= self.RELATIVE * abs(ref)

    def test_trials_of_one_pair_are_one_unit_without_spread(self):
        # at seed 10045 trials 0 and 1 both draw grid pair (14, 35)
        plan = replace(load_preset("panel_a"), seed=10045, trials=2)
        assert sweep_streams(plan).indices.tolist() == [[14, 35], [14, 35]]
        table = run_plan(plan)
        assert table.metadata["distinct_pairs"] == table.metadata["work"]["units"] == 1
        assert table.rows == reference_rows(plan)
        assert all(row.stderr_bits == 0.0 and row.trials == 2 for row in table.rows)


def test_wide_random_golden_on_two_runs(tmp_path):
    # both legs build their rows per block, on two runs, and write the golden bytes
    with cpus(2):
        table = run_plan(golden_plan("wide_random_50.csv"))
    assert table.metadata["work"] == {"built": [1468, 800], "taken": [28, 0], "blocks": 13,
                                      "units": 50, "runs": 2, "forms": ["carried", "carried"],
                                      "factors": [50, 50]}
    write_csv(table, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (GOLDEN / "wide_random_50.csv").read_bytes()


class TestWriteCsv:
    HEADER = "scheme,snr_db,mean_capacity_bits,stderr_bits,trials"

    def test_header_only_for_a_table_without_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_csv(ResultTable(rows=(), metadata={}), out)
        assert out.read_bytes() == (self.HEADER + "\n").encode()

    def test_single_row_roundtrip(self, tmp_path):
        out = tmp_path / "one.csv"
        write_csv(run_plan(tiny_plan()), out)
        lines = out.read_text().splitlines()
        assert lines[0] == self.HEADER
        scheme, snr, mean, stderr, trials = lines[1].split(",")
        assert scheme == "basic"
        assert float(snr) == 0.0
        assert float(mean) == pytest.approx(1.0, abs=1e-8)
        assert float(stderr) == 0.0
        assert int(trials) == 1

    def test_full_panel_row_count_and_lf(self, tmp_path):
        plan = replace(load_preset("panel_a"), trials=3)
        out = tmp_path / "panel.csv"
        write_csv(run_plan(plan), out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().count("\n") == 1 + 5 * 7

    def test_nine_significant_digits(self, tmp_path):
        rows = (ResultRow("x", 15.0, 1.0 / 3.0, 0.123456789123, 9),)
        out = tmp_path / "digits.csv"
        write_csv(ResultTable(rows=rows, metadata={}), out)
        assert out.read_text().splitlines()[1] == "x,15,0.333333333,0.123456789,9"

    def test_write_failure_names_path(self, tmp_path):
        table = run_plan(tiny_plan())
        target = tmp_path / "no_such_dir" / "out.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            write_csv(table, target)
