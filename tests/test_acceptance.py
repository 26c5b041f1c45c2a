"""End-to-end acceptance checks at full sweep scale.

Each test covers one numbered criterion and prints a PASS/FAIL line (visible
with ``pytest -s`` or on failure). The Monte Carlo panels run once per
session at 1000 trials with the shipped preset seed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from riscap import (
    QuantizedSearchSpec,
    SnrPoint,
    build_cascade,
    build_positions,
    capacity_from_gain,
    exhaustive_best,
    joint_gain,
    load_preset,
    run_plan,
    solve_joint,
    solve_ris_only,
    trial_gains,
    write_csv,
)
from riscap import sim
from riscap.channel import principal_angle

PANELS = ("panel_a", "panel_b", "panel_c", "panel_d")
SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def report(number: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def plans():
    out = {name: load_preset(name) for name in PANELS}
    out["panel_a25"] = replace(out["panel_a"], n_ris=25)
    return out


@pytest.fixture(scope="module")
def tables(plans):
    return {name: run_plan(plan) for name, plan in plans.items()}


@pytest.fixture(scope="module")
def means(tables):
    "means[panel][scheme][snr_db] -> mean capacity in bits"
    out = {}
    for name, table in tables.items():
        per_scheme = {}
        for row in table.rows:
            per_scheme.setdefault(row.scheme, {})[row.snr_db] = row.mean_capacity_bits
        out[name] = per_scheme
    return out


def test_criterion_1_joint_dominates_every_scheme(means):
    worst = {}
    for name in PANELS:
        margins = [
            means[name]["joint"][snr] - means[name][other][snr]
            for snr in SNRS
            for other in ("ris_only", "ris_only_approx", "cophasing", "basic")
        ]
        worst[name] = min(margins)
    ok = all(w >= 0.0 for w in worst.values()) and worst["panel_a"] >= 0.01
    report(1, ok, "joint mean capacity dominates; worst margins "
           + ", ".join(f"{n}={w:.3f}" for n, w in worst.items()))


def test_criterion_2_benchmark_ordering(means, plans):
    mean_ok = all(
        means[name]["cophasing"][snr] >= means[name]["basic"][snr]
        for name in PANELS for snr in SNRS
    )
    # per-trial triangle-inequality guarantee, checked on the gains
    violations = 0
    for name in PANELS:
        plan = replace(plans[name], schemes=("ris_only", "basic"))
        for i in range(plan.trials):
            g = trial_gains(plan, i)
            if g["ris_only"] < g["basic"] - 1e-9:
                violations += 1
    ok = mean_ok and violations == 0
    report(2, ok, f"cophasing>=basic in mean at all SNRs: {mean_ok}; "
           f"per-trial ris_only<basic violations: {violations}/4000")


def test_criterion_3_gap_closes_with_more_elements(means):
    gaps_50 = [means["panel_a"]["joint"][s] - means["panel_a"]["ris_only"][s]
               for s in SNRS]
    gaps_100 = [means["panel_c"]["joint"][s] - means["panel_c"]["ris_only"][s]
                for s in SNRS]
    ok = all(g100 < g50 for g50, g100 in zip(gaps_50, gaps_100))
    report(3, ok, "joint-vs-ris_only gap shrinks from 50 to 100 elements at "
           f"every SNR (max gap {max(gaps_50):.3f} -> {max(gaps_100):.3f} bits)")


def test_criterion_4_capacity_grows_with_elements(means):
    at_15 = {n: means[n] for n in ("panel_a25", "panel_a", "panel_c")}
    ris = [at_15[n]["ris_only"][15.0] for n in ("panel_a25", "panel_a", "panel_c")]
    joint = [at_15[n]["joint"][15.0] for n in ("panel_a25", "panel_a", "panel_c")]
    ok = all(np.diff(ris) > 0) and all(np.diff(joint) > 0)
    report(4, ok, "mean capacity at 15 dB increases over 25/50/100 elements: "
           f"ris_only {ris[0]:.2f}<{ris[1]:.2f}<{ris[2]:.2f}, "
           f"joint {joint[0]:.2f}<{joint[1]:.2f}<{joint[2]:.2f}")


def test_criterion_5_fewer_rx_antennas_help(means):
    margins = [
        min(means["panel_b"][scheme][s] - means["panel_a"][scheme][s] for s in SNRS)
        for scheme in ("ris_only", "joint")
    ]
    ok = all(m > 0 for m in margins)
    report(5, ok, "2 receive antennas beat 4 at every SNR; min margins "
           f"ris_only={margins[0]:.3f}, joint={margins[1]:.3f} bits")


def test_criterion_6_approximation_fidelity(means):
    diffs = [abs(means["panel_a"]["ris_only_approx"][s]
                 - means["panel_a"]["ris_only"][s]) for s in SNRS]
    # observed max 0.001 bits at this panel; frozen regression bound 0.005
    ok = max(diffs) <= 0.1 and max(diffs) <= 0.005
    report(6, ok, f"approximate-vs-exact mean capacity differs by at most "
           f"{max(diffs):.5f} bits (limits 0.1 spec-level, 0.005 frozen)")


def test_criterion_7_exhaustive_sandwich(plans):
    cfg = replace(plans["panel_a"].scene(2.5, 1.3), n_t=2, n_r=2, n_ris=3)
    ch = build_cascade(build_positions(cfg), cfg)
    closed = solve_ris_only(ch).b_gain
    start = time.monotonic()
    _, grid_best = exhaustive_best(ch, QuantizedSearchSpec(levels=64))
    elapsed = time.monotonic() - start
    lower = closed * math.cos(math.pi / 64)
    ok = (grid_best <= closed + 1e-9) and (grid_best >= lower) and elapsed < 60
    report(7, ok, f"{lower:.6f} <= {grid_best:.6f} <= {closed:.6f} "
           f"in {elapsed:.2f} s")


def test_criterion_8_global_cophasing_residual(plans):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        plan = plans["panel_a"]
        cfg = replace(
            plan.scene(float(rng.uniform(2.0, 3.0)), float(rng.uniform(0.8, 1.8))),
            n_t=int(rng.integers(1, 9)),
            n_r=int(rng.integers(1, 5)),
            n_ris=int(rng.integers(1, 51)),
        )
        ch = build_cascade(build_positions(cfg), cfg)
        sol = solve_joint(ch)
        delta = principal_angle(ch.v_mat.sum(axis=0)[:, None] * ch.u_mat)
        residual = np.abs((delta + sol.phi[:, None]).sum(axis=1))
        worst = max(worst, float(residual.max()))
    ok = worst < 1e-9
    report(8, ok, f"max phase-deviation residual over 100 random scenes: {worst:.2e}")


def test_criterion_9_exact_reductions(plans):
    plan = plans["panel_a"]
    unit = replace(plan, n_t=1, n_r=1, n_ris=1,
                   h_t_grid=(2.5, 2.5, 0.02), h_r_grid=(1.3, 1.3, 0.02),
                   trials=1)
    gains = trial_gains(unit, 0)
    errors = []
    for rho in (1.0, 10.0):
        expected = math.log2(1.0 + rho)
        for scheme, gain in gains.items():
            got = capacity_from_gain(gain, 1, 1, SnrPoint(rho))
            errors.append(abs(got - expected))
    # single-transmit joint solution reduces to exact receive-side co-phasing
    cfg = replace(plan.scene(2.5, 1.3), n_t=1)
    ch = build_cascade(build_positions(cfg), cfg)
    cophase_gain = ch.k_norm * np.sum(np.abs(ch.v_mat.sum(axis=0)))
    joint_err = abs(joint_gain(solve_joint(ch), ch) - cophase_gain)
    ok = max(errors) < 1e-9 and joint_err < 1e-9
    report(9, ok, f"unit-scene capacity error {max(errors):.2e} bits across "
           f"all five schemes; single-tx joint gain error {joint_err:.2e}")


def test_criterion_10_byte_identical_csv(plans, tmp_path):
    plan = plans["panel_a"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    write_csv(run_plan(plan, workers=1), paths[0])
    write_csv(run_plan(plan, workers=1), paths[1])
    write_csv(run_plan(plan, workers=8), paths[2])
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    report(10, ok, f"three runs (workers 1,1,8) produced identical "
           f"{len(blobs[0])}-byte CSV files")


def exact_means(plan):
    """Mean capacity of every scheme at every SNR over all (h_t, h_r) grid
    pairs, each equally likely: the expectation a zero-phase sweep estimates.
    It is the sweep's own reduction over every pair at weight 1."""
    n_t, n_r = sim._grid_sizes(plan)
    pairs = np.stack(np.divmod(np.arange(n_t * n_r), n_r), axis=-1)
    rows = sim._rows(plan, sim._sweep_gains(plan, pairs)[0], np.ones(len(pairs), dtype=np.int64))
    return {(row.scheme, row.snr_db): row.mean_capacity_bits for row in rows}


def test_shipped_panels_estimate_the_exact_grid_expectation(plans, tables):
    """Every row of the 1000-trial preset sweeps (the goldens, byte for byte)
    lies within 4 standard errors of its exact expectation.

    Heights are uniform on the 51 x 51 grid pairs and, with zero benchmark
    phases, every gain is a function of the pair, so the expectation is a
    mean over 2601 pairs. At 1000 trials each row's z = (mean - exact) /
    stderr is close to a standard normal, for which P(|z| > 4) = 6.3e-5: a
    false alarm somewhere in the 140 rows has a chance below 1% even if the
    rows were independent, and they are positively correlated, which lowers
    it. The bound rests on that count, not on the z the goldens show. The
    random-phase golden is left out: its benchmark phases are continuous, so
    its expectation is an integral over the phase torus, not a finite sum.
    """
    worst = {}
    for name in PANELS:
        assert plans[name].benchmark_ris_phase == "zero"
        exact = exact_means(plans[name])
        rows = tables[name].rows
        assert len(rows) == len(exact) == 35
        worst[name] = max(abs(row.mean_capacity_bits - exact[row.scheme, row.snr_db])
                          / row.stderr_bits for row in rows)
    assert max(worst.values()) <= 4.0, worst
