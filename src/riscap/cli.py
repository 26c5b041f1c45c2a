"""Command-line front end: run sweeps, validate solvers, compare the approximation.

Exit codes: 0 success, 1 configuration error (bad flags, missing or invalid
config file), 2 runtime error (including a failed validation).
"""

import argparse
import math
import os
import sys
from dataclasses import replace

from . import config
from .approx import approx_gain
from .channel import build_cascade
from .geometry import build_positions
from .oracle import QuantizedSearchSpec, exhaustive_best, random_restart_best
from .schemes import SnrPoint, capacity_from_gain, solve_joint, joint_gain, solve_ris_only
from .sim import _set_blas_threads, run_plan, write_csv


def _int_flag(least: int):
    "An argparse type for integers >= ``least``, so a bad value fails naming its flag."
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscap",
        description="Capacity sweeps for RIS-assisted indoor mmWave links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep and write CSV")
    sim.add_argument("--config", required=True,
                     help="config file path or preset name (panel_a..panel_d)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=_int_flag(0), default=None, help="override the config seed")
    sim.add_argument("--trials", type=_int_flag(1), default=None,
                     help="override the config trial count")
    sim.add_argument("--workers", type=_int_flag(1), default=1,
                     help="accepted for compatibility (>= 1) and unused; the engine picks its "
                          "threads from the CPUs and the BLAS thread count")

    val = sub.add_parser("validate", help="run the brute-force solver checks")
    val.add_argument("--seed", type=_int_flag(0), default=7, help="seed for random restarts")

    apx = sub.add_parser("approx-check",
                         help="compare exact and approximate gains at mean heights")
    apx.add_argument("--config", required=True,
                     help="config file path or preset name (panel_a..panel_d)")
    return parser


class _ConfigError(Exception):
    "Configuration-phase failure; maps to exit code 1."


def _load_plan(source: str, seed=None, trials=None):
    try:
        if os.path.exists(source):
            plan = config.parse_plan_file(source)
        elif source in config.PRESETS:
            plan = config.load_preset(source)
        else:
            raise FileNotFoundError(f"config file not found: {source}")
        overrides = {"seed": seed, "trials": trials}
        return replace(plan, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError) as err:
        raise _ConfigError(str(err)) from err


def _cmd_simulate(args) -> int:
    plan = _load_plan(args.config, seed=args.seed, trials=args.trials)
    table = run_plan(plan, workers=args.workers)
    write_csv(table, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out} "
          f"(seed={plan.seed}, trials={plan.trials}, version={table.metadata['version']})")
    return 0


def _toy_scene(n_t: int, n_r: int, n_ris: int):
    plan = config.load_preset("panel_a")
    return replace(plan.scene(2.5, 1.3), n_t=n_t, n_r=n_r, n_ris=n_ris)


def _cmd_validate(args) -> int:
    checks = []

    # Closed-form optimality sandwich on a quantized grid.
    cfg = _toy_scene(2, 2, 3)
    ch = build_cascade(build_positions(cfg), cfg)
    closed = solve_ris_only(ch).b_gain
    levels = 64
    _, grid_best = exhaustive_best(ch, QuantizedSearchSpec(levels=levels))
    lower = closed * math.cos(math.pi / levels)
    checks.append((
        "ris_only sandwich (2x2x3, 64 levels)",
        lower <= grid_best <= closed + 1e-9,
        f"{lower:.9g} <= {grid_best:.9g} <= {closed:.9g}",
    ))

    # Coordinate ascent recovers the separable optimum from random starts.
    _, ascent = random_restart_best(ch, "ris_only", restarts=4, seed=args.seed)
    checks.append((
        "ris_only coordinate ascent vs closed form",
        abs(ascent - closed) <= 1e-9 * max(closed, 1.0),
        f"|{ascent:.9g} - {closed:.9g}| <= 1e-9 rel",
    ))

    # The one-pass joint heuristic never beats a direct local search.
    cfg4 = _toy_scene(2, 2, 4)
    ch4 = build_cascade(build_positions(cfg4), cfg4)
    heuristic = joint_gain(solve_joint(ch4), ch4)
    _, searched = random_restart_best(ch4, "joint", restarts=8, seed=args.seed)
    cap = ch4.k_norm * cfg4.n_ris * cfg4.n_t * cfg4.n_r
    checks.append((
        "joint heuristic <= local search <= cap (2x2x4)",
        heuristic <= searched + 1e-9 and searched <= cap + 1e-9,
        f"{heuristic:.9g} <= {searched:.9g} <= {cap:.9g}",
    ))

    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all_ok else 2


def _cmd_approx_check(args) -> int:
    plan = _load_plan(args.config)
    base = plan.scene(plan.h_t_grid[0], plan.h_r_grid[0])
    cfg = replace(base, h_t=base.h_t_mean, h_r=base.h_r_mean)
    pos = build_positions(cfg)
    ch = build_cascade(pos, cfg)
    exact = solve_ris_only(ch).b_gain
    approx = approx_gain(pos, cfg)
    rel = abs(approx - exact) / exact if exact else math.inf
    print(f"exact gain       {exact:.9g}")
    print(f"approximate gain {approx:.9g}")
    print(f"relative error   {rel:.3e}")
    print("snr_db,capacity_exact_bits,capacity_approx_bits")
    snr = SnrPoint.from_db(plan.snr_db)  # the CSV's linear SNRs
    caps = (capacity_from_gain(gain, cfg.n_t, cfg.n_r, snr) for gain in (exact, approx))
    for snr_db, c_exact, c_approx in zip(plan.snr_db, *caps):
        print(f"{snr_db:.9g},{c_exact:.9g},{c_approx:.9g}")
    return 0


def cli_main(argv=None) -> int:
    "Parse arguments and dispatch; returns the process exit code."
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the config-error code.
        return 0 if exc.code == 0 else 1
    # Every command owns its process, so it holds OpenBLAS at one thread, as
    # the benchmark does: a sweep then runs on every CPU where it can
    # (sim._threads), and no two BLAS thread pools contend.
    _set_blas_threads(1)

    handlers = {
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "approx-check": _cmd_approx_check,
    }
    try:
        return handlers[args.command](args)
    except _ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
