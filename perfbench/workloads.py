"""The benchmark's workloads: generated configs, timed operations, traced replay.

Every workload drives riscap through its public functions only, and hands
it configs generated here from the workload seed. Importing this module
needs ``riscap`` importable; ``run.py`` puts the checkout's ``src`` first.
"""

import math
import os
from importlib import resources

import numpy as np

from riscap import (
    QuantizedSearchSpec,
    approx_gain,
    assemble_h,
    build_cascade,
    build_positions,
    cophasing_gain,
    exhaustive_best,
    joint_gain,
    joint_objective,
    parse_plan_text,
    random_restart_best,
    ris_only_objective,
    run_plan,
    sample_heights,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
    trial_gains,
    write_csv,
)

import checks

# Scene shared by the generated configs: 60 GHz, half-wavelength spacing,
# 5 m between the walls, RIS midway, 1 m height ranges.
GEOMETRY = """\
lambda_m = 0.005
s_t_m = 0.0025
s_r_m = 0.0025
s_ris_m = 0.0025
d_wall_m = 5.0
d_ris_m = 2.5
h_t_min_m = 2.0
h_t_max_m = 3.0
h_r_min_m = 0.8
h_r_max_m = 1.8
"""

QUICK_TRIALS = 20
QUICK_LEVELS = 8
QUICK_RESTARTS = 4

# Schemes whose gain does not depend on the benchmark RIS phases.
PHASE_FREE = ("joint", "ris_only", "ris_only_approx")


def with_keys(text: str, **values) -> str:
    "Config text with the given keys set, replacing lines that already set them."
    lines = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def make(name: str, seed: int, quick: bool, out_dir):
    "The workload called ``name``, with inputs generated from ``seed``."
    trials = QUICK_TRIALS if quick else 1000
    if name == "panel_d_sweep":
        preset = (resources.files("riscap") / "presets" / "panel_d.cfg").read_text()
        return Sweep(with_keys(preset, seed=seed, trials=trials), out_dir)
    if name == "wide_fine_sweep":
        return Sweep(with_keys(
            GEOMETRY, n_t=32, n_r=16, n_ris=256, h_t_step_m=0.0001,
            h_r_step_m=0.0001, benchmark_ris_phase="random", trials=trials,
            seed=seed), out_dir)
    if name == "oracle_certify":
        return Certify(seed, quick)
    raise ValueError(f"unknown workload {name!r}")


class Sweep:
    """A ``run_plan`` + ``write_csv`` sweep; one trial is one traced unit."""

    sweep = True

    def __init__(self, text: str, out_dir):
        self.texts = [text]
        self.plan = plan = parse_plan_text(text)
        self.csv_path = out_dir / "sweep.csv"
        self.parallel_workers = max(2, os.cpu_count() or 1)
        self.table = None
        # The channel gain never exceeds k * n_ris * n_t * n_r, and k is
        # largest where both arrays sit lowest.
        cfg = plan.scene(plan.h_t_grid[0], plan.h_r_grid[0])
        k_max = build_cascade(build_positions(cfg), cfg).k_norm
        gain_cap = k_max * plan.n_ris * plan.n_t * plan.n_r
        self._cap_factor = gain_cap**2 / (plan.n_t * plan.n_r)
        self.phase_random = plan.benchmark_ris_phase == "random"
        shape = (plan.trials, plan.n_ris)
        self._phases = (np.random.default_rng(plan.seed).uniform(-np.pi, np.pi, size=shape)
                        if self.phase_random else np.zeros(shape))

    def cap_bits(self, snr_db: float) -> float:
        "Capacity no scheme can exceed at this SNR: log2(1 + k^2 n_ris^2 n_t n_r rho)."
        return math.log2(1.0 + self._cap_factor * 10.0 ** (snr_db / 10.0))

    def operation(self, workers: int = 1) -> bytes:
        self.table = run_plan(self.plan, workers=workers)
        write_csv(self.table, self.csv_path)
        return self.csv_path.read_bytes()

    def canonical(self, output: bytes) -> bytes:
        return output

    def failures(self, output: bytes) -> list:
        p = self.plan
        return checks.csv_failures(output, p.schemes, p.snr_db, p.trials, self.cap_bits)

    def units(self):
        return range(self.plan.trials)

    def untraced(self, trial: int) -> dict:
        return trial_gains(self.plan, trial)

    def traced(self, spans, trial: int) -> dict:
        """Replay one trial through the public calls ``trial_gains`` makes.

        With random benchmark phases the replay draws its own, so only the
        phase-free schemes can match ``trial_gains``; the cost is the same.
        """
        plan, call = self.plan, spans.call
        h_t, h_r = call("sim.sample_heights", sample_heights, plan, trial)
        cfg = plan.scene(h_t, h_r)
        pos = call("geometry.build_positions", build_positions, cfg)
        ch = call("channel.build_cascade", build_cascade, pos, cfg)
        h_bench = None
        gains = {}
        for scheme in plan.schemes:
            if scheme == "ris_only":
                gains[scheme] = call("schemes.solve_ris_only", solve_ris_only, ch).b_gain
            elif scheme == "ris_only_approx":
                gains[scheme] = call("approx.approx_gain", approx_gain, pos, cfg)
            elif scheme == "joint":
                sol = call("schemes.solve_joint", solve_joint, ch)
                gains[scheme] = call("schemes.joint_gain", joint_gain, sol, ch)
            else:
                if h_bench is None:
                    h_bench = call("channel.assemble_h", assemble_h, ch,
                                   self._phases[trial])
                if scheme == "cophasing":
                    gains[scheme] = call("schemes.cophasing", _cophasing, h_bench)
                else:
                    gains[scheme] = call("schemes.basic", _basic, h_bench)
        return gains

    def parity_failures(self, trial: int, want: dict, got: dict) -> list:
        schemes = [s for s in self.plan.schemes
                   if not self.phase_random or s in PHASE_FREE]
        return [f"trial {trial} {s}: replay {got[s]!r} != trial_gains {want[s]!r}"
                for s in schemes if got[s] != want[s]]

    def counts(self) -> dict:
        p = self.plan
        heights = [sample_heights(p, i) for i in range(p.trials)]
        distinct = len({h for h, _ in heights}) + len({h for _, h in heights})
        steering = p.n_ris * (p.n_t + p.n_r)
        return {
            "channel.steering_exp_evals": p.trials * steering,
            "channel.steering_bytes": 16 * steering,
            "channel.distinct_height_share": distinct / (2 * p.trials),
            "oracle.candidates": 0,
        }


def _cophasing(h) -> float:
    return cophasing_gain(solve_cophasing_mimo(h), h)


def _basic(h) -> float:
    return float(np.abs(h.sum()))


class Certify:
    """One certification pass of the oracle searches; a pass is one unit.

    Exhaustive search at ``levels`` phases runs on a 2x2x4 toy scene and
    seeded random-restart ascent on an 8x4x50 scene, both targets each, at
    heights drawn from the workload seed.
    """

    sweep = False
    TARGETS = ("ris_only", "joint")

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.levels = QUICK_LEVELS if quick else 32
        self.restarts = QUICK_RESTARTS if quick else 32
        self.texts = [
            with_keys(GEOMETRY, n_t=2, n_r=2, n_ris=4, h_t_step_m=0.02,
                      h_r_step_m=0.02, trials=1, seed=seed),
            with_keys(GEOMETRY, n_t=8, n_r=4, n_ris=50, h_t_step_m=0.02,
                      h_r_step_m=0.02, trials=1, seed=seed),
        ]
        self.toy_plan, self.mid_plan = (parse_plan_text(t) for t in self.texts)

    def operation(self) -> dict:
        return self._pass(lambda name, fn, *args: fn(*args))

    def traced(self, spans, unit) -> dict:
        return self._pass(spans.call)

    def _channel(self, plan, call):
        h_t, h_r = call("sim.sample_heights", sample_heights, plan, 0)
        cfg = plan.scene(h_t, h_r)
        pos = call("geometry.build_positions", build_positions, cfg)
        return call("channel.build_cascade", build_cascade, pos, cfg)

    def _pass(self, call) -> dict:
        toy = self._channel(self.toy_plan, call)
        mid = self._channel(self.mid_plan, call)
        out = {"toy": toy, "mid": mid,
               "toy_closed": call("schemes.solve_ris_only", solve_ris_only, toy).b_gain,
               "mid_closed": call("schemes.solve_ris_only", solve_ris_only, mid).b_gain}
        for target in self.TARGETS:
            spec = QuantizedSearchSpec(levels=self.levels, target=target)
            out["grid", target] = call("oracle.exhaustive_best", exhaustive_best, toy, spec)
            out["ascent", target] = call("oracle.random_restart_best", random_restart_best,
                                         mid, target, self.restarts, self.seed)
        return out

    def canonical(self, out: dict, digits: int = 9) -> bytes:
        """Every gain of a pass and the grid maximizers, by default at 9 digits.

        Ascent phases are left out: any common rotation of them is optimal
        too, so their last digits follow the rounding path of the ascent.
        """
        def fmt(x):
            return format(x, f".{digits}g")
        lines = [f"toy_closed,{fmt(out['toy_closed'])}", f"mid_closed,{fmt(out['mid_closed'])}"]
        for target in self.TARGETS:
            phi, gain = out["grid", target]
            lines.append(",".join([f"grid_{target}", fmt(gain), *map(fmt, phi)]))
            lines.append(f"ascent_{target},{fmt(out['ascent', target][1])}")
        return ("\n".join(lines) + "\n").encode()

    def failures(self, out: dict) -> list:
        toy, mid = out["toy"], out["mid"]
        objective = {"ris_only": ris_only_objective, "joint": joint_objective}
        problems = checks.sandwich_failures(
            out["toy_closed"], out["grid", "ris_only"][1], self.levels)
        # Sum_t |x_t| >= |Sum_t x_t| makes the joint functional dominate the
        # ris_only one at every phase vector, and bounds it by the sum of
        # its term magnitudes.
        joint_cap = toy.k_norm * toy.n_t * float(np.sum(np.abs(toy.v_mat.sum(axis=0))))
        problems += checks.ordered_failures(
            out["grid", "ris_only"][1], out["grid", "joint"][1], "grid ris_only above grid joint")
        problems += checks.ordered_failures(
            out["grid", "joint"][1], joint_cap, "grid joint above its term-magnitude bound")
        problems += checks.match_failures(
            out["ascent", "ris_only"][1], out["mid_closed"], "ascent ris_only vs solve_ris_only")
        for kind, ch in (("grid", toy), ("ascent", mid)):
            for target in self.TARGETS:
                phi, gain = out[kind, target]
                problems += checks.match_failures(
                    gain, objective[target](ch, phi), f"{kind} {target} gain vs its phases")
        return problems

    def units(self):
        return range(1)

    def untraced(self, unit) -> dict:
        return self.operation()

    def parity_failures(self, unit, want: dict, got: dict) -> list:
        same = self.canonical(want, 17) == self.canonical(got, 17)
        return [] if same else ["traced pass differs from the untraced pass"]

    def counts(self) -> dict:
        scenes = (self.toy_plan, self.mid_plan)
        heights = [sample_heights(p, 0) for p in scenes]
        distinct = len({h for h, _ in heights}) + len({h for _, h in heights})
        return {
            "channel.steering_exp_evals": sum(p.n_ris * (p.n_t + p.n_r) for p in scenes),
            "channel.steering_bytes": max(16 * p.n_ris * (p.n_t + p.n_r) for p in scenes),
            "channel.distinct_height_share": distinct / (2 * len(scenes)),
            "oracle.candidates": len(self.TARGETS) * self.levels ** self.toy_plan.n_ris,
        }
