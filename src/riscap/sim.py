"""Monte Carlo capacity sweeps over randomized antenna heights.

Each trial draws array-midpoint heights from discrete uniform grids, builds
the scene and cascade channel, solves the requested schemes, and evaluates
capacity at every SNR point. Per-trial randomness is derived from (seed,
trial_index) alone, so any trial is reproducible in isolation. Trials run
serially and are reduced in trial order.
"""

import importlib.metadata
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .approx import approx_gain
from .channel import CascadeChannel, assemble_h, build_cascade
from .geometry import SceneConfig, ScenePositions, build_positions
from .schemes import (
    SnrPoint,
    capacity_from_gain,
    cophasing_gain,
    joint_gain,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
)


@dataclass
class _Trial:
    "One trial's scene; the benchmark channel is assembled on first use."

    cfg: SceneConfig
    pos: ScenePositions
    ch: CascadeChannel
    phi_bench: NDArray[np.float64]

    @cached_property
    def h_bench(self) -> NDArray[np.complex128]:
        return assemble_h(self.ch, self.phi_bench)


# Per-trial coherent-sum gain of each scheme. The benchmarks run on the
# channel at the fixed (not optimized) benchmark RIS phases.
_SCHEME_GAINS = {
    "basic": lambda t: float(np.abs(t.h_bench.sum())),
    "cophasing": lambda t: cophasing_gain(solve_cophasing_mimo(t.h_bench), t.h_bench),
    "joint": lambda t: joint_gain(solve_joint(t.ch), t.ch),
    "ris_only": lambda t: solve_ris_only(t.ch).b_gain,
    "ris_only_approx": lambda t: approx_gain(t.pos, t.cfg),
}
SCHEMES = tuple(_SCHEME_GAINS)
BENCHMARK_PHASE_MODES = ("zero", "random")

try:
    _VERSION = importlib.metadata.version("riscap")
except importlib.metadata.PackageNotFoundError:
    _VERSION = "unknown"


def height_grid(lo: float, hi: float, step: float) -> NDArray[np.float64]:
    "Inclusive discrete grid lo, lo+step, ..., hi; step must divide the range."
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid range [{lo}, {hi}] is empty")
    count = (hi - lo) / step
    if abs(count - round(count)) > 1e-9:
        raise ValueError(
            f"grid step {step} does not divide the range [{lo}, {hi}]"
        )
    return lo + step * np.arange(round(count) + 1)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one sweep needs: base geometry, height grids, SNR grid.

    Heights are *not* part of the plan; they are sampled per trial. The
    normalization reference heights are the grid midpoints.
    """

    wavelength: float
    n_t: int
    n_r: int
    n_ris: int
    s_t: float
    s_r: float
    s_ris: float
    d_wall: float
    d_ris: float
    h_t_grid: tuple[float, float, float]
    h_r_grid: tuple[float, float, float]
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    schemes: tuple[str, ...]
    benchmark_ris_phase: str = "zero"

    def __post_init__(self):
        height_grid(*self.h_t_grid)
        height_grid(*self.h_r_grid)
        if len(self.snr_db) == 0:
            raise ValueError("snr_db grid must not be empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}; valid: {SCHEMES}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"duplicate scheme names in {self.schemes}")
        if self.benchmark_ris_phase not in BENCHMARK_PHASE_MODES:
            raise ValueError(
                f"benchmark_ris_phase must be one of {BENCHMARK_PHASE_MODES}, "
                f"got {self.benchmark_ris_phase!r}"
            )
        # The lowest grid heights are the binding case for floor clearance
        # and the RIS span is height-independent, so a plan that passes here
        # can build every trial's scene.
        build_positions(self.scene(self.h_t_grid[0], self.h_r_grid[0]))

    def h_t_values(self) -> NDArray[np.float64]:
        return height_grid(*self.h_t_grid)

    def h_r_values(self) -> NDArray[np.float64]:
        return height_grid(*self.h_r_grid)

    def scene(self, h_t: float, h_r: float) -> SceneConfig:
        "Scene realization at given heights, normalized at the grid midpoints."
        return SceneConfig(
            wavelength=self.wavelength,
            n_t=self.n_t,
            n_r=self.n_r,
            n_ris=self.n_ris,
            s_t=self.s_t,
            s_r=self.s_r,
            s_ris=self.s_ris,
            d_wall=self.d_wall,
            d_ris=self.d_ris,
            h_t=h_t,
            h_r=h_r,
            h_t_mean=(self.h_t_grid[0] + self.h_t_grid[1]) / 2.0,
            h_r_mean=(self.h_r_grid[0] + self.h_r_grid[1]) / 2.0,
        )


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    snr_db: float
    mean_capacity_bits: float
    stderr_bits: float
    trials: int


@dataclass(frozen=True)
class ResultTable:
    "Aggregated sweep results plus the inputs that produced them."

    rows: tuple[ResultRow, ...]
    metadata: dict


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    "Counter-based per-trial stream: hash of (seed, trial_index)."
    return np.random.default_rng(np.random.SeedSequence((seed, trial_index)))


def _draw_heights(plan: SimulationPlan, rng: np.random.Generator) -> tuple[float, float]:
    h_t_values = plan.h_t_values()
    h_r_values = plan.h_r_values()
    h_t = float(h_t_values[rng.integers(len(h_t_values))])
    h_r = float(h_r_values[rng.integers(len(h_r_values))])
    return h_t, h_r


def sample_heights(plan: SimulationPlan, trial_index: int) -> tuple[float, float]:
    """Heights for one trial, uniform over the inclusive discrete grids.

    Depends only on (plan.seed, trial_index), not on any previously sampled
    trial, so single trials can be replayed in isolation.
    """
    return _draw_heights(plan, _trial_rng(plan.seed, trial_index))


def trial_gains(plan: SimulationPlan, trial_index: int) -> dict:
    """Coherent-sum gain of every requested scheme for one trial.

    Capacity follows from a gain via the shared single-stream map, so the
    per-trial work is SNR-independent.
    """
    rng = _trial_rng(plan.seed, trial_index)
    h_t, h_r = _draw_heights(plan, rng)
    # Draw benchmark phases right after the heights, independent of which
    # schemes are requested, to keep the per-trial stream layout fixed.
    if plan.benchmark_ris_phase == "random":
        phi_bench = rng.uniform(-np.pi, np.pi, size=plan.n_ris)
    else:
        phi_bench = np.zeros(plan.n_ris)

    try:
        cfg = plan.scene(h_t, h_r)
        pos = build_positions(cfg)
    except ValueError as err:
        raise ValueError(
            f"trial {trial_index} (h_t={h_t}, h_r={h_r}): {err}"
        ) from err
    trial = _Trial(cfg, pos, build_cascade(pos, cfg), phi_bench)
    return {scheme: _SCHEME_GAINS[scheme](trial) for scheme in plan.schemes}


def run_plan(plan: SimulationPlan, workers: int = 1) -> ResultTable:
    """Run all trials serially and aggregate mean capacity and standard error.

    ``workers`` is accepted for compatibility and must be >= 1; it does not
    change how trials run, so the table is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    per_trial = [trial_gains(plan, i) for i in range(plan.trials)]

    # NumPy's array power can differ from Python's ``**`` (SnrPoint.from_db)
    # in the last bit; the array form is the one the CSV bytes are pinned to.
    snr_linear = 10.0 ** (np.asarray(plan.snr_db) / 10.0)
    rows = []
    for scheme in sorted(plan.schemes):
        gains = np.array([t[scheme] for t in per_trial])
        for snr_db, rho in zip(plan.snr_db, snr_linear):
            caps = capacity_from_gain(gains, plan.n_t, plan.n_r, SnrPoint(rho))
            stderr = (
                float(np.std(caps, ddof=1) / np.sqrt(plan.trials))
                if plan.trials > 1 else 0.0
            )
            rows.append(ResultRow(
                scheme=scheme,
                snr_db=float(snr_db),
                mean_capacity_bits=float(np.mean(caps)),
                stderr_bits=stderr,
                trials=plan.trials,
            ))
    rows.sort(key=lambda r: (r.scheme, r.snr_db))

    metadata = {"plan": asdict(plan), "seed": plan.seed, "version": _VERSION}
    return ResultTable(rows=tuple(rows), metadata=metadata)


def write_csv(table: ResultTable, path) -> None:
    """Write the result table as CSV with LF newlines.

    Header ``scheme,snr_db,mean_capacity_bits,stderr_bits,trials``; rows
    sorted by (scheme, snr_db); floats carry 9 significant digits.
    """
    lines = ["scheme,snr_db,mean_capacity_bits,stderr_bits,trials"]
    for row in sorted(table.rows, key=lambda r: (r.scheme, r.snr_db)):
        lines.append(
            f"{row.scheme},{row.snr_db:.9g},{row.mean_capacity_bits:.9g},"
            f"{row.stderr_bits:.9g},{row.trials}"
        )
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write results to {path}: {err}") from err


def with_overrides(plan: SimulationPlan, seed=None, trials=None) -> SimulationPlan:
    "Copy of the plan with seed and/or trial count replaced."
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if trials is not None:
        updates["trials"] = trials
    return replace(plan, **updates) if updates else plan
