"""Monte Carlo capacity sweeps over randomized antenna heights.

Each trial draws array-midpoint heights from discrete uniform grids, builds
the scene and cascade channel, solves the requested schemes, and evaluates
capacity at every SNR point. Per-trial randomness is derived from (seed,
trial_index) alone: a trial's grid indices are the first two draws of
``default_rng(SeedSequence((seed, trial)))``. A sweep draws them all at once
with an array-code twin of that stream; rows the twin flags (a seed or trial
index of 2^32 or more, or a Lemire rejection) and single trials draw from
the trial's own generator.

Trials run in blocks: sorted by their grid heights, cut to a fixed memory
budget, with every scheme solved over a leading trial axis. A leg's
steering, k_norm path length and array factor depend on its height alone.
A leg whose grid has no more heights than the sweep has trials, and whose
steering fits the block budget, is built once per grid height per sweep;
otherwise each block builds it once per distinct height. Gains go back to
trial order before the reduction, and each trial's gain is bit-identical to
the single-scene calls, so the layout never shows in the results.
"""

import importlib.metadata
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ._stream import first_indices
from .approx import array_factor
from .channel import CascadeChannel, assemble_h, corner_normalization, steering
from .geometry import SceneConfig, build_positions, receive_leg, transmit_leg
from .schemes import (
    SnrPoint,
    capacity_from_gain,
    cophasing_gain,
    solve_cophasing_mimo,
    solve_ris_only,
    solved_joint_gain,
)

# Bytes of gathered steering per block of trials, and the most a leg table's
# steering may take; a block's live arrays peak at about three times this.
# Blocks hold at least one trial, so memory does not grow with the trial count.
_BLOCK_BYTES = 1 << 19


@dataclass
class _Block:
    """A block's channel, transmit and receive array factors and benchmark
    phases along a leading trial axis; its benchmark channel is lazy."""

    ch: CascadeChannel
    factors: tuple[NDArray[np.float64], NDArray[np.float64]]
    phi_bench: NDArray[np.float64]

    @cached_property
    def h_bench(self) -> NDArray[np.complex128]:
        return assemble_h(self.ch, self.phi_bench)


# Coherent-sum gain of each scheme over a block. The benchmarks run on the
# channel at the fixed (not optimized) benchmark RIS phases.
_SCHEME_GAINS = {
    "basic": lambda b: np.abs(b.h_bench.sum(axis=(-2, -1))),
    "cophasing": lambda b: cophasing_gain(solve_cophasing_mimo(b.h_bench), b.h_bench),
    "joint": lambda b: solved_joint_gain(b.ch),
    "ris_only": lambda b: solve_ris_only(b.ch).b_gain,
    # approx_gain's sum, from the legs' array factors
    "ris_only_approx": lambda b: b.ch.k_norm * np.sum(b.factors[0] * b.factors[1], axis=-1),
}
SCHEMES = tuple(_SCHEME_GAINS)
BENCHMARK_PHASE_MODES = ("zero", "random")

try:
    _VERSION = importlib.metadata.version("riscap")
except importlib.metadata.PackageNotFoundError:
    _VERSION = "unknown"


def _snr_linear(snr_db) -> NDArray[np.float64]:
    """Linear SNRs of a dB grid.

    NumPy's array power can differ from Python's ``**`` (SnrPoint.from_db)
    in the last bit; the array form is the one the CSV bytes are pinned to.
    """
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


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
        with np.errstate(over="ignore"):
            rho = _snr_linear(self.snr_db)
        if not np.all(np.isfinite(rho) & (rho > 0)):
            raise ValueError(
                f"snr_db values must give a positive finite linear SNR, "
                f"got {self.snr_db}"
            )
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _draw_indices(rng: np.random.Generator, sizes: tuple[int, int]) -> tuple[int, int]:
    "A trial's h_t and h_r grid indices: the first two draws of its stream."
    return int(rng.integers(sizes[0])), int(rng.integers(sizes[1]))


def sample_heights(plan: SimulationPlan, trial_index: int) -> tuple[float, float]:
    """Heights for one trial, uniform over the inclusive discrete grids.

    Depends only on (plan.seed, trial_index), not on any previously sampled
    trial, so single trials can be replayed in isolation.
    """
    h_t_values, h_r_values = plan.h_t_values(), plan.h_r_values()
    t, r = _draw_indices(_trial_rng(plan.seed, trial_index),
                         (len(h_t_values), len(h_r_values)))
    return float(h_t_values[t]), float(h_r_values[r])


def _benchmark_phases(plan: SimulationPlan, trials, sizes) -> NDArray[np.float64]:
    """Fixed benchmark RIS phases of the given trials, one row each.

    Random phases are the draws right after the grid indices, made whatever
    the requested schemes, so the per-trial stream layout stays fixed.
    """
    phases = np.zeros((len(trials), plan.n_ris))
    if plan.benchmark_ris_phase == "random":
        for row, trial in zip(phases, trials):
            rng = _trial_rng(plan.seed, trial)
            _draw_indices(rng, sizes)
            row[:] = rng.uniform(-np.pi, np.pi, size=plan.n_ris)
    return phases


def _sweep_indices(plan: SimulationPlan, trials) -> NDArray[np.int64]:
    "Grid indices of ``trials`` from the stream twin; its flagged rows from NumPy."
    sizes = (len(plan.h_t_values()), len(plan.h_r_values()))
    indices, flagged = first_indices(plan.seed, trials, sizes)
    for row in np.flatnonzero(flagged):
        indices[row] = _draw_indices(_trial_rng(plan.seed, int(trials[row])), sizes)
    return indices


def _leg_product(cfg: SceneConfig, leg, heights) -> tuple:
    """A leg's steering, element-(1,1) path length (for ``k_norm``) and array
    factor at each of ``heights``; ``leg`` is (geometry function, antennas, spacing)."""
    build, n, spacing = leg
    _, dist, _, cos_theta = build(cfg, heights)
    return (steering(dist, cfg.wavelength), dist[..., 0, 0],
            array_factor(n, spacing, cos_theta, cfg.wavelength))


def _leg_table(cfg: SceneConfig, leg, grid, n_trials: int):
    """A leg's product at every grid height when the grid has no more heights
    than the sweep has trials and its steering fits in ``_BLOCK_BYTES``."""
    if len(grid) <= n_trials and 16 * len(grid) * cfg.n_ris * leg[1] <= _BLOCK_BYTES:
        return _leg_product(cfg, leg, grid)
    return None


def _gathered_leg(cfg: SceneConfig, leg, grid, table, column) -> tuple:
    """A leg's product for the grid indices ``column``: gathered from the table,
    else from the block's distinct heights, or built per trial if all differ."""
    if table is None:
        distinct, inverse = np.unique(column, return_inverse=True)
        if len(distinct) == len(column):
            return _leg_product(cfg, leg, grid[column])
        table, column = _leg_product(cfg, leg, grid[distinct]), inverse
    return tuple(a[column] for a in table)


def _block_gains(plan: SimulationPlan, cfg: SceneConfig, legs, grids, tables,
                 indices, phi_bench) -> dict:
    "Gains of every requested scheme for trials at (h_t, h_r) grid ``indices``."
    (u_mat, d2_corner, factor_t), (v_mat, d1_corner, factor_r) = (
        _gathered_leg(cfg, *args) for args in zip(legs, grids, tables, indices.T))
    ch = CascadeChannel(u_mat=u_mat, v_mat=v_mat,
                        k_norm=corner_normalization(cfg, d1_corner, d2_corner))
    block = _Block(ch, (factor_t, factor_r), phi_bench)
    return {scheme: _SCHEME_GAINS[scheme](block) for scheme in plan.schemes}


def _sweep_gains(plan: SimulationPlan, trials, indices) -> dict:
    """Gain arrays of every requested scheme over ``trials``, in that order.

    ``indices`` holds each trial's (h_t, h_r) grid indices. Trials are
    stable-sorted by them and cut into blocks of at most ``_BLOCK_BYTES`` of
    steering, so a block shares its heights.
    """
    trials = np.asarray(trials)
    grids = plan.h_t_values(), plan.h_r_values()
    sizes = tuple(map(len, grids))
    order = np.lexsort((indices[:, 1], indices[:, 0]))
    # Heights come from the legs; the scene fixes only the shared geometry.
    cfg = plan.scene(plan.h_t_grid[0], plan.h_r_grid[0])
    legs = (transmit_leg, cfg.n_t, cfg.s_t), (receive_leg, cfg.n_r, cfg.s_r)
    tables = [_leg_table(cfg, leg, grid, len(trials)) for leg, grid in zip(legs, grids)]
    block_size = max(1, _BLOCK_BYTES // (16 * plan.n_ris * (plan.n_t + plan.n_r)))
    # Each block frees its arrays together. glibc malloc returns a free heap
    # top to the kernel once it exceeds twice the largest mmap-served chunk
    # freed so far, and every block would then fault its pages in again (a
    # sixth of a wide sweep's time). Freeing one untouched buffer larger than
    # a block's arrays lifts that limit; elsewhere it costs one allocation.
    np.empty(4 * _BLOCK_BYTES, dtype=np.uint8)

    gains = {scheme: np.empty(len(trials)) for scheme in plan.schemes}
    for start in range(0, len(order), block_size):
        block = order[start:start + block_size]
        phi_bench = _benchmark_phases(plan, trials[block].tolist(), sizes)
        for scheme, values in _block_gains(
                plan, cfg, legs, grids, tables, indices[block], phi_bench).items():
            gains[scheme][block] = values
    return gains


def trial_gains(plan: SimulationPlan, trial_index: int) -> dict:
    """Coherent-sum gain of every requested scheme for one trial.

    Capacity follows from a gain via the shared single-stream map, so the
    per-trial work is SNR-independent. This is the sweep's block engine on
    a block of one trial, with its heights drawn from the trial's generator.
    """
    sizes = (len(plan.h_t_values()), len(plan.h_r_values()))
    indices = np.array([_draw_indices(_trial_rng(plan.seed, trial_index), sizes)])
    gains = _sweep_gains(plan, [trial_index], indices)
    return {scheme: float(values[0]) for scheme, values in gains.items()}


def run_plan(plan: SimulationPlan, workers: int = 1) -> ResultTable:
    """Run all trials and aggregate mean capacity and standard error.

    ``workers`` is accepted for compatibility and must be >= 1; it does not
    change how trials run, so the table is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    trials = np.arange(plan.trials)
    gains = _sweep_gains(plan, trials, _sweep_indices(plan, trials))

    rows = []
    for scheme in sorted(plan.schemes):
        for snr_db, rho in zip(plan.snr_db, _snr_linear(plan.snr_db)):
            caps = capacity_from_gain(gains[scheme], plan.n_t, plan.n_r, SnrPoint(rho))
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
