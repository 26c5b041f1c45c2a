"""Monte Carlo capacity sweeps over randomized antenna heights.

Each trial draws array-midpoint heights from discrete uniform grids, builds
the scene and cascade channel, solves the requested schemes, and evaluates
capacity at every SNR point. A height grid is its ``(lo, hi, step)``, and
heights ``lo + step * i`` exist only at the grid indices ``i`` drawn.
Per-trial randomness is derived from (seed, trial_index) alone: a trial's
stream is ``default_rng(SeedSequence((seed, trial)))``, its first two draws
are the grid indices and the next ``n_ris`` are the random benchmark phases.
``_stream`` holds that stream: single trials draw from the trial's own
generator (``trial_stream``, ``trial_phases``), which is cheaper for one
trial, and a sweep takes every trial's indices and phases from
``TrialStreams``, the stream's array-code twin.

A sweep's units are its distinct (h_t, h_r) grid pairs: unless a requested
benchmark scheme reads random benchmark phases, every gain is a function of
the pair alone, so each pair is solved once and its gains are scattered back
to the trials that drew it. Otherwise the units are the trials themselves.
Units run in blocks, in ``_unit_order``, with every scheme solved over a
leading unit axis. ``_BLOCK_BYTES`` bounds the bytes a block's arrays hold
at once, counted at ``_unit_bytes`` per unit: steering, solver scratch and
per-element arrays. Steering depends on each element's height z = h + offset
alone, so ``_LegCache`` builds each distinct row of a leg once, keyed by the
exact float z: for the whole sweep when the rows and their layout per array
height fit the budget, with the antenna sums, corner path length and array
factor per height for blocks to gather; else per block, building the rows
the block before lacked. Units go by transmit grid index, first by residue
modulo the antenna spacing in grid steps when that is whole, so arrays that
share element heights share blocks. Gains return to trial order before the
reduction; each unit's gain is bit-identical to the single-scene calls.
"""

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from . import __version__
from ._stream import TrialStreams, trial_phases, trial_stream
from .approx import array_factor
from .channel import CascadeChannel, assemble_h, normalization_constant, steering
from .geometry import Leg, SceneConfig, build_positions, legs, require_int
from .schemes import (
    SnrPoint,
    _precoded_sum,
    _solve_joint,
    capacity_from_gain,
    cophasing_gain,
    solve_cophasing_mimo,
)

# The most bytes a block's arrays may hold at once, counted at _unit_bytes
# per unit, and the most a leg's row table, or its layout, may take to build.
# A tabled leg's build holds its row table and its layout at once, so it can
# take up to twice this. Blocks hold at least one unit, so memory does not
# grow with the trial count.
_BLOCK_BYTES = 7 << 18


def _unit_bytes(plan: "SimulationPlan") -> int:
    """Peak bytes one unit adds to a block.

    Its steering, 16 per complex entry of both legs, is live throughout. On
    top comes the larger of the joint solver's gain-row terms and their
    angles, 24 per element and transmit antenna, and the benchmark channel's
    receive-side temporaries and NumPy's cast buffer, up to 48 per element
    and receive antenna (the joint assembles no channel); 128 per element
    for path lengths, angles and array factors; and 48 per antenna pair for
    the benchmark channel and its angles. Steering rows carried in from the
    block before are live only while a block gathers its steering, before
    any solver scratch, and are no more than its own steering, so the
    scratch term covers them too.
    Measured with tracemalloc, this bounds every block of the shipped
    presets and the benchmark's wide sweep.
    """
    per_element = 16 * (plan.n_t + plan.n_r) + max(24 * plan.n_t, 48 * plan.n_r) + 128
    return plan.n_ris * per_element + 48 * plan.n_t * plan.n_r


# Coherent-sum gain of each scheme over a block, from its channel ``ch``, the
# legs' antenna sums (u_mat.sum(-1), v_mat.sum(-2)) and array factors, and the
# benchmark channel ``h``: the channel at the fixed benchmark RIS phases.
_SCHEME_GAINS = {
    "basic": lambda ch, sums, f, h: np.abs(h.sum(axis=(-2, -1))),
    "cophasing": lambda ch, sums, f, h: cophasing_gain(solve_cophasing_mimo(h), h),
    "joint": lambda ch, sums, f, h: _precoded_sum(*_solve_joint(ch, sums[1])),
    # solve_ris_only's b_gain sans phases; its gain row is sums[1] * sums[0]
    "ris_only": lambda ch, sums, f, h: ch.k_norm * np.sum(np.abs(sums[1] * sums[0]), axis=-1),
    # approx_gain's sum, from the legs' array factors
    "ris_only_approx": lambda ch, sums, f, h: ch.k_norm * np.sum(f[0] * f[1], axis=-1),
}
SCHEMES = tuple(_SCHEME_GAINS)
# the schemes that read the benchmark channel, and so the benchmark phases
_BENCHMARK_SCHEMES = {"basic", "cophasing"}
BENCHMARK_PHASE_MODES = ("zero", "random")


def _reads_phases(plan: "SimulationPlan") -> bool:
    "Whether a requested scheme reads random benchmark phases."
    return plan.benchmark_ris_phase == "random" and bool(_BENCHMARK_SCHEMES & set(plan.schemes))


def grid_points(lo: float, hi: float, step: float) -> int:
    "Point count of the inclusive grid lo, lo+step, ..., hi; step must divide the range."
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError(f"grid bounds and step must be finite, got [{lo}, {hi}] step {step}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid range [{lo}, {hi}] is empty")
    count = (hi - lo) / step
    # Up to 2**32 points, integers(n) draws one 32-bit word, which
    # TrialStreams reproduces; past that NumPy draws 64 bits.
    if count + 1 > 2**32:
        raise ValueError(f"grid step {step} over [{lo}, {hi}] gives more than 2**32 points")
    if abs(count - round(count)) > 1e-9:
        raise ValueError(f"grid step {step} does not divide the range [{lo}, {hi}]")
    return round(count) + 1


def _heights(plan: "SimulationPlan", t, r) -> tuple:
    "Heights ``lo + step * i`` at the plan's (h_t, h_r) grid indices ``t`` and ``r``."
    return plan.h_t_grid[0] + plan.h_t_grid[2] * t, plan.h_r_grid[0] + plan.h_r_grid[2] * r


def _grid_sizes(plan: "SimulationPlan") -> tuple[int, int]:
    "Point counts of the plan's (h_t, h_r) grids."
    return grid_points(*plan.h_t_grid), grid_points(*plan.h_r_grid)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one sweep needs: base geometry, height grids, SNR grid.

    Heights are *not* part of the plan; they are sampled per trial. A grid
    is its ``(lo, hi, step)``, validated by ``grid_points`` and never built.
    The normalization reference heights are the grid midpoints.
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
        for name in ("h_t_grid", "h_r_grid"):
            try:
                grid_points(*getattr(self, name))
            except ValueError as err:
                raise ValueError(f"{name}: {err}") from err
        if len(self.snr_db) == 0:
            raise ValueError("snr_db grid must not be empty")
        try:
            SnrPoint.from_db(self.snr_db)
        except ValueError as err:
            raise ValueError(f"snr_db values must give a positive finite linear SNR, "
                             f"got {self.snr_db}") from err
        require_int("trials", self.trials, 1)
        require_int("seed", self.seed, 0)
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}; valid: {SCHEMES}")
        if not self.schemes:
            raise ValueError(f"schemes must name at least one of {SCHEMES}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"duplicate scheme names in {self.schemes}")
        if len(set(self.snr_db)) != len(self.snr_db):
            raise ValueError(f"duplicate snr_db values in {self.snr_db}")
        if self.benchmark_ris_phase not in BENCHMARK_PHASE_MODES:
            raise ValueError(
                f"benchmark_ris_phase must be one of {BENCHMARK_PHASE_MODES}, "
                f"got {self.benchmark_ris_phase!r}"
            )
        # The lowest grid heights are the binding case for floor clearance
        # and the RIS span is height-independent, so a plan that passes here
        # can build every trial's scene.
        build_positions(self.scene(self.h_t_grid[0], self.h_r_grid[0]))

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


def sample_heights(plan: SimulationPlan, trial_index: int) -> tuple[float, float]:
    """Heights for one trial, uniform over the inclusive discrete grids.

    Depends only on (plan.seed, trial_index), not on any previously sampled
    trial, so single trials can be replayed in isolation.
    """
    require_int("trial_index", trial_index, 0)
    _, indices = trial_stream(plan.seed, trial_index, _grid_sizes(plan))
    return _heights(plan, *indices)


def _build_rows(leg: Leg, wavelength: float, z) -> NDArray[np.complex128]:
    "Steering rows ``(len(z), n_ris)`` of a leg's elements at heights ``z``."
    return steering(leg.rows(z), wavelength)


def _row_table(leg: Leg, wavelength: float, keys, count: int):
    """The rows at all of a sweep's element heights ``keys``, or None if
    building them (24 bytes per entry) or laying them out for ``count``
    array heights (16 bytes per entry) takes more than ``_BLOCK_BYTES``."""
    fits = max(24 * len(keys), 16 * count * len(leg.offsets)) * len(leg.x) <= _BLOCK_BYTES
    return _build_rows(leg, wavelength, keys) if fits else None


def _found(keys, values) -> NDArray[np.bool_]:
    "Mask of the sorted, distinct ``keys`` found among ``values``."
    at = np.searchsorted(keys[:-1], values)
    found = np.zeros(len(keys), dtype=bool)
    found[at[keys[at] == values]] = True
    return found


class _LegCache:
    """A leg's steering, antenna sums, corner path length and array factor
    for blocks of ``size`` units at array ``heights``, in sweep order.

    Steering depends on each element's height ``z = h + offset`` alone, so
    its rows are keyed by the exact float ``z``. When ``_row_table`` builds
    them as one table, they are laid out per distinct array height, a few
    heights at a time, and the sums, corner and factor are computed once per
    distinct height: a block only gathers them. Otherwise each block builds
    the rows the block before it lacked, and ``carry`` copies out of the
    block's solved steering the rows the next block needs.
    """

    def __init__(self, leg: Leg, wavelength: float, heights, size: int):
        self.leg, self.wavelength, self.heights, self.size = leg, wavelength, heights, size
        # np.unique(z) would load numpy.ma, about 1 MB of peak RSS
        z = np.sort(leg.heights(heights), axis=None)
        keys = z[np.concatenate(([True], z[1:] != z[:-1]))]
        distinct, at = np.unique(heights, return_inverse=True)
        rows = _row_table(leg, wavelength, keys, len(distinct))
        self.table = None
        if rows is not None:
            found = np.searchsorted(keys, leg.heights(distinct))
            steer = np.empty((len(found), *leg.layout(rows[found[:0]]).shape[1:]), dtype=complex)
            for i in range(0, len(found), 4):
                steer[i:i + 4] = leg.layout(rows[found[i:i + 4]])
            self.table = at, (steer, self._sums(steer), *self._per_height(distinct))
        self.carried = np.empty(0), np.empty((0, len(leg.x)), dtype=complex)

    def _sums(self, steer) -> NDArray[np.complex128]:
        "Antenna sums of steering ``steer`` in the leg's layout."
        return steer.sum(axis=-1 if self.leg.elements_first else -2)

    def _per_height(self, h) -> tuple:
        "Element-(1,1) path length and array factor of arrays at heights ``h``."
        factor = array_factor(len(self.leg.offsets), self.leg.spacing, self.leg.toward(h),
                              self.wavelength)
        return np.hypot(self.leg.x[0], h + self.leg.offsets[0]), factor

    def block(self, start: int) -> tuple:
        """Steering in the leg's layout, its antenna sums, corner path length
        and array factor of a block."""
        stop = start + self.size
        if self.table is not None:
            at, per_height = self.table
            return tuple(values[at[start:stop]] for values in per_height)
        h = self.heights[start:stop]
        z = self.leg.heights(h)
        distinct, first, local = np.unique(z, return_index=True, return_inverse=True)
        (held, carried), self.carried = self.carried, None
        new = ~_found(distinct, held)
        rows = np.empty((len(distinct), carried.shape[1]), dtype=complex)
        rows[~new] = carried
        del carried
        rows[new] = _build_rows(self.leg, self.wavelength, distinct[new])
        keep = _found(distinct, self.leg.heights(self.heights[stop:stop + self.size]).ravel())
        self.kept = distinct[keep], np.unravel_index(first[keep], z.shape)
        rows = rows[local.reshape(z.shape)]  # frees the block's own table
        steer = self.leg.layout(rows)
        return steer, self._sums(steer), *self._per_height(h)

    def carry(self, steer) -> None:
        "Keep the rows the next block needs, copied out of this block's solved ``steer``."
        if self.table is None:
            held, (units, antennas) = self.kept
            self.carried = held, (steer[units, :, antennas] if self.leg.elements_first
                                  else steer[units, antennas])


def _block_gains(plan: SimulationPlan, cfg: SceneConfig, caches, start: int,
                 phases) -> dict:
    """Gains of every requested scheme for the block at sweep position
    ``start``, whose benchmark phases are ``phases`` (None for zero phases).
    The benchmark channel is assembled only when a requested scheme reads it."""
    steer, sums, (d2_corner, d1_corner), factors = zip(*(cache.block(start) for cache in caches))
    ch = CascadeChannel(*steer, k_norm=normalization_constant(cfg, d1_corner, d2_corner))
    h_bench = None
    if _BENCHMARK_SCHEMES & set(plan.schemes):
        h_bench = assemble_h(ch, np.zeros(ch.u_mat.shape[:-1]) if phases is None else phases)
    gains = {scheme: _SCHEME_GAINS[scheme](ch, sums, factors, h_bench) for scheme in plan.schemes}
    # after the solve, so carried rows never sit beside the solvers' scratch
    for cache, leg_steer in zip(caches, steer):
        cache.carry(leg_steer)
    return gains


def _unit_order(plan: SimulationPlan, indices) -> NDArray[np.intp]:
    """Order of the units at (h_t, h_r) grid ``indices``: by index, and first
    by the transmit index modulo the antenna spacing in grid steps when that
    is whole, as arrays that many steps apart share element heights."""
    keys = [indices[:, 1], indices[:, 0]]
    steps = plan.s_t / plan.h_t_grid[2]
    if round(steps) > 1 and abs(steps - round(steps)) <= 1e-9:
        keys.append(indices[:, 0] % round(steps))
    return np.lexsort(keys)


def _sweep_gains(plan: SimulationPlan, indices, phases=None) -> dict:
    """Gain arrays of every requested scheme over the units at (h_t, h_r)
    grid ``indices``, in that order.

    ``phases(rows)`` returns the benchmark phases of the units at sweep
    positions ``rows``; None means zero phases. Units run in
    ``_unit_order``, in blocks of ``_BLOCK_BYTES // _unit_bytes(plan)``.
    """
    order = _unit_order(plan, indices)
    # Heights come from the legs; the scene fixes only the shared geometry.
    cfg = plan.scene(plan.h_t_grid[0], plan.h_r_grid[0])
    block_size = max(1, _BLOCK_BYTES // _unit_bytes(plan))
    caches = [_LegCache(leg, cfg.wavelength, heights, block_size)
              for leg, heights in zip(legs(cfg), _heights(plan, *indices[order].T))]
    # Each block frees its arrays together. glibc malloc returns a free heap
    # top to the kernel once it exceeds twice the largest mmap-served chunk
    # freed so far, and every block would then fault its pages in again (a
    # sixth of a wide sweep's time). Freeing one untouched buffer larger than
    # a block's arrays lifts that limit; elsewhere it costs one allocation.
    np.empty(2 * _BLOCK_BYTES, dtype=np.uint8)

    gains = {scheme: np.empty(len(indices)) for scheme in plan.schemes}
    for start in range(0, len(order), block_size):
        block = order[start:start + block_size]
        block_phases = None if phases is None else phases(block)
        for scheme, values in _block_gains(plan, cfg, caches, start, block_phases).items():
            gains[scheme][block] = values
    return gains


def trial_gains(plan: SimulationPlan, trial_index: int) -> dict:
    """Coherent-sum gain of every requested scheme for one trial.

    Capacity follows from a gain via the shared single-stream map, so the
    per-trial work is SNR-independent. This is the sweep's block engine on
    a block of one trial, with its heights and random benchmark phases drawn
    from the trial's generator.
    """
    require_int("trial_index", trial_index, 0)
    rng, indices = trial_stream(plan.seed, trial_index, _grid_sizes(plan))
    phases = partial(trial_phases, rng, count=plan.n_ris) if _reads_phases(plan) else None
    gains = _sweep_gains(plan, np.array([indices]), phases)
    return {scheme: float(values[0]) for scheme, values in gains.items()}


def _plan_gains(plan: SimulationPlan) -> tuple[dict, int]:
    """Gain arrays of every requested scheme in trial order, and the number
    of distinct (h_t, h_r) grid pairs the trials drew.

    Each distinct pair is solved once and its gains are scattered back to
    its trials, unless a requested benchmark scheme reads random phases
    from the trials' streams; then every trial is solved.
    """
    sizes = _grid_sizes(plan)
    streams = TrialStreams(plan.seed, np.arange(plan.trials), sizes)
    # pair codes t * n_r + r in uint64, below 2**64 on grids of up to 2**32 points
    (t, r), n_r = streams.indices.T.astype(np.uint64), np.uint64(sizes[1])
    codes, inverse = np.unique(t * n_r + r, return_inverse=True)
    if _reads_phases(plan):
        phases = partial(streams.phases, count=plan.n_ris)
        return _sweep_gains(plan, streams.indices, phases), len(codes)
    pairs = np.stack(np.divmod(codes, n_r), axis=-1)
    gains = _sweep_gains(plan, pairs)
    return {scheme: values[inverse] for scheme, values in gains.items()}, len(codes)


def run_plan(plan: SimulationPlan, workers: int = 1) -> ResultTable:
    """Run all trials and aggregate mean capacity and standard error.

    ``workers`` is accepted for compatibility and must be an integer >= 1;
    it does not change how trials run, so the table is identical for any
    worker count. ``metadata["distinct_pairs"]`` counts the distinct grid
    height pairs the trials drew.
    """
    require_int("workers", workers, 1)
    gains, distinct_pairs = _plan_gains(plan)

    # one capacity row per SNR, and trials along the last axis
    snr = SnrPoint.from_db(np.asarray(plan.snr_db)[:, np.newaxis])
    rows = []
    for scheme in sorted(plan.schemes):
        caps = capacity_from_gain(gains[scheme], plan.n_t, plan.n_r, snr)
        stderrs = (np.std(caps, axis=-1, ddof=1) / np.sqrt(plan.trials)
                   if plan.trials > 1 else np.zeros(len(caps)))
        rows += [ResultRow(scheme=scheme, snr_db=float(snr_db), mean_capacity_bits=float(mean),
                           stderr_bits=float(stderr), trials=plan.trials)
                 for snr_db, mean, stderr in zip(plan.snr_db, np.mean(caps, axis=-1), stderrs)]
    rows.sort(key=lambda r: (r.scheme, r.snr_db))

    metadata = {"plan": asdict(plan), "seed": plan.seed, "version": __version__,
                "distinct_pairs": distinct_pairs}
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
