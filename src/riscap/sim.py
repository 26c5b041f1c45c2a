"""Monte Carlo capacity sweeps over randomized antenna heights.

Each trial draws array-midpoint heights from discrete uniform grids, builds
the scene and cascade channel, solves the requested schemes, and evaluates
capacity at every SNR point. A height grid is its ``(lo, hi, step)``, and
heights ``lo + step * i`` exist only at the grid indices ``i`` drawn.
Per-trial randomness is derived from (seed, trial_index) alone: a trial's
stream is ``default_rng(SeedSequence((seed, trial)))``, its first two draws
are the grid indices and the next ``n_ris`` are the random benchmark phases.
``_stream`` holds that stream. The engine reads every trial's draws from
``TrialStreams``, its array-code twin, so ``trial_gains`` is the sweep of
one trial; the trial's own generator (``trial_stream``) serves
``sample_heights``, where it is cheaper, and the rows the twin flags.

A sweep's units are its distinct (h_t, h_r) grid pairs: unless a requested
benchmark scheme reads random benchmark phases, every gain is a function of
the pair alone, so each pair is solved once and weighted by the number of
trials that drew it. Otherwise the units are the trials themselves. Units
run in blocks, in ``_unit_order``, with every scheme solved over a leading
unit axis. ``_BLOCK_BYTES`` bounds the bytes a block's arrays hold at once,
counted at ``_unit_bytes`` per unit: steering, solver scratch and
per-element arrays. A block only builds rows, gathers them and solves. The
terms of a unit's heights alone come first: the normalization constants of
all units at once, and each run's ``ris_only_approx`` gains from array
factors computed once per distinct height of a chunk (``_factors``), in
chunks of whole blocks within the same budget (``_chunk_units``). A leg
gives the sweep its blocks and nothing else (``_leg_blocks``). Steering
depends on each element's height z = h + offset alone, so one builder,
``_steering_blocks``, builds a leg's rows in blocks, one per distinct exact
float z in each, which ``np.unique`` finds: a block takes from the block
before the rows at the heights both hold, which ``np.searchsorted`` finds,
and builds the others. When a leg's steering laid out per distinct array
height fits the budget, the builder runs once over those heights, and blocks
gather the steering and antenna sums from that table; else it runs over each
run's blocks. Units go by transmit grid index, first by residue modulo the
antenna spacing in grid steps when that is whole, so arrays that share
element heights share blocks.

Each unit's gain is the single-scene calls' bit for bit by construction:
every quantity the two share comes from one function, each distance through
``Leg.rows`` (the normalization corners through ``Leg.corner``), direction
cosines through ``Leg.toward``, steering, the normalization constant, array
factors, the ris_only and joint gain rows through ``gain_rows`` fed a
block's antenna sums, and each scheme's gain expression. ``perturbed`` in
``tests/test_sim.py`` scales one such function's results at every binding
and checks that the sweep and the single-scene calls move alike.

When a leg builds its rows per block and the BLAS runs each call on one
thread, the unit order is cut at blocks into contiguous runs, one per CPU
the process may run on and no more than the blocks, each on a thread with a
row builder and a phase generator of its own; tabled legs are built once,
and every run gathers from them. A block's large NumPy calls release the
GIL, so runs overlap, and as each unit's gain is the same in any block, the
results are too. Any other BLAS, as concurrent calls contend inside it, and
a fully tabled sweep, where a second run saves no time that shows, keep the
sweep on this thread. ``riscap simulate`` holds OpenBLAS at one thread
(``_set_blas_threads``); ``run_plan`` sets nothing.
"""

import ctypes
import os
import threading
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np
from numpy.typing import NDArray

from . import __version__
from ._stream import TrialStreams, trial_stream
from .approx import array_factor, factor_gain
from .channel import CascadeChannel, assemble_h, normalization_constant, steering
from .geometry import Leg, SceneConfig, build_positions, legs, require_int
from .schemes import (
    SnrPoint,
    _precoded_sum,
    _ris_only_gain,
    _solve_joint,
    basic_gain,
    capacity_from_gain,
    cophasing_gain,
    solve_cophasing_mimo,
)

# The most bytes a block's arrays may hold at once, counted at _unit_bytes
# per unit, and a chunk's array factors; and the most a leg's steering laid
# out per distinct array height may take as a table, whose build holds one
# block of heights' rows on top. Blocks and chunks hold at least one unit,
# so memory does not grow with the trial count.
_BLOCK_BYTES = 7 << 18


def _unit_bytes(plan: "SimulationPlan") -> int:
    """Peak bytes one unit adds to a block.

    Its steering, 16 per complex entry of both legs, is live throughout. On
    top comes the larger of the joint solver's gain-row terms and their
    angles, 24 per element and transmit antenna, and the benchmark channel's
    receive-side temporaries and NumPy's cast buffer, up to 48 per element
    and receive antenna (the joint assembles no channel); 128 per element
    for path lengths and angles; and 48 per antenna pair for the benchmark
    channel and its angles. Array factors are not a block's: the sweep
    computes them before its blocks run, in chunks within ``_BLOCK_BYTES``.
    The 128 per element leaves room for the row plan a block keeps: its
    distinct heights, the row of each element height and where each taken
    row is found, 65 to 80 traced bytes per element height on the wide
    scene. The rows a block takes from the block before are copied out of
    that block's steering when the block is asked for, before it builds rows
    or any solver scratch, and are no more than its own steering; the
    steering they come from stands in for its own until dropped. So with
    blocks of equal size the scratch term covers them too, and a last,
    smaller block can peak at up to the bound of the block before it.
    The charge is per unit: a block's fixed cost (index arrays, the array
    headers of its row plan, the benchmark phases) is not charged, and
    blocks of many units absorb it. Measured with tracemalloc, this bounds
    every full block of the shipped presets and of the benchmark's wide
    sweep (1.72 MB at most, against 1.80 MB). The fixed cost shows on
    one-unit wide blocks, which peak at 540 KB traced against 450,560 B.
    """
    per_element = 16 * (plan.n_t + plan.n_r) + max(24 * plan.n_t, 48 * plan.n_r) + 128
    return plan.n_ris * per_element + 48 * plan.n_t * plan.n_r


# Coherent-sum gain of each scheme a block solves, from its channel ``ch``,
# the legs' antenna sums (u_mat.sum(-1), v_mat.sum(-2)) and the benchmark
# channel ``h``: the channel at the fixed benchmark RIS phases.
# ris_only_approx, approx_gain's factor_gain, reads the heights alone, and the
# sweep computes it from the legs' array factors before the blocks run.
_SCHEME_GAINS = {
    "basic": lambda ch, sums, h: basic_gain(h),
    "cophasing": lambda ch, sums, h: cophasing_gain(solve_cophasing_mimo(h), h),
    "joint": lambda ch, sums, h: _precoded_sum(*_solve_joint(ch, sums)),
    "ris_only": lambda ch, sums, h: _ris_only_gain(ch, sums)[1],  # solve_ris_only sans phases
}
SCHEMES = (*_SCHEME_GAINS, "ris_only_approx")
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
    if hi > lo and round(count) == 0:
        raise ValueError(f"grid step {step} is larger than the range [{lo}, {hi}]")
    # (hi - lo) / step is off a whole count by rounding at the count's scale
    if abs(count - round(count)) > max(1e-9, 8 * np.finfo(float).eps * count):
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
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 1000
    seed: int = 1
    schemes: tuple[str, ...] = SCHEMES
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

    Drawn on the trial's own generator from (plan.seed, trial_index) alone,
    so single trials replay in isolation.
    """
    require_int("trial_index", trial_index, 0)
    _, indices = trial_stream(plan.seed, trial_index, _grid_sizes(plan))
    return _heights(plan, *indices)


def _factors(leg: Leg, wavelength: float, heights, work: "_Work") -> NDArray[np.float64]:
    """Array factors ``(len(heights), n_ris)`` of a leg's arrays at ``heights``
    toward each element, computed once per distinct height, which ``work``
    counts."""
    distinct, at = np.unique(heights, return_inverse=True)
    work.factors[int(not leg.elements_first)] += len(distinct)
    return array_factor(len(leg.offsets), leg.spacing, leg.toward(distinct), wavelength)[at]


def _table_fits(leg: Leg, count: int) -> bool:
    "Whether a leg's steering laid out for ``count`` array heights fits ``_BLOCK_BYTES``."
    return 16 * count * len(leg.offsets) * len(leg.x) <= _BLOCK_BYTES


def _chunk_units(unit_bytes: int, size: int) -> int:
    """Units of a chunk: the most whole blocks of ``size`` whose units, at
    ``unit_bytes`` each, fit ``_BLOCK_BYTES``, and at least one block."""
    return size * max(1, _BLOCK_BYTES // (unit_bytes * size))


@dataclass
class _Work:
    """What one sweep did: the steering rows built, by table builds too, and
    those taken from the block before, per leg (transmit, receive), its
    blocks, units and runs, each leg's form, "table" or "carried", and the
    array heights whose factors each leg computed."""

    built: list = field(default_factory=lambda: [0, 0])
    taken: list = field(default_factory=lambda: [0, 0])
    blocks: int = 0
    units: int = 0
    runs: int = 0
    forms: list = field(default_factory=list)
    factors: list = field(default_factory=lambda: [0, 0])

    def add(self, other: "_Work") -> None:
        "Add ``other``'s counts to these."
        self.built = [mine + theirs for mine, theirs in zip(self.built, other.built)]
        self.taken = [mine + theirs for mine, theirs in zip(self.taken, other.taken)]
        self.factors = [mine + theirs for mine, theirs in zip(self.factors, other.factors)]
        self.blocks += other.blocks
        self.units += other.units
        self.runs += other.runs


def _steering_blocks(leg: Leg, wavelength: float, heights, size: int, work: _Work):
    """Steering in the leg's layout and its antenna sums of arrays at
    ``heights``, in blocks of ``size``; ``work`` counts the rows built and
    taken.

    Steering depends on each element's height ``z = h + offset`` alone, so a
    block's rows are its distinct exact float ``z``, which one ``np.unique``
    gives with the row of each element. One ``np.searchsorted`` against the
    distinct heights of the block before finds the rows it takes from that
    block, which recorded the unit and antenna holding each of its heights,
    and the block builds the others. The taken rows are copied out of a
    block's steering when the next block is asked for, once the caller is
    done with it, and that steering is dropped before the next block builds
    its rows.
    """
    side, n = int(not leg.elements_first), len(leg.offsets)
    # the block before the first holds one height, NaN, which equals none
    held, source = np.full(1, np.nan), np.zeros(1, dtype=np.intp)
    steer = leg.layout(np.empty((0, n, len(leg.x)), dtype=complex))
    for start in range(0, len(heights), size):
        z = leg.heights(heights[start:start + size])
        values, local = np.unique(z.ravel(), return_inverse=True)
        # the first held height at or above each, else the last
        at = np.minimum(np.searchsorted(held, values), len(held) - 1)
        taken = held[at] == values
        units, antennas = np.divmod(source[at[taken]], n)
        rows = np.empty((len(values), len(leg.x)), dtype=complex)
        rows[taken] = steer[units, :, antennas] if leg.elements_first else steer[units, antennas]
        del steer
        new = values[~taken]
        rows[~taken] = steering(leg.rows(new), wavelength)
        work.built[side] += len(new)
        work.taken[side] += len(units)
        rows = rows[local.reshape(z.shape)]  # frees the block's distinct table
        held, source = values, np.empty(len(values), dtype=np.intp)
        source[local] = np.arange(local.size)
        steer = leg.layout(rows)
        del rows
        yield steer, steer.sum(axis=-1 if leg.elements_first else -2)


def _leg_blocks(leg: Leg, wavelength: float, heights, size: int, work: _Work):
    """``(blocks, tabled)`` of a leg's arrays at ``heights``:
    ``blocks(first, stop, work)`` yields the steering and antenna sums of
    ``_steering_blocks`` over the arrays at ``heights[first:stop]``, in
    blocks of ``size``, and ``tabled`` is whether it gathers them from a
    table per distinct array height. The table is built here when it fits
    ``_BLOCK_BYTES``, and ``work`` counts its rows; else the builder runs
    over each run's blocks.

    A table's builder runs once over those heights, in blocks that hold
    every height within one array length of each, and at least 4, so each
    row is built once.
    """
    distinct, at = np.unique(heights, return_inverse=True)
    if not _table_fits(leg, len(distinct)):
        return (lambda first, stop, work: _steering_blocks(leg, wavelength, heights[first:stop],
                                                           size, work)), False
    near = np.searchsorted(distinct, distinct + (leg.offsets[-1] - leg.offsets[0]), side="right")
    span = max(4, int(np.max(near - np.arange(len(distinct)))))
    table, spans = [], _steering_blocks(leg, wavelength, distinct, span, work)
    for start in range(0, len(distinct), span):
        values = next(spans)
        for i, value in enumerate(values):
            if not start:
                table.append(np.empty((len(distinct), *value.shape[1:]), dtype=value.dtype))
            table[i][start:start + span] = value
        del values
    steer, sums = table

    def blocks(first: int, stop: int, work: _Work):
        for start in range(first, stop, size):
            yield steer[at[start:start + size]], sums[at[start:start + size]]
    return blocks, True


@cache
def _openblas():
    """The ``get_num_threads`` and ``set_num_threads`` functions of the
    OpenBLAS mapped into this process, or None when none is found."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def _blas_threads():
    "The threads the loaded BLAS runs each call on, or None when it cannot be asked."
    found = _openblas()
    return None if found is None else found[0]()


def _set_blas_threads(count: int) -> None:
    """Make the loaded OpenBLAS run each call on ``count`` threads, for the
    whole process; without one, do nothing."""
    found = _openblas()
    if found is not None:
        found[1](count)


def _threads() -> int:
    """The threads a sweep may run on: one per CPU this process may run on
    when the BLAS runs each call on one thread, else one, since concurrent
    calls into a BLAS that threads them itself contend inside it."""
    if _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_threads(work, runs) -> None:
    """``work(*run)`` for every run of ``runs``: the first on this thread and
    each other on a thread of its own. Once every thread has ended, the
    first error a thread raised is raised here."""
    errors = []

    def guarded(*run):
        try:
            work(*run)
        except BaseException as err:
            errors.append(err)
    threads = [threading.Thread(target=guarded, args=run) for run in runs[1:]]
    for thread in threads:
        thread.start()
    try:
        work(*runs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _block_gains(plan: SimulationPlan, blocks, k_norm, phases) -> dict:
    """Gains of the requested schemes a block solves, for the next block of
    each leg's ``blocks``, whose normalization constants are ``k_norm`` and
    benchmark phases ``phases`` (None for zero phases). The benchmark channel
    is assembled only when a requested scheme reads it."""
    steer, sums = zip(*map(next, blocks))
    ch = CascadeChannel(*steer, k_norm=k_norm)
    h_bench = None
    if _BENCHMARK_SCHEMES & set(plan.schemes):
        h_bench = assemble_h(ch, np.zeros(ch.u_mat.shape[:-1]) if phases is None else phases)
    return {scheme: _SCHEME_GAINS[scheme](ch, sums, h_bench)
            for scheme in plan.schemes if scheme in _SCHEME_GAINS}


def _unit_order(plan: SimulationPlan, indices) -> NDArray[np.intp]:
    """Order of the units at (h_t, h_r) grid ``indices``: by index, and first
    by the transmit index modulo the antenna spacing in grid steps when that
    is whole, as arrays that many steps apart share element heights."""
    keys = [indices[:, 1], indices[:, 0]]
    steps = plan.s_t / plan.h_t_grid[2]
    if round(steps) > 1 and abs(steps - round(steps)) <= 1e-9:
        keys.append(indices[:, 0] % round(steps))
    return np.lexsort(keys)


def _sweep_gains(plan: SimulationPlan, indices, streams=None) -> tuple[dict, _Work]:
    """Gain arrays of every requested scheme over the units at (h_t, h_r)
    grid ``indices``, in that order, and the sweep's ``_Work`` record.

    ``streams``, the ``TrialStreams`` whose rows are the units, gives their
    benchmark phases, each run's drawn on a generator of its own; None
    means zero phases. Units run in ``_unit_order``, in blocks of
    ``_BLOCK_BYTES // _unit_bytes(plan)``, cut into ``_threads()`` runs when
    a leg builds its rows per block. A unit's normalization constant and
    ``ris_only_approx`` gain, terms of its heights alone, come first, and a
    sweep of ``ris_only_approx`` alone solves no block, so builds no steering.
    """
    order = _unit_order(plan, indices)
    # Heights come from the legs; the scene fixes only the shared geometry.
    cfg = plan.scene(plan.h_t_grid[0], plan.h_r_grid[0])
    size = max(1, _BLOCK_BYTES // _unit_bytes(plan))
    # A chunk's array factors take up to 64 bytes per element (57 measured,
    # gathered from its distinct heights).
    chunk = _chunk_units(64 * plan.n_ris, size)
    work = _Work()
    leg_heights = list(zip(legs(cfg), _heights(plan, *indices[order].T)))
    sides = [_leg_blocks(leg, cfg.wavelength, heights, size, work)
             for leg, heights in leg_heights] if _SCHEME_GAINS.keys() & set(plan.schemes) else []
    work.forms = ["table" if fits else "carried" for _, fits in sides]
    k_norm = normalization_constant(cfg, *(leg.corner(h) for leg, h in reversed(leg_heights)))
    # Each block frees its arrays together. glibc malloc returns a free heap
    # top to the kernel once it exceeds twice the largest mmap-served chunk
    # freed so far, and every block would then fault its pages in again (a
    # sixth of a wide sweep's time). Freeing one untouched buffer larger than
    # a block's arrays lifts that limit; elsewhere it costs one allocation.
    np.empty(2 * _BLOCK_BYTES, dtype=np.uint8)

    gains = {scheme: np.empty(len(indices)) for scheme in plan.schemes}

    def run(first: int, stop: int, work: _Work) -> None:
        if "ris_only_approx" in gains:
            for start in range(first, stop, chunk):
                end = min(start + chunk, stop)
                f_t, f_r = (_factors(leg, cfg.wavelength, heights[start:end], work)
                            for leg, heights in leg_heights)
                gains["ris_only_approx"][order[start:end]] = factor_gain(
                    k_norm[start:end], f_t, f_r)
                del f_t, f_r
        blocks = [side(first, stop, work) for side, _ in sides]
        rng = None if streams is None else np.random.default_rng(0)
        for start in range(first, stop, size) if blocks else ():
            block = order[start:start + size]
            block_phases = None if streams is None else streams.phases(block, plan.n_ris, rng)
            for scheme, values in _block_gains(plan, blocks, k_norm[start:start + size],
                                               block_phases).items():
                gains[scheme][block] = values
            work.blocks += 1
        work.units += stop - first
        work.runs += 1

    count = -(-len(order) // size)
    runs = 1 if all(fits for _, fits in sides) else min(_threads(), count)
    cuts = [min(len(order), size * (count * i // runs)) for i in range(runs + 1)]
    records = [_Work() for _ in range(runs)]
    _on_threads(run, [(first, stop, record)
                      for first, stop, record in zip(cuts[:-1], cuts[1:], records)])
    for record in records:
        work.add(record)
    return gains, work


def trial_gains(plan: SimulationPlan, trial_index: int) -> dict:
    """Coherent-sum gain of every requested scheme for one trial.

    Capacity follows from a gain via the shared single-stream map, so the
    per-trial work is SNR-independent. This is the sweep of the one trial
    ``trial_index``, an integer in [0, 2**64): its heights and random
    benchmark phases come from the stream twin, as every sweep's do.
    """
    require_int("trial_index", trial_index, 0, 2**64)  # the twin holds uint64
    gains = _plan_gains(plan, trials=[trial_index])[0]
    return {scheme: float(values[0]) for scheme, values in gains.items()}


def _plan_gains(plan: SimulationPlan, trials=None) -> tuple[dict, NDArray, int, _Work]:
    """Gains of every requested scheme over the units of ``trials`` (all the
    plan's by default), each unit's trial count, the number of distinct
    (h_t, h_r) grid pairs drawn and the sweep's ``_Work`` record: the units
    are those pairs in code order, or the trials, each of count 1, when a
    requested benchmark scheme reads the trials' random phases."""
    sizes = _grid_sizes(plan)
    trials = np.arange(plan.trials) if trials is None else trials
    streams = TrialStreams(plan.seed, trials, sizes)
    # pair codes t * n_r + r in uint64, below 2**64 on grids of up to 2**32 points
    (t, r), n_r = streams.indices.T.astype(np.uint64), np.uint64(sizes[1])
    codes, counts = np.unique(t * n_r + r, return_counts=True)
    if _reads_phases(plan):
        gains, work = _sweep_gains(plan, streams.indices, streams)
        counts = np.ones(len(trials), int)
    else:
        gains, work = _sweep_gains(plan, np.stack(np.divmod(codes, n_r), axis=-1))
    return gains, counts, len(codes), work


def _rows(plan: SimulationPlan, gains: dict, counts) -> tuple[ResultRow, ...]:
    """Mean capacity and standard error, 0 over one trial, of every scheme at
    every SNR over units of ``gains`` weighted by their trial ``counts``: the
    two-pass weighted variance (Chan, Golub & LeVeque, 1983). Pairwise sums
    along the unit axis give each SNR's row the bits of a one-SNR pass."""
    n = int(np.sum(counts))
    snr = SnrPoint.from_db(np.asarray(plan.snr_db)[:, np.newaxis])  # units on the last axis
    rows = []
    for scheme in plan.schemes:
        caps = capacity_from_gain(gains[scheme], plan.n_t, plan.n_r, snr)
        means = np.sum(caps * counts, axis=-1) / n
        stderrs = np.sqrt(np.sum((caps - means[:, np.newaxis]) ** 2 * counts, axis=-1)
                          / max(n - 1, 1)) / np.sqrt(n)
        rows += [ResultRow(scheme, float(snr_db), float(mean), float(stderr), n)
                 for snr_db, mean, stderr in zip(plan.snr_db, means, stderrs)]
    return tuple(sorted(rows, key=lambda r: (r.scheme, r.snr_db)))


def run_plan(plan: SimulationPlan, workers: int = 1) -> ResultTable:
    """Run all trials and reduce each unit's capacities, weighted by its trial count.

    The engine picks its threads itself, as the module docstring says, and
    sets no BLAS thread count. ``workers`` must be an integer >= 1 and is
    unused; it stays only because ``perfbench/workloads.py`` passes it, until
    the benchmark change of ROADMAP item 2b removes it there and here.
    ``metadata["distinct_pairs"]`` counts the distinct grid
    height pairs the trials drew, and ``metadata["work"]`` is the sweep's
    ``_Work`` record as a dict.
    """
    require_int("workers", workers, 1)
    gains, counts, pairs, work = _plan_gains(plan)
    return ResultTable(rows=_rows(plan, gains, counts), metadata={
        "plan": asdict(plan), "seed": plan.seed, "version": __version__, "distinct_pairs": pairs,
        "work": asdict(work)})


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
