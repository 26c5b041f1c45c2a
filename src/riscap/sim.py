"""Monte Carlo capacity sweeps over randomized antenna heights.

Each trial draws array-midpoint heights from discrete uniform grids, builds
the scene and cascade channel, solves the requested schemes, and evaluates
capacity at every SNR point. A plan builds its two height grids once, when
it is validated. Per-trial randomness is derived from (seed, trial_index)
alone: a trial's stream is ``default_rng(SeedSequence((seed, trial)))``, its
first two draws are the grid indices and the next ``n_ris`` are the random
benchmark phases (``_trial_stream``). A sweep draws the indices of all trials
at once with an array-code twin of that stream, and each trial's random
benchmark phases with NumPy's PCG64 set to the state the twin computed;
rows the twin flags (a seed or trial index of 2^32 or more, or a Lemire
rejection) and single trials draw from the trial's own generator, which is
cheaper for one trial.

A sweep's units are its distinct (h_t, h_r) grid pairs: unless a requested
benchmark scheme reads random benchmark phases, every gain is a function of
the pair alone, so each pair is solved once and its gains are scattered back
to the trials that drew it. Otherwise the units are the trials themselves.
Units run in blocks, in ``_unit_order``, with every scheme solved over a
leading unit axis. ``_BLOCK_BYTES`` bounds the bytes a block's arrays hold
at once, counted at ``_unit_bytes`` per unit: steering, solver scratch and
per-element arrays. A 1000-trial sweep of the benchmark's 32x16x256 wide
scene runs 250 blocks of 4 trials, and panel_d's 829 distinct pairs at seed
1 run 40 blocks of 21. Steering depends on each element's height
z = h + offset alone, so ``_LegCache`` builds each distinct row of a leg
once, keyed by the exact float z: for the whole sweep when the rows fit the
budget, else per block, building the rows the block before lacked. Units go
by transmit grid index, first by its residue modulo the antenna spacing in
grid steps when that is whole, so arrays that share element heights share
blocks. At seed 1 the wide sweep builds 14,464 transmit and 15,919 receive
rows and panel_d 496 and 204. Gains go back to trial order before the
reduction, and each unit's gain is bit-identical to the single-scene calls,
so the layout never shows in the results.
"""

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from . import __version__
from ._stream import TrialStreams
from .approx import array_factor
from .channel import CascadeChannel, assemble_h, corner_normalization, steering
from .geometry import Leg, SceneConfig, build_positions, legs, require_int
from .schemes import (
    SnrPoint,
    capacity_from_gain,
    cophasing_gain,
    solve_cophasing_mimo,
    solve_ris_only,
    solved_joint_gain,
)

# The most bytes a block's arrays may hold at once, counted at _unit_bytes
# per unit, and the most a leg's row table may take to build. Blocks hold
# at least one unit, so memory does not grow with the trial count.
_BLOCK_BYTES = 7 << 18


def _unit_bytes(plan: "SimulationPlan") -> int:
    """Peak bytes one unit adds to a block.

    Its steering, 16 per complex entry of both legs, is live throughout. On
    top comes the larger of the joint solver's gain-row terms and their
    angles, 24 per element and transmit antenna, and an assembled channel's
    receive-side temporaries and NumPy's cast buffer, up to 48 per element
    and receive antenna; 128 per element for path lengths, angles and array
    factors; and 48 per antenna pair for assembled channels and their
    angles. Steering rows carried in from the block before are live only
    while a block gathers its steering, before any solver scratch, and are
    no more than its own steering, so the scratch term covers them too.
    Measured with tracemalloc, this bounds every block of the shipped
    presets and the benchmark's wide sweep.
    """
    per_element = 16 * (plan.n_t + plan.n_r) + max(24 * plan.n_t, 48 * plan.n_r) + 128
    return plan.n_ris * per_element + 48 * plan.n_t * plan.n_r


# Coherent-sum gain of each scheme over a block, from its channel ``ch``,
# the transmit and receive array factors and the benchmark channel ``h``:
# the channel at the fixed (not optimized) benchmark RIS phases.
_SCHEME_GAINS = {
    "basic": lambda ch, f_t, f_r, h: np.abs(h.sum(axis=(-2, -1))),
    "cophasing": lambda ch, f_t, f_r, h: cophasing_gain(solve_cophasing_mimo(h), h),
    "joint": lambda ch, f_t, f_r, h: solved_joint_gain(ch),
    "ris_only": lambda ch, f_t, f_r, h: solve_ris_only(ch).b_gain,
    # approx_gain's sum, from the legs' array factors
    "ris_only_approx": lambda ch, f_t, f_r, h: ch.k_norm * np.sum(f_t * f_r, axis=-1),
}
SCHEMES = tuple(_SCHEME_GAINS)
# the schemes that read the benchmark channel, and so the benchmark phases
_BENCHMARK_SCHEMES = {"basic", "cophasing"}
BENCHMARK_PHASE_MODES = ("zero", "random")


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
    normalization reference heights are the grid midpoints. ``grids`` holds
    the read-only (h_t, h_r) height grids, built once during validation.
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
        grids = height_grid(*self.h_t_grid), height_grid(*self.h_r_grid)
        for grid in grids:
            grid.flags.writeable = False
        object.__setattr__(self, "grids", grids)
        if len(self.snr_db) == 0:
            raise ValueError("snr_db grid must not be empty")
        with np.errstate(over="ignore"):
            rho = _snr_linear(self.snr_db)
        if not np.all(np.isfinite(rho) & (rho > 0)):
            raise ValueError(
                f"snr_db values must give a positive finite linear SNR, "
                f"got {self.snr_db}"
            )
        require_int("trials", self.trials, 1)
        require_int("seed", self.seed, 0)
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


def _trial_stream(plan: SimulationPlan,
                  trial: int) -> "tuple[np.random.Generator, tuple[int, int]]":
    """A trial's generator, hashed from (seed, trial) alone, after its first
    two draws, and those draws: the trial's h_t and h_r grid indices."""
    require_int("trial_index", trial, 0)
    rng = np.random.default_rng(np.random.SeedSequence((plan.seed, trial)))
    return rng, tuple(int(rng.integers(len(grid))) for grid in plan.grids)


def sample_heights(plan: SimulationPlan, trial_index: int) -> tuple[float, float]:
    """Heights for one trial, uniform over the inclusive discrete grids.

    Depends only on (plan.seed, trial_index), not on any previously sampled
    trial, so single trials can be replayed in isolation.
    """
    _, indices = _trial_stream(plan, trial_index)
    h_t, h_r = (float(grid[i]) for grid, i in zip(plan.grids, indices))
    return h_t, h_r


def _sweep_streams(plan: SimulationPlan, trials) -> TrialStreams:
    "The stream twin of ``trials``, with the grid indices of its flagged rows from NumPy."
    streams = TrialStreams(plan.seed, trials, [len(grid) for grid in plan.grids])
    for row in np.flatnonzero(streams.flagged):
        streams.indices[row] = _trial_stream(plan, int(trials[row]))[1]
    return streams


def _benchmark_phases(plan: SimulationPlan, trials, streams, rows) -> NDArray[np.float64]:
    """Random benchmark phases of the units at positions ``rows`` of
    ``trials``: the ``n_ris`` draws right after each trial's grid indices,
    from the twin's ``streams`` of ``trials`` where it covers them, else from
    the trial's own generator."""
    phases = streams.phases(rows, plan.n_ris)
    for i in np.flatnonzero(streams.flagged[rows]):
        rng = _trial_stream(plan, int(trials[rows[i]]))[0]
        phases[i] = rng.uniform(-np.pi, np.pi, size=plan.n_ris)
    return phases


def _build_rows(leg: Leg, wavelength: float, z) -> NDArray[np.complex128]:
    "Steering rows ``(len(z), n_ris)`` of a leg's elements at heights ``z``."
    return steering(leg.rows(z), wavelength)


def _row_table(leg: Leg, wavelength: float, keys):
    """The rows at all of a sweep's element heights ``keys``, or None if
    building them takes more than ``_BLOCK_BYTES`` (24 bytes per entry)."""
    fits = 24 * len(keys) * len(leg.x) <= _BLOCK_BYTES
    return _build_rows(leg, wavelength, keys) if fits else None


def _found(keys, values) -> NDArray[np.bool_]:
    "Mask of the sorted, distinct ``keys`` found among ``values``."
    at = np.searchsorted(keys[:-1], values)
    found = np.zeros(len(keys), dtype=bool)
    found[at[keys[at] == values]] = True
    return found


class _LegCache:
    """A leg's steering, corner path length and array factor for blocks of
    ``size`` units at array ``heights``, in sweep order.

    Steering depends on each element's height ``z = h + offset`` alone, so
    its rows are keyed by the exact float ``z``. They form one table when
    ``_row_table`` builds it, and the corner and factor are then computed once
    per distinct height. Otherwise each block builds the rows the block
    before it lacked, and ``carry`` copies out of the block's solved steering
    the rows the next block needs.
    """

    def __init__(self, leg: Leg, wavelength: float, heights, size: int):
        self.leg, self.wavelength, self.heights, self.size = leg, wavelength, heights, size
        # np.unique(z) would load numpy.ma, about 1 MB of peak RSS
        z = np.sort(leg.heights(heights), axis=None)
        keys = z[np.concatenate(([True], z[1:] != z[:-1]))]
        rows = _row_table(leg, wavelength, keys)
        self.table = None
        if rows is not None:
            distinct, at = np.unique(heights, return_inverse=True)
            self.table = keys, rows, at, self._per_height(distinct)
        self.carried = np.empty(0), np.empty((0, len(leg.x)), dtype=complex)

    def _per_height(self, h) -> tuple:
        "Element-(1,1) path length and array factor of arrays at heights ``h``."
        factor = array_factor(len(self.leg.offsets), self.leg.spacing, self.leg.toward(h)[1],
                              self.wavelength)
        return np.hypot(self.leg.x[0], h + self.leg.offsets[0]), factor

    def block(self, start: int) -> tuple:
        "Steering in the leg's layout, corner path length and array factor of a block."
        stop = start + self.size
        h = self.heights[start:stop]
        z = self.leg.heights(h)
        if self.table is not None:
            keys, table, at, per_height = self.table
            return (self.leg.layout(table[np.searchsorted(keys, z)]),
                    *(values[at[start:stop]] for values in per_height))
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
        return self.leg.layout(rows), *self._per_height(h)

    def carry(self, steer) -> None:
        "Keep the rows the next block needs, copied out of this block's solved ``steer``."
        if self.table is None:
            held, (units, antennas) = self.kept
            self.carried = held, (steer[units, :, antennas] if self.leg.elements_first
                                  else steer[units, antennas])


def _block_gains(plan: SimulationPlan, cfg: SceneConfig, caches, start: int,
                 draw_phases) -> dict:
    """Gains of every requested scheme for the block at sweep position
    ``start``, whose benchmark phases ``draw_phases()`` draws (None for zero
    phases). The benchmark channel is assembled, and its phases drawn, only
    when a requested scheme reads it."""
    (u_mat, d2_corner, factor_t), (v_mat, d1_corner, factor_r) = (
        cache.block(start) for cache in caches)
    ch = CascadeChannel(u_mat=u_mat, v_mat=v_mat,
                        k_norm=corner_normalization(cfg, d1_corner, d2_corner))
    h_bench = None
    if _BENCHMARK_SCHEMES & set(plan.schemes):
        phases = np.zeros(u_mat.shape[:-1]) if draw_phases is None else draw_phases()
        h_bench = assemble_h(ch, phases)
    gains = {scheme: _SCHEME_GAINS[scheme](ch, factor_t, factor_r, h_bench)
             for scheme in plan.schemes}
    # after the solve, so carried rows never sit beside the solvers' scratch
    for cache, steer in zip(caches, (u_mat, v_mat)):
        cache.carry(steer)
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
    caches = [_LegCache(leg, cfg.wavelength, grid[column[order]], block_size)
              for leg, grid, column in zip(legs(cfg), plan.grids, indices.T)]
    # Each block frees its arrays together. glibc malloc returns a free heap
    # top to the kernel once it exceeds twice the largest mmap-served chunk
    # freed so far, and every block would then fault its pages in again (a
    # sixth of a wide sweep's time). Freeing one untouched buffer larger than
    # a block's arrays lifts that limit; elsewhere it costs one allocation.
    np.empty(2 * _BLOCK_BYTES, dtype=np.uint8)

    gains = {scheme: np.empty(len(indices)) for scheme in plan.schemes}
    for start in range(0, len(order), block_size):
        block = order[start:start + block_size]
        draw_phases = None if phases is None else partial(phases, block)
        for scheme, values in _block_gains(plan, cfg, caches, start, draw_phases).items():
            gains[scheme][block] = values
    return gains


def trial_gains(plan: SimulationPlan, trial_index: int) -> dict:
    """Coherent-sum gain of every requested scheme for one trial.

    Capacity follows from a gain via the shared single-stream map, so the
    per-trial work is SNR-independent. This is the sweep's block engine on
    a block of one trial, with its heights and random benchmark phases drawn
    from the trial's generator.
    """
    rng, indices = _trial_stream(plan, trial_index)
    phases = None
    if plan.benchmark_ris_phase == "random":
        def phases(rows):
            return rng.uniform(-np.pi, np.pi, size=(len(rows), plan.n_ris))
    gains = _sweep_gains(plan, np.array([indices]), phases)
    return {scheme: float(values[0]) for scheme, values in gains.items()}


def _plan_gains(plan: SimulationPlan) -> tuple[dict, int]:
    """Gain arrays of every requested scheme in trial order, and the number
    of distinct (h_t, h_r) grid pairs the trials drew.

    Each distinct pair is solved once and its gains are scattered back to
    its trials, unless a requested benchmark scheme reads random phases
    from the trials' streams; then every trial is solved.
    """
    trials = np.arange(plan.trials)
    streams = _sweep_streams(plan, trials)
    indices = streams.indices
    n_r = len(plan.grids[1])
    codes, inverse = np.unique(indices[:, 0] * n_r + indices[:, 1], return_inverse=True)
    if plan.benchmark_ris_phase == "random" and _BENCHMARK_SCHEMES & set(plan.schemes):
        phases = partial(_benchmark_phases, plan, trials, streams)
        return _sweep_gains(plan, indices, phases), len(codes)
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
