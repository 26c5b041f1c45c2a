"""Deterministic capacity simulator for RIS-assisted indoor mmWave links.

Builds the geometric cascade channel between two wall-mounted antenna
arrays via a floor-mounted reconfigurable surface, solves phase-only
optimization schemes and benchmarks, and runs seeded Monte Carlo capacity
sweeps that emit machine-readable CSV results.
"""

# Set before the submodules load: run_plan records it. pyproject.toml reads
# the package version from this line.
__version__ = "0.1.0"

from .approx import approx_gain
from .channel import CascadeChannel, assemble_h, build_cascade
from .config import load_preset, parse_plan_file, parse_plan_text
from .geometry import (
    SceneConfig,
    ScenePositions,
    build_positions,
)
from .oracle import (
    QuantizedSearchSpec,
    exhaustive_best,
    joint_objective,
    random_restart_best,
    ris_only_objective,
)
from .schemes import (
    CoPhasingSolution,
    JointSolution,
    SnrPoint,
    capacity_from_gain,
    cophasing_gain,
    joint_gain,
    solve_cophasing_mimo,
    solve_joint,
    solve_ris_only,
)
from .sim import (
    ResultRow,
    ResultTable,
    SimulationPlan,
    run_plan,
    sample_heights,
    trial_gains,
    write_csv,
)


__all__ = [
    "CascadeChannel",
    "CoPhasingSolution",
    "JointSolution",
    "QuantizedSearchSpec",
    "ResultRow",
    "ResultTable",
    "SceneConfig",
    "ScenePositions",
    "SimulationPlan",
    "SnrPoint",
    "approx_gain",
    "assemble_h",
    "build_cascade",
    "build_positions",
    "capacity_from_gain",
    "cophasing_gain",
    "exhaustive_best",
    "joint_gain",
    "joint_objective",
    "load_preset",
    "parse_plan_file",
    "parse_plan_text",
    "random_restart_best",
    "ris_only_objective",
    "run_plan",
    "sample_heights",
    "solve_cophasing_mimo",
    "solve_joint",
    "solve_ris_only",
    "trial_gains",
    "write_csv",
]
