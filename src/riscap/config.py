"""Flat ``key = value`` configuration files for simulation plans.

One entry per line, ``#`` starts a comment, arrays are comma-separated.
Distances carry an ``_m`` suffix in the file (meters). Unknown or duplicate
keys are rejected so typos cannot silently fall back to defaults.
"""

import math
import re
from importlib import resources

from .sim import SCHEMES, SimulationPlan

_REQUIRED_FLOAT_KEYS = (
    "lambda_m", "s_t_m", "s_r_m", "s_ris_m", "d_wall_m", "d_ris_m",
    "h_t_min_m", "h_t_max_m", "h_t_step_m",
    "h_r_min_m", "h_r_max_m", "h_r_step_m",
)
_REQUIRED_INT_KEYS = ("n_t", "n_r", "n_ris")
_OPTIONAL_KEYS = ("snr_db", "trials", "seed", "schemes", "benchmark_ris_phase")

DEFAULT_SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1

PRESETS = ("panel_a", "panel_b", "panel_c", "panel_d")

# The file keys of the plan fields whose names differ from them. A plan
# checks its scene at the lowest grid heights, so h_t and h_r are the minima.
_FIELD_KEYS = {
    "wavelength": "lambda_m", "s_t": "s_t_m", "s_r": "s_r_m", "s_ris": "s_ris_m",
    "d_wall": "d_wall_m", "d_ris": "d_ris_m", "h_t": "h_t_min_m", "h_r": "h_r_min_m",
    "h_t_grid": "h_t_min_m, h_t_max_m, h_t_step_m", "h_r_grid": "h_r_min_m, h_r_max_m, h_r_step_m",
}


def _parse_entries(text: str, source: str) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"key {key!r}: expected an integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"key {key!r}: expected a finite number, got {value!r}")
    return number


def parse_plan_text(text: str, source: str = "<config>") -> SimulationPlan:
    "Build a SimulationPlan from configuration text."
    entries = _parse_entries(text, source)

    known = set(_REQUIRED_FLOAT_KEYS) | set(_REQUIRED_INT_KEYS) | set(_OPTIONAL_KEYS)
    unknown = set(entries) - known
    if unknown:
        raise ValueError(f"{source}: unknown keys {sorted(unknown)}")
    missing = (set(_REQUIRED_FLOAT_KEYS) | set(_REQUIRED_INT_KEYS)) - set(entries)
    if missing:
        raise ValueError(f"{source}: missing required keys {sorted(missing)}")

    floats = {key: _to_float(key, entries[key]) for key in _REQUIRED_FLOAT_KEYS}
    ints = {key: _to_int(key, entries[key]) for key in _REQUIRED_INT_KEYS}

    if "snr_db" in entries:
        snr_db = tuple(
            _to_float("snr_db", item) for item in entries["snr_db"].split(",")
        )
    else:
        snr_db = DEFAULT_SNR_DB

    if "schemes" in entries:
        schemes = tuple(
            item.strip() for item in entries["schemes"].split(",") if item.strip()
        )
    else:
        schemes = SCHEMES

    try:
        return SimulationPlan(
            wavelength=floats["lambda_m"],
            n_t=ints["n_t"],
            n_r=ints["n_r"],
            n_ris=ints["n_ris"],
            s_t=floats["s_t_m"],
            s_r=floats["s_r_m"],
            s_ris=floats["s_ris_m"],
            d_wall=floats["d_wall_m"],
            d_ris=floats["d_ris_m"],
            h_t_grid=(floats["h_t_min_m"], floats["h_t_max_m"], floats["h_t_step_m"]),
            h_r_grid=(floats["h_r_min_m"], floats["h_r_max_m"], floats["h_r_step_m"]),
            snr_db=snr_db,
            trials=_to_int("trials", entries.get("trials", str(DEFAULT_TRIALS))),
            seed=_to_int("seed", entries.get("seed", str(DEFAULT_SEED))),
            schemes=schemes,
            benchmark_ris_phase=entries.get("benchmark_ris_phase", "zero"),
        )
    except ValueError as err:
        # quoted text is a value the file gave, not a field name
        words = re.findall(r"\w+", re.sub(r"'[^']*'|\"[^\"]*\"", "", str(err)))
        named = dict.fromkeys(_FIELD_KEYS[word] for word in words if word in _FIELD_KEYS)
        if not named:
            raise
        raise ValueError(f"{err} (file key: {', '.join(named)})") from err


def parse_plan_file(path) -> SimulationPlan:
    "Read and parse a configuration file."
    with open(path, "r") as handle:
        return parse_plan_text(handle.read(), source=str(path))


def load_preset(name: str) -> SimulationPlan:
    "Parse one of the shipped preset configurations."
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {PRESETS}")
    text = (resources.files("riscap") / "presets" / f"{name}.cfg").read_text()
    return parse_plan_text(text, source=f"preset:{name}")
