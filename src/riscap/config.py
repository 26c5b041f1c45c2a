"""Flat ``key = value`` configuration files for simulation plans.

One entry per line, ``#`` starts a comment, arrays are comma-separated.
Distances carry an ``_m`` suffix in the file (meters). Unknown or duplicate
keys are rejected so typos cannot silently fall back to defaults.
"""

import math
import re
from dataclasses import MISSING, fields
from importlib import resources

from .sim import SimulationPlan

PRESETS = ("panel_a", "panel_b", "panel_c", "panel_d")


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


def _to_floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_to_float(key, item) for item in value.split(","))


def _to_names(key: str, value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


# Each plan field, the parser of its file keys' values and the keys, in the
# order a file's values are read. A height grid is read from three keys.
_FIELDS = {
    "wavelength": (_to_float, "lambda_m"),
    "s_t": (_to_float, "s_t_m"),
    "s_r": (_to_float, "s_r_m"),
    "s_ris": (_to_float, "s_ris_m"),
    "d_wall": (_to_float, "d_wall_m"),
    "d_ris": (_to_float, "d_ris_m"),
    "h_t_grid": (_to_float, "h_t_min_m", "h_t_max_m", "h_t_step_m"),
    "h_r_grid": (_to_float, "h_r_min_m", "h_r_max_m", "h_r_step_m"),
    "n_t": (_to_int, "n_t"),
    "n_r": (_to_int, "n_r"),
    "n_ris": (_to_int, "n_ris"),
    "snr_db": (_to_floats, "snr_db"),
    "trials": (_to_int, "trials"),
    "seed": (_to_int, "seed"),
    "schemes": (_to_names, "schemes"),
    "benchmark_ris_phase": (lambda key, value: value, "benchmark_ris_phase"),
}


# The file keys of plan field ``word`` when they are not its name. A plan checks
# its scene at the lowest grid heights, so a scene's h_t and h_r are the minima.
def _file_keys(word: str) -> tuple[str, ...]:
    if word in ("h_t", "h_r"):
        return _FIELDS[f"{word}_grid"][1:2]
    keys = _FIELDS[word][1:] if word in _FIELDS else ()
    return () if keys == (word,) else keys


def parse_plan_text(text: str, source: str = "<config>") -> SimulationPlan:
    "Build a SimulationPlan from configuration text; a key left out takes the plan's default."
    entries = _parse_entries(text, source)

    unknown = set(entries).difference(*(keys for _, *keys in _FIELDS.values()))
    if unknown:
        raise ValueError(f"{source}: unknown keys {sorted(unknown)}")
    missing = {key for field in fields(SimulationPlan) if field.default is MISSING
               for key in _FIELDS[field.name][1:]} - set(entries)
    if missing:
        raise ValueError(f"{source}: missing required keys {sorted(missing)}")

    given = {}
    for name, (parse, *keys) in _FIELDS.items():
        if keys[0] in entries:
            values = [parse(key, entries[key]) for key in keys]
            given[name] = tuple(values) if len(keys) > 1 else values[0]
    try:
        return SimulationPlan(**given)
    except ValueError as err:
        # quoted text is a value the file gave, not a field name
        words = re.findall(r"\w+", re.sub(r"'[^']*'|\"[^\"]*\"", "", str(err)))
        named = dict.fromkeys(", ".join(keys) for keys in map(_file_keys, words) if keys)
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
