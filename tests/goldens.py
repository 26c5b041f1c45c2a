"""Each golden CSV of ``tests/golden/`` with its one recipe: a shipped preset and the
config keys it overrides. ``python tests/goldens.py [DIR]`` runs every recipe through
``riscap simulate`` into DIR (a fresh temporary directory by default), prints for each
file and scheme whose rows moved their count and largest |mean change|, in bits and in
the golden row's standard errors, and exits 1 on any byte difference. To re-golden, run
it into a directory and copy the CSVs."""

import argparse
import math
import tempfile
from importlib import resources
from pathlib import Path

from riscap.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"
# the benchmark's wide scene: panel_a's geometry, 32x16x256 arrays, 0.1 mm grids
WIDE = ("n_t = 32", "n_r = 16", "n_ris = 256", "h_t_step_m = 0.0001", "h_r_step_m = 0.0001",
        "trials = 50")
# golden CSV -> (preset, the config lines that override its keys)
GOLDENS = {
    **{f"{panel}_{trials}.csv": (panel, f"trials = {trials}")
       for panel in ("panel_a", "panel_b", "panel_c", "panel_d") for trials in (50, 1000)},
    "panel_a_random_200.csv": ("panel_a", "benchmark_ris_phase = random", "trials = 200"),
    # a sweep table whose rows arrays up to 175 steps apart share
    "panel_a_fine_tx_200.csv": ("panel_a", "h_t_max_m = 2.02", "h_t_step_m = 0.0001",
                                "trials = 200"),
    # both legs build their rows per block, in one run per CPU
    "wide_random_50.csv": ("panel_a", *WIDE, "benchmark_ris_phase = random"),
    "wide_zero_50.csv": ("panel_a", *WIDE),
}


def config_text(name: str) -> str:
    "Golden ``name``'s config: its preset's lines but those the recipe overrides, then its own."
    preset, *settings = GOLDENS[name]
    keys = {setting.partition(" ")[0] for setting in settings}
    lines = (resources.files("riscap") / "presets" / f"{preset}.cfg").read_text().splitlines()
    kept = [line for line in lines if line.partition(" ")[0] not in keys]
    return "\n".join(kept + settings) + "\n"


def simulate(name: str, out: Path) -> int:
    "Writes golden ``name``'s config and CSV into ``out``; returns simulate's exit code."
    config = (out / name).with_suffix(".cfg")
    config.write_text(config_text(name))
    return cli_main(["simulate", "--config", str(config), "--out", str(out / name)])


def report(name: str, golden: str, output: str) -> list[str]:
    "A line per scheme whose rows differ between CSV texts ``golden`` and ``output``."
    # (scheme, snr_db) -> [mean, stderr, trials]
    old, new = ({tuple(line.split(",")[:2]): line.split(",")[2:] for line in text.splitlines()[1:]}
                for text in (golden, output))
    gone, moved = ["inf", "0"], {}  # a row only one text holds moved by inf
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, gone), new.get(key, gone)
        if was != now:
            delta = abs(float(now[0]) - float(was[0]))
            moved.setdefault(key[0], []).append((delta, float(was[1])))
    lines = [f"{name} {scheme}: {len(rows)} rows moved, largest |mean change| {delta:.3g} bits"
             f" = {delta / stderr if stderr else math.inf:.3g} stderr"
             for scheme, rows in moved.items() for delta, stderr in [max(rows)]]
    return lines or ([f"{name}: bytes differ outside the rows"] if golden != output else [])


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    differ = 0
    for name in GOLDENS:
        # bytes, decoded: read_text would read a CRLF as an LF
        golden = (GOLDEN / name).read_bytes().decode() if (GOLDEN / name).exists() else ""
        lines = report(name, golden, (out / name).read_bytes().decode()) \
            if simulate(name, out) == 0 else [f"{name}: simulate failed"]
        print("\n".join(lines or [f"{name}: same bytes"]))
        differ += bool(lines)
    print(f"{differ} of {len(GOLDENS)} goldens differ")
    return int(bool(differ))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", nargs="?", type=Path, help="directory for the configs and CSVs")
    with tempfile.TemporaryDirectory() as scratch:
        raise SystemExit(main(parser.parse_args().dir or Path(scratch)))
