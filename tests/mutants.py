"""Planted faults of the engine and its parser, and a runner that checks the suite kills each.

Each mutant is a one-line edit of a module under ``src/riscap``: a target
text, which must occur exactly once in the module (some carry the next line
only to be unique), and its replacement. pytest does not collect this file.

    python tests/mutants.py                 # every mutant against this checkout
    python tests/mutants.py --root DIR      # ... against another checkout's src and tests
    python tests/mutants.py --check         # only check that every target occurs once

The runner copies the checkout to a scratch directory and never edits the
checkout. It first runs tier-1 on the unmutated copy and stops with exit 1
unless that passes, so only a failure a mutant causes counts. For each mutant it edits the copy, runs tier-1 there with ``-x``
and a fixed hypothesis seed, and restores the file. A mutant is killed when
a test fails; a run that times out is not a kill. It prints a Markdown table
row per mutant and exits 1 unless every mutant was killed.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (name, module, target, replacement)
MUTANTS = [
    ("block cut one unit short", "sim.py",
     "size = max(1, _BLOCK_BYTES // _unit_bytes(plan))",
     "size = max(1, _BLOCK_BYTES // _unit_bytes(plan) - 1)"),
    ("run cut one block late", "sim.py",
     "size * (count * i // runs)) for i", "size * (count * i // runs + (0 < i < runs))) for i"),
    ("row rebuilt instead of taken", "sim.py",
     "taken = held[at] == values", "taken = np.zeros(len(values), dtype=bool)"),
    ("top held row dropped from the search", "sim.py",
     "np.searchsorted(held, values), len(held) - 1)",
     "np.searchsorted(held, values), len(held) - 2)"),
    ("taken rows counted per element", "sim.py",
     "work.taken[side] += len(units)", "work.taken[side] += int(np.count_nonzero(taken[local]))"),
    ("table laid out per unit", "sim.py",
     "distinct, at = np.unique(heights, return_inverse=True)\n    if not _table_fits",
     "distinct, at = heights, np.arange(len(heights))\n    if not _table_fits"),
    ("wrong form: table charged half its bytes", "sim.py",
     "return 16 * count * len(leg.offsets)", "return 8 * count * len(leg.offsets)"),
    ("runs although a leg is tabled", "sim.py",
     "runs = 1 if all(fits for", "runs = 1 if any(fits for"),
    ("first unit's normalization for every unit", "sim.py",
     "*(leg.corner(h) for leg", "*(leg.corner(h[:1]) for leg"),
    ("array factors per unit", "sim.py",
     "distinct, at = np.unique(heights, return_inverse=True)\n    work.factors",
     "distinct, at = heights, np.arange(len(heights))\n    work.factors"),
    ("approximation chunk of one block", "sim.py",
     "chunk = _chunk_units(64 * plan.n_ris, size)", "chunk = size"),
    ("steering built for an approximation-only sweep", "sim.py",
     "if _SCHEME_GAINS.keys() & set(plan.schemes) else []", "if True else []"),
    ("residue order for a spacing of no whole steps", "sim.py",
     "if round(steps) > 1 and abs(steps - round(steps)) <= 1e-9:", "if round(steps) > 1:"),
    ("wrong trial weight", "sim.py", "n = int(np.sum(counts))", "n = len(counts)"),
    ("skipped trial", "sim.py",
     "trials = np.arange(plan.trials) if", "trials = np.arange(1, plan.trials) if"),
    ("lost benchmark phases in a block", "sim.py",
     "block_phases = None if streams is None else streams.phases(block, plan.n_ris, rng)",
     "block_phases = None"),
    ("benchmark channel assembled for every plan", "sim.py",
     "if _BENCHMARK_SCHEMES & set(plan.schemes):", "if True:"),
    ("error of a later run dropped", "sim.py", "raise errors[0]", "errors.clear()"),
    ("swapped leg sums in the sweep's gain rows", "channel.py",
     "ch.v_mat.sum(axis=-2) if sums is None else sums[1]",
     "ch.v_mat.sum(axis=-2) if sums is None else sums[0]"),
    ("lost phase", "channel.py", "if not phi.any():", "if True:"),
    ("steering at twice the wavelength", "channel.py",
     "phase *= 1.0 / wavelength", "phase *= 0.5 / wavelength"),
    ("cos and sin swapped", "channel.py",
     "np.cos(phase, out=out.real)\n    np.sin(phase, out=phase)",
     "np.sin(phase, out=out.real)\n    np.cos(phase, out=phase)"),
    ("corner at the top antenna", "geometry.py",
     "offsets=self.offsets[:1])", "offsets=self.offsets[-1:])"),
    ("array offsets shifted one spacing", "geometry.py",
     "return (np.arange(1, n + 1) - (n + 1) / 2.0) * spacing",
     "return (np.arange(n) - (n + 1) / 2.0) * spacing"),
    ("joint phases over the element count", "schemes.py",
     "phi = principal_angle(terms).sum(axis=-1) / -ch.n_t",
     "phi = principal_angle(terms).sum(axis=-1) / -ch.n_ris"),
    ("ris_only gain summed over the batch", "schemes.py",
     "ch.k_norm * np.sum(np.abs(c), axis=-1)", "ch.k_norm * np.abs(c).sum()"),
    ("lost receive phases of co-phasing", "schemes.py",
     "alpha = -principal_angle((h @ t_vec)[..., 0])",
     "alpha = 0 * principal_angle((h @ t_vec)[..., 0])"),
    ("Lemire rejection not flagged", "_stream.py",
     "self.flagged |= (scaled & _LOW) < (1 << 32) % size",
     "self.flagged |= (scaled & _LOW) < 0 * size"),
    ("buffered high half lost", "_stream.py",
     "self._buffered = np.full(len(trials), draws == 1)",
     "self._buffered = np.full(len(trials), False)"),
    ("grid fed from its minimum key alone", "config.py",
     "parse(key, entries[key]) for key in keys", "parse(key, entries[keys[0]]) for key in keys"),
    ("changed default", "sim.py", "    seed: int = 1\n", "    seed: int = 2\n"),
    ("optional key treated as required", "config.py",
     "if field.default is MISSING", "if field.default is MISSING or field.name == \"trials\""),
    ("dropped file-key suffix", "config.py",
     "raise ValueError(f\"{err} (file key: {', '.join(named)})\") from err",
     "raise ValueError(str(err)) from err"),
    ("scene's h_t named by its grid's top key", "config.py",
     "return _FIELDS[f\"{word}_grid\"][1:2]", "return _FIELDS[f\"{word}_grid\"][2:3]"),
    ("quoted value read as a field name", "config.py",
     "re.sub(r\"'[^']*'|", "re.sub(r\"(?!)'[^']*'|"),
    ("directory --out accepted", "cli.py", "if os.path.isdir(args.out):", "if False:"),
]

TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
          "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT = 600.0  # seconds of tier-1 per mutant


def tier_1(copy: Path):
    "The outcome, the first failed test and the seconds of tier-1 on ``copy``."
    start = time.perf_counter()
    try:
        done = subprocess.run(TIER_1, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT,
                              env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, f"exit {done.returncode}")
    return outcome, failed.group(1) if failed else "", time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src and tests run (default: this one)")
    parser.add_argument("--check", action="store_true",
                        help="only check that every target occurs exactly once")
    parser.add_argument("--scratch", type=Path, help="directory for the scratch copy")
    args = parser.parse_args(argv)
    missing = [name for name, module, target, _ in MUTANTS
               if (args.root / "src" / "riscap" / module).read_text().count(target) != 1]
    for name in missing:
        print(f"the target of {name!r} does not occur exactly once", file=sys.stderr)
    if missing or args.check:
        print(f"{len(MUTANTS) - len(missing)} of {len(MUTANTS)} mutant targets occur once")
        return int(bool(missing))
    killed = 0
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(args.root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
        # a failure of the unmutated suite would count as a kill of every mutant
        outcome, test, _ = tier_1(copy)
        if outcome != "survived":
            print(f"tier-1 fails without a mutant: {outcome} {test}", file=sys.stderr)
            return 1
        print("| mutant | module | outcome | first failed test | s |\n|---|---|---|---|---|")
        for name, module, target, replacement in MUTANTS:
            path = copy / "src" / "riscap" / module
            source = path.read_text()
            path.write_text(source.replace(target, replacement))
            outcome, test, seconds = tier_1(copy)
            path.write_text(source)
            killed += outcome == "killed"
            print(f"| {name} | {module} | {outcome} | {test} | {seconds:.0f} |", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return int(killed != len(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
