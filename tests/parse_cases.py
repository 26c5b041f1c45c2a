"""The config parser's cases, parsed by this checkout and by another, compared.

    python tests/parse_cases.py DIR     # DIR: another checkout, e.g. the parent commit's

The cases are the shipped presets, every recipe of ``tests/goldens.py``, and
panel_a with each of its lines' keys set to each ``HOSTILE`` value, left out,
or given twice. Each checkout's ``src`` parses every case in a fresh
interpreter, which gives the plan's repr or the exception's type and message.
The script prints each case whose outcomes differ and the case count, and
exits 1 on any difference. pytest does not collect this file.
"""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from goldens import GOLDENS, config_text
from riscap.config import PRESETS

HOSTILE = ("", "0", "-1", "1.5", "1e400", "nan", "-inf", "abc", "1, 2", "1e-12", "1e10",
           "4294967296", "0x10", "1_0", "zero", "wavelength", "'h_t'", " , ,", "basic, basic")

PARSE = """
import json, sys
import riscap
assert riscap.__file__.startswith(sys.argv[1]), riscap.__file__
outcomes = []
for text in json.load(sys.stdin):
    try:
        outcomes.append(repr(riscap.parse_plan_text(text, "case")))
    except Exception as err:
        outcomes.append(f"{type(err).__name__}: {err}")
print(json.dumps(outcomes))
"""


def cases() -> dict:
    "Each case's name and config text."
    preset = {name: (resources.files("riscap") / "presets" / f"{name}.cfg").read_text()
              for name in PRESETS}
    found = {**preset, **{name: config_text(name) for name in GOLDENS}}
    lines = preset["panel_a"].splitlines()
    keyed = {i: line.partition("=")[0].strip() for i, line in enumerate(lines)
             if "=" in line and not line.startswith("#")}

    def edit(swaps: dict) -> str:
        "panel_a with the line at each index of ``swaps`` replaced by its list of lines."
        return "\n".join(x for i, line in enumerate(lines) for x in swaps.get(i, [line])) + "\n"

    for i, key in keyed.items():
        found |= {f"panel_a {key} = {value!r}": edit({i: [f"{key} = {value}"]})
                  for value in HOSTILE}
        found |= {f"panel_a without {key}": edit({i: []}),
                  f"panel_a {key} twice": edit({i: [lines[i]] * 2})}
    # two bad values: the error names the one read first
    found |= {f"panel_a {a} and {b} = 'abc'": edit({i: [f"{a} = abc"], j: [f"{b} = abc"]})
              for i, a in keyed.items() for j, b in keyed.items() if i < j}
    return found


def outcomes(root: Path, texts: list) -> list:
    "What ``root``'s parser gives for each text."
    src = (root / "src").resolve()
    done = subprocess.run([sys.executable, "-c", PARSE, str(src)], input=json.dumps(texts),
                          capture_output=True, text=True, check=True, cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    found = cases()
    names, texts = list(found), list(found.values())
    here = outcomes(Path(__file__).resolve().parents[1], texts)
    there = outcomes(parser.parse_args().other, texts)
    differ = [name for name, a, b in zip(names, here, there) if a != b]
    for name in differ:
        print(f"{name}: {there[names.index(name)]} -> {here[names.index(name)]}")
    print(f"{len(differ)} of {len(names)} cases differ")
    return int(bool(differ))


if __name__ == "__main__":
    sys.exit(main())
