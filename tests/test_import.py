import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
from dataclasses import replace
import numpy
before = set(sys.modules)
import riscap
with open(sys.argv[1]) as handle:
    plan = riscap.parse_plan_text(handle.read())
added = set(sys.modules) - before
table = riscap.run_plan(replace(plan, trials=3))
ran = set(sys.modules) - before
print(json.dumps({"added": sorted(added), "ran": sorted(ran), "version": riscap.__version__,
                  "recorded": table.metadata["version"]}))
"""


def test_import_loads_neither_metadata_nor_numpy_random():
    # Both cost start-up time. A sweep loads numpy.random when it first draws
    # a trial's stream; the version is a literal, so no run looks it up.
    preset = SRC / "riscap" / "presets" / "panel_d.cfg"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, str(preset)], check=True,
                         capture_output=True, text=True, env=env).stdout
    probe = json.loads(out)
    for module in ("importlib.metadata", "numpy.random"):
        assert module not in probe["added"]
    assert "importlib.metadata" not in probe["ran"]
    assert isinstance(probe["version"], str)
    assert probe["recorded"] == probe["version"]
