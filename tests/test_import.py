import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import riscap

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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
    # np.unique without a return flag loads numpy.ma, about 1 MB of peak RSS
    assert "numpy.ma" not in probe["ran"]
    assert isinstance(probe["version"], str)
    assert probe["recorded"] == probe["version"]


def riscap_imports(source: str) -> set:
    "Names that Python source imports from the top-level ``riscap`` package."
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "riscap"
            for alias in node.names}


def test_all_is_the_public_surface_programs_import():
    # one list of exports: what the package binds is what __all__ names
    assert len(riscap.__all__) == len(set(riscap.__all__))
    public = {name for name, value in vars(riscap).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(riscap.__all__) == public
    readme = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    for source in ((ROOT / "perfbench" / "workloads.py").read_text(), example):
        imported = riscap_imports(source)
        assert imported and imported <= set(riscap.__all__)
