"The README as written: its library example runs, and every name it cites exists."

import importlib
import re
from dataclasses import fields
from pathlib import Path

from riscap import sim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    capacity, unit = capsys.readouterr().out.split()
    assert float(capacity) > 0 and unit == "bits"


def test_cited_names_exist():
    # every sim._name, riscap.<module>.<name>[.<attribute>] and
    # tests/<module>.py::<name> the README cites
    text = README.read_text()
    cited = {("riscap.sim", name) for name in re.findall(r"\bsim\.(_\w+)", text)}
    cited |= {(f"riscap.{module}", name)
              for module, name in re.findall(r"\briscap\.(\w+)\.(\w+(?:\.\w+)*)", text)}
    cited |= set(re.findall(r"\btests/(\w+)\.py::(\w+)", text))
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not has_path(importlib.import_module(module), name)]
    assert {"test_sim", "riscap.geometry"} <= {module for module, _ in cited} and not missing


def has_path(obj, dotted):
    "Whether ``obj`` has the attribute chain ``dotted``."
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_work_record_fields_listed_in_order():
    # the engine section's list of run_plan's metadata["work"] fields
    listed = README.read_text().split("Its fields:\n", 1)[1].split("\n\n", 1)[0]
    heads = " ".join(line.split(":")[0] for line in listed.splitlines() if line.startswith("- "))
    assert re.findall(r"`(\w+)`", heads) == [field.name for field in fields(sim._Work)]
