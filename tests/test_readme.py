"The README as written: its library example runs, and every name it cites exists."

import argparse
import importlib
import re
from dataclasses import MISSING, fields
from pathlib import Path

from riscap import SimulationPlan, cli, config, parse_plan_text, sim

from conftest import GEOMETRY

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


def test_cited_flags_exist():
    # every --flag under "Command line" is an option of some subcommand
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    cited = set(re.findall(r"(?<![\w-])--\w[\w-]*", section))
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for command in commands.values() for flag in command._option_string_actions}
    assert {"--config", "--out"} <= cited and cited <= options, sorted(cited - options)


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


def test_config_keys_listed_in_order():
    # the key block under "Config format", in the order of the table
    section = README.read_text().split("\n## Config format\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    listed = [key for line in block.splitlines() for key in line.split("#")[0].split()]
    assert listed == [key for _, *keys in config._FIELDS.values() for key in keys]


def test_config_defaults_are_the_plans():
    # the paragraph that spells out the defaults names each optional key once,
    # in the table's order, and parses to the plan that leaves them out
    text = README.read_text().split("The geometry keys are required.", 1)[1]
    spelled = re.findall(r"`(\w+) = ([^`]*)`", text.split("\n\n", 1)[0])
    optional = {field.name for field in fields(SimulationPlan) if field.default is not MISSING}
    assert [key for key, _ in spelled] == \
        [keys[0] for name, (_, *keys) in config._FIELDS.items() if name in optional]
    arrays = GEOMETRY + "n_t = 1\nn_r = 1\nn_ris = 1\n"
    assert parse_plan_text(arrays + "".join(f"{key} = {value}\n" for key, value in spelled)) \
        == parse_plan_text(arrays)
