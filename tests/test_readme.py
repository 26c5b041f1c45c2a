"The README's library example is the promised public API: it runs as written."

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    capacity, unit = capsys.readouterr().out.split()
    assert float(capacity) > 0 and unit == "bits"
