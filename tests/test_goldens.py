"Each golden CSV from its recipe in tests/goldens.py, byte for byte, and the report of moved rows."

import pytest

from goldens import GOLDEN, GOLDENS, report, simulate


@pytest.mark.parametrize("name", GOLDENS)
def test_recipe_reproduces_golden_bytes(name, tmp_path):
    assert simulate(name, tmp_path) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_report_names_only_the_scheme_whose_rows_moved():
    golden = (GOLDEN / "panel_a_50.csv").read_text()

    def shifted(line):
        # cophasing's means up by snr_db / 10**4 bits: every row but 0 dB's
        scheme, snr, mean, rest = line.split(",", 3)
        if scheme == "cophasing":
            mean = f"{float(mean) + float(snr) / 10**4:.9g}"
        return f"{scheme},{snr},{mean},{rest}\n"
    stderr = float(golden.split("\ncophasing,30,")[1].split(",")[1])
    assert report("x.csv", golden, golden) == []
    assert report("x.csv", golden, "".join(map(shifted, golden.splitlines()))) == [
        f"x.csv cophasing: 6 rows moved, largest |mean change| 0.003 bits = "
        f"{0.003 / stderr:.3g} stderr"]
    assert report("x.csv", golden, golden.replace("\n", "\r\n")) == \
        ["x.csv: bytes differ outside the rows"]
    assert report("x.csv", golden, golden[:golden.rindex("ris_only_approx,30,")]) == \
        ["x.csv ris_only_approx: 1 rows moved, largest |mean change| inf bits = inf stderr"]
