"""Tests of the benchmark's own checks, and a quick run of every workload."""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

run.load_program()
import workloads  # noqa: E402

GOOD_CSV = (
    b"scheme,snr_db,mean_capacity_bits,stderr_bits,trials\n"
    b"basic,0,1.5,0.01,10\n"
    b"basic,5,2.5,0.02,10\n"
)


def csv_problems(data: bytes) -> list:
    return checks.csv_failures(data, ("basic",), (0.0, 5.0), 10, lambda snr: 3.0)


def test_valid_csv_passes():
    assert csv_problems(GOOD_CSV) == []


@pytest.mark.parametrize("corrupt", [
    GOOD_CSV[:-1],
    GOOD_CSV[:60],
    GOOD_CSV.replace(b"1.5,", b"1.x,"),
    GOOD_CSV.replace(b"scheme,", b"schema,"),
    GOOD_CSV + b"basic,10,3,0.01,10\n",
    GOOD_CSV.replace(b"0.01,10", b"0.01,9"),
    GOOD_CSV.replace(b"2.5,", b"3.5,"),
    GOOD_CSV.replace(b"0.02,", b"nan,"),
    GOOD_CSV.replace(b"basic,5", b"basic,6"),
    GOOD_CSV.replace(b"1.5,0.01,10", b"1.5,0.01,10,7"),
    GOOD_CSV.replace(b"1.5", b"\xb5"),
], ids=["no-newline", "truncated", "garbled", "header", "extra-row", "trials",
        "above-cap", "nan-stderr", "row-order", "extra-field", "not-ascii"])
def test_corrupted_csv_is_a_failure(corrupt):
    assert csv_problems(corrupt)


def test_changed_bytes_fail_identity():
    assert checks.same_output(GOOD_CSV, GOOD_CSV, "CSV") == []
    assert checks.same_output(GOOD_CSV.replace(b"2.5", b"2.6"), GOOD_CSV, "CSV")


def test_mismatched_digest_is_a_failure():
    digest = hashlib.sha256(GOOD_CSV).hexdigest()
    assert checks.digest_failures(GOOD_CSV, digest) == []
    assert checks.digest_failures(GOOD_CSV.replace(b"2.5", b"2.6"), digest)
    assert checks.digest_failures(GOOD_CSV, None)


def test_violated_sandwich_is_a_failure():
    lower = math.cos(math.pi / 8)
    assert checks.sandwich_failures(1.0, 1.0, 8) == []
    assert checks.sandwich_failures(1.0, lower, 8) == []
    assert checks.sandwich_failures(1.0, 1.001, 8)
    assert checks.sandwich_failures(1.0, lower * 0.999, 8)


def test_relative_match_and_order():
    assert checks.match_failures(1.0 + 1e-12, 1.0, "x") == []
    assert checks.match_failures(1.0 + 1e-6, 1.0, "x")
    assert checks.ordered_failures(1.0, 2.0, "x") == []
    assert checks.ordered_failures(2.0, 1.0, "x")


def test_recorded_digests_cover_every_workload():
    digests = json.loads((run.HERE / "digests.json").read_text())
    assert sorted(digests) == sorted(run.WORKLOADS)


def test_sweep_flags_corrupted_output_and_broken_parity(tmp_path):
    work = workloads.make("panel_d_sweep", 2, True, tmp_path)
    output = work.operation()
    assert work.failures(output) == []
    assert work.failures(output.replace(b",20\n", b",21\n", 1))
    gains = work.untraced(0)
    assert work.parity_failures(0, gains, dict(gains)) == []
    assert work.parity_failures(0, gains, dict(gains, joint=gains["joint"] * (1 + 1e-15)))


def test_oracle_flags_a_violated_sandwich():
    work = workloads.make("oracle_certify", 2, True, None)
    out = work.operation()
    assert work.failures(out) == []
    phi, _ = out["grid", "ris_only"]
    out["grid", "ris_only"] = (phi, out["toy_closed"] * 1.01)
    assert work.failures(out)


def test_an_exception_counts_as_a_failed_operation():
    tally = run.Tally()
    assert tally.op(lambda out: [], lambda: 1 / 0) == (None, None)
    assert tally.op(lambda out: ["bad"], lambda: 1)[1] == 1
    assert (tally.attempted, tally.failed) == (2, 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode_prints_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace), "--quick"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert code == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for name in names:
        assert any(line.startswith(f"{name} = ") for line in lines)
