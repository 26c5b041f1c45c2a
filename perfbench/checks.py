"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problems; an operation with any problem, or
one that raised, counts as failed.
"""

import hashlib
import math

CSV_HEADER = "scheme,snr_db,mean_capacity_bits,stderr_bits,trials"

# Room for one rounding step when a search lands exactly on a bound.
_ROUNDING = 1e-12


def csv_failures(data: bytes, schemes, snr_db, trials: int, cap_bits) -> list:
    """Problems with one sweep CSV: layout, row order, values and caps.

    ``cap_bits(snr_db)`` is the capacity no scheme can exceed at that SNR,
    ``log2(1 + k^2 * n_ris^2 * n_t * n_r * rho)`` for the largest ``k`` on
    the height grids.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["CSV is not ASCII"]
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        return [f"CSV header is {lines[0]!r}"]
    expected = [(s, snr) for s in sorted(schemes) for snr in sorted(snr_db)]
    if len(lines) - 1 != len(expected):
        return [f"CSV has {len(lines) - 1} rows, expected {len(expected)}"]
    problems = []
    for line, (scheme, snr) in zip(lines[1:], expected):
        fields = line.split(",")
        try:
            name, row_snr, mean, stderr, count = (
                fields[0], float(fields[1]), float(fields[2]), float(fields[3]),
                int(fields[4]))
        except (IndexError, ValueError):
            problems.append(f"malformed CSV row {line!r}")
            continue
        if len(fields) != 5 or name != scheme or row_snr != float(f"{snr:.9g}"):
            problems.append(f"CSV row {line!r} is out of place; expected {scheme} at {snr}")
        elif count != trials:
            problems.append(f"CSV row {line!r} reports {count} trials, expected {trials}")
        elif not (math.isfinite(stderr) and stderr >= 0):
            problems.append(f"CSV row {line!r} has an invalid standard error")
        elif not 0 <= mean <= cap_bits(snr):
            problems.append(
                f"CSV row {line!r}: mean capacity outside [0, {cap_bits(snr):.9g}]")
    return problems


def same_output(data: bytes, reference: bytes, what: str) -> list:
    "Byte identity with the reference output."
    return [] if data == reference else [f"{what} differs from the first output"]


def digest_failures(data: bytes, expected) -> list:
    "SHA-256 of the output against the digest recorded for this workload."
    if expected is None:
        return ["no digest recorded for this workload"]
    got = hashlib.sha256(data).hexdigest()
    return [] if got == expected else [f"SHA-256 {got} differs from recorded {expected}"]


def sandwich_failures(closed: float, grid_best: float, levels: int) -> list:
    """``closed * cos(pi / levels) <= grid_best <= closed``.

    Rounding each optimal phase to the nearest of ``levels`` grid phases
    turns each term by at most ``pi / levels``, which gives the lower bound;
    the closed form is the continuous optimum, which gives the upper one.
    """
    lower = closed * math.cos(math.pi / levels)
    if lower <= grid_best <= closed * (1 + _ROUNDING):
        return []
    return [f"sandwich violated: {lower!r} <= {grid_best!r} <= {closed!r}"]


def ordered_failures(low: float, high: float, what: str) -> list:
    "``low <= high`` up to one rounding step."
    return [] if low <= high * (1 + _ROUNDING) else [f"{what}: {low!r} > {high!r}"]


def match_failures(got: float, want: float, what: str, rel: float = 1e-9) -> list:
    "``got`` equals ``want`` to ``rel`` relative."
    if abs(got - want) <= rel * abs(want):
        return []
    return [f"{what}: {got!r} differs from {want!r} by more than {rel:g} relative"]
