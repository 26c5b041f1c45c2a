"""In-memory spans recorded by the benchmark around its calls into riscap."""

from collections import defaultdict
from time import perf_counter


class Spans:
    """Records ``(unit, name, start, end)`` for every call made through ``call``.

    A unit is one trial of a sweep or one certification pass of the oracle;
    each span recorded while ``unit`` is set is a child of that unit. Spans
    stay in memory and are reduced only when the run ends.
    """

    def __init__(self):
        self.unit = None
        self.records = []

    def call(self, name, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.records.append((self.unit, name, start, perf_counter()))
        return result

    def totals(self) -> dict:
        "Seconds spent per ``(unit, name)``, summed over repeated spans."
        out = defaultdict(float)
        for unit, name, start, end in self.records:
            out[unit, name] += end - start
        return out
