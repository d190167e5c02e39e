"""In-memory spans recorded by the benchmark around its calls into the package."""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records named spans with start, end, parent span and unit id.

    A span marked ``extra`` holds measurement work the workload itself does
    not do (oracles, a separate singleton selection, a replay of the CLI
    chain); it is left out of the traced unit time.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.unit = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, extra: bool = False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "extra": extra,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def total(self, name: str, units=None) -> float:
        """Summed duration of the spans called ``name``, optionally in ``units``."""
        return sum(s["end"] - s["start"] for s in self.of(name, units))

    def of(self, name: str, units=None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and (units is None or s["unit"] in units)]

    def children(self, parent: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent["id"]]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
