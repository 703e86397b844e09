"""Check records and report rendering shared by the verifiers and the CLI.

Exact values are rendered as fraction strings "p/q", floats at 12
significant digits; reports carry no timestamps so identical runs emit
byte-identical output.
"""

from __future__ import annotations

import io
from fractions import Fraction


def render_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def json_value(v):
    """JSON-safe value: fractions as "p/q" strings, floats at 12 significant
    digits (kept numeric), everything else unchanged."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


class Check:
    __slots__ = ("name", "expected", "actual", "passed")

    def __init__(self, name: str, expected: object, actual: object, passed: bool):
        self.name, self.expected, self.actual, self.passed = name, expected, actual, passed

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": render_value(self.expected),
            "actual": render_value(self.actual),
            "pass": self.passed,
        }


def check_eq(name: str, expected, actual) -> Check:
    return Check(name, expected, actual, expected == actual)


def check_true(name: str, condition: bool, detail: object = "") -> Check:
    return Check(name, True, condition if not detail else detail, bool(condition))


class Report:
    __slots__ = ("command", "params", "results", "checks", "notes")

    def __init__(self, command: str, params: dict | None = None, results: list | None = None,
                 checks: list[Check] | None = None, notes: list[str] | None = None):
        self.command = command
        self.params = {} if params is None else params
        self.results = [] if results is None else results
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, checks: list[Check]) -> None:
        self.checks.extend(checks)

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "params": {k: render_value(v) for k, v in self.params.items()},
            "results": [{k: json_value(v) for k, v in row.items()}
                        for row in self.results],
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def to_json(self) -> str:
        import json  # `qkcomp suite` prints text, so the suite's import skips it
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        """Result rows if present (fixed, documented columns), else the checks."""
        import csv  # only --format csv renders it; the suite's import stays lean

        buf = io.StringIO()
        if self.results:
            fieldnames = list(self.results[0].keys())
            writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            for row in self.results:
                writer.writerow({k: render_value(v) for k, v in row.items()})
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["name", "expected", "actual", "pass"])
            for c in self.checks:
                d = c.as_dict()
                writer.writerow([d["name"], d["expected"], d["actual"],
                                 "true" if d["pass"] else "false"])
        return buf.getvalue()

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]
