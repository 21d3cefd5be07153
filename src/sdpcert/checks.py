"""Named pass/fail records shared by verification routines and the CLI suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def case_check(name, cases, failure):
    """The check passes when no case failed; its detail names the first failing input."""
    detail = f"{cases} case" if cases == 1 else f"{cases} cases"
    if failure is not None:
        detail += f"; first disagreement: {failure!r}"
    return CheckResult(name, failure is None, detail)


def all_passed(checks):
    return all(c.passed for c in checks)
