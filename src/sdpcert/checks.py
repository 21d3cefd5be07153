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


def case_check(name, cases):
    """Run a check over cases, an iterable of (holds, inputs) pairs.

    The check passes when every case holds; its detail counts the cases and
    names the inputs of the first that does not. A case that raises ends the
    check as failed, and the detail names that case and its error.
    """
    count, failure = 0, None
    try:
        for holds, inputs in cases:
            count += 1
            if not holds and failure is None:
                failure = repr(inputs)
    except Exception as error:
        count += 1
        failure = failure or f"case {count} raised {error!r}"
    detail = f"{count} case" if count == 1 else f"{count} cases"
    if failure is not None:
        detail += f"; first disagreement: {failure}"
    return CheckResult(name, failure is None, detail)


def fact_check(name, fact):
    """Run a check of one fact: fact() returns (holds, detail).

    A fact that raises fails the check, and the detail names the error.
    """
    try:
        holds, detail = fact()
    except Exception as error:
        return CheckResult(name, False, f"raised {error!r}")
    return CheckResult(name, holds, detail)


def all_passed(checks):
    return all(c.passed for c in checks)
