"""Check reports shared by the witness validators and the verification harness.

A report records what was checked, how many samples or indices were examined,
and every inequality violation found.  `to_json_dict` is deterministic, so
identical runs serialize (with sorted keys) to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNVERIFIED_AT_SCALE = "unverified-at-scale"

# Most failures repeat the same broken inequality; keep the report bounded.
MAX_RECORDED_FAILURES = 100


@dataclass(frozen=True)
class Failure:
    """One violated inequality: the inputs involved and both sides."""

    inputs: tuple[tuple[str, object], ...]
    lhs: float
    rhs: float
    slack: float

    @classmethod
    def record(cls, inputs: dict, lhs: float, rhs: float, slack: float) -> "Failure":
        return cls(tuple(sorted(inputs.items())), float(lhs), float(rhs), float(slack))

    def to_json_dict(self) -> dict:
        return {
            "inputs": {k: _jsonable(v) for k, v in self.inputs},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack_violated": self.slack,
        }


@dataclass
class CheckReport:
    check_name: str
    samples: int = 0
    failures: list[Failure] = field(default_factory=list)
    verdict: str = PASS
    notes: list[str] = field(default_factory=list)
    suppressed_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def fail(self, inputs: dict, lhs: float, rhs: float, slack: float) -> None:
        self.verdict = FAIL
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(Failure.record(inputs, lhs, rhs, slack))
        else:
            self.suppressed_failures += 1

    def note(self, message: str) -> None:
        self.notes.append(message)

    def mark_unverified(self, reason: str) -> None:
        if self.verdict == PASS:
            self.verdict = UNVERIFIED_AT_SCALE
        self.note(reason)

    def merge(self, other: "CheckReport") -> None:
        """Fold a sub-check into this report (worst verdict wins)."""
        self.samples += other.samples
        self.suppressed_failures += other.suppressed_failures
        for f in other.failures:
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(f)
            else:
                self.suppressed_failures += 1
        for msg in other.notes:
            self.note(f"{other.check_name}: {msg}")
        if other.verdict == FAIL:
            self.verdict = FAIL
        elif other.verdict == UNVERIFIED_AT_SCALE and self.verdict == PASS:
            self.verdict = UNVERIFIED_AT_SCALE

    def to_json_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "samples": self.samples,
            "verdict": self.verdict,
            "passed": self.passed,
            "failures": [f.to_json_dict() for f in self.failures],
            "suppressed_failures": self.suppressed_failures,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", UNVERIFIED_AT_SCALE: "WARN"}[self.verdict]
        extra = ""
        if self.verdict == FAIL:
            total = len(self.failures) + self.suppressed_failures
            extra = f", {total} failure(s)"
        elif self.verdict == UNVERIFIED_AT_SCALE:
            extra = ", unverified at scale"
        return f"{tag}  {self.check_name} ({self.samples} samples{extra})"


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
