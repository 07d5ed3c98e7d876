"""Verification report containers shared by the verify operations.

A check is recorded from its failure witnesses: it passes when there are
none and otherwise keeps the first.  A witness names where the identity
breaks (the indices, and the weights they stand for) and the two values
that differ.
"""

from __future__ import annotations

import operator
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence


class CheckResult(namedtuple("CheckResult", "name status witness",
                             defaults=(None,))):
    """name is the identity being checked, e.g. "s^2 = D^2 c"; status is
    "pass" or "fail"; witness names where a failed check breaks, and is
    None on a pass."""

    def to_json_obj(self):
        obj = {"name": self.name, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class VerificationReport:
    """The checks of one suite in the order recorded; duration_seconds runs
    from creation to the last record."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.checks = []
        self.duration_seconds = 0.0
        self._started = time.monotonic()

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def record(self, name: str, ok: bool, witness: str) -> None:
        self.checks.append(CheckResult(
            name, "pass" if ok else "fail", None if ok else witness))
        self.duration_seconds = time.monotonic() - self._started

    def check(self, name: str, failures: Iterable[str]) -> bool:
        """Record name from a lazy iterable of failure witnesses: pass when
        it yields nothing, else fail with the first.  Returns the verdict."""
        witness = next(iter(failures), None)
        self.record(name, witness is None, witness)
        return witness is None

    def to_json_obj(self):
        # wall-clock time stays out of the canonical output so that
        # exact-mode runs are byte-identical
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json_obj() for c in self.checks],
        }

    def pretty_lines(self) -> list[str]:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL"}[c.status]
            line = f"  [{mark}] {c.name}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(f"  => {verdict} in {self.duration_seconds:.2f}s")
        return lines


def mismatches(a, b, labels: Sequence = (),
               same: Callable = operator.eq) -> Iterator[str]:
    """Witnesses for the entries where the matrices a and b differ, in
    row-major order; labels (e.g. alcove weights) name rows and columns.
    The rows may be lazy iterables, so a check stops at its first witness."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if not same(x, y):
                at = f" at {labels[i]}, {labels[j]}" if labels else ""
                yield f"entry ({i},{j}){at}: {x!r} vs {y!r}"
