"""Machine-readable outcome records shared by the verifiers and explorers."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .setcore import IntSet, profile

DEFAULT_SEED = 0x5D5D


@dataclass
class VerificationReport:
    """Outcome of one check over an explicit finite grid.

    ``violations`` is empty exactly when the check passed.  Each violation
    entry carries the witness set literal, its re-computed profile, and the
    grid point that produced it.
    """

    check: str
    grid: str
    cases: int = 0
    violations: list = field(default_factory=list)
    elapsed_ms: int = 0
    seed: Optional[int] = None
    notes: list = field(default_factory=list)
    # perf_counter reading at construction; ``finish`` measures from it
    started: float = field(
        default_factory=time.perf_counter, init=False, repr=False, compare=False
    )

    @property
    def passed(self) -> bool:
        return not self.violations

    def add_violation(self, witness: IntSet, context: str = ""):
        # witnesses are re-profiled on entry, so every report is self-checking
        self.violations.append(
            {
                "context": context,
                "set": str(witness),
                "profile": profile(witness).to_json_dict(),
            }
        )

    def finish(self) -> "VerificationReport":
        """Set ``elapsed_ms`` to the wall time since the report was made."""
        self.elapsed_ms = int((time.perf_counter() - self.started) * 1000)
        return self

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "grid": self.grid,
            "cases": self.cases,
            "violations": self.violations,
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
            "notes": self.notes,
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        # elapsed_ms is whole milliseconds, so a report done in under 1 ms has no rate
        rate = (
            f", {self.cases * 1000 // self.elapsed_ms} cases/s"
            if self.elapsed_ms
            else ""
        )
        return (
            f"{self.check}: {status} — {self.cases} cases over {self.grid} "
            f"in {self.elapsed_ms} ms{rate}"
        )


def render_json(payload: dict) -> str:
    """Canonical JSON: compact, insertion-ordered keys, integers only."""
    return json.dumps(payload, separators=(",", ":"))
