"""Machine-readable verification reports with a deterministic layout."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "positroid-report/1"


@dataclass
class VerificationReport:
    task: str
    parameters: dict
    cases: list[dict] = field(default_factory=list)

    def add_case(self, key, passed: bool, **payload):
        case = {"case": key, "pass": bool(passed)}
        case.update(payload)
        self.cases.append(case)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.cases)

    def as_dict(self, elapsed: float | None = None) -> dict:
        out = {
            "schema": SCHEMA,
            "task": self.task,
            "parameters": self.parameters,
            "cases": sorted(self.cases, key=lambda c: str(c["case"])),
            "pass": self.passed,
        }
        if elapsed is not None:
            out["elapsed_seconds"] = round(elapsed, 3)
        return out

    def to_json(self, elapsed: float | None = None) -> str:
        return json.dumps(self.as_dict(elapsed), sort_keys=True, indent=2)

    def to_text(self, elapsed: float | None = None) -> str:
        lines = [f"task: {self.task}"]
        for k, v in sorted(self.parameters.items()):
            lines.append(f"  {k}: {v}")
        for c in sorted(self.cases, key=lambda c: str(c["case"])):
            status = "pass" if c["pass"] else "FAIL"
            extra = {k: v for k, v in c.items() if k not in ("case", "pass")}
            detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            lines.append(f"[{status}] {c['case']} {detail}".rstrip())
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        if elapsed is not None:
            lines.append(f"elapsed_seconds: {round(elapsed, 3)}")
        return "\n".join(lines)
