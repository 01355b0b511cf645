"""Machine-readable check reports with a stable field order.

Reports are deterministic given the document and seed: timings are omitted
unless explicitly requested, since wall-clock noise would break byte-for-byte
regression comparison of report files.
"""

from __future__ import annotations

import json
import time

from .record import Record


class CheckRecord(Record, frozen=False):
    name: str
    verdict: str  # "pass" | "fail" | "error"
    certificate: dict | None = None
    timing_ms: float | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict}
        out["certificate"] = self.certificate
        out["timing_ms"] = self.timing_ms
        return out


class Report(Record, frozen=False):
    command: str
    document: str
    seed: int
    checks: list = ()
    errors: list = ()
    with_timings: bool = False

    def __post_init__(self):
        self.checks, self.errors = list(self.checks), list(self.errors)  # one list per report

    def start(self, name: str):
        return _Timer(self, name)

    def add(self, name: str, ok: bool, certificate: dict | None = None, elapsed: float | None = None):
        self._record(name, "pass" if ok else "fail", certificate, elapsed)

    def _record(self, name: str, verdict: str, certificate: dict | None, elapsed: float | None):
        timing = round(elapsed * 1000, 3) if (self.with_timings and elapsed is not None) else None
        self.checks.append(CheckRecord(name, verdict, certificate, timing))

    def add_error(self, message: str):
        self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors and all(c.verdict == "pass" for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "tool": "bigiso",
            "command": self.command,
            "document": self.document,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "errors": list(self.errors),
            "summary": {
                "passed": sum(1 for c in self.checks if c.verdict == "pass"),
                "failed": sum(1 for c in self.checks if c.verdict != "pass"),
                "ok": self.ok,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


class _Timer:
    """Times one check; done() records its verdict.  A body that raises
    before done() leaves an "error" check naming the exception, which then
    propagates."""

    def __init__(self, report: Report, name: str):
        self.report = report
        self.name = name
        self.recorded = False

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def done(self, ok: bool, certificate: dict | None = None):
        self.report.add(self.name, ok, certificate, time.perf_counter() - self.t0)
        self.recorded = True

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not self.recorded:
            certificate = {"error": f"{exc_type.__name__}: {exc}"}
            self.report._record(self.name, "error", certificate, time.perf_counter() - self.t0)
        return False


def verdict_certificate(verdict) -> dict | None:
    """Flatten a structures.Verdict into JSON-safe certificate data."""
    if verdict.ok:
        return {"note": verdict.note} if verdict.note else None
    failures = [
        {"message": str(message), "detail": None if detail is None else str(detail)}
        for message, detail in verdict.failures
    ]
    return {"failures": failures, "note": verdict.note or None}
