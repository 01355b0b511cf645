"""The cli-fixtures workload: one fresh CLI process per (subcommand, fixture).

Each request pays interpreter start-up, import and every per-process cache
miss, as a CLI user does.  The expected table (expected_cli.json) holds, for
every bundled fixture and subcommand, the exit code and the distinct
(check name, passed) pairs of the report, recorded at the seed commit.
Distinct pairs keep the table valid when duplicate report entries go away.
"""

from __future__ import annotations

import json
import random
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_cli.json"
REQUEST_TIMEOUT_S = 120


@dataclass(frozen=True)
class Request:
    command: str
    fixture: str
    chart_dim: int
    exit_code: int
    checks: frozenset


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _chart_dim(fixture: str) -> int:
    from bigiso import fixtures

    for line in fixtures.fixture_text(fixture).splitlines():
        if line.startswith("chart"):
            return len(line.split()) - 1
    raise ValueError(f"fixture {fixture} has no chart line")


def make_requests(seed: int) -> list:
    """Every pair expected to exit 0 or 1, in an order shuffled by the seed."""
    requests = []
    for fixture, commands in sorted(load_expected().items()):
        dim = _chart_dim(fixture)
        for command, exp in sorted(commands.items()):
            if exp["exit"] in (0, 1):
                checks = frozenset((name, ok) for name, ok in exp["checks"])
                requests.append(Request(command, fixture, dim, exp["exit"], checks))
    random.Random(f"cli-fixtures/{seed}").shuffle(requests)
    return requests


@dataclass
class Outcome:
    seconds: float
    error: str | None = None  # exception, timeout or unexpected exit code
    mismatch: str | None = None  # report disagrees with the expected checks


def run_request(req: Request, argv_prefix: list, env: dict, cwd: Path) -> Outcome:
    """Run one request as its own process and compare its report."""
    argv = argv_prefix + [req.command, "--fixture", req.fixture]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=REQUEST_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - t0, error=f"{req.command} {req.fixture}: timeout")
    seconds = time.perf_counter() - t0
    label = f"{req.command} {req.fixture}"
    if proc.returncode != req.exit_code:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Outcome(seconds, error=f"{label}: exit {proc.returncode}, expected {req.exit_code} {tail[0]}")
    try:
        report = json.loads(proc.stdout)
        got = frozenset((c["name"], c["verdict"] == "pass") for c in report["checks"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(seconds, error=f"{label}: unreadable report ({exc})")
    if got != req.checks:
        return Outcome(seconds, mismatch=f"{label}: checks {sorted(got)}, expected {sorted(req.checks)}")
    return Outcome(seconds)
