"""Golden CLI reports: every (subcommand, fixture) pair, byte for byte.

``tests/data/cli_golden.json`` holds, for each of the 7 subcommands on each
bundled fixture, the sha256 of the exit code, a newline and the report that
``bigiso.cli.main`` prints.  A performance or refactoring change must leave
all of them unchanged.  A deliberate report change regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

and its change note in CHANGES.md names the reports that changed and why.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from bigiso import fixtures
from bigiso.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def report_digests() -> dict:
    """'subcommand fixture' -> sha256 of exit code + newline + stdout."""
    digests = {}
    for command in _COMMANDS:
        for name in fixtures.list_fixtures():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main([command, "--fixture", name])
            blob = f"{code}\n{buf.getvalue()}".encode("utf-8")
            digests[f"{command} {name}"] = hashlib.sha256(blob).hexdigest()
    return digests


def test_every_report_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = report_digests()
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"reports differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(report_digests(), indent=1) + "\n", encoding="utf-8")
