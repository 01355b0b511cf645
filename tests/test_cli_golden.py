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

# Reports on two documents in tests/data whose canonical frames the fixtures
# do not reach: a split with both block determinants -1, and a frame with
# rational entries over non-constant determinants.  Their digests pin each
# printed canonical entry to RationalFunction's normal form of num / det.
PINNED = {
    "canonical canonical_permuted.bis":
        "ced2238ff36cf0021ed26a02f5300a85a30dbe3f2703799f741034a315061ed1",
    "report-all canonical_permuted.bis":
        "07c94d3ed5130dc9097d343e77220e37d6cf2c1aaae81629b389ba13344d57ee",
    "canonical canonical_rational.bis":
        "ce86af8b6f43bbd8b579d4ff93b14700b1dfbd28e9c7f1c535597f3ede62b111",
    "report-all canonical_rational.bis":
        "49c968a35620ba43df0347e8396ebe47e3b5485eb3e8764d511331289eda54d4",
}


def report_digests() -> dict:
    """'subcommand fixture' -> sha256 of exit code + newline + stdout."""
    digests = {}
    for command in _COMMANDS:
        for name in fixtures.list_fixtures():
            digests[f"{command} {name}"] = digest([command, "--fixture", name])
    return digests


def digest(argv, label=None) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue() if label is None else buf.getvalue().replace(argv[-1], label)
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def pinned_digests() -> dict:
    """'subcommand document' -> sha256 of exit code + newline + stdout, the
    document's path printed as its file name."""
    digests = {}
    for key in PINNED:
        command, name = key.split()
        digests[key] = digest([command, str(GOLDEN.parent / name)], name)
    return digests


def test_pinned_canonical_reports():
    assert pinned_digests() == PINNED


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
