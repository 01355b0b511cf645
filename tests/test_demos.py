"""Golden demo outputs: what every ``demos/*.py`` prints, byte for byte.

``tests/data/demo_golden.json`` holds, for each demo, the sha256 of its
stdout when run as a script.  A performance or refactoring change must leave
all of them unchanged.  A deliberate output change regenerates the file with

    PYTHONPATH=src python tests/test_demos.py --regenerate

and its change note in CHANGES.md names the demos that changed and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "demo_golden.json"


def demo_digests() -> dict:
    """'demos/NAME.py' -> sha256 of the demo's stdout; a demo that exits
    nonzero fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digests = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, check=False
        )
        name = demo.relative_to(ROOT).as_posix()
        assert done.returncode == 0, f"{name} exited {done.returncode}: {done.stderr.decode()}"
        digests[name] = hashlib.sha256(done.stdout).hexdigest()
    return digests


def test_every_demo_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = demo_digests()
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"demo outputs differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(demo_digests(), indent=1) + "\n", encoding="utf-8")
