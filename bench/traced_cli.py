"""Run one bigiso CLI request with spans installed, then write the spans.

Usage: python3 bench/traced_cli.py OUT.json SUBCOMMAND --fixture NAME

The report goes to standard output and the exit code is the CLI's own, so
the request is checked exactly like an untraced one.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bigiso.cli  # noqa: E402  (imported before the wrappers go in)

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = bigiso.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
