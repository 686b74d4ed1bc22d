#!/usr/bin/env python3
"""Run the exact property suites from a working tree.

Thin alias for ``padicmult verify``; all of its flags apply, e.g.

    python scripts/run_verify.py --suite orders --max-p 7 --max-N 6
    python scripts/run_verify.py --suite all --json
"""

import sys
from pathlib import Path

# the package is imported from this checkout's src/, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padicmult.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["verify", *sys.argv[1:]]))
