#!/usr/bin/env python3
"""Run the exact property suites from a working tree.

Thin alias for ``padicmult verify``; all of its flags apply, e.g.

    python scripts/run_verify.py --suite orders --max-p 7 --max-N 6
    python scripts/run_verify.py --suite all --json
"""

import sys

from padicmult.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["verify", *sys.argv[1:]]))
