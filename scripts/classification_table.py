#!/usr/bin/env python3
"""Sweep small integer multipliers and tabulate their classification data.

For each odd prime p and each integer r in a range, print the case verdict,
the threshold/order data, the supernatural order (case I), and the K-group
descriptors of the associated algebra.

    python scripts/classification_table.py --primes 3 5 7 --bound 12
"""

import argparse
import sys
from pathlib import Path

# the package is imported from this checkout's src/, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padicmult import (  # noqa: E402
    CaseI,
    CaseII,
    algebra_k_groups,
    classify,
    supernatural_from_unit_order,
)


def describe(p: int, r: int) -> list[str]:
    verdict = classify(p, r)
    k0, k1 = algebra_k_groups(verdict, p)
    if isinstance(verdict, CaseI):
        extra = (
            f"threshold {verdict.threshold}, order {verdict.order}, "
            f"lcm {supernatural_from_unit_order(verdict.order, p)}"
        )
        case = "I"
    elif isinstance(verdict, CaseII):
        extra = f"order {verdict.order}"
        case = "II"
    else:
        extra = f"valuation {verdict.valuation}, unit {verdict.unit_residue}"
        case = "III"
    return [f"p={p}", f"r={r}", case, extra, f"K0 = {k0}", f"K1 = {k1}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("--bound", type=int, default=10)
    args = parser.parse_args()
    rows = []
    for p in args.primes:
        for r in range(-args.bound, args.bound + 1):
            if r in (0, 1):
                continue
            rows.append(describe(p, r))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
