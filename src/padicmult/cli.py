"""Command-line front end.

Commands: classify, order, nr, quotient, teich, decompose, ktheory, snumber,
verify.  Exit codes: 0 ok, 1 property failure, 2 usage error, 3 domain error, 141
output pipe closed by its reader.  Structured output via --json is
byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict

from .classification import INF, CaseI, CaseII, classify, supernatural_order
from .errors import CapExceededError, DomainError
from .functions import load_function
from .ktheory import algebra_k_groups, ideal_k_groups, primed_algebra_k_groups
from .padic import parse_multiplier, teichmuller
from .representations import orbit_decompose
from .unit_groups import find_nr, quotient_group, unit_order
from .verify import SUITES, Bounds, run_suites


# order, teich, classify and decompose answer with residues below p^N (N from
# -N or --precision), and Python prints an int of at most 4300 digits
MAX_DIGITS = 4300
_LIMIT = 10**MAX_DIGITS

# the verify flag of each integer field of verify.Bounds, whose defaults it takes
VERIFY_SIZES = {
    "--max-p": "max_p", "--max-N": "max_level", "--max-len": "max_len", "--window": "window",
    "--seed": "seed",
}


def _bounded(p: int, level: int) -> int:
    """The level itself, after refusing one with p^level at or above 10^MAX_DIGITS."""
    # (bit_length - 1) * level bounds log2(p^level) from below, so the power
    # is only formed when it has at most about twice the limit's bits
    if level > 0 and (
        (p.bit_length() - 1) * level >= _LIMIT.bit_length() or p**level >= _LIMIT
    ):
        raise CapExceededError(
            f"{p}^{level} has more than {MAX_DIGITS} digits, too many to print an answer below it"
        )
    return level


def _emit(args: argparse.Namespace, payload: dict, human: str) -> int:
    if args.json:
        print(json.dumps({"status": "ok", **payload}, sort_keys=True))
    else:
        print(human)
    return 0


def _classification_payload(verdict) -> dict:
    """The case name (CaseI is "I") and every field of the verdict."""
    return {"case": type(verdict).__name__.removeprefix("Case"), **asdict(verdict)}


def _classification_text(verdict) -> str:
    note = "" if verdict.exact else " (consistent up to the known precision)"
    if isinstance(verdict, CaseI):
        return (
            f"case I: unit, not a root of unity; threshold level {verdict.threshold}, "
            f"order {verdict.order} at the threshold{note}"
        )
    if isinstance(verdict, CaseII):
        return f"case II: root of unity of order {verdict.order}{note}"
    return (
        f"case III: valuation {verdict.valuation}, unit cofactor "
        f"{verdict.unit_residue} mod p^{verdict.precision}{note}"
    )


def cmd_classify(args: argparse.Namespace) -> int:
    precision = _bounded(args.p, args.precision)
    verdict = classify(args.p, parse_multiplier(args.r), precision=precision)
    payload = {"p": args.p, "r": args.r, **_classification_payload(verdict)}
    return _emit(args, payload, _classification_text(verdict))


def cmd_order(args: argparse.Namespace) -> int:
    value = unit_order(args.p, _bounded(args.p, args.level), parse_multiplier(args.r))
    payload = {"p": args.p, "r": args.r, "level": args.level, "order": value}
    return _emit(args, payload, str(value))


def cmd_nr(args: argparse.Namespace) -> int:
    value = find_nr(args.p, parse_multiplier(args.r))
    payload = {"p": args.p, "r": args.r, "threshold": value}
    return _emit(args, payload, str(value))


def cmd_quotient(args: argparse.Namespace) -> int:
    quotient = quotient_group(args.p, parse_multiplier(args.r))
    table = quotient.table  # built, or refused, before anything is printed
    names = list(map(str, range(quotient.order)))  # one string per coset, shared by all rows
    if args.json:
        head = {
            "status": "ok",
            "p": args.p,
            "r": args.r,
            "level": quotient.level,
            "subgroup_order": quotient.subgroup.order,
            "order": quotient.order,
            "coset_reps": list(quotient.coset_reps),
        }
        # "table" sorts last among the keys, so the rows follow the head one at a time
        print(json.dumps(head, sort_keys=True)[:-1] + ', "table": [', end="")
        for i, row in enumerate(table):
            print(", [" if i else "[", ", ".join(map(names.__getitem__, row)), "]", sep="", end="")
        print("]}")
        return 0
    print(f"level: {quotient.level}")
    print(f"subgroup order: {quotient.subgroup.order}")
    print(f"quotient order: {quotient.order}")
    print(f"coset representatives: {' '.join(map(str, quotient.coset_reps))}")
    print("table:")
    for row in table:
        print("  " + " ".join(map(names.__getitem__, row)))
    return 0


def cmd_teich(args: argparse.Namespace) -> int:
    value = teichmuller(args.p, args.index, _bounded(args.p, args.level))
    payload = {"p": args.p, "i": args.index, "level": args.level, "residue": value}
    return _emit(args, payload, str(value))


def cmd_decompose(args: argparse.Namespace) -> int:
    spec = parse_multiplier(args.r)
    dec = orbit_decompose(args.p, spec, args.x, precision=_bounded(args.p, args.precision))
    fields = asdict(dec)
    fields["section"] = fields.pop("section_value")  # the key the payload has always used
    payload = {"r": args.r, "x": args.x, **fields}
    parts = [
        f"case {dec.case}",
        f"p-exponent {dec.p_exponent}",
        f"coset {dec.coset_index} (section {dec.section_value})",
        f"tail {dec.tail} mod p^{dec.precision}",
    ]
    if dec.k is not None:
        parts.append(f"k {dec.k}")
    return _emit(args, payload, ", ".join(parts))


def cmd_ktheory(args: argparse.Namespace) -> int:
    verdict = classify(args.p, parse_multiplier(args.r))
    if args.ideal:
        k0, k1 = ideal_k_groups(verdict, args.p, primed=args.primed)
        variant = "ideal-primed" if args.primed else "ideal"
    elif args.primed:
        k0, k1 = primed_algebra_k_groups(verdict, args.p)
        variant = "algebra-primed"
    else:
        k0, k1 = algebra_k_groups(verdict, args.p)
        variant = "algebra"
    payload = {
        "p": args.p,
        "r": args.r,
        "variant": variant,
        "case": _classification_payload(verdict)["case"],
        "K0": str(k0),
        "K1": str(k1),
    }
    return _emit(args, payload, f"K0 = {k0}\nK1 = {k1}")


def cmd_snumber(args: argparse.Namespace) -> int:
    number = supernatural_order(args.p, parse_multiplier(args.r))
    factors = [[q, "inf" if e is INF else e] for q, e in number.factors]
    payload = {"p": args.p, "r": args.r, "supernatural": str(number), "factors": factors}
    return _emit(args, payload, str(number))


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bounds = Bounds(
        **{name: getattr(args, name) for name in VERIFY_SIZES.values()},
        p=args.p,
        r=parse_multiplier(args.r) if args.r else None,
        function=load_function(args.fn) if args.fn else None,
    )
    results = run_suites(names, bounds)
    failures = sum(result.failed for result in results)
    # a run that checked nothing has shown nothing
    ok = failures == 0 and any(result.passed for result in results)
    if args.json:
        rows = [
            {"suite": r.suite, "property": r.name, "passed": r.passed, "failed": r.failed,
             "failures": r.failures}
            for r in results
        ]
        print(json.dumps({"status": "ok" if ok else "fail", "results": rows}, sort_keys=True))
    else:
        for result in results:
            print(f"{result.suite}/{result.name}: {result.passed} passed, {result.failed} failed")
            for detail in result.failures:
                print(f"  FAIL {detail}")
        print(f"{len(results)} properties, {failures} failing checks")
        if not ok and failures == 0:
            print("no checks were made")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicmult",
        description="Exact computations around multiplication operators on p-adic integers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON payload")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options several commands share, each declared once
    multiplier = argparse.ArgumentParser(add_help=False)
    multiplier.add_argument("-p", type=int, required=True)
    multiplier.add_argument(
        "-r", required=True, help='multiplier: "2", "-7", "teich(2)", "digits:[1,2,0]"'
    )
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=int, default=6)

    def command(name: str, handler, help_text: str, *parents) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common, *parents], help=help_text)
        cmd.set_defaults(func=handler)
        return cmd

    command("classify", cmd_classify, "case trichotomy of a multiplier", multiplier, precision)

    c = command("order", cmd_order, "multiplicative order in U_N", multiplier)
    c.add_argument("-N", dest="level", type=int, required=True)

    command("nr", cmd_nr, "threshold level where orders gain a factor of p", multiplier)
    command("quotient", cmd_quotient, "finite quotient of the unit sphere", multiplier)

    c = command("teich", cmd_teich, "root-of-unity lift of a residue")
    c.add_argument("-p", type=int, required=True)
    c.add_argument("-i", dest="index", type=int, required=True)
    c.add_argument("-N", dest="level", type=int, required=True)

    c = command(
        "decompose", cmd_decompose, "orbit decomposition of an integer", multiplier, precision
    )
    c.add_argument("-x", type=int, required=True)

    c = command("ktheory", cmd_ktheory, "symbolic K-group descriptors", multiplier)
    c.add_argument("--primed", action="store_true", help="finite-cyclic crossed product")
    c.add_argument("--ideal", action="store_true", help="kernel ideal instead of the algebra")

    command("snumber", cmd_snumber, "supernatural order of a unit multiplier", multiplier)

    defaults = Bounds()
    c = command("verify", cmd_verify, "run the property suites")
    c.add_argument("--suite", choices=["all", *SUITES], default="all")
    for flag, name in VERIFY_SIZES.items():
        c.add_argument(flag, dest=name, type=int, default=getattr(defaults, name))
    c.add_argument("-p", type=int, default=None, help="pin the prime (digits suite)")
    c.add_argument("-r", default=None, help="pin the multiplier (digits suite)")
    c.add_argument("--fn", default=None, help="JSON function file for the configs over its prime")

    return parser


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"status": "error", "code": exc.code, "message": str(exc)}, sort_keys=True))
        else:
            print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except BrokenPipeError:
        # what is still buffered goes to devnull (the SIGPIPE note of the signal docs)
        with suppress(AttributeError, OSError, ValueError):  # an in-memory stdout has no fd
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe closed on
    return code


if __name__ == "__main__":
    raise SystemExit(main())
