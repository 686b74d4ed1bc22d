import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from padicmult import LocallyConstantFn, save_function
from padicmult.cli import build_parser, main
from padicmult.oracles import is_group_table, lagrange_order, teichmuller_fixed_point
from padicmult.verify import SUITES, PropertyResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "-p", "3", "-r", "2")
    assert code == 0
    assert "case I" in out and "threshold level 2" in out


def child_env():
    """The environment of a child that imports padicmult from this checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_the_module_runs_as_a_program(capsys):
    # python -m padicmult.cli exits with main's code and prints what main prints
    argv = ["classify", "-p", "3", "-r", "2"]
    command = [sys.executable, "-m", "padicmult.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60, env=child_env())
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


@pytest.mark.parametrize(
    "argv",
    [["quotient", "-p", "3", "-r", "6562"], ["verify", "--suite", "orders", "--json"]],
)
def test_a_closed_pipe_exits_quietly(argv):
    # the reader is gone before the program writes, so its first flush meets a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "padicmult.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "-p", "3", "-r", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "III"
    assert payload["valuation"] == 1
    assert payload["unit_residue"] == 2


def test_classify_teich_spec(capsys):
    code, out, _ = run(capsys, "classify", "-p", "5", "-r", "teich(2)", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_order_and_nr(capsys):
    code, out, _ = run(capsys, "order", "-p", "3", "-r", "2", "-N", "3")
    assert code == 0 and out.strip() == "18"
    code, out, _ = run(capsys, "nr", "-p", "5", "-r", "7", "--json")
    assert code == 0 and json.loads(out)["threshold"] == 3


def test_teich(capsys):
    code, out, _ = run(capsys, "teich", "-p", "5", "-i", "2", "-N", "2")
    assert code == 0 and out.strip() == "7"


def test_quotient_payload(capsys):
    code, out, _ = run(capsys, "quotient", "-p", "5", "-r", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 5
    assert payload["coset_reps"][0] == 1
    assert len(payload["table"]) == 5


def test_decompose(capsys):
    code, out, _ = run(
        capsys, "decompose", "-p", "5", "-r", "7", "-x", "1715", "--precision", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_exponent"] == 1
    assert payload["coset_index"] == 0
    assert payload["tail"] == 93


def test_ktheory_variants(capsys):
    code, out, _ = run(capsys, "ktheory", "-p", "3", "-r", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["K0"] == "C(Z_3^x, Z)" and payload["K1"] == "0"

    code, out, _ = run(capsys, "ktheory", "-p", "5", "-r", "teich(2)", "--primed", "--json")
    assert json.loads(out)["K0"] == "c0(Z>=0 x Zp, Z) (+) Z^4"

    code, out, _ = run(capsys, "ktheory", "-p", "3", "-r", "2", "--ideal", "--json")
    assert json.loads(out)["K0"] == "c0(Z>=0, H(2*3^inf))"


def test_snumber(capsys):
    code, out, _ = run(capsys, "snumber", "-p", "5", "-r", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["supernatural"] == "2^2*5^inf"
    assert payload["factors"] == [[2, 2], [5, "inf"]]


def test_domain_errors_exit_three(capsys):
    code, _, err = run(capsys, "classify", "-p", "4", "-r", "2")
    assert code == 3 and "odd prime" in err
    code, out, _ = run(capsys, "order", "-p", "3", "-r", "3", "-N", "2", "--json")
    assert code == 3
    assert json.loads(out)["code"] == "not-a-unit"
    code, _, err = run(capsys, "snumber", "-p", "5", "-r", "teich(2)")
    assert code == 3
    code, _, err = run(capsys, "classify", "-p", "5", "-r", "1")
    assert code == 3
    # 39366 cosets: refused before any table is built
    code, out, _ = run(capsys, "quotient", "-p", "3", "-r", "59050", "--json")
    assert code == 3
    assert json.loads(out)["code"] == "cap-exceeded"
    code, out, _ = run(capsys, "verify", "--max-p", "2", "--json")
    assert code == 3
    assert json.loads(out)["code"] == "domain-error"
    # 1 + 3^17 has 86093442 cosets: refused before any is listed
    for argv in (("quotient",), ("decompose", "-x", "5", "--precision", "18")):
        code, out, _ = run(capsys, argv[0], "-p", "3", "-r", str(1 + 3**17), *argv[1:], "--json")
        assert code == 3
        assert json.loads(out)["code"] == "cap-exceeded"
    # answers below p^N with more digits than Python prints
    for argv in (
        ("teich", "-p", "3", "-i", "2", "-N", "10000"),
        ("order", "-p", "1000000007", "-r", "3", "-N", "600"),
        ("classify", "-p", "3", "-r", "-6", "--precision", "10000"),
        ("decompose", "-p", "3", "-r", "2", "-x", "-5", "--precision", "10000"),
    ):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out)["code"] == "cap-exceeded"
    # sizes that would make vacuous or false checks
    for args in (
        ("--suite", "reps", "--window", "-3"),
        ("--suite", "orders", "--max-N", "-1"),
        ("--suite", "reps", "--max-len", "0"),
    ):
        code, out, _ = run(capsys, "verify", *args, "--json")
        assert code == 3
        assert json.loads(out)["code"] == "domain-error"
    # sizes past about 10 s of work, refused before any suite runs
    for args in (
        ("--suite", "orders", "--max-N", "7"),
        ("--suite", "reps", "--window", "2001"),
        ("--suite", "digits", "--max-len", "6"),
        ("--suite", "reps", "--max-len", "4"),
        ("--max-N", "1000000", "--window", "10000000"),
    ):
        code, out, _ = run(capsys, "verify", *args, "--json")
        assert code == 3
        assert json.loads(out)["code"] == "cap-exceeded"


def test_residue_answers_stay_printable(capsys):
    # 3^9012 has 4300 digits, 3^9013 has 4301
    code, out, _ = run(capsys, "teich", "-p", "3", "-i", "2", "-N", "9012", "--json")
    assert code == 0
    assert len(str(json.loads(out)["residue"])) <= 4300
    code, out, _ = run(capsys, "teich", "-p", "3", "-i", "2", "-N", "9013", "--json")
    assert code == 3
    assert json.loads(out)["code"] == "cap-exceeded"
    code, out, _ = run(capsys, "order", "-p", "3", "-r", "2", "-N", str(10**12), "--json")
    assert code == 3
    assert json.loads(out)["code"] == "cap-exceeded"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "classify", "-p", "3")[0] == 2  # missing -r
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2


def test_removed_options_are_usage_errors(capsys):
    # the threshold has a closed form, and ktheory prints no residue
    for argv in ("nr -p 5 -r 7 --cap 3", "quotient -p 5 -r 7 --cap 3",
                 "snumber -p 5 -r 7 --cap 3", "ktheory -p 3 -r 6 --precision 3"):
        assert run(capsys, *argv.split(), "--json")[:2] == (2, "")


# every option of every command: a new one shows up as an edit here
OPTIONS = {
    "classify": ["--help", "--json", "--precision", "-h", "-p", "-r"],
    "order": ["--help", "--json", "-N", "-h", "-p", "-r"],
    "nr": ["--help", "--json", "-h", "-p", "-r"],
    "quotient": ["--help", "--json", "-h", "-p", "-r"],
    "teich": ["--help", "--json", "-N", "-h", "-i", "-p"],
    "decompose": ["--help", "--json", "--precision", "-h", "-p", "-r", "-x"],
    "ktheory": ["--help", "--ideal", "--json", "--primed", "-h", "-p", "-r"],
    "snumber": ["--help", "--json", "-h", "-p", "-r"],
    "verify": ["--fn", "--help", "--json", "--max-N", "--max-len", "--max-p", "--seed",
               "--suite", "--window", "-h", "-p", "-r"],
}


def test_option_surface_is_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {
        name: sorted(flag for action in command._actions for flag in action.option_strings)
        for name, command in commands.choices.items()
    } == OPTIONS


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "quotient", "-p", "5", "-r", "7", "--json")
    second = run(capsys, "quotient", "-p", "5", "-r", "7", "--json")
    assert first == second


def test_verify_small_run_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "digits",
        "-p",
        "3",
        "-r",
        "6",
        "--max-len",
        "3",
    )
    assert code == 0
    assert "0 failing checks" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ktheory", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert all(entry["failed"] == 0 for entry in payload["results"])


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    import padicmult.verify as verify_module

    def broken(bounds):
        result = PropertyResult("broken", "always-fails")
        result.check(False, "intentional")
        return [result]

    monkeypatch.setitem(verify_module.SUITES, "ktheory", broken)
    code, out, _ = run(capsys, "verify", "--suite", "ktheory")
    assert code == 1
    assert "1 failing checks" in out or "failing" in out
    code, out, _ = run(capsys, "verify", "--suite", "ktheory", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


# one check per pool config (65 at --max-p 7), and two per config in quotients
@pytest.mark.parametrize(
    "suite, prop, count",
    [("orders", "threshold-matches-oracle", 65), ("quotients", "index-stable-past-threshold", 130)],
)
@pytest.mark.parametrize("max_n", ["1", "2"])
def test_verify_is_clean_below_the_thresholds(capsys, suite, prop, count, max_n):
    # thresholds reach level 4 (p = 7, r = 18), above the levels these runs read
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-N", max_n, "--json")
    assert code == 0
    passed = {entry["property"]: entry["passed"] for entry in json.loads(out)["results"]}
    assert passed[prop] == count


def test_verify_with_no_checks_fails(capsys):
    # the pinned prime 7 lies above --max-p, so the digits suite checks nothing
    argv = ["verify", "--suite", "digits", "-p", "7", "-r", "14", "--max-p", "5"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert all(entry["passed"] == 0 for entry in payload["results"])
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "no checks were made" in out


def test_verify_accepts_function_file(capsys, tmp_path):
    path = tmp_path / "fn.json"
    save_function(LocallyConstantFn(3, 1, (1, 2, 3)), path)
    code, out, _ = run(
        capsys, "verify", "--suite", "endos", "--fn", str(path), "--max-p", "3"
    )
    assert code == 0


@pytest.mark.parametrize(
    "fn",
    [
        LocallyConstantFn(3, 1, (1, 2, 3)),
        LocallyConstantFn(5, 1, (0, 1, -1, 2, 5)),
        LocallyConstantFn(7, 2, tuple(range(49))),
    ],
    ids=lambda fn: f"p={fn.p}",
)
def test_verify_pins_a_function_on_the_configs_over_its_prime(capsys, tmp_path, fn):
    path = tmp_path / "fn.json"
    save_function(fn, path)
    for suite in ("all", *SUITES):
        argv = ["verify", "--suite", suite, "--fn", str(path), "--max-N", "3", "--window", "4"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, (suite, out)
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert all(entry["failed"] == 0 for entry in payload["results"])


# sha256 of the exact stdout of `verify --suite SUITE --seed SEED --json`; the
# digits suite draws the same checks for every seed
VERIFY_REPORTS = {
    ("reps", 0): "a1199766cae29d768b8673a2e165001dc02873fdf8f5ea8f14646584f063c1c5",
    ("reps", 1): "a740007ab9146490ebf9354934ef38bb3a137455703b0e26124b6eaa9aeb4dea",
    ("reps", 2): "a1199766cae29d768b8673a2e165001dc02873fdf8f5ea8f14646584f063c1c5",
    ("reps", 3): "85a3473ccef1f5d67ecf5134a003c392a669cfa859b25264a9d545e8cbf4bac5",
    ("reps", 4): "72f1c8498427f37e945b045e67aa61327d278a2b09c7f3259e0d16baa72c863b",
    **{
        ("digits", seed): "1051e7957aad88b21c4152221defb8cd35dd9ae51dae2f9421da1d71267aea10"
        for seed in range(5)
    },
}


@pytest.mark.parametrize("suite, seed", sorted(VERIFY_REPORTS))
def test_verify_reports_are_pinned(capsys, suite, seed):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", str(seed), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORTS[suite, seed]


# sha256 of `verify --suite orders --max-N N --json`: below 3 the threshold
# oracle walks past max_level + 1, at 6 it runs to the cap
ORDERS_REPORTS = {
    1: "c35f5552d5afebac5238a9c225167d761d24642eab7884ab00fd2ebea186c9b1",
    2: "e2bbd44f7356c04f1cf4e0a278dabb5259442e860836348fc7375249aca8a99e",
    6: "02f06e2c8da9e122e42ecbb1005b79ee4358664827b051d64601f1d665159a22",
}


@pytest.mark.parametrize("max_level", sorted(ORDERS_REPORTS))
def test_orders_reports_are_pinned(capsys, max_level):
    code, out, _ = run(capsys, "verify", "--suite", "orders", "--max-N", str(max_level), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORDERS_REPORTS[max_level]


# these suites draw no randomness, so one report at --max-N 6 stands for every seed
UNSEEDED_REPORTS = {
    "subgroups": "814a47d5abdd15d36b5c6e917902a5282100d2d1b470f7480e5660f074d7f5cd",
    "quotients": "d72271cf8b3f95ed42e5a447fbbec393c21fab38cbb742648c02080e008bb044",
    "teich": "01e582a617e722d87b8a78bfc2017bcced1660497ff286580c7227d00d8731b3",
}


@pytest.mark.parametrize("suite", sorted(UNSEEDED_REPORTS))
def test_unseeded_suite_reports_are_pinned(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-N", "6", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == UNSEEDED_REPORTS[suite]


# sha256 of `verify --suite all --max-N 6 --seed SEED --json`, the call the
# benchmark's verify workload makes
ALL_SUITE_REPORTS = {
    0: "37d99529878caf003daf0271f497b37815efcf9fe084feb580cb5c5282b4b141",
    1: "bd2bf777bca6be8fb12fb4032961b8f17659e16307773293f56d71d0f29e5d25",
    2: "07644791e451d54773996c950cf1fe0eca1f6ddef766bbc10222046bb1010de2",
    3: "06fa0b798b363f05e18d2fefb4b8ee38e669b5b75277e78e6f42b10119a09a57",
    4: "89e4ff0d028bb0c30cbbb9e2bbba8a9f2ee027eefa36ab6405f5335331accbe4",
}


@pytest.mark.parametrize("seed", sorted(ALL_SUITE_REPORTS))
def test_all_suite_reports_are_pinned(capsys, seed):
    argv = ("verify", "--suite", "all", "--max-N", "6", "--seed", str(seed), "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SUITE_REPORTS[seed]


# sha256 of `verify --max-p 3 --max-N 1 --json`, where six properties make no check
SMALLEST_REPORT = "059ab67d77ac7996bb8cfcb373a221fb78a03ce5385813555a99f71c70fae096"


def test_smallest_bounds_report_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--max-p", "3", "--max-N", "1", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMALLEST_REPORT


# Exact --json stdout and exit code of the README examples, and of errors of
# every code across the three multiplier forms.  The last two rows are
# refusals: a digit not below p, and a negative precision.
PINNED = [
    (
        "classify -p 3 -r 2",
        0,
        '{"case": "I", "exact": true, "order": 6, "p": 3, "r": "2", "status": "ok", '
        '"threshold": 2}'
    ),
    (
        "classify -p 5 -r teich(2)",
        0,
        '{"case": "II", "exact": true, "order": 4, "p": 5, "r": "teich(2)", '
        '"status": "ok"}'
    ),
    (
        "classify -p 3 -r 6",
        0,
        '{"case": "III", "exact": true, "p": 3, "precision": 6, "r": "6", '
        '"status": "ok", "unit_residue": 2, "valuation": 1}'
    ),
    (
        "classify -p 3 -r 6 --precision 0",
        0,
        '{"case": "III", "exact": true, "p": 3, "precision": 0, "r": "6", '
        '"status": "ok", "unit_residue": 0, "valuation": 1}'
    ),
    ("order -p 3 -r 2 -N 3", 0, '{"level": 3, "order": 18, "p": 3, "r": "2", "status": "ok"}'),
    ("nr -p 5 -r 7", 0, '{"p": 5, "r": "7", "status": "ok", "threshold": 3}'),
    (
        "quotient -p 5 -r 7",
        0,
        '{"coset_reps": [1, 2, 3, 6, 9], "level": 3, "order": 5, "p": 5, "r": "7", '
        '"status": "ok", "subgroup_order": 20, "table": [[0, 1, 2, 3, 4], [1, 2, 3, 4, '
        '0], [2, 3, 4, 0, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]]}'
    ),
    (
        "quotient -p 2003 -r 5",
        0,
        '{"coset_reps": [1], "level": 2, "order": 1, "p": 2003, "r": "5", "status": "ok", '
        '"subgroup_order": 4010006, "table": [[0]]}'
    ),
    ("teich -p 5 -i 2 -N 2", 0, '{"i": 2, "level": 2, "p": 5, "residue": 7, "status": "ok"}'),
    (
        "decompose -p 5 -r 7 -x 1715 --precision 3",
        0,
        '{"case": "I", "coset_index": 0, "k": null, "p": 5, "p_exponent": 1, '
        '"precision": 3, "r": "7", "section": 1, "status": "ok", "tail": 93, "x": 1715}'
    ),
    (
        "ktheory -p 3 -r 6",
        0,
        '{"K0": "C(Z_3^x, Z)", "K1": "0", "case": "III", "p": 3, "r": "6", '
        '"status": "ok", "variant": "algebra"}'
    ),
    (
        "ktheory -p 5 -r teich(2) --primed",
        0,
        '{"K0": "c0(Z>=0 x Zp, Z) (+) Z^4", "K1": "0", "case": "II", "p": 5, '
        '"r": "teich(2)", "status": "ok", "variant": "algebra-primed"}'
    ),
    (
        "ktheory -p 3 -r 2 --ideal",
        0,
        '{"K0": "c0(Z>=0, H(2*3^inf))", "K1": "c0(Z>=0, Z)", "case": "I", "p": 3, '
        '"r": "2", "status": "ok", "variant": "ideal"}'
    ),
    (
        "snumber -p 5 -r 7",
        0,
        '{"factors": [[2, 2], [5, "inf"]], "p": 5, "r": "7", "status": "ok", '
        '"supernatural": "2^2*5^inf"}'
    ),
    (
        "verify --suite digits -p 3 -r 6 --max-len 3",
        0,
        '{"results": [{"failed": 0, "failures": [], "passed": 30, '
        '"property": "words-biject-onto-residues", "suite": "digits"}, {"failed": 0, '
        '"failures": [], "passed": 26, "property": "digit-shift-raises-kappa", '
        '"suite": "digits"}, {"failed": 0, "failures": [], "passed": 20, '
        '"property": "partial-sums-match-mod-powers", "suite": "digits"}, {"failed": 0, '
        '"failures": [], "passed": 2, '
        '"property": "index-shift-conjugates-to-digit-shift", "suite": "digits"}, '
        '{"failed": 0, "failures": [], "passed": 10, '
        '"property": "conjugated-diagonal-matches-composition", "suite": "digits"}], '
        '"status": "ok"}'
    ),
    (
        "classify -p 5 -r digits:[2,1,1]",
        0,
        '{"case": "I", "exact": false, "order": 20, "p": 5, "r": "digits:[2,1,1]", '
        '"status": "ok", "threshold": 3}'
    ),
    (
        "classify -p 5 -r digits:[0,0,1]",
        0,
        '{"case": "III", "exact": false, "p": 5, "precision": 1, "r": "digits:[0,0,1]", '
        '"status": "ok", "unit_residue": 1, "valuation": 2}'
    ),
    (
        "decompose -p 5 -r-teich(2) -x 3 --precision 4",
        0,
        '{"case": "II", "coset_index": 0, "k": 1, "p": 5, "p_exponent": 0, '
        '"precision": 4, "r": "-teich(2)", "section": 1, "status": "ok", "tail": 546, '
        '"x": 3}'
    ),
    (
        "classify -p 4 -r 2",
        3,
        '{"code": "not-an-odd-prime", "message": "p must be an odd prime >= 3, got 4", '
        '"status": "error"}'
    ),
    (
        "order -p 3 -r 3 -N 2",
        3,
        '{"code": "not-a-unit", "message": "3 is not a unit mod 3", "status": "error"}'
    ),
    (
        "order -p 5 -r digits:[0,0] -N 1",
        3,
        '{"code": "not-a-unit", "message": "0 is not a unit mod 5", "status": "error"}'
    ),
    (
        "classify -p 5 -r digits:[0,0,0]",
        3,
        '{"code": "insufficient-precision", '
        '"message": "all known digits are zero; valuation undetermined", '
        '"status": "error"}'
    ),
    (
        "classify -p 5 -r 1",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: r must avoid 0 and 1", "status": "error"}'
    ),
    (
        "classify -p 5 -r teich(5)",
        3,
        '{"code": "excluded-multiplier", "message": "Teichmuller index must lie in [2, '
        '4] for p=5", "status": "error"}'
    ),
    (
        "classify -p 5 -r-teich(4)",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: r resolves to 1", "status": "error"}'
    ),
    (
        "classify -p 5 -r digits:[1,0,0]",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: digits match 1 at every known digit", '
        '"status": "error"}'
    ),
    (
        "nr -p 3 -r -1",
        3,
        '{"code": "root-of-unity", '
        '"message": "no threshold exists: r is a root of unity", "status": "error"}'
    ),
    (
        "nr -p 5 -r teich(2)",
        3,
        '{"code": "root-of-unity", '
        '"message": "no threshold exists: r is a root of unity", "status": "error"}'
    ),
    (
        "nr -p 5 -r digits:[2,1]",
        3,
        '{"code": "insufficient-precision", '
        '"message": "threshold not visible within 2 known digits", "status": "error"}'
    ),
    (
        "classify -p 5 -r 2.5",
        3,
        '{"code": "parse-error", "message": "unrecognized multiplier spec: \'2.5\'", '
        '"status": "error"}'
    ),
    (
        "snumber -p 5 -r teich(2)",
        3,
        '{"code": "domain-error", '
        '"message": "supernatural order is defined for Case I multipliers only", '
        '"status": "error"}'
    ),
    (
        "verify --suite digits -p 3 -r 2",
        3,
        '{"code": "valuation-mismatch", "message": "multiplier valuation mismatch", '
        '"status": "error"}'
    ),
    # -teich(1) is -1 (see test_minus_teich_one_answers_as_minus_one)
    (
        "classify -p 5 -r-teich(1)",
        0,
        '{"case": "II", "exact": true, "order": 2, "p": 5, "r": "-teich(1)", "status": "ok"}'
    ),
    (
        "order -p 5 -r-teich(1) -N 3",
        0,
        '{"level": 3, "order": 2, "p": 5, "r": "-teich(1)", "status": "ok"}'
    ),
    (
        "decompose -p 5 -r-teich(1) -x 7",
        0,
        '{"case": "II", "coset_index": 1, "k": 0, "p": 5, "p_exponent": 0, "precision": 6, '
        '"r": "-teich(1)", "section": 14557, "status": "ok", "tail": 7476, "x": 7}'
    ),
    (
        "ktheory -p 5 -r-teich(1) --primed",
        0,
        '{"K0": "c0(Z>=0 x Zp, Z) (+) Z^2", "K1": "0", "case": "II", "p": 5, '
        '"r": "-teich(1)", "status": "ok", "variant": "algebra-primed"}'
    ),
    # the prime pool stops at 7, so a larger max_p would only repeat that run
    (
        "verify --max-p 13",
        3,
        '{"code": "cap-exceeded", '
        '"message": "max_p 13 is above 7, the largest these suites accept", "status": "error"}'
    ),
    # every run checks the digits pin, whether or not its suites read it
    (
        "verify --suite orders -p 3",
        3,
        '{"code": "domain-error", '
        '"message": "pin both p and r for the digits suite, or neither", "status": "error"}'
    ),
    (
        "verify --suite orders -p 5 -r teich(2)",
        3,
        '{"code": "domain-error", '
        '"message": "the digits suite needs an exact integer multiplier", "status": "error"}'
    ),
    (
        "verify --suite orders -p 4 -r 8",
        3,
        '{"code": "not-an-odd-prime", "message": "p must be an odd prime >= 3, got 4", '
        '"status": "error"}'
    ),
    # the pin is refused before any suite runs
    (
        "verify --suite all -p 3 -r 2",
        3,
        '{"code": "valuation-mismatch", "message": "multiplier valuation mismatch", '
        '"status": "error"}'
    ),
    (
        "verify --suite orders -p 3 -r 2",
        3,
        '{"code": "valuation-mismatch", "message": "multiplier valuation mismatch", '
        '"status": "error"}'
    ),
    # a negative pin gives a negative word value, which has no digit expansion
    (
        "verify --suite digits -p 3 -r -3",
        3,
        '{"code": "domain-error", '
        '"message": "the digits suite needs a non-negative multiplier", "status": "error"}'
    ),
    (
        "verify --suite digits -p 5 -r -10",
        3,
        '{"code": "domain-error", '
        '"message": "the digits suite needs a non-negative multiplier", "status": "error"}'
    ),
    (
        "verify --suite orders -p 3 -r -3",
        3,
        '{"code": "domain-error", '
        '"message": "the digits suite needs a non-negative multiplier", "status": "error"}'
    ),
    (
        "decompose -p 5 -r 7 -x 0",
        3,
        '{"code": "domain-error", "message": "zero admits no orbit decomposition", '
        '"status": "error"}'
    ),
    # the multiplier 1 in its other forms is refused by every command
    (
        "order -p 5 -r-teich(4) -N 2",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: r resolves to 1", "status": "error"}'
    ),
    (
        "nr -p 5 -r-teich(4)",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: r resolves to 1", "status": "error"}'
    ),
    (
        "quotient -p 5 -r-teich(4)",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: r resolves to 1", "status": "error"}'
    ),
    (
        "order -p 5 -r digits:[1,0] -N 2",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: digits match 1 at every known digit", '
        '"status": "error"}'
    ),
    (
        "nr -p 5 -r digits:[1,0]",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: digits match 1 at every known digit", '
        '"status": "error"}'
    ),
    (
        "quotient -p 5 -r digits:[1,0]",
        3,
        '{"code": "excluded-multiplier", '
        '"message": "excluded multiplier: digits match 1 at every known digit", '
        '"status": "error"}'
    ),
    (
        "decompose -p 3 -r -1 -x 15 --precision 0",
        3,
        '{"code": "insufficient-precision", '
        '"message": "precision 0 below the root-of-unity level 1", "status": "error"}'
    ),
    # roots of unity with more cosets, or a longer walk, than QUOTIENT_MAX_SCAN
    (
        "decompose -p 1000003 -r -1 -x 5 --precision 2",
        3,
        '{"code": "cap-exceeded", '
        '"message": "the quotient has 500001 cosets, above the listing limit 400000", '
        '"status": "error"}'
    ),
    (
        "decompose -p 1000003 -r teich(2) -x 5 --precision 2",
        3,
        '{"code": "cap-exceeded", '
        '"message": "r has order 1000002 mod 1000003, above the listing limit 400000", '
        '"status": "error"}'
    ),
    (
        "classify -p 5 -r digits:[0,7]",
        3,
        '{"code": "parse-error", "message": "digit out of range for base 5", '
        '"status": "error"}'
    ),
    (
        "classify -p 3 -r 6 --precision -1",
        3,
        '{"code": "insufficient-precision", "message": "precision must be non-negative", '
        '"status": "error"}'
    ),
]


@pytest.mark.parametrize("argv, code, stdout", PINNED, ids=[row[0] for row in PINNED])
def test_json_output_is_pinned(capsys, argv, code, stdout):
    assert run(capsys, *argv.split(), "--json")[:2] == (code, stdout + "\n")


@pytest.mark.parametrize(
    "command", ["classify", "order -N 3", "decompose -x 7", "ktheory --primed", "nr", "quotient"]
)
def test_minus_teich_one_answers_as_minus_one(capsys, command):
    name, *rest = command.split()
    answers = []
    for r in ("-teich(1)", "-1"):
        code, out, _ = run(capsys, name, "-p", "5", f"-r{r}", *rest, "--json")
        payload = json.loads(out)
        assert payload.pop("r", r) == r
        answers.append((code, payload))
    assert answers[0] == answers[1]


@pytest.mark.parametrize(
    "argv, error",
    [
        ("ktheory -p 5 -r digits:[0,9,9]", "parse-error"),
        ("decompose -p 5 -r digits:[2,1,7] -x 3", "parse-error"),
        ("order -p 5 -r digits:[2,5] -N 1", "parse-error"),
        ("classify -p 5 -r teich(2) --precision -1", "insufficient-precision"),
        ("classify -p 3 -r 2 --precision -1", "insufficient-precision"),
        ("decompose -p 5 -r 7 -x 3 --precision -1", "insufficient-precision"),
    ],
)
def test_out_of_range_digits_and_negative_precision_exit_three(capsys, argv, error):
    code, out, _ = run(capsys, *argv.split(), "--json")
    assert code == 3 and json.loads(out)["code"] == error


def _orbit_grid(p):
    """`quotient` and `decompose` argvs over Case I and Case II multipliers for one p."""
    teich = [(2, 1), (2, -1), (p - 1, 1), (p - 2, -1)]
    multipliers = ["2", str(p + 1), str(1 + p**2), "-3", "-1"] + list(dict.fromkeys(
        f"{'-' if sign < 0 else ''}teich({i})"
        for i, sign in teich
        if i >= 2 and (i, sign) != (p - 1, -1)  # -teich(p-1) is 1
    ))
    for r in multipliers:
        yield ["quotient", "-p", str(p), f"-r{r}"]
        for x in (1, -7, p, -3 * p, 50 * p**2):
            for precision in range(1, 7):
                yield ["decompose", "-p", str(p), f"-r{r}", "-x", str(x), "--precision", str(precision)]


# sha256 of the exit code and --json stdout of every call of _orbit_grid(p)
ORBIT_GRID = {
    3: "882f6cefdb3b96e13bef65a1b495dd8ae07d003a6db6b8958cbf6dc4853f6ac2",
    5: "cdde9a10bff5906d12e2d25720dbf32252d854d5f1fffd008a20e3d3c45bd5a3",
    7: "170ae269c40fd3b57332e1c5c2f3f74b11e69f22183a6649fafc49f6fefaa642",
    11: "eaa00e556f0745f01953c23db14f90409acece7e4bf4c2f0da209fabb082bf5b",
    13: "3946c3033abbf1d27a5a32fbf9ac4e123ca5b7ddf579db9047eaab6dda61a95d",
}


@pytest.mark.parametrize("p", sorted(ORBIT_GRID))
def test_quotient_and_decompose_grid_is_pinned(capsys, p):
    digest = hashlib.sha256()
    for argv in _orbit_grid(p):
        code, out, _ = run(capsys, *argv, "--json")
        digest.update(f"{code} {out}".encode())
    assert digest.hexdigest() == ORBIT_GRID[p]


# sha256 of the stdout of `quotient -p 3 -r 730` (486 cosets, so table entries
# above 255 appear), in text and in --json
LARGE_QUOTIENT = {
    (): "bda36c468ac13a4411d9fcee8d2d174e9531b6780c13f1a33b2f5b45cca481c4",
    ("--json",): "02b7c44d45cc3b17d84a8ed3e9afe318340c0e4e449439de6ee9e391f1de956d",
}


@pytest.mark.parametrize("form", sorted(LARGE_QUOTIENT))
def test_large_quotient_output_is_pinned(capsys, form):
    code, out, _ = run(capsys, "quotient", "-p", "3", "-r", "730", *form)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_QUOTIENT[form]


def _random_argv(rng):
    """One call of a command other than verify, drawn over small, zero, negative and bad sizes."""
    p = rng.choice([2, 3, 5, 7, 9, 11])
    q = max(p, 3)
    r = rng.choice([
        str(rng.randint(-30, 130)),
        rng.choice(["0", "1", "-1", str(1 + q), str(1 + q * q)]),
        f"{rng.choice(['', '-'])}teich({rng.randint(-1, q + 1)})",
        f"-teich({p - 1})",
        "digits:[" + ",".join(str(rng.randint(0, q)) for _ in range(rng.randint(1, 4))) + "]",
        "digits:[1" + ",0" * rng.randint(0, 3) + "]",
    ])

    def size():
        return str(rng.randint(-2, 6))

    command = rng.choice(["classify", "order", "nr", "quotient", "teich", "decompose", "ktheory", "snumber"])
    if command == "teich":
        argv = [command, "-p", str(p), "-i", str(rng.randint(-3, 2 * q)), "-N", size()]
    else:
        argv = [command, "-p", str(p), f"-r{r}"]
    argv += {
        "classify": ["--precision", size()],
        "order": ["-N", size()],
        "decompose": ["-x", str(rng.randint(-50, 50)), "--precision", size()],
        "ktheory": rng.sample(["--primed", "--ideal"], rng.randint(0, 2)),
    }.get(command, [])
    if rng.random() < 0.05:
        argv[rng.randrange(1, len(argv))] = "two"  # a malformed token: a usage error or a bad spec
    return argv + ["--json"] * rng.randint(0, 1)


def test_random_calls_exit_cleanly(capsys):
    rng = random.Random(2)  # draws, among others, a Case II decompose at --precision 0
    for _ in range(500):
        argv = _random_argv(rng)
        try:
            code = main(argv)
        except Exception as exc:  # anything escaping main is the failure
            pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 2, 3), argv


# --- the same draws, each answer checked against the oracles ---------------------


def spec_residue(spec: str, p: int, level: int) -> int:
    """The multiplier a CLI spec names, mod p^level, read through the oracles alone."""
    modulus = p**level
    if spec.startswith("digits:["):
        digits = [int(d) for d in spec[len("digits:["):-1].split(",")]
        assert level <= len(digits), f"{spec} read past its known digits at level {level}"
        return sum(d * p**k for k, d in enumerate(digits)) % modulus
    if "teich(" in spec:
        value = teichmuller_fixed_point(p, int(spec[spec.index("(") + 1 : -1]), level)
        return -value % modulus if spec.startswith("-") else value
    return int(spec) % modulus


def first_level_p_divides_the_order(spec: str, p: int) -> int:
    level = 1
    while lagrange_order(p, level, spec_residue(spec, p, level)) % p:
        level += 1
    return level


def expected_case(spec: str, p: int) -> str:
    """III for a non-unit; else II when r^(p-1) = 1 (at every known digit), else I."""
    if spec_residue(spec, p, 1) == 0:
        return "III"
    if "teich(" in spec:
        return "II"
    if spec.startswith("digits:["):
        known = spec.count(",") + 1
        root = pow(spec_residue(spec, p, known), p - 1, p**known) == 1
    else:
        root = pow(int(spec), p - 1) == 1
    return "II" if root else "I"


def check_answer(command: str, out: dict) -> None:
    p = out["p"]
    if command == "order":
        assert out["order"] == lagrange_order(p, out["level"], spec_residue(out["r"], p, out["level"]))
    elif command == "nr":
        assert out["threshold"] == first_level_p_divides_the_order(out["r"], p)
    elif command == "teich":
        assert out["residue"] == teichmuller_fixed_point(p, out["i"], out["level"])
    elif command == "quotient":
        level, modulus = out["level"], p ** out["level"]
        r = spec_residue(out["r"], p, level)
        powers = {pow(r, e, modulus) for e in range(out["subgroup_order"])}
        assert len(powers) == out["subgroup_order"] == lagrange_order(p, level, r)
        assert out["order"] * out["subgroup_order"] == (p - 1) * p ** (level - 1)
        assert len(out["coset_reps"]) == out["order"] and is_group_table(out["table"])
        for rep in out["coset_reps"]:
            assert rep == min(rep * s % modulus for s in powers)
    elif command == "decompose":
        precision = out["precision"]
        unit = out["section"] * out["tail"]
        if out["case"] == "II":
            # r^k is read on the root of unity r matches, which is r itself when exact
            assert out["tail"] % p == 1
            omega = teichmuller_fixed_point(p, spec_residue(out["r"], p, 1), precision)
            unit *= pow(omega, out["k"], p**precision)
        modulus = p ** (out["p_exponent"] + precision)
        assert p ** out["p_exponent"] * (unit % p**precision) == out["x"] % modulus
    elif command == "classify":
        assert out["case"] == expected_case(out["r"], p)
        if out["case"] == "I":
            threshold = first_level_p_divides_the_order(out["r"], p)
            assert out["threshold"] == threshold
            assert out["order"] == lagrange_order(p, threshold, spec_residue(out["r"], p, threshold))


def test_random_json_answers_match_the_oracles(capsys):
    rng = random.Random(3)
    checked = dict.fromkeys(["order", "nr", "teich", "quotient", "decompose", "classify"], 0)
    for _ in range(1200):
        argv = [a for a in _random_argv(rng) if a != "--json"] + ["--json"]
        if argv[0] not in checked:  # snumber and ktheory wait for an orbit-data oracle
            continue
        code, out = main(argv), capsys.readouterr().out
        if code == 0:
            check_answer(argv[0], json.loads(out))
            checked[argv[0]] += 1
    # a floor per command, so the draws cannot drift into checking nothing
    assert min(checked.values()) >= 10, checked
