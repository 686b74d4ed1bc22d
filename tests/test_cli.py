import json

from padicmult import LocallyConstantFn, save_function
from padicmult.cli import main
from padicmult.verify import PropertyResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "-p", "3", "-r", "2")
    assert code == 0
    assert "case I" in out and "threshold level 2" in out


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
    # sizes that would make vacuous or false checks
    for args in (("--suite", "reps", "--window", "-3"), ("--suite", "orders", "--max-N", "-1")):
        code, out, _ = run(capsys, "verify", *args, "--json")
        assert code == 3
        assert json.loads(out)["code"] == "domain-error"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "classify", "-p", "3")[0] == 2  # missing -r
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2


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
