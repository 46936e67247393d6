import argparse
import json

import pytest

from qcalc.cli import _FLAGS, _build_argparser, main

NF_A0A1 = ("-(1/2)*i*q*a3^2 + (1/2)*i*q^-1*a3^2 "
           "- (1/2)*i*q*a2^2 + (1/2)*i*q^-1*a2^2 + a1*a0")

COPRODUCT_A0A1_UNICODE = (
    "a3² ⊗ a3*a2 - (1/2)*i*q*a3² ⊗ a0² + (1/2)*i*q^-1*a3² ⊗ a0² - "
    "a3*a2 ⊗ a3² + a3*a2 ⊗ a2² - a3*a1 ⊗ a3*a0 + (1/2)*q^2*a3*a1 ⊗ "
    "a2*a1 + (1/2)*q^-2*a3*a1 ⊗ a2*a1 - (1/2)*i*q^2*a3*a1 ⊗ a2*a0 + "
    "(1/2)*i*q^-2*a3*a1 ⊗ a2*a0 - a3*a0 ⊗ a3*a1 - (1/2)*i*q^2*a3*a0 "
    "⊗ a2*a1 + (1/2)*i*q^-2*a3*a0 ⊗ a2*a1 - (1/2)*q^2*a3*a0 ⊗ a2*a0 "
    "- (1/2)*q^-2*a3*a0 ⊗ a2*a0 - a2² ⊗ a3*a2 - (1/2)*i*q*a2² ⊗ a0² "
    "+ (1/2)*i*q^-1*a2² ⊗ a0² - (1/2)*q^2*a2*a1 ⊗ a3*a1 - "
    "(1/2)*q^-2*a2*a1 ⊗ a3*a1 + (1/2)*i*q^2*a2*a1 ⊗ a3*a0 - "
    "(1/2)*i*q^-2*a2*a1 ⊗ a3*a0 - a2*a1 ⊗ a2*a0 + (1/2)*i*q^2*a2*a0 "
    "⊗ a3*a1 - (1/2)*i*q^-2*a2*a0 ⊗ a3*a1 + (1/2)*q^2*a2*a0 ⊗ a3*a0 "
    "+ (1/2)*q^-2*a2*a0 ⊗ a3*a0 - a2*a0 ⊗ a2*a1 - a1² ⊗ a1*a0 - "
    "a1*a0 ⊗ a1² + a1*a0 ⊗ a0² - (1/2)*i*q*a0² ⊗ a3² + "
    "(1/2)*i*q^-1*a0² ⊗ a3² - (1/2)*i*q*a0² ⊗ a2² + "
    "(1/2)*i*q^-1*a0² ⊗ a2² + a0² ⊗ a1*a0"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf_generic_and_specialized(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "hq", "a0*a1")
    assert (code, out.strip()) == (0, NF_A0A1)
    code, out, _ = run(capsys, "nf", "--algebra", "hq", "--at-q", "1", "a0*a1")
    assert (code, out.strip()) == (0, "a1*a0")
    code, out, _ = run(capsys, "nf", "--algebra", "units", "e2*e3")
    assert (code, out.strip()) == (0, "e1")


def test_nf_unicode_rendering(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "hq", "--unicode", "a0*a1")
    assert code == 0
    assert out.strip() == ("-(1/2)*i*q*a3² + (1/2)*i*q⁻¹*a3² "
                           "- (1/2)*i*q*a2² + (1/2)*i*q⁻¹*a2² "
                           "+ a1*a0")


def test_nf_literal_paper_variant(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "dga", "--literal-paper",
                       "a2*da1")
    assert code == 0
    corrected = run(capsys, "nf", "--algebra", "dga", "a2*da1")
    assert corrected[0] == 0
    assert out != corrected[1]


def test_check_equal_and_unequal(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "hq", "N*a2", "a2*N")
    assert (code, out.strip()) == (0, "EQUAL")
    code, out, _ = run(capsys, "check", "--algebra", "cm", "w2*w3", "-w3*w2")
    assert (code, out.strip()) == (0, "EQUAL")
    code, out, _ = run(capsys, "check", "--algebra", "hq", "a0*a1", "a1*a0")
    assert code == 1
    assert out.strip() == ("-(1/2)*i*q*a3^2 + (1/2)*i*q^-1*a3^2 "
                           "- (1/2)*i*q*a2^2 + (1/2)*i*q^-1*a2^2")


def test_apply_star_coproduct_counit_antipode(capsys):
    code, out, _ = run(capsys, "apply", "star", "--algebra", "hq", "a2")
    assert (code, out.strip()) == (
        0, "-(1/2)*i*q*a3 + (1/2)*i*q^-1*a3 + (1/2)*q*a2 + (1/2)*q^-1*a2")
    code, out, _ = run(capsys, "apply", "coproduct", "--algebra", "hq", "a3")
    assert (code, out.strip()) == (
        0, "a3 (x) a0 - a2 (x) a1 + a1 (x) a2 + a0 (x) a3")
    code, out, _ = run(capsys, "apply", "counit", "--algebra", "hq",
                       "a0*a0 - a1*a1")
    assert (code, out.strip()) == (0, "(1)")
    code, out, _ = run(capsys, "apply", "antipode", "--algebra", "hq", "a2")
    assert (code, out.strip()) == (
        0, "(1/2)*i*q*a3*n_inv - (1/2)*i*q^-1*a3*n_inv "
           "- (1/2)*q*a2*n_inv - (1/2)*q^-1*a2*n_inv")


def test_coproduct_unicode_rendering(capsys):
    # words take superscripts and the tensor sign; q exponents stay ASCII
    code, out, _ = run(capsys, "apply", "coproduct", "--unicode", "a0*a1")
    assert code == 0
    assert out.strip() == COPRODUCT_A0A1_UNICODE


def test_apply_d_upgrades_the_universe(capsys):
    code, out, _ = run(capsys, "apply", "d", "--algebra", "hq", "a2")
    assert (code, out.strip()) == (0, "da2")
    code, out, _ = run(capsys, "nf", "--algebra", "dga", "d(a2)^2")
    assert (code, out.strip()) == (
        0, "(1/2)*i*q*da1*da0 - (1/2)*i*q^-1*da1*da0")


def test_apply_d_rejects_universes_without_differentials(capsys):
    code, _, err = run(capsys, "apply", "d", "--algebra", "cm", "w0")
    assert code == 2
    assert "differential" in err


def test_hopf_operations_insist_on_generic_q(capsys):
    code, _, err = run(capsys, "apply", "coproduct", "--algebra", "hq",
                       "--at-q", "1", "a3")
    assert code == 2
    assert "generic q" in err
    code, _, err = run(capsys, "apply", "coproduct", "--algebra", "units", "e1")
    assert code == 2
    assert "use --algebra hq" in err


def test_unknown_symbol_exits_with_usage_error(capsys):
    code, _, err = run(capsys, "nf", "--algebra", "cm", "w4")
    assert code == 2
    assert err.strip() == ("error: unknown symbol at position 0: "
                           "'w4' is not a generator of universe 'cartan_maurer'")


def test_unknown_algebra_is_reported(capsys):
    code, _, err = run(capsys, "nf", "--algebra", "nope", "a0")
    assert code == 2
    assert "unknown presentation 'nope'" in err


def test_leading_minus_expressions_survive_argument_parsing(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "hq", "-a0")
    assert (code, out.strip()) == (0, "-a0")


def test_step_limit_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_STEP_LIMIT", "2")
    code, _, err = run(capsys, "nf", "--algebra", "hq", "a0*a1*a2*a3")
    assert code == 2
    assert "step limit exceeded" in err


def test_verify_writes_a_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "grassmann", "--output", str(target))
    assert code == 0
    assert "11 checks: 10 pass, 0 fail, 1 findings" in out
    assert f"report written to {target}" in out
    obj = json.loads(target.read_text())
    assert obj["suite"] == "grassmann"
    assert {c["id"] for c in obj["checks"]} >= {"confluence.grassmann"}
    assert all(set(c) == {"id", "paper_ref", "status", "residual",
                          "corrections", "ms"} for c in obj["checks"])


def test_dump_and_load_round_trip(capsys, tmp_path):
    target = tmp_path / "hq.json"
    code, out, _ = run(capsys, "dump-presentation", "hq",
                       "--output", str(target))
    assert code == 0
    assert out.strip() == f"wrote {target}"
    code, out, _ = run(capsys, "load-presentation", str(target))
    assert (code, out.strip()) == (
        0, "loaded 'hq': 4 generators, 6 rules, 0 failing overlaps")


def test_load_reports_broken_presentations(capsys, tmp_path):
    target = tmp_path / "literal.json"
    code, _, _ = run(capsys, "dump-presentation", "dga_literal",
                     "--output", str(target))
    assert code == 0
    code, out, _ = run(capsys, "load-presentation", str(target))
    assert code == 1
    assert out.strip() == ("loaded 'dga_literal': 8 generators, 32 rules, "
                           "64 failing overlaps")


@pytest.mark.parametrize("coeff", [
    "a0", "q +", "1/0", pytest.param("1" * 5000, id="5000-digit-literal")])
def test_load_rejects_a_bad_coefficient(capsys, tmp_path, coeff):
    target = tmp_path / "hq.json"
    run(capsys, "dump-presentation", "hq", "--output", str(target))
    obj = json.loads(target.read_text())
    rule = obj["rules"][0]
    rule["rhs"][0]["coeff"] = coeff
    target.write_text(json.dumps(obj))
    code, out, err = run(capsys, "load-presentation", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert str(tuple(rule["lhs"])) in err and repr(coeff) in err


def test_load_rejects_a_json_number_past_the_digit_limit(capsys, tmp_path):
    target = tmp_path / "hq.json"
    run(capsys, "dump-presentation", "hq", "--output", str(target))
    obj = json.loads(target.read_text())
    obj["rules"][0]["rhs"][0]["coeff"] = 0
    target.write_text(json.dumps(obj).replace('"coeff": 0',
                                              '"coeff": ' + "1" * 5000))
    code, out, err = run(capsys, "load-presentation", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


# Python refuses int <-> str conversions past 4300 digits by default
@pytest.mark.parametrize("expr, message", [
    ("1" * 5000, "error: syntax error at position 0: integer literal of 5000 "
                 "digits is longer than the int/str conversion limit"),
    ("a0^" + "1" * 5000, "error: syntax error at position 3: integer literal "
                         "of 5000 digits is longer than the int/str "
                         "conversion limit"),
    ("2^20000", "error: coefficient too long to render: "),
], ids=["literal", "exponent", "power"])
def test_numbers_past_the_digit_limit_are_usage_errors(capsys, expr, message):
    code, out, err = run(capsys, "nf", expr)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_flags_lists_every_option_of_the_parser():
    # _pad_expression_args reads any other dash-led token as an expression
    top = _build_argparser()
    parsers = [top]
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    options = {flag for parser in parsers for action in parser._actions
               for flag in action.option_strings}
    assert _FLAGS == options


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "qcalc 0.1.0"


def test_literal_paper_only_applies_to_the_differential_algebra(capsys):
    code, _, err = run(capsys, "nf", "--algebra", "hq", "--literal-paper", "a0")
    assert code == 2
    assert "--literal-paper" in err
