import argparse
import json

import pytest

import qcalc
from qcalc import Presentation, presentations
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
    code, out, _ = run(capsys, "nf", "--algebra", "dga_literal", "a2*da1")
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


def test_literal_paper_star_uses_the_letters_of_dga(capsys):
    code, out, _ = run(capsys, "apply", "star", "--algebra", "dga_literal", "da1")
    assert (code, out.strip()) == (0, "q^2*da1")


def test_star_on_a_universe_without_one_exits_2(capsys):
    code, out, err = run(capsys, "apply", "star", "--algebra", "grassmann", "psi1")
    assert (code, out) == (2, "")
    assert err == "error: no star structure defined for universe 'grassmann'\n"


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


def test_a_classical_universe_evaluates_q_in_every_expression(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "classical-hq", "q*a0", "a0")
    assert (code, out.strip()) == (0, "EQUAL")
    code, out, _ = run(capsys, "apply", "d", "--algebra", "classical-dga",
                       "q*a0*a1")
    assert (code, out.strip()) == (0, "da1*a0 + da0*a1")
    code, out, _ = run(capsys, "apply", "star", "--algebra", "classical-hq",
                       "q*a2")
    assert (code, out.strip()) == (0, "a2")
    code, out, _ = run(capsys, "nf", "--algebra", "classical-hq", "--at-q", "1",
                       "q*a0")
    assert (code, out.strip()) == (0, "a0")


def test_at_q_is_refused_on_a_classical_universe_unless_it_is_1(capsys):
    code, out, err = run(capsys, "nf", "--algebra", "classical-dga", "--at-q",
                         "2", "q*a0*da1")
    assert (code, out) == (2, "")
    assert err == "error: classical-dga is already specialized at q = 1\n"


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


@pytest.mark.parametrize("argv, want", [
    (["nf", "-a0*a1"], "(1/2)*i*q*a3^2 - (1/2)*i*q^-1*a3^2 "
                       "+ (1/2)*i*q*a2^2 - (1/2)*i*q^-1*a2^2 - a1*a0"),
    (["nf", "-q"], "-(1)*q"),
    (["check", "-a0", "-a0"], "EQUAL"),
    (["nf", "--at-q=2", "a0*a1"], "-(3/4)*i*a3^2 - (3/4)*i*a2^2 + a1*a0"),
], ids=["nf-minus-product", "nf-minus-q", "check-minus", "at-q-equals"])
def test_dash_led_expressions_and_known_options_parse(capsys, argv, want):
    assert run(capsys, *argv)[:2] == (0, want + "\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--cap", "3"], ["nf", "--literal-paper", "a0"], ["nf", "--bogus", "a0"],
    ["nf", "--bogus=3", "a0"], ["verify", "--unicode"]])
def test_an_unknown_option_is_named_not_read_as_an_expression(capsys, argv):
    # an expression cannot start with --: -(-a0) reads as --a0 would
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"qcalc: error: unrecognized arguments: {argv[1]}"


def test_a_rewriting_cycle_exits_2(capsys, monkeypatch):
    cycle = Presentation.from_obj({
        "name": "cycle",
        "generators": [{"id": "a", "grade": 0, "rank": 0},
                       {"id": "b", "grade": 0, "rank": 1}],
        "rules": [{"lhs": ["a", "b"], "rhs": [{"word": ["b", "a"], "coeff": "1"}]},
                  {"lhs": ["b", "a"], "rhs": [{"word": ["a", "b"], "coeff": "1"}]}]})
    monkeypatch.setitem(presentations._cache, "cycle", cycle)
    code, out, err = run(capsys, "nf", "--algebra", "cycle", "a*a*b")
    assert (code, out) == (2, "")
    assert err.startswith("error: rewriting cycle in 'cycle'") and err.count("\n") == 1


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


def _set_first_generator(field, value):
    def corrupt(path):
        obj = json.loads(path.read_text())
        obj["generators"][0][field] = value
        path.write_text(json.dumps(obj))
    return corrupt


def _edit_first_rule(edit):
    def corrupt(path):
        obj = json.loads(path.read_text())
        edit(obj["rules"][0])
        path.write_text(json.dumps(obj))
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes()),
     "is not UTF-8 text"),
    (_set_first_generator("grade", "z"), "malformed presentation object"),
    (_set_first_generator("rank", "1.5"), "malformed presentation object"),
    (_set_first_generator("grade", 0.9), "malformed presentation object"),
    (_set_first_generator("rank", True), "malformed presentation object"),
    (_set_first_generator("id", ["x"]), "id must be a string"),
    (lambda path: path.write_text(path.read_text().replace('"name": "hq"',
                                                           '"name": ["hq"]')),
     "name must be a string"),
    (lambda path: path.write_text(json.dumps({**json.loads(path.read_text()),
                                              "description": ["x"]})),
     "description must be a string"),
    (_edit_first_rule(lambda rule: rule.update(lhs="".join(rule["lhs"]))),
     "lhs must be a list of strings"),
    (_edit_first_rule(lambda rule: rule["rhs"][0].update(word="a3 a2")),
     "word must be a list of strings"),
    (_edit_first_rule(lambda rule: rule["rhs"].append({**rule["rhs"][0], "coeff": "5"})),
     "duplicate rhs word"),
], ids=["not-utf-8", "grade-z", "rank-1.5", "grade-0.9", "rank-true", "id-list",
        "name-list", "description-list", "lhs-string", "word-string", "rhs-word-repeated"])
def test_load_rejects_a_malformed_file(capsys, tmp_path, corrupt, message):
    target = tmp_path / "hq.json"
    run(capsys, "dump-presentation", "hq", "--output", str(target))
    corrupt(target)
    code, out, err = run(capsys, "load-presentation", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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


@pytest.mark.parametrize("q0", ["1e5000", "1e-5000", "1234e4298", "1e2000000"])
def test_at_q_past_the_digit_limit_is_a_usage_error(capsys, q0):
    code, out, err = run(capsys, "nf", "--at-q", q0, "a0*a1")
    assert (code, out) == (2, "")
    assert err == ("error: --at-q wants a rational number within the int/str "
                   f"conversion limit, got {q0!r}\n")


def test_flags_lists_every_option_of_the_parser():
    # main refuses any other --option, and _pad_expression_args reads any
    # other dash-led token as an expression
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


def test_help_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nf", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qcalc nf [-h]")


def test_import_leaves_unused_standard_modules_unloaded(run_cold):
    """A cold `import qcalc`, which every command pays, loads none of these."""
    unused = ("dataclasses", "inspect", "datetime", "json")
    code = f"import sys, qcalc; print([m for m in {unused!r} if m in sys.modules])"
    assert run_cold(code) == "[]\n"


# Runs the normal-form path cold and lists, before and after the first
# use of qcalc.run_suite, the layered modules whose code has run.
COLD_CORE = """
import sys
from pathlib import Path

ran = set()

def audit(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = Path(args[0].co_filename)
        if path.parent.name == "qcalc" and path.stem in ("calculus", "hopf", "verify"):
            ran.add(path.stem)

sys.addaudithook(audit)
import qcalc
import qcalc.cli

hq = qcalc.get_presentation("hq")
print(qcalc.render_poly(hq.normal_form(qcalc.parse("a0*a1", hq)), hq))
qcalc.specialize(hq, 2)
print(qcalc.cli.main(["nf", "a0*a1"]), qcalc.cli.main(["check", "a2*a3", "a3*a2"]))
print(sorted(ran))
qcalc.run_suite
print(sorted(ran))
"""


def test_the_normal_form_path_runs_no_calculus_hopf_or_verify_code(run_cold):
    """calculus, hopf and verify load on first use, which nf and check never make."""
    out = run_cold(COLD_CORE).splitlines()
    assert out == [NF_A0A1, NF_A0A1, "EQUAL", "0 0", "[]",
                   "['calculus', 'hopf', 'verify']"]
