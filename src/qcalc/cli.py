"""Command-line interface.

Commands: nf, check, apply, verify, dump-presentation,
load-presentation.  Exit codes: 0 success or equality, 1 inequality or
failed checks, 2 usage, parse, or universe errors, or a coefficient too
long to print.
"""

import argparse
import sys
from fractions import Fraction

from .algebra import (
    AlgebraError,
    NCPoly,
    Presentation,
    PresentationError,
    StepLimitExceeded,
    render_poly,
)
from .calculus import differential, star, star_table
from .hopf import antipode, coproduct, counit
from .parser import ParseError, parse
from .presentations import get_presentation, shipped_names, specialize
from .report import ENGINE_VERSION
from .verify import SUITES, run_suite

__all__ = ["main"]

APPLY_OPS = ("d", "star", "coproduct", "counit", "antipode")

_D_UPGRADES = {"hq": "dga", "units": "units_dga"}


class CliError(Exception):
    """Usage-level problem; maps to exit code 2."""


def _algebra_name(args) -> str:
    name = args.algebra
    if getattr(args, "literal_paper", False):
        prefix, base = "", name
        if name.startswith("classical-"):
            prefix, base = "classical-", name[len("classical-"):]
        if base != "dga":
            raise CliError("--literal-paper applies to the dga algebra only")
        name = prefix + "dga_literal"
    return name


def _q_value(args):
    q0 = getattr(args, "at_q", None)
    if q0 is None:
        return None
    try:
        value = Fraction(q0)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"--at-q wants a rational number, got {q0!r}") from exc
    if value == 0:
        raise CliError("--at-q must be nonzero; q is invertible")
    return value


def _maybe_specialize(pres: Presentation, args) -> Presentation:
    value = _q_value(args)
    if value is None:
        return pres
    return specialize(pres, value)


def _presentation(args) -> Presentation:
    return _maybe_specialize(get_presentation(_algebra_name(args)), args)


def _parse_expr(text, pres, args):
    p = parse(text, pres)
    value = _q_value(args)
    if value is not None:
        p = NCPoly(dict(p.eval_at(value).terms), pres.name)
    return p


def _cmd_nf(args) -> int:
    pres = _presentation(args)
    p = _parse_expr(args.expr, pres, args)
    print(render_poly(pres.normal_form(p), pres, unicode_mode=args.unicode))
    return 0


def _cmd_check(args) -> int:
    pres = _presentation(args)
    lhs = _parse_expr(args.lhs, pres, args)
    rhs = _parse_expr(args.rhs, pres, args)
    residual = pres.normal_form(lhs - rhs)
    if not residual:
        print("EQUAL")
        return 0
    print(render_poly(residual, pres, unicode_mode=args.unicode))
    return 1


def _cmd_apply(args) -> int:
    op = args.op
    if op == "d":
        name = _algebra_name(args)
        prefix, base = "", name
        if name.startswith("classical-"):
            prefix, base = "classical-", name[len("classical-"):]
        base = _D_UPGRADES.get(base, base)
        pres = get_presentation(prefix + base)
        if not any(g.id == "da0" for g in pres.generators):
            raise CliError(
                f"the differential needs differential letters; "
                f"universe {name!r} has none")
        pres = _maybe_specialize(pres, args)
        p = _parse_expr(args.expr, pres, args)
        print(render_poly(differential(p, pres), pres,
                          unicode_mode=args.unicode))
        return 0
    if op == "star":
        pres = _presentation(args)
        try:
            table = star_table(_algebra_name(args))
        except PresentationError as exc:
            raise CliError(str(exc)) from exc
        value = _q_value(args)
        if value is not None:
            table = {k: v.eval_at(value) for k, v in table.items()}
        p = _parse_expr(args.expr, pres, args)
        print(render_poly(star(p, table, pres), pres,
                          unicode_mode=args.unicode))
        return 0
    if args.at_q is not None:
        raise CliError(f"{op} runs at generic q; drop --at-q")
    if args.algebra != "hq":
        raise CliError(f"{op} is defined on the coordinate Hopf algebra; "
                       "use --algebra hq")
    hq = get_presentation("hq")
    p = _parse_expr(args.expr, hq, args)
    if op == "coproduct":
        print(coproduct(p).render(hq, unicode_mode=args.unicode))
        return 0
    if op == "counit":
        print(counit(p).render())
        return 0
    loc = get_presentation("hq_localized")
    print(render_poly(antipode(p), loc, unicode_mode=args.unicode))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, cap=args.cap)
    print(report.render_table())
    path = args.output or f"qcalc-report-{args.suite}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"report written to {path}")
    return 1 if report.failed else 0


def _cmd_dump(args) -> int:
    pres = get_presentation(args.name)
    text = pres.dump_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_load(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            pres = Presentation.load_json(fh.read())
    except OSError as exc:
        raise CliError(str(exc)) from exc
    failures = pres.check_local_confluence()
    print(f"loaded {pres.name!r}: {len(pres.generators)} generators, "
          f"{len(pres.rules)} rules, {len(failures)} failing overlaps")
    return 1 if failures else 0


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcalc",
        description="Exact normal forms and identity verification for the "
                    "deformed quaternion algebras.",
    )
    top.add_argument("--version", action="version",
                     version=f"%(prog)s {ENGINE_VERSION}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra="hq"):
        p.add_argument("--algebra", default=algebra,
                       help=f"universe to work in (default {algebra}); one of "
                            f"{', '.join(shipped_names())}, cm, units_dga, "
                            "units_cm, hq_localized")
        p.add_argument("--at-q", dest="at_q", metavar="RATIONAL",
                       help="specialize coefficients and rules at a nonzero "
                            "rational q")
        p.add_argument("--literal-paper", dest="literal_paper",
                       action="store_true",
                       help="use the differential table exactly as printed, "
                            "without the repairs")
        p.add_argument("--unicode", action="store_true",
                       help="superscripts and a real tensor sign in output")

    p_nf = sub.add_parser("nf", help="reduce an expression to normal form")
    common(p_nf)
    p_nf.add_argument("expr")
    p_nf.set_defaults(fn=_cmd_nf)

    p_check = sub.add_parser("check", help="test two expressions for equality")
    common(p_check)
    p_check.add_argument("lhs")
    p_check.add_argument("rhs")
    p_check.set_defaults(fn=_cmd_check)

    p_apply = sub.add_parser("apply", help="apply a structure map")
    common(p_apply)
    p_apply.add_argument("op", choices=APPLY_OPS)
    p_apply.add_argument("expr")
    p_apply.set_defaults(fn=_cmd_apply)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", default="all", choices=SUITES)
    p_verify.add_argument("--cap", type=int, default=3,
                          help="degree cap for classical bracket tabulation")
    p_verify.add_argument("--output", help="report file path")
    p_verify.set_defaults(fn=_cmd_verify)

    p_dump = sub.add_parser("dump-presentation",
                            help="print or save a presentation as JSON")
    p_dump.add_argument("name")
    p_dump.add_argument("--output")
    p_dump.set_defaults(fn=_cmd_dump)

    p_load = sub.add_parser("load-presentation",
                            help="load a presentation file and check it")
    p_load.add_argument("file")
    p_load.set_defaults(fn=_cmd_load)
    return top


_FLAGS = {"-h", "--help", "--version", "--algebra", "--at-q",
          "--literal-paper", "--unicode", "--cap", "--output"}


def _pad_expression_args(argv):
    """Leading space shields minus-led expressions from flag parsing."""
    out = []
    for tok in argv:
        if tok.startswith("-") and tok.split("=", 1)[0] not in _FLAGS:
            tok = " " + tok
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_argparser().parse_args(_pad_expression_args(argv))
    try:
        return args.fn(args)
    except (CliError, ParseError, PresentationError, AlgebraError,
            StepLimitExceeded, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
