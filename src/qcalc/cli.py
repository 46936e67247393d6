"""Command-line interface.

Commands: nf, check, apply, verify, dump-presentation,
load-presentation.  Exit codes: 0 success or equality, 1 inequality or
failed checks, 2 usage, parse, or universe errors, or a coefficient too
long to print.
"""

import argparse
import sys
from fractions import Fraction

from . import calculus, hopf, verify
from .algebra import (
    AlgebraError,
    Presentation,
    PresentationError,
    render_poly,
)
from .parser import ParseError, parse
from .presentations import get_presentation, shipped_names, specialize
from .report import ENGINE_VERSION, SUITES

__all__ = ["main"]

APPLY_OPS = ("d", "star", "coproduct", "counit", "antipode")

# the universe that adds d letters to a coordinate one, for apply d
_D_UPGRADES = {"hq": "dga", "units": "units_dga", "classical-hq": "classical-dga",
               "classical-units": "classical-units_dga"}


class CliError(Exception):
    """Usage-level problem; maps to exit code 2."""


def _q_value(args):
    q0 = getattr(args, "at_q", None)
    if q0 is None:
        return None
    # specialize puts str(value) in a name, so the value must pass the
    # int/str digit limit; a long exponent fails before Fraction builds it
    limit = sys.get_int_max_str_digits()
    exponent = q0.lower().partition("e")[2]
    try:
        if limit and exponent and abs(int(exponent)) > limit:
            raise ValueError(exponent)
        value = Fraction(q0)
        str(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"--at-q wants a rational number within the int/str "
                       f"conversion limit, got {q0!r}") from exc
    if value == 0:
        raise CliError("--at-q must be nonzero; q is invertible")
    return value


def _presentation(args, with_d=False) -> Presentation:
    name = _D_UPGRADES.get(args.algebra, args.algebra) if with_d else args.algebra
    pres = get_presentation(name)
    value = _q_value(args)
    return pres if value is None else specialize(pres, value)


def _cmd_nf(args) -> int:
    pres = _presentation(args)
    p = parse(args.expr, pres)
    print(render_poly(pres.normal_form(p), pres, unicode_mode=args.unicode))
    return 0


def _cmd_check(args) -> int:
    pres = _presentation(args)
    residual = pres.normal_form(parse(args.lhs, pres) - parse(args.rhs, pres))
    if not residual:
        print("EQUAL")
        return 0
    print(render_poly(residual, pres, unicode_mode=args.unicode))
    return 1


def _cmd_apply(args) -> int:
    op = args.op
    if op in ("d", "star"):
        pres = _presentation(args, with_d=op == "d")
        if op == "star":
            table = calculus.star_table(args.algebra)
        elif not any(g.id == "da0" for g in pres.generators):
            raise CliError(
                f"the differential needs differential letters; "
                f"universe {args.algebra!r} has none")
        p = parse(args.expr, pres)
        result = (calculus.star(p, table, pres) if op == "star"
                  else calculus.differential(p, pres))
        print(render_poly(result, pres, unicode_mode=args.unicode))
        return 0
    if args.at_q is not None:
        raise CliError(f"{op} runs at generic q; drop --at-q")
    if args.algebra != "hq":
        raise CliError(f"{op} is defined on the coordinate Hopf algebra; "
                       "use --algebra hq")
    hq = get_presentation("hq")
    p = parse(args.expr, hq)
    if op == "coproduct":
        print(hopf.coproduct(p).render(hq, unicode_mode=args.unicode))
        return 0
    if op == "counit":
        print(hopf.counit(p).render())
        return 0
    loc = get_presentation("hq_localized")
    print(render_poly(hopf.antipode(p), loc, unicode_mode=args.unicode))
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite)
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
    except UnicodeDecodeError as exc:
        raise CliError(f"{args.file} is not UTF-8 text: {exc}") from exc
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


_FLAGS = {"-h", "--help", "--version", "--algebra", "--at-q", "--unicode",
          "--output"}


def _pad_expression_args(argv):
    """Leading space shields minus-led expressions from flag parsing;
    main has refused every --option not in _FLAGS before it runs."""
    out = []
    for tok in argv:
        if tok.startswith("-") and tok.split("=", 1)[0] not in _FLAGS:
            tok = " " + tok
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_argparser()
    for tok in argv:
        if tok.startswith("--") and tok.split("=", 1)[0] not in _FLAGS:
            parser.error(f"unrecognized arguments: {tok}")
    args = parser.parse_args(_pad_expression_args(argv))
    try:
        return args.fn(args)
    except (CliError, ParseError, PresentationError, AlgebraError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
