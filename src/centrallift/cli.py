"""Command-line surface.

Commands:
  solve  PRES PHI   homomorphic lifts of the given quotient automorphism
  auto   PRES PHI   automorphic lifts (--existence-only for squarefree #N)
  verify PRES       solver vs brute-force oracle, over all quotient
                    automorphisms or a given --phi file
  demo              metacyclic showcase (--p, --n)

Exit codes: 0 success, 1 input/configuration or usage error, 2 no lift
exists, 3 solver/oracle mismatch, 4 internal error (a failed internal
cross-check: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engines, lifting, metacyclic, oracle
from .lifting import LiftContext, LiftProblem
from .presentation import (
    NotCentral,
    NotHomomorphism,
    NotSurjective,
    PresentationSyntaxError,
    parse_presentation_file,
    parse_quotient_aut,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_LIFT = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    pass


# Bad input or configuration: exit 1.
INPUT_ERRORS = (
    CliError,
    PresentationSyntaxError,
    NotCentral,
    NotHomomorphism,
    NotSurjective,
    lifting.DependentCentralGenerators,
    lifting.NotSquarefree,
    lifting.ResidueOutsideN,
    oracle.BudgetExceeded,
    engines.CosetLimitExceeded,
    metacyclic.InvalidConfig,
)

# A failed internal cross-check or invariant: exit 4.  AssertionError
# covers metacyclic.VerificationFailed and the engines' invariants.
INTERNAL_ERRORS = (
    lifting.SolverConsistencyError,
    lifting.CriterionMismatch,
    lifting.NotASolution,
    metacyclic.SearchFailed,
    AssertionError,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(payload) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(f"{pad}  -")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _load_context(args) -> LiftContext:
    pres, central = parse_presentation_file(_read(args.presentation))
    if central is None:
        raise CliError("presentation file has no 'central:' section")
    if args.max_cosets < 1:
        raise CliError("--max-cosets must be >= 1")
    engine = engines.todd_coxeter(pres, max_cosets=args.max_cosets)
    return LiftContext(pres, engine, central, args.max_cosets)


def _load_problem(args) -> LiftProblem:
    context = _load_context(args)
    return context.problem(parse_quotient_aut(_read(args.phi), context.pres))


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    report = lifting.solve_hom_lifts(problem)
    _emit(lifting.report_to_dict(problem, report), args.format, args.out)
    return EXIT_OK if report.lifts else EXIT_NO_LIFT


def cmd_auto(args) -> int:
    problem = _load_problem(args)
    if args.existence_only:
        exists = lifting.squarefree_existence(problem)
        _emit({"kind": "existence", "lift_exists": exists}, args.format, args.out)
        return EXIT_OK if exists else EXIT_NO_LIFT
    report = lifting.solve_aut_lifts(problem, lifting.solve_hom_lifts(problem))
    _emit(lifting.report_to_dict(problem, report), args.format, args.out)
    return EXIT_OK if report.lifts else EXIT_NO_LIFT


def cmd_verify(args) -> int:
    context = _load_context(args)
    if args.phi:
        specs = [parse_quotient_aut(_read(args.phi), context.pres)]
    else:
        specs = oracle.bf_quotient_auts(context, budget=args.aut_budget)
    results = []
    try:
        for spec in specs:
            report = oracle.compare(context.problem(spec), budget=args.lift_budget)
            results.append(report.to_dict())
    except oracle.Mismatch as exc:
        _emit(
            {"match": False, "report": exc.report.to_dict()}, args.format, args.out
        )
        return EXIT_MISMATCH
    _emit(
        {"match": True, "phi_count": len(results), "comparisons": results},
        args.format,
        args.out,
    )
    return EXIT_OK


def cmd_demo(args) -> int:
    cfg = metacyclic.CaseStudyConfig(args.p, args.n, order_budget=args.order_budget)
    result = metacyclic.run_case_study(cfg)
    _emit(result.to_dict(), args.format, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # a usage error is bad input (exit 1), not argparse's exit 2, which
    # would read as "no lift exists"
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="centrallift",
        description="Lift automorphisms of central quotients of finitely presented groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")

    def common(p):
        p.add_argument("presentation", help="presentation file (with central: lines)")
        p.add_argument("--max-cosets", type=int, default=engines.DEFAULT_MAX_COSETS)
        output(p)

    p_solve = sub.add_parser("solve", help="enumerate homomorphic lifts")
    common(p_solve)
    p_solve.add_argument("phi", help="quotient-automorphism image file")
    p_solve.set_defaults(func=cmd_solve)

    p_auto = sub.add_parser("auto", help="enumerate automorphic lifts")
    common(p_auto)
    p_auto.add_argument("phi", help="quotient-automorphism image file")
    p_auto.add_argument(
        "--existence-only",
        action="store_true",
        help="squarefree #N: report existence without enumeration",
    )
    p_auto.set_defaults(func=cmd_auto)

    p_verify = sub.add_parser("verify", help="compare solver against the oracle")
    common(p_verify)
    p_verify.add_argument("--phi", default=None, help="check a single image file")
    p_verify.add_argument("--lift-budget", type=int, default=oracle.DEFAULT_LIFT_BUDGET)
    p_verify.add_argument("--aut-budget", type=int, default=oracle.DEFAULT_AUT_BUDGET)
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="metacyclic non-characteristic showcase")
    p_demo.add_argument("--p", type=int, required=True)
    p_demo.add_argument("--n", type=int, required=True)
    p_demo.add_argument(
        "--order-budget", type=int, default=metacyclic.CaseStudyConfig.order_budget
    )
    output(p_demo)
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
