"""Command-line surface: generate, solve, verify, experiment, export-dot.

Exit codes: 0 success, 1 verification failure, 2 infeasible instance,
3 invalid input (bad flags, malformed files, I/O trouble), 4 enumeration
bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from .covering import as_cost
from .errors import (
    BoundExceededError,
    ConstructionError,
    InfeasibleError,
    InvalidParameterError,
    VerificationError,
)
from .oracle import (
    gap_experiment,
    gap_sweep,
    verify_cores_lemma,
    verify_feasibility_lemma,
)
from .serialize import (
    canonical_text,
    fraction_text,
    gap_to_obj,
    instance_to_text,
    read_instance,
    report_to_obj,
    sweep_to_obj,
    to_dot,
    trace_to_obj,
)
from .tightgen import (
    LabeledInstance,
    analytic_cores,
    detect_generated,
    generate_instance,
    infer_params,
)
from .wgmv import TiePolicy, cost_of, run

EPSILON_CONST = "1/100"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for
    infeasibility, so usage errors are rethrown and mapped to 3."""

    def error(self, message: str):
        raise InvalidParameterError(message)


def _add_epsilon(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epsilon",
        nargs="?",
        const=EPSILON_CONST,
        metavar="FRAC",
        help="blue-link cost surcharge as an exact rational; "
        f"bare --epsilon means {EPSILON_CONST} (default 0)",
    )


def _add_policy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        choices=[p.value for p in TiePolicy],
        default=TiePolicy.ADVERSARIAL.value,
        help="ordering of links that go tight together (default adversarial)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse objects hold reference
    cycles, so a fresh parser per call would leave garbage behind."""
    parser = _Parser(prog="smallcuts", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance as JSON")
    gen.add_argument("--q", type=int, default=1)
    gen.add_argument("--p", type=int, default=1)
    gen.add_argument("--k", type=int, required=True)
    _add_epsilon(gen)
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run the two-phase algorithm on an instance file")
    solve.add_argument("instance", help="instance JSON path")
    _add_policy(solve)
    solve.add_argument("--trace", help="write the run trace JSON here")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="recheck the structural lemmas and the gap")
    verify.add_argument("instance", nargs="?", help="instance JSON path (alternative to --q/--p/--k)")
    verify.add_argument("--q", type=int)
    verify.add_argument("--p", type=int)
    verify.add_argument("--k", type=int)
    _add_epsilon(verify)
    verify.add_argument("--out", help="write the full JSON report here")
    verify.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="worst-case ratio sweep over thresholds")
    exp.add_argument("--k", type=int, nargs="+", required=True, metavar="K")
    exp.add_argument("--out", help="write the JSON table here")
    exp.set_defaults(func=cmd_experiment)

    dot = sub.add_parser("export-dot", help="render an instance file as Graphviz DOT")
    dot.add_argument("instance", help="instance JSON path")
    dot.add_argument("--out", help="output path (default: stdout)")
    dot.set_defaults(func=cmd_export_dot)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")


def _epsilon(args: argparse.Namespace) -> Fraction:
    return as_cost("0" if args.epsilon is None else args.epsilon)


def cmd_generate(args: argparse.Namespace) -> int:
    labeled = generate_instance(args.q, args.p, args.k, _epsilon(args))
    _emit(instance_to_text(labeled.instance), args.out)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    policy = TiePolicy(args.policy)
    labeled = detect_generated(inst)
    first_cores = analytic_cores(labeled.params) if labeled is not None else None
    result = run(inst, policy=policy, first_cores=first_cores)
    if args.trace:
        _emit(canonical_text(trace_to_obj(result, inst)), args.trace)
    print(f"policy: {policy.value}")
    if not result.final:
        print("cost 0, empty solution")
        return 0
    print(f"selected {len(result.final)} links:")
    for i in result.final:
        ln = inst.links[i]
        tag = f" [{ln.tag}]" if ln.tag else ""
        print(f"  {i}: {inst.graph.label_of(ln.u)}-{inst.graph.label_of(ln.v)} cost {fraction_text(ln.cost)}{tag}")
    cost = cost_of(inst, result.final)
    dual = result.dual.objective()
    print(f"cost {fraction_text(cost)}, dual {fraction_text(dual)}")
    if dual > 0:
        print(f"ratio vs dual bound: {fraction_text(cost / dual)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instance is not None:
        if any(getattr(args, name) is not None for name in ("q", "p", "k", "epsilon")):
            raise InvalidParameterError("pass an instance path or --q/--p/--k/--epsilon, not both")
        inst = read_instance(args.instance)
        params = infer_params(inst)
        if params is None:
            raise InvalidParameterError(
                "instance does not match the generated family shape; pass --q/--p/--k instead"
            )
        if any(ln.tag is None for ln in inst.links):
            raise InvalidParameterError("instance has untagged links; cannot split red from blue")
        labeled = LabeledInstance(inst, params)
        exact = detect_generated(inst) is not None  # only an exact build gets the gap run
    else:
        if args.q is None or args.p is None or args.k is None:
            raise InvalidParameterError("pass an instance path or all of --q, --p, --k")
        labeled = generate_instance(args.q, args.p, args.k, _epsilon(args))
        exact = True

    reports = [verify_cores_lemma(labeled), verify_feasibility_lemma(labeled)]
    gap = gap_experiment(labeled, policy=TiePolicy.ADVERSARIAL) if exact else None
    failures = 0
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {report.title}: {check.name}")
            if not check.passed:
                failures += 1
                print(f"     {check.detail}")
    if gap is not None:
        print(
            f"gap: alg {fraction_text(gap.alg_cost)}, opt {fraction_text(gap.opt_cost)}"
            f"{' (analytic)' if gap.opt_is_analytic else ''}, "
            f"dual {fraction_text(gap.dual_obj)}, ratio {fraction_text(gap.ratio)}"
        )
    obj = {
        "reports": [report_to_obj(r) for r in reports],
        "gap": gap_to_obj(gap) if gap is not None else None,
        "passed": failures == 0,
    }
    if args.out:
        _emit(canonical_text(obj), args.out)
    if failures:
        print(f"{failures} checks failed")
        return 1
    print("all checks passed")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    rows = gap_sweep(args.k)
    print(f"{'k':>4} {'p':>4} {'ratio':>10} {'formula':>10} {'match':>6} {'opt':>9}")
    for row in rows:
        print(
            f"{row.k:>4} {row.p:>4} {fraction_text(row.ratio):>10} "
            f"{fraction_text(row.formula_value):>10} {str(row.matches).lower():>6} "
            f"{'analytic' if row.opt_is_analytic else 'exact':>9}"
        )
    if args.out:
        _emit(canonical_text(sweep_to_obj(rows)), args.out)
    return 0 if all(row.matches for row in rows) else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    _emit(to_dot(inst), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidParameterError, ConstructionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except BoundExceededError as e:
        print(f"bound exceeded: {e}", file=sys.stderr)
        return 4
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
