"""Command-line surface.

Commands: run, check, compare, decompose, replay-paper.
Exit codes: 0 success / all-pass, 1 property failure or fixture
divergence, 2 input error, 3 guard violation (query too large for the
exact procedures, or for the memory available).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import io, spaces
from .axioms import (
    PropertyReport,
    check_decomposability,
    check_envy,
    check_ete,
    check_ex_post_efficiency,
    check_ordinal_fairness,
    check_sd_efficiency,
    check_strategyproofness,
    check_upper_invariance,
    sd_dominance,
)
from .errors import GuardViolation, MtraError, ParseError, SoundnessError
from .fixtures import fixture_names, replay_all
from .mechanisms import MrpExact, MrpMonteCarlo, mgd, mgd_decompose, mps, mrp
from .model import FractionalAssignment, Instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

# Property name -> checker, in the order "all" runs them.  The lambdas look
# the checkers up when called, so a wrapper patched onto this module applies.
ASSIGNMENT_CHECKS = {
    "sd-efficiency": lambda inst, P: check_sd_efficiency(inst, P),
    "ex-post-efficiency": lambda inst, P: check_ex_post_efficiency(inst, P),
    "sd-envy-freeness": lambda inst, P: check_envy(inst, P, "strong"),
    "weak-sd-envy-freeness": lambda inst, P: check_envy(inst, P, "weak"),
    "equal-treatment-of-equals": lambda inst, P: check_ete(inst, P),
    "ordinal-fairness": lambda inst, P: check_ordinal_fairness(inst, P),
    "decomposability": lambda inst, P: check_decomposability(inst, P),
}
MECHANISM_PROPERTIES = (
    "sd-strategyproofness",
    "weak-sd-strategyproofness",
    "upper-invariance",
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> tuple[Instance, object]:
    return io.parse_instance(_read(path))


def _tiebreak_for(args, instance: Instance, file_tiebreak):
    flag = getattr(args, "tiebreak", None)
    if flag is None:
        return file_tiebreak
    if flag == "default":
        return None  # canonical bundle order, overriding any file tiebreak
    return io.parse_tiebreak(_read(flag), instance)


def cmd_run(args) -> int:
    if args.mechanism != "mrp" and args.mode != "exact":
        raise ParseError(f"--mode {args.mode!r} applies to mrp only")
    instance, file_tb = _load_instance(args.instance)
    tiebreak = _tiebreak_for(args, instance, file_tb)
    meta = {
        "mechanism": args.mechanism,
        "mode": args.mode,
        "seed": args.seed,
        "tiebreak": "explicit" if tiebreak is not None else "canonical",
    }
    if args.mechanism == "mps":
        assignment, _ = mps(instance, tiebreak)
    elif args.mechanism == "mgd":
        assignment = mgd(instance, tiebreak)
    else:
        mode = _mrp_mode(args.mode, args.seed)
        assignment = mrp(instance, mode, tiebreak).assignment
    sys.stdout.write(io.serialize_assignment(instance, assignment, meta))
    return EXIT_OK


def _mrp_mode(mode: str, seed: int):
    if mode == "exact":
        return MrpExact()
    if mode == "sample":
        return MrpMonteCarlo(1, seed)
    if mode.startswith("mc:"):
        return MrpMonteCarlo(_count(mode, "monte-carlo mode"), seed)
    raise ParseError(f"unknown mode {mode!r}")


def _count(spec: str, what: str) -> int:
    """The K of an ``mc:K`` or ``sampled:K`` argument, an integer; the
    class it goes to refuses a K outside its budget."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ParseError(f"bad {what} {spec!r}: K must be an integer") from None


def _misreport_space(kind: str, seed: int):
    if kind == "linear":
        return spaces.LinearOrderMisreports()
    if kind == "cpnet":
        return spaces.CpNetMisreports()
    if kind == "independent":
        return spaces.IndependentCpNetMisreports()
    if kind.startswith("sampled:"):
        return spaces.SampledLinearOrderMisreports(_count(kind, "misreport space"), seed)
    raise ParseError(f"unknown misreport space {kind!r}")


def cmd_check(args) -> int:
    instance, file_tb = _load_instance(args.instance)
    assignment = io.parse_assignment(_read(args.assignment), instance)
    wanted = (
        list(ASSIGNMENT_CHECKS)
        if args.property == "all"
        else [p.strip() for p in args.property.split(",") if p.strip()]
    )
    if not wanted:
        raise ParseError(f"--property {args.property!r} names no property")
    tiebreaks = [file_tb]
    reports: list[PropertyReport] = []
    for prop in wanted:
        if prop in MECHANISM_PROPERTIES:
            if not args.mechanism:
                raise ParseError(f"property {prop} needs --mechanism")
            space = _misreport_space(args.misreports, args.seed)
            if prop == "upper-invariance":
                reports.append(
                    check_upper_invariance(
                        args.mechanism,
                        instance,
                        spaces.CpNetTransforms()
                        if args.misreports in ("cpnet", "independent")
                        else spaces.DeletionTransforms(),
                        tiebreaks=tiebreaks,
                    )
                )
            else:
                strength = "sd" if prop == "sd-strategyproofness" else "weak"
                reports.append(
                    check_strategyproofness(
                        args.mechanism, instance, space, strength, tiebreaks=tiebreaks
                    )
                )
        elif prop in ASSIGNMENT_CHECKS:
            reports.append(ASSIGNMENT_CHECKS[prop](instance, assignment))
        else:
            raise ParseError(f"unknown property {prop!r}")
    for r in reports:
        line = f"{'PASS' if r.passed else 'FAIL'} {r.prop}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    print("report-json: " + _report_json(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _report_json(reports) -> str:
    import json

    return json.dumps(
        [
            {
                "property": r.prop,
                "passed": r.passed,
                "detail": r.detail,
                "witness": _jsonable(r.witness),
            }
            for r in reports
        ],
        sort_keys=True,
    )


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return io.frac_str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, FractionalAssignment):
        return {"rows": _jsonable(obj.rows)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return repr(obj)


def cmd_compare(args) -> int:
    instance, _ = _load_instance(args.instance)
    a = io.parse_assignment(_read(args.first), instance)
    b = io.parse_assignment(_read(args.second), instance)
    agents = [args.agent] if args.agent is not None else list(range(instance.n))
    for j in agents:
        # any order will do for an agent out of range: sd_dominance refuses the agent first
        a_dominates, b_dominates = sd_dominance(instance.orders[j % instance.n], a, b, j)
        if a_dominates and b_dominates:
            word = "A and B mutually dominate (equal upper-contour sums)"
        elif a_dominates:
            word = "A sd B, not conversely"
        elif b_dominates:
            word = "B sd A, not conversely"
        else:
            word = "incomparable"
        print(f"agent {j}: {word}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    instance, file_tb = _load_instance(args.instance)
    tiebreak = _tiebreak_for(args, instance, file_tb)
    lottery = mgd_decompose(instance, tiebreak)
    expected = mgd(instance, tiebreak)
    if lottery.expectation(instance) != expected:
        raise SoundnessError("the mgd lottery's expectation is not the mgd assignment")
    sys.stdout.write(
        io.serialize_lottery(instance, lottery, {"mechanism": "mgd", "orders": len(lottery.entries)})
    )
    return EXIT_OK


def cmd_replay_paper(args) -> int:
    if args.list:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    results = replay_all()
    for result in results:
        line = f"{'PASS' if result.passed else 'FAIL'} {result.name}"
        if result.detail:
            line += f" ({result.detail})"
        print(line)
        if not result.passed:
            print(f"first divergence: {result.name}", file=sys.stderr)
            return EXIT_FAIL
    print(f"{len(results)} fixtures reproduced")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtra",
        description="Multi-type fractional allocation mechanisms and axiom oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a mechanism on an instance file")
    run.add_argument("instance")
    run.add_argument("--mechanism", choices=["mrp", "mps", "mgd"], required=True)
    run.add_argument("--mode", default="exact", help="mrp only: sample | exact | mc:K")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tiebreak", default=None, help="tiebreak file or 'default'")
    run.set_defaults(fn=cmd_run)

    check = sub.add_parser("check", help="verify axioms of an assignment")
    check.add_argument("instance")
    check.add_argument("assignment")
    check.add_argument("--property", default="all")
    check.add_argument("--mechanism", choices=["mrp", "mps", "mgd"], default=None)
    check.add_argument(
        "--misreports",
        default="linear",
        help="linear | cpnet | independent | sampled:K",
    )
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(fn=cmd_check)

    compare = sub.add_parser("compare", help="stochastic-dominance comparison")
    compare.add_argument("instance")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.add_argument("--agent", type=int, default=None)
    compare.set_defaults(fn=cmd_compare)

    decomp = sub.add_parser("decompose", help="emit the MGD lottery witness")
    decomp.add_argument("instance")
    decomp.add_argument("--tiebreak", default=None)
    decomp.set_defaults(fn=cmd_decompose)

    replay = sub.add_parser("replay-paper", help="re-derive the embedded fixtures")
    replay.add_argument("--list", action="store_true")
    replay.set_defaults(fn=cmd_replay_paper)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except GuardViolation as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MtraError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("guard violation: out of memory", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
