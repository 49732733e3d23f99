"""Command-line entry point.

Exit codes: 0 on success or all checks passing, 1 on verification failure,
2 on usage errors or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import stability as stab
from .errors import PpalgError, UsageError
from .fields import GF
from .quiver import parse_type, standard_extended_dynkin
from .rep import Representation
from .reflection import apply_word, compute_siw, reflect_minus, reflect_plus
from .verify import SUITE_NAMES, run_suite
from .weyl import (
    StabilityParameter,
    WeylGroup,
    chamber_label,
    chamber_word,
    finite_root_system,
)


def _load_rep(path: str) -> Representation:
    """A module file; one that is not UTF-8 JSON, or nests deeper than the decoder recurses, raises UsageError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise UsageError(f"module: not a UTF-8 JSON file: {exc}") from None
    return Representation.from_json(data)


def _load_module(path: str) -> Representation:
    """A module file whose matrices satisfy the preprojective relations, else UsageError."""
    rep = _load_rep(path)
    violated = rep.check_relations()
    if violated:
        raise UsageError(f"not a module over the preprojective algebra: violated vertices: {violated}")
    return rep


def _parse_theta(text: str, vertex_count: int) -> StabilityParameter:
    theta = StabilityParameter.parse(text)
    if len(theta) != vertex_count:
        raise UsageError(f"theta has {len(theta)} entries, the quiver has {vertex_count} vertices")
    return theta


def _theta_from_args(args, d) -> StabilityParameter:
    if getattr(args, "theta", None):
        return _parse_theta(args.theta, len(d))
    if getattr(args, "theta_tail", None):
        return StabilityParameter.from_tail(d, StabilityParameter.parse(args.theta_tail))
    raise UsageError("provide --theta or --theta-tail")


def _parse_word(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--word: letters must be integers, got {text!r}") from None


def _setup(type_text: str):
    tag, n = parse_type(type_text)
    return standard_extended_dynkin(tag, n)


def cmd_quiver(args) -> int:
    dq, d = _setup(args.type)
    if args.emit == "dot":
        print(dq.to_dot())
    else:
        payload = dq.to_json()
        payload["d"] = list(d)
        print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_rep_check(args) -> int:
    violated = _load_rep(args.file).check_relations()
    print(f"violated vertices: {violated}" if violated else "ok")
    return 1 if violated else 0


def cmd_reflect(args) -> int:
    rep = _load_module(args.file)
    func = reflect_plus if args.dir == "plus" else reflect_minus
    res = func(args.vertex, rep)
    print(json.dumps({"defect": res.defect, "module": res.module.to_json()}, sort_keys=True))
    return 0


def cmd_apply(args) -> int:
    rep = _load_module(args.file)
    theta = _parse_theta(args.theta, rep.dq.vertex_count)
    word = _parse_word(args.word)
    module, final_theta = apply_word(word, rep, theta)
    print(
        json.dumps(
            {"module": module.to_json(), "theta": final_theta.format()}, sort_keys=True
        )
    )
    return 0


def cmd_chamber(args) -> int:
    dq, d = _setup(args.type)
    theta = _theta_from_args(args, d)
    print(chamber_label(chamber_word(dq, d, theta)))
    return 0


def cmd_siw(args) -> int:
    dq, d = _setup(args.type)
    wg = WeylGroup(finite_root_system(dq, d))
    field = GF(args.field)
    shifted = compute_siw(wg, _parse_word(args.word), args.simple, field)
    if args.emit == "json":
        print(json.dumps(shifted.to_json(), sort_keys=True))
    else:
        print(f"degree {shifted.degree}, dims {tuple(shifted.module.dims)}")
    return 0


def cmd_stability(args) -> int:
    rep = _load_module(args.file)
    theta = _parse_theta(args.theta, rep.dq.vertex_count)
    verdict = stab.stability_verdict(rep, theta, budget=args.budget)
    if verdict.witness is not None:
        print(f"{verdict.status} witness={tuple(verdict.witness)}")
    else:
        print(verdict.status)
    return 0


def cmd_scan(args) -> int:
    dq, d = _setup(args.type)
    field = GF(args.field)
    theta = _theta_from_args(args, d)
    scan = stab.moduli_scan(dq, d, theta, field, budget=args.budget)
    if args.emit == "csv":
        sys.stdout.write(scan.to_csv())
    else:
        print(json.dumps(scan.to_json(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, field_order=args.field, seed=args.seed)
    if args.emit == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_table())
    return 0 if report.all_pass else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts leading-minus parameter lists like -2,1,1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?(,|$)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppalg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="emit a standard extended Dynkin double quiver")
    p.add_argument("--type", required=True)
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("rep-check", help="check the preprojective relations of a module file")
    p.add_argument("file")
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("reflect", help="apply one reflection functor to a module file")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--dir", choices=("plus", "minus"), required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("apply", help="apply a word of reflection functors")
    p.add_argument("--word", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("chamber", help="chamber of a generic stability parameter")
    p.add_argument("--type", required=True)
    p.add_argument("--theta")
    p.add_argument("--theta-tail", dest="theta_tail")
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("siw", help="shifted simple across a reduced word")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--simple", type=int, required=True)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_siw)

    p = sub.add_parser("stability", help="stability verdict of a module file")
    p.add_argument("--theta", required=True)
    budget_help = "most subspace tuples in the dimension vectors a non-thin search reaches (default %(default)s)"
    p.add_argument("--budget", type=int, default=stab.SEARCH_BUDGET, help=budget_help)
    p.add_argument("file")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("scan", help="enumerate semistable thin classes over a finite field")
    p.add_argument("--type", required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--theta")
    p.add_argument("--theta-tail", dest="theta_tail")
    budget_help = "most value tuples the solved thin variety may hold, charged before the first class is listed (default %(default)s)"
    p.add_argument("--budget", type=int, default=stab.SEARCH_BUDGET, help=budget_help)
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--field", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send what is left to
        # devnull so the flush at exit succeeds too, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (PpalgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
