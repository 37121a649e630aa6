"""Command-line front end.

Subcommands: ``check`` (one property, structural and/or oracle engine),
``identity`` (user-supplied quasi-identity), ``element`` (regularizer /
weak-inverse / inverse search for a target element), ``reduce`` (build hard
instances from DFAs and digraphs), ``crosscheck`` (agreement sweeps).

Exit codes: 0 TRUE/success, 1 FALSE/disagreements-found, 2 parse or input
error, 3 unknown property, 4 undecided (cap or budget hit), 5 engine
disagreement.

The oracle and the sweeps need numpy, so they are imported inside the
functions that run them: the structural commands start without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import identity_engine, pspace_search
from .core import DEFAULT_CAP, GeneratorSet
from .errors import (
    EnumerationCapExceeded,
    ParseError,
    PreconditionError,
    StateBudgetExceeded,
)
from .formats import (
    parse_dfa,
    parse_dfa_list,
    parse_digraph,
    parse_generators,
    render_generators,
)
from .identity_engine import parse_quasi_identity
from .properties import REGISTRY
from .reductions import (
    InputDigraph,
    dfa_emptiness_to_nilpotent,
    dfa_emptiness_to_zero,
    dfa_intersection_to_regular,
    dfa_intersection_to_weak_inverse,
    digraph_to_semigroup,
)
from .report import PropertyReport, ReportBuilder, Verdict

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN_PROPERTY = 3
EXIT_UNDECIDED = 4
EXIT_DISAGREE = 5


def _default_cap() -> int:
    raw = os.environ.get("TSPROPS_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SystemExit(f"TSPROPS_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise SystemExit("TSPROPS_CAP must be positive")
    return cap


KNOWN_PROPERTIES = tuple(sorted(REGISTRY))


def _print_report(report: PropertyReport, as_json: bool):
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return
    print(f"property: {report.property}")
    print(f"engine:   {report.engine}")
    print(f"verdict:  {report.verdict.value}")
    if report.witness is not None:
        print(f"witness:  {json.dumps(report.witness, sort_keys=True)}")
    print(f"elapsed:  {report.elapsed:.6f}s")
    print(f"digest:   {report.digest}")


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.TRUE:
        return EXIT_TRUE
    if verdict is Verdict.FALSE:
        return EXIT_FALSE
    return EXIT_UNDECIDED


def _oracle_report(gens: GeneratorSet, prop: str, cap: int) -> PropertyReport:
    from .oracle import definitional_check, enumerate_semigroup

    try:
        table = enumerate_semigroup(gens, cap)
    except EnumerationCapExceeded as exc:
        rb = ReportBuilder(prop, gens, "oracle")
        return rb.undecided({"kind": "enumeration-cap", "cap": exc.cap})
    report = definitional_check(table, REGISTRY[prop].oracle_key)
    # Report under the command-line property name, not the oracle's key.
    return dataclasses.replace(report, property=prop)


def _structural_report(gens: GeneratorSet, prop: str, cap: int) -> PropertyReport:
    try:
        return REGISTRY[prop].structural(gens, cap)
    except EnumerationCapExceeded as exc:
        rb = ReportBuilder(prop, gens, "structural")
        return rb.undecided({"kind": "enumeration-cap", "cap": exc.cap})
    except StateBudgetExceeded as exc:
        rb = ReportBuilder(prop, gens, "structural")
        return rb.undecided({"kind": "state-budget", "states": exc.states,
                             "budget": exc.budget})


def cmd_check(args) -> int:
    try:
        gens = parse_generators(Path(args.file).read_text())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    prop = args.property
    if prop not in KNOWN_PROPERTIES:
        print(f"error: unknown property {prop!r}; known: "
              f"{', '.join(KNOWN_PROPERTIES)}", file=sys.stderr)
        return EXIT_UNKNOWN_PROPERTY
    if (args.engine in ("structural", "both")
            and REGISTRY[prop].structural is None):
        print(f"error: property {prop!r} has no structural checker; "
              "run it with --engine oracle", file=sys.stderr)
        return EXIT_UNKNOWN_PROPERTY

    if args.engine == "structural":
        report = _structural_report(gens, prop, args.cap)
        _print_report(report, args.json)
        return _verdict_exit(report.verdict)
    if args.engine == "oracle":
        report = _oracle_report(gens, prop, args.cap)
        _print_report(report, args.json)
        return _verdict_exit(report.verdict)

    structural = _structural_report(gens, prop, args.cap)
    oracle = _oracle_report(gens, prop, args.cap)
    agree = structural.verdict.value == oracle.verdict.value
    if args.json:
        print(json.dumps({
            "structural": structural.to_json_dict(),
            "oracle": oracle.to_json_dict(),
            "agree": agree,
        }, indent=2, sort_keys=True))
    else:
        _print_report(structural, False)
        print()
        _print_report(oracle, False)
        print()
        print(f"agreement: {'yes' if agree else 'NO'}")
    undecided = Verdict.UNDECIDED in (structural.verdict, oracle.verdict)
    if not agree and not undecided:
        return EXIT_DISAGREE
    if undecided:
        return EXIT_UNDECIDED
    return _verdict_exit(structural.verdict)


def cmd_identity(args) -> int:
    try:
        gens = parse_generators(Path(args.file).read_text())
        qid = parse_quasi_identity(args.quasi)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = identity_engine.models(gens, qid)
    except StateBudgetExceeded as exc:
        rb = ReportBuilder("quasi-identity", gens, "structural")
        report = rb.undecided({"kind": "state-budget", "states": exc.states,
                               "budget": exc.budget})
    _print_report(report, args.json)
    return _verdict_exit(report.verdict)


def cmd_element(args) -> int:
    try:
        gens = parse_generators(Path(args.file).read_text())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.target is not None:
        if not 1 <= args.target <= len(gens):
            print(f"error: target index {args.target} outside 1..{len(gens)}",
                  file=sys.stderr)
            return EXIT_INPUT
        target = gens[args.target - 1]
    else:
        try:
            tset = parse_generators(Path(args.target_file).read_text())
        except (OSError, ParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if len(tset) != 1:
            print("error: the target file must hold exactly one "
                  "transformation", file=sys.stderr)
            return EXIT_INPUT
        if tset.degree != gens.degree:
            print(f"error: target degree {tset.degree} does not match "
                  f"instance degree {gens.degree}", file=sys.stderr)
            return EXIT_INPUT
        target = tset[0]

    finders = {
        "regularizer": pspace_search.find_regularizer,
        "weak-inverse": pspace_search.find_weak_inverse,
        "inverse": pspace_search.find_inverse,
    }
    outcome: dict = {"mode": args.mode, "target": list(target.map)}
    try:
        hit = finders[args.mode](gens, target, args.cap)
    except EnumerationCapExceeded as exc:
        outcome.update(result="UNDECIDED", cap=exc.cap, witness=None)
        code = EXIT_UNDECIDED
    else:
        if hit is None:
            outcome.update(result="NONE", witness=None)
            code = EXIT_FALSE
        else:
            t, word = hit
            outcome.update(result="FOUND",
                           witness={"map": list(t.map), "word": list(word)})
            code = EXIT_TRUE
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        print(f"mode:   {outcome['mode']}")
        print(f"target: {outcome['target']}")
        print(f"result: {outcome['result']}")
        if outcome["witness"] is not None:
            print(f"element: {outcome['witness']['map']}")
            print(f"word:    {outcome['witness']['word']}")
    return code


def _write_generator_file(path: str, gens: GeneratorSet, header: list[str]):
    text = "".join(f"# {line}\n" for line in header) + render_generators(gens)
    Path(path).write_text(text)


def cmd_reduce(args) -> int:
    try:
        text = Path(args.input).read_text()
        if args.kind in ("zero", "nilpotent"):
            dfa = parse_dfa(text)
            if args.kind == "zero":
                gens = dfa_emptiness_to_zero(dfa)
                header = [
                    f"zero-reduction of a {dfa.n}-state, "
                    f"{len(dfa.letters)}-letter automaton",
                    "the semigroup has a zero (equivalently, a right zero) "
                    "iff the automaton accepts some word",
                ]
            else:
                gens = dfa_emptiness_to_nilpotent(dfa)
                header = [
                    f"nilpotency-reduction of a {dfa.n}-state, "
                    f"{len(dfa.letters)}-letter automaton",
                    "the semigroup is nilpotent iff the automaton accepts "
                    "no word",
                ]
            _write_generator_file(args.output, gens, header)
        elif args.kind == "rtrivial":
            n, edges = parse_digraph(text)
            gens = digraph_to_semigroup(InputDigraph(n, tuple(edges)))
            header = [
                f"graph-reduction of a digraph with {n} vertices and "
                f"{len(edges)} edges",
                "acyclic graph: nilpotent semigroup; a cycle through two or "
                "more vertices: not r-trivial, non-central idempotent",
            ]
            _write_generator_file(args.output, gens, header)
        elif args.kind == "regular":
            dfas = parse_dfa_list(text)
            gens, target_index = dfa_intersection_to_regular(dfas)
            header = [
                f"regular-element reduction of {len(dfas)} automata",
                f"generator {target_index} ('restart') is regular in the "
                "semigroup iff the automata accept a common word",
            ]
            _write_generator_file(args.output, gens, header)
        else:  # weak-inverse
            dfas = parse_dfa_list(text)
            gens, target = dfa_intersection_to_weak_inverse(dfas)
            target_path = args.output + ".target"
            header = [
                f"weak-inverse reduction of {len(dfas)} automata",
                f"the transformation in {os.path.basename(target_path)} has "
                "a weak inverse in this semigroup iff the automata accept a "
                "common word",
            ]
            _write_generator_file(args.output, gens, header)
            _write_generator_file(
                target_path,
                GeneratorSet(target.degree, (target,), ("b",)),
                ["reduction target element; not a generator of the instance"])
            print(f"wrote {target_path}")
    except (OSError, ParseError, PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {args.output}")
    return EXIT_TRUE


def cmd_crosscheck(args) -> int:
    from .crosscheck import exhaustive_generator_sets, run_sweep, seeded_instances

    if args.samples > 0:
        instances = seeded_instances(args.seed, args.samples, args.n, args.k)
        meta = {"mode": "random", "samples": args.samples, "seed": args.seed}
    else:
        instances = exhaustive_generator_sets(args.n, args.k)
        meta = {"mode": "exhaustive"}
    summary = run_sweep(instances, cap=args.cap)
    summary.update(meta, n=args.n, k=args.k)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_TRUE if summary["disagreements"] == 0 else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsprops",
        description="Decide structural properties of transformation "
                    "semigroups given by generators.")
    sub = parser.add_subparsers(dest="command", required=True)
    cap_kw = dict(type=int, default=_default_cap(),
                  help="element cap for enumerating engines "
                       "(default %(default)s, env TSPROPS_CAP)")

    p = sub.add_parser("check", help="decide one property of an instance")
    p.add_argument("file", help="generator file")
    p.add_argument("--property", required=True,
                   help=f"one of: {', '.join(KNOWN_PROPERTIES)}")
    p.add_argument("--engine", choices=("structural", "oracle", "both"),
                   default="structural")
    p.add_argument("--cap", **cap_kw)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("identity", help="test a quasi-identity")
    p.add_argument("file", help="generator file")
    p.add_argument("--quasi", required=True,
                   help="e.g. 'x1 x2 = x2 x1' or "
                        "'idem(x1) => x1 x2 = x2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("element",
                       help="search for a regularizer / (weak) inverse")
    p.add_argument("file", help="generator file")
    p.add_argument("--mode", required=True,
                   choices=("regularizer", "weak-inverse", "inverse"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=int,
                       help="1-indexed generator to use as the target")
    group.add_argument("--target-file",
                       help="file with one transformation as the target")
    p.add_argument("--cap", **cap_kw)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_element)

    p = sub.add_parser("reduce", help="construct a hard instance")
    p.add_argument("kind", choices=("zero", "nilpotent", "rtrivial",
                                    "regular", "weak-inverse"))
    p.add_argument("input", help="DFA, DFA-list or digraph file")
    p.add_argument("output", help="generator file to write")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("crosscheck",
                       help="sweep instances through both engines")
    p.add_argument("--n", type=int, default=3, help="degree bound")
    p.add_argument("--k", type=int, default=2, help="generator-count bound")
    p.add_argument("--samples", type=int, default=0,
                   help="random sample count; 0 = exhaustive over --n/--k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", **cap_kw)
    p.set_defaults(fn=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
