"""Command-line front end.

Subcommands: ``check`` (one property, structural and/or oracle engine),
``identity`` (user-supplied quasi-identity), ``element`` (regularizer /
weak-inverse / inverse search for a target element), ``reduce`` (build hard
instances from DFAs and digraphs), ``crosscheck`` (agreement sweeps).

``check`` runs each engine through ``properties.ask``, and ``--engine both``
judges the two reports with ``properties.agree``, the rule the sweeps use:
the same verdict and, for the identity properties, the same set of
identities.

Exit codes: 0 TRUE/success, 1 FALSE/disagreements-found, 2 parse or input
error (a bad option value or ``TSPROPS_CAP`` included), 3 unknown property,
4 undecided (a cap or state budget hit, which ``ReportBuilder.run`` turns
into an UNDECIDED report; a sweep exits 4 when it counted some property of
some instance as UNDECIDED and found no disagreement), 5 engine
disagreement.

The oracle and the sweeps need numpy, so they are imported inside the
functions that run them: the structural commands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import identity_engine, pspace_search
from .core import DEFAULT_CAP, GeneratorSet
from .errors import EnumerationCapExceeded, ParseError, PreconditionError
from .formats import (
    parse_dfa,
    parse_dfa_list,
    parse_digraph,
    parse_generators,
    render_generators,
)
from .identity_engine import parse_quasi_identity
from .properties import REGISTRY, agree, ask
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


def _int_at_least(low: int, what: str):
    """An argparse ``type`` for integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value
    return parse


_positive = _int_at_least(1, "a positive integer")
_non_negative = _int_at_least(0, "a non-negative integer")


KNOWN_PROPERTIES = tuple(sorted(REGISTRY))


class _InputError(Exception):
    """Bad input: ``main`` prints ``error: <message>`` and exits 2."""


def _read_generators(path: str) -> GeneratorSet:
    try:
        return parse_generators(Path(path).read_text())
    except (OSError, ParseError) as exc:
        raise _InputError(exc) from None


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


def cmd_check(args) -> int:
    gens = _read_generators(args.file)
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

    engines = (("structural", "oracle") if args.engine == "both"
               else (args.engine,))
    reports = [ask(gens, prop, engine, args.cap) for engine in engines]
    if len(reports) == 1:
        _print_report(reports[0], args.json)
        return _verdict_exit(reports[0].verdict)

    structural, oracle = reports
    agreed = agree(structural, oracle)
    if args.json:
        print(json.dumps({
            "structural": structural.to_json_dict(),
            "oracle": oracle.to_json_dict(),
            "agree": agreed,
        }, indent=2, sort_keys=True))
    else:
        _print_report(structural, False)
        print()
        _print_report(oracle, False)
        print()
        print(f"agreement: {'yes' if agreed else 'NO'}")
    if Verdict.UNDECIDED in (structural.verdict, oracle.verdict):
        return EXIT_UNDECIDED
    return _verdict_exit(structural.verdict) if agreed else EXIT_DISAGREE


def cmd_identity(args) -> int:
    gens = _read_generators(args.file)
    try:
        qid = parse_quasi_identity(args.quasi)
    except ParseError as exc:
        raise _InputError(exc) from None
    report = ReportBuilder("quasi-identity", gens, "structural").run(
        lambda: identity_engine.models(gens, qid))
    _print_report(report, args.json)
    return _verdict_exit(report.verdict)


def cmd_element(args) -> int:
    gens = _read_generators(args.file)
    if args.target is not None:
        if not 1 <= args.target <= len(gens):
            raise _InputError(
                f"target index {args.target} outside 1..{len(gens)}")
        target = gens[args.target - 1]
    else:
        tset = _read_generators(args.target_file)
        if len(tset) != 1:
            raise _InputError("the target file must hold exactly one "
                              "transformation")
        if tset.degree != gens.degree:
            raise _InputError(f"target degree {tset.degree} does not match "
                              f"instance degree {gens.degree}")
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
        outcome.update(result="UNDECIDED", witness=exc.witness)
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
        if outcome["result"] == "FOUND":
            print(f"element: {outcome['witness']['map']}")
            print(f"word:    {outcome['witness']['word']}")
        elif outcome["result"] == "UNDECIDED":
            print(f"witness: {json.dumps(outcome['witness'], sort_keys=True)}")
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
        raise _InputError(exc) from None
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
    if summary["disagreements"]:
        return EXIT_FALSE
    if any("UNDECIDED" in counts
           for counts in summary["verdict_counts"].values()):
        return EXIT_UNDECIDED
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsprops",
        description="Decide structural properties of transformation "
                    "semigroups given by generators.")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs ``type`` on a string default, so a bad TSPROPS_CAP
    # exits 2 only for the commands that take --cap.
    cap_kw = dict(type=_positive,
                  default=os.environ.get("TSPROPS_CAP", str(DEFAULT_CAP)),
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
    p.add_argument("--n", type=_positive, default=3, help="degree bound")
    p.add_argument("--k", type=_positive, default=2,
                   help="generator-count bound")
    p.add_argument("--samples", type=_non_negative, default=0,
                   help="random sample count; 0 = exhaustive over --n/--k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", **cap_kw)
    p.set_defaults(fn=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
