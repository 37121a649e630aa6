"""The four workloads: their inputs, the checks they run and how each
verdict is judged.

Nothing here imports tsprops at module level.  ``Program`` does, inside the
timed set-up, so that import cost counts in ``setup_s``.  Inputs are chosen
from the seed by the benchmark's own code (``reference``); the program only
ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

CAP = 200_000  # the element cap every enumerating call gets (tsprops' default)
CLI_TIMEOUT_S = 120  # a CLI child still running after this is killed and fails

# The benchmark's own property list: the CLI names of every property with a
# structural checker, then the one the oracle alone decides.
BOTH_ENGINES = (
    "commutative", "semilattice", "group", "left-zero", "right-zero", "zero",
    "nilpotent", "r-trivial", "band", "idempotents-commute",
    "idempotents-central", "orthodox", "completely-regular", "clifford",
    "regular", "inverse", "left-identities", "right-identities",
)
PROPERTIES = BOTH_ENGINES + ("aperiodic",)

ORACLE_KEYS = {
    "commutative": "commutative", "semilattice": "semilattice",
    "group": "group", "left-zero": "left_zero_exists",
    "right-zero": "right_zero_exists", "zero": "zero_exists",
    "nilpotent": "nilpotent", "r-trivial": "r_trivial", "band": "band",
    "idempotents-commute": "idempotents_commute",
    "idempotents-central": "idempotents_central", "orthodox": "orthodox",
    "completely-regular": "completely_regular", "clifford": "clifford",
    "regular": "regular", "inverse": "inverse_semigroup",
    "left-identities": "left_identities",
    "right-identities": "right_identities", "aperiodic": "aperiodic",
}

# Structural checkers called through their module, looked up at call time so
# that the traced run's wrappers see every call.
_STRUCTURAL = {
    "commutative": ("fo_checks", "is_commutative"),
    "semilattice": ("fo_checks", "is_semilattice"),
    "group": ("fo_checks", "is_group"),
    "left-zero": ("nl_checks", "has_left_zero"),
    "right-zero": ("nl_checks", "has_right_zero"),
    "zero": ("nl_checks", "has_zero"),
    "nilpotent": ("nl_checks", "is_nilpotent"),
    "r-trivial": ("nl_checks", "is_r_trivial"),
    "band": ("identity_engine", "is_band"),
    "idempotents-commute": ("identity_engine", "idempotents_commute"),
    "idempotents-central": ("identity_engine", "idempotents_central"),
    "orthodox": ("identity_engine", "is_orthodox"),
    "completely-regular": ("nl_checks", "is_completely_regular"),
    "clifford": ("nl_checks", "is_clifford"),
}


class Program:
    """The public entry points of tsprops that the benchmark calls."""

    def __init__(self):
        from tsprops import (core, fo_checks, formats, identities_enum,
                             identity_engine, nl_checks, oracle,
                             pspace_search, reductions, witnesses)
        self.core = core
        self.formats = formats
        self.fo_checks = fo_checks
        self.identities_enum = identities_enum
        self.identity_engine = identity_engine
        self.nl_checks = nl_checks
        self.oracle = oracle
        self.pspace_search = pspace_search
        self.reductions = reductions
        self.witnesses = witnesses

    def generators(self, maps, names=None):
        return self.core.GeneratorSet.from_maps(maps, names)

    def structural(self, prop: str, gens) -> tuple[str, dict | None]:
        """One structural check, as ``tsprops check --engine structural`` runs it."""
        if prop == "regular":
            # The CLI's route: commutative semigroups go through the graph
            # search, the rest through the capped element search.
            if self.fo_checks.is_commutative(gens).verdict:
                report = self.nl_checks.is_regular_commutative(gens)
            else:
                report = self.pspace_search.is_regular_semigroup(gens, CAP)
        elif prop == "inverse":
            report = self.pspace_search.is_inverse_semigroup(gens, CAP)
        elif prop in ("left-identities", "right-identities"):
            side = prop.split("-")[0]
            finder = (self.identities_enum.left_identities if side == "left"
                      else self.identities_enum.right_identities)
            pairs = finder(gens)
            witness = {"kind": "identity-list", "side": side,
                       "identities": [{"map": list(t.map), "word": list(w)}
                                      for t, w in pairs]}
            return ("TRUE" if pairs else "FALSE"), witness
        else:
            module, name = _STRUCTURAL[prop]
            report = getattr(getattr(self, module), name)(gens)
        return report.verdict.value, report.witness

    def oracle_check(self, table, prop: str) -> tuple[str, dict | None]:
        report = self.oracle.definitional_check(table, ORACLE_KEYS[prop])
        return report.verdict.value, report.witness

    def replay(self, gens, witness, table) -> None:
        self.witnesses.verify_witness(gens, witness, table=table)


@dataclass
class Stats:
    """What the timed phase did, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    structural_s: list[float] = field(default_factory=list)
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def judge(self, label: str, attempted: int, problems: dict) -> None:
        """Fold one task in; ``problems`` maps a check to (kind, detail)."""
        self.attempted += attempted
        self.failed += len(problems)
        for check, (kind, detail) in problems.items():
            if kind == "wrong":
                self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label} {check}: {kind}: {detail}")


class Stopwatch:
    """Adds up the time spent inside ``with`` blocks: the program's share of set-up."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        return False


def _decided(result) -> bool:
    return isinstance(result, tuple) and result[0] in ("TRUE", "FALSE")


def _identity_maps(witness) -> set:
    return {tuple(desc["map"]) for desc in witness["identities"]}


class InstanceTask:
    """Every property on one generator set, both engines, every witness replayed."""

    def __init__(self, label: str, maps, elements=None, theory=None,
                 names=None):
        self.label = label
        self.maps = [tuple(m) for m in maps]
        self.names = names
        self.elements = elements
        self.theory = theory or {}
        self.gens = None

    def build(self, prog: Program) -> None:
        self.gens = prog.generators(self.maps, self.names)

    def reference(self) -> None:
        elements = self.elements or ref.closure(self.maps)
        self.elements = None
        self.size = len(elements)
        answers = ref.answers(self.maps, elements)
        self.expected = dict(answers["verdicts"])
        self.expected.update(self.theory)
        self.identity_sets = {side: answers[side] for side in
                              ("left-identities", "right-identities")}

    def run(self, prog: Program, stats: Stats) -> None:
        gens = self.gens
        results: dict[tuple[str, str], object] = {}
        replay_errors: dict[tuple[str, str], Exception] = {}
        start = time.perf_counter()
        try:
            table = prog.oracle.enumerate_semigroup(gens, CAP)
            table_error = None
        except Exception as exc:  # counted as a failure of every oracle check
            table, table_error = None, exc
        for prop in PROPERTIES:
            if prop in BOTH_ENGINES:
                t0 = time.perf_counter()
                try:
                    results[prop, "structural"] = prog.structural(prop, gens)
                except Exception as exc:
                    results[prop, "structural"] = exc
                stats.structural_s.append(time.perf_counter() - t0)
            if table is None:
                results[prop, "oracle"] = table_error
                continue
            try:
                results[prop, "oracle"] = prog.oracle_check(table, prop)
            except Exception as exc:
                results[prop, "oracle"] = exc
        for check, result in results.items():
            if _decided(result) and result[1] is not None:
                try:
                    prog.replay(gens, result[1], table)
                except Exception as exc:
                    replay_errors[check] = exc
        stats.timed_s += time.perf_counter() - start
        stats.judge(self.label, len(results),
                    self._problems(results, replay_errors, table))

    def _problems(self, results, replay_errors, table) -> dict:
        problems = {}
        for check, result in results.items():
            if isinstance(result, Exception):
                problems[check] = ("raised", repr(result))
            elif not _decided(result):
                problems[check] = ("undecided", result[1])
            elif check in replay_errors:
                problems[check] = ("wrong", f"witness replay: {replay_errors[check]}")
            elif (result[0] == "TRUE") != self.expected.get(check[0], result[0] == "TRUE"):
                problems[check] = ("wrong", f"{result[0]}, expected the opposite")
        ok = {check: results[check][0] == "TRUE"
              for check in results if check not in problems}
        for prop in BOTH_ENGINES:
            s, o = ok.get((prop, "structural")), ok.get((prop, "oracle"))
            if s is not None and o is not None and s != o:
                for engine in ("structural", "oracle"):
                    problems[prop, engine] = ("wrong", "structural != oracle")
        for side, want in self.identity_sets.items():
            for engine in ("structural", "oracle"):
                check = (side, engine)
                if check not in problems and _identity_maps(results[check][1]) != want:
                    problems[check] = ("wrong", "identity set differs from brute force")
        if table is not None and len(table) != self.size:
            for prop in PROPERTIES:
                problems[prop, "oracle"] = (
                    "wrong", f"table has {len(table)} elements, closure {self.size}")
        verdicts = {prop: ok.get((prop, "structural"), ok.get((prop, "oracle")))
                    for prop in PROPERTIES}
        for prop in ref.implied(verdicts):
            for engine in ("structural", "oracle"):
                if (prop, engine) in results:
                    problems[prop, engine] = ("wrong", "breaks an implication")
        return problems


class SearchTask:
    """An element search on a DFA-intersection reduction."""

    def __init__(self, mode: str, automata):
        self.label = f"{mode}-search"
        self.mode = mode            # "regularizer" or "weak-inverse"
        self.automata = automata    # [(states, initial, final, letters)]

    def build(self, prog: Program) -> None:
        T = prog.core.Transformation
        dfas = [prog.reductions.DFA(n, init, frozenset({final}),
                                    tuple(T(n, letter) for letter in letters))
                for n, init, final, letters in self.automata]
        if self.mode == "regularizer":
            self.gens, index = prog.reductions.dfa_intersection_to_regular(dfas)
            self.target = self.gens[index - 1]
        else:
            self.gens, self.target = prog.reductions.dfa_intersection_to_weak_inverse(dfas)

    def reference(self) -> None:
        self.expected = ref.intersection_nonempty(
            [(init, {final}, letters) for _, init, final, letters in self.automata])

    def size(self, cap: int) -> int | None:
        elements = ref.closure([g.map for g in self.gens], cap)
        return None if elements is None else len(elements)

    def run(self, prog: Program, stats: Stats) -> None:
        finder = (prog.pspace_search.find_regularizer if self.mode == "regularizer"
                  else prog.pspace_search.find_weak_inverse)
        start = time.perf_counter()
        try:
            hit = finder(self.gens, self.target, CAP)
        except Exception as exc:
            stats.timed_s += time.perf_counter() - start
            stats.judge(self.label, 1, {"search": ("raised", repr(exc))})
            return
        stats.timed_s += time.perf_counter() - start
        problems = {}
        if (hit is not None) != self.expected:
            problems["search"] = ("wrong", f"found={hit is not None}, "
                                           f"intersection nonempty={self.expected}")
        elif hit is not None:
            t, word = hit
            maps = [g.map for g in self.gens]
            replayed = maps[word[0] - 1]
            for c in word[1:]:
                replayed = ref.compose(replayed, maps[c - 1])
            s, tm = self.target.map, tuple(t.map)
            holds = (ref.compose(ref.compose(s, tm), s) == s
                     if self.mode == "regularizer"
                     else ref.compose(ref.compose(tm, s), tm) == tm)
            if replayed != tm or not holds:
                problems["search"] = ("wrong", "the element found does not replay")
        stats.judge(self.label, 1, problems)


def random_maps(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)]


def random_automaton(rng: random.Random, states: int, letters: int):
    return (states, rng.randint(1, states), rng.randint(1, states),
            random_maps(rng, states, letters))


class Workload:
    """A seeded stream of rounds; every round holds the same kinds of task."""

    name = ""
    tail_pct = 90

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int, prog: Program, watch: Stopwatch) -> list:
        """The tasks of round ``r``, built for ``prog``; reference answers pending.

        Calls into the program run inside ``watch``; choosing the inputs does not.
        """
        raise NotImplementedError

    def warm_up(self, prog: Program, watch: Stopwatch) -> None:
        """First use of every checker, on T3 and on the semilattice at degree 3."""
        for label, maps, theory in (
                ("T3", ref.full_monoid_generators(3), ref.FULL_MONOID_VERDICTS),
                ("semilattice", ref.semilattice_generators(3),
                 ref.SEMILATTICE_VERDICTS)):
            task = InstanceTask(label, maps, theory=theory)
            task.reference()
            with watch:
                task.build(prog)
                task.run(prog, Stats())


class SeededSweep(Workload):
    """The traffic of ``crosscheck``: many small random instances."""

    name = "seeded-sweep"
    tail_pct = 90
    MAX_ELEMENTS = 2000  # keeps every instance small; large ones are another workload

    def round(self, r, prog, watch):
        # One instance of every degree 1..6 and generator count 1..3, the
        # shape crosscheck draws from; only the maps are random, so every
        # round has the same mix of sizes.
        rng = self.rng(r)
        tasks = []
        for n in range(1, 7):
            for k in range(1, 4):
                while True:
                    maps = random_maps(rng, n, k)
                    elements = ref.closure(maps, self.MAX_ELEMENTS)
                    if elements is not None:
                        break
                tasks.append(InstanceTask(f"n{n}k{k}", maps, elements))
        with watch:
            for task in tasks:
                task.build(prog)
        return tasks


class LargeSemigroups(Workload):
    """Large |S| at small degree: enumeration and all-pairs searches dominate."""

    name = "large-semigroups"
    tail_pct = 85  # below the step up to the ~20-600 ms regular/inverse checks
    POOL_SIZE = 4
    POOL_ELEMENTS = (1000, 20000)
    SEARCH_ELEMENTS = (500, 10000)

    def __init__(self, seed):
        super().__init__(seed)
        # The random generator sets come from a fixed pool and each run sees
        # them relabelled by its seed: the cost of the all-pairs regularity
        # search varies by orders of magnitude between random sets of this
        # size, so drawing fresh sets per seed would make runs incomparable.
        rng = random.Random(f"{self.name}:pool")
        self.pool = []
        while len(self.pool) < self.POOL_SIZE:
            n, k = rng.choice((6, 7)), rng.choice((2, 3))
            maps = random_maps(rng, n, k)
            elements = ref.closure(maps, self.POOL_ELEMENTS[1])
            if elements is not None and len(elements) >= self.POOL_ELEMENTS[0]:
                self.pool.append((f"random-n{n}k{k}", maps))

    def round(self, r, prog, watch):
        rng = self.rng(r)
        sets = [(f"T{n}", ref.full_monoid_generators(n), ref.FULL_MONOID_VERDICTS)
                for n in (4, 5)]
        sets += [(label, maps, None) for label, maps in self.pool]
        tasks = []
        for label, maps, theory in sets:
            perm = list(range(1, len(maps[0]) + 1))
            rng.shuffle(perm)
            tasks.append(InstanceTask(label, ref.relabel(maps, perm), theory=theory))
        with watch:
            for task in tasks:
                task.build(prog)
        # Both searches on an empty and on a nonempty intersection each round.
        for mode in ("regularizer", "weak-inverse"):
            for want in (False, True):
                while True:
                    task = SearchTask(mode, [random_automaton(rng, 5, 2)
                                             for _ in range(3)])
                    task.reference()
                    if task.expected != want:
                        continue
                    with watch:
                        task.build(prog)
                    size = task.size(self.SEARCH_ELEMENTS[1])
                    if size is not None and size >= self.SEARCH_ELEMENTS[0]:
                        tasks.append(task)
                        break
        return tasks


class WideDegree(Workload):
    """Degree 8 to 11 with small semigroups: the tuple searches dominate."""

    name = "wide-degree"
    tail_pct = 90
    SEMILATTICE_DEGREES = (8, 9, 10, 11)
    MAX_ELEMENTS = 2000

    def round(self, r, prog, watch):
        rng = self.rng(r)
        tasks = [InstanceTask(f"semilattice-n{n}", ref.semilattice_generators(n),
                              theory=ref.SEMILATTICE_VERDICTS)
                 for n in self.SEMILATTICE_DEGREES]
        # Zero reductions of seeded automata (degree 9 to 10): two with an
        # empty language and two with a nonempty language per round.
        for want in (False, True, False, True):
            while True:
                states, init, final, letters = random_automaton(
                    rng, rng.randint(8, 9), 2)
                if ref.language_nonempty(states, init, {final}, letters) != want:
                    continue
                with watch:
                    dfa = prog.reductions.DFA(
                        states, init, frozenset({final}),
                        tuple(prog.core.Transformation(states, m) for m in letters))
                    gens = prog.reductions.dfa_emptiness_to_zero(dfa)
                maps = [g.map for g in gens]
                elements = ref.closure(maps, self.MAX_ELEMENTS)
                if elements is None:
                    continue
                # The reduction's promise: a zero and a right zero exist
                # exactly when the language is nonempty.  A left zero also
                # exists when every letter fixes the initial state, since
                # the reset map is then never moved off its image.
                stuck = all(m[init - 1] == init for m in letters)
                theory = {"zero": want, "right-zero": want,
                          "left-zero": want or stuck}
                tasks.append(InstanceTask(f"zero-reduction-{states}", maps,
                                          elements, theory, gens.names))
                break
        # Digraph reductions on 8 vertices without self-loops (degree 9):
        # one acyclic, one cyclic.  The vertex count is fixed because the
        # identity engine's cost grows steeply with it.
        v = 8
        for cyclic in (False, True):
            while True:
                edges = []
                for _ in range(v + 2):
                    a, b = rng.sample(range(1, v + 1), 2)
                    edges.append((min(a, b), max(a, b)) if not cyclic else (a, b))
                if ref.has_long_cycle(v, edges) == cyclic:
                    break
            with watch:
                graph = prog.reductions.InputDigraph(v, tuple(edges))
                gens = prog.reductions.digraph_to_semigroup(graph)
            # Acyclic: nilpotent, hence R-trivial with the zero its only
            # idempotent; a cycle of length >= 2: neither R-trivial nor with
            # central idempotents.
            theory = {"r-trivial": not cyclic, "idempotents-central": not cyclic}
            if not cyclic:
                theory["nilpotent"] = True
            tasks.append(InstanceTask(f"digraph-reduction-{v}",
                                      [g.map for g in gens], theory=theory,
                                      names=gens.names))
        with watch:
            for task in tasks:
                task.build(prog)
        return tasks


class CliCheck(Workload):
    """Whole ``python -m tsprops check`` processes, one at a time."""

    name = "cli-check"
    tail_pct = 80
    MAX_ELEMENTS = 500

    def __init__(self, seed: int, root: Path, out_dir: Path):
        super().__init__(seed)
        self.root = root
        self.dir = out_dir / f"cli-{seed}"

    def round(self, r, prog, watch):
        rng = self.rng(r)
        self.dir.mkdir(parents=True, exist_ok=True)
        tasks = []
        # Every property once per round, each on its own small random file.
        for prop in BOTH_ENGINES:
            while True:
                n, k = rng.randint(3, 6), rng.randint(1, 3)
                maps = random_maps(rng, n, k)
                elements = ref.closure(maps, self.MAX_ELEMENTS)
                if elements is not None:
                    break
            task = CliTask(self, self.dir / f"r{r}-{len(tasks)}.txt", prop,
                           maps, elements)
            with watch:
                task.build(prog)
            tasks.append(task)
        return tasks

    def warm_up(self, prog, watch):
        task = CliTask(self, self.dir / "warm-up.txt", "regular",
                       ref.full_monoid_generators(3), None)
        with watch:
            task.build(prog)
            cli_run(self.root, task.path, task.prop)


def child_env(root: Path) -> dict:
    """The environment of every child: the checkout's src first, one thread."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in inherited.split(os.pathsep) if p])
    return env


def cli_run(root: Path, path: Path, prop: str) -> tuple[float, int, str]:
    """Run one CLI check to its end: (wall seconds, exit code, stdout)."""
    argv = [sys.executable, "-m", "tsprops", "check", str(path),
            "--property", prop, "--json"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=child_env(root), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start, done.returncode, done.stdout


_EXIT = {"TRUE": 0, "FALSE": 1}


class CliTask(InstanceTask):
    """One CLI process; the parent then judges its verdict and witness."""

    def __init__(self, workload: CliCheck, path: Path, prop: str, maps,
                 elements):
        super().__init__(f"cli {path.name}", maps, elements)
        self.workload = workload
        self.path = path
        self.prop = prop

    def build(self, prog):
        super().build(prog)
        self.path.write_text(prog.formats.render_generators(self.gens))

    def run_in_process(self) -> None:
        """The same check through ``cli.main`` in this process (for tracing)."""
        from tsprops import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check", str(self.path), "--property", self.prop, "--json"])

    def run(self, prog, stats):
        try:
            elapsed, code, out = cli_run(self.workload.root, self.path, self.prop)
        except subprocess.TimeoutExpired as exc:
            stats.timed_s += exc.timeout
            stats.judge(self.label, 1, {(self.prop, "cli"): ("raised", repr(exc))})
            return
        stats.timed_s += elapsed
        stats.structural_s.append(elapsed)
        stats.judge(self.label, 1, self._cli_problems(prog, code, out))

    def _cli_problems(self, prog, code, out) -> dict:
        check = (self.prop, "cli")
        try:
            report = json.loads(out)
        except ValueError:
            return {check: ("raised", f"exit {code}, no JSON report")}
        verdict = report.get("verdict")
        if verdict not in _EXIT:
            return {check: ("undecided", report.get("witness"))}
        if code != _EXIT[verdict]:
            return {check: ("wrong", f"exit code {code} for {verdict}")}
        table = prog.oracle.enumerate_semigroup(self.gens, CAP)
        oracle_verdict, _ = prog.oracle_check(table, self.prop)
        if verdict != oracle_verdict:
            return {check: ("wrong", "structural != oracle")}
        if (verdict == "TRUE") != self.expected.get(self.prop, verdict == "TRUE"):
            return {check: ("wrong", f"{verdict}, expected the opposite")}
        if self.prop in self.identity_sets and \
                _identity_maps(report["witness"]) != self.identity_sets[self.prop]:
            return {check: ("wrong", "identity set differs from brute force")}
        try:
            if report.get("witness") is not None:
                prog.replay(self.gens, report["witness"], table)
        except Exception as exc:
            return {check: ("wrong", f"witness replay: {exc}")}
        return {}


def make(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    if name == CliCheck.name:
        return CliCheck(seed, root, out_dir)
    return {cls.name: cls for cls in (SeededSweep, LargeSemigroups, WideDegree)}[name](seed)


NAMES = (SeededSweep.name, LargeSemigroups.name, WideDegree.name, CliCheck.name)
