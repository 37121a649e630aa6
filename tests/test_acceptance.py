"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line through pytest's own reporting; the
heavyweight sweeps live in session fixtures (see conftest) so their cost
is paid once.  Criteria in brief:

1. structural == oracle on all 756 exhaustive degree-3 instances
2. structural == oracle on >= 1000 seeded instances, n <= 6, k <= 3
3. reduction soundness, exhaustive: DFA suites (<= 3 states, <= 2 letters)
   and all digraphs on <= 4 vertices
4. intersection reductions match product-automaton reachability on >= 200
   seeded multi-DFA instances
5. the canonical weak inverse satisfies t s t = t everywhere it is claimed
6. exact nilpotency degree <= structural upper bound <= degree
7. the fast identity engine matches brute-force assignment enumeration
8. every emitted witness replays
9. the crosscheck command is byte-deterministic under a fixed seed
"""

import itertools
import random
import subprocess
import time

import pytest

from tsprops.core import GeneratorSet, Transformation, compose, power
from tsprops.crosscheck import exhaustive_generator_sets
from tsprops.graph import Digraph, has_cycle
from tsprops.identity_engine import (
    PRESETS,
    idempotents_central,
    models,
    parse_quasi_identity,
)
from tsprops.nl_checks import (
    has_zero,
    is_nilpotent,
    is_r_trivial,
    nilpotency_degree_upper_bound,
)
from tsprops.oracle import (
    definitional_check,
    enumerate_semigroup,
    models_by_enumeration,
    nilpotency_degree,
)
from tsprops.pspace_search import (
    canonical_weak_inverse,
    find_regularizer,
    find_weak_inverse,
)
from tsprops.reductions import (
    DFA,
    InputDigraph,
    dfa_emptiness_to_nilpotent,
    dfa_emptiness_to_zero,
    dfa_intersection_to_regular,
    dfa_intersection_to_weak_inverse,
    digraph_to_semigroup,
)
from tsprops.witnesses import WitnessReplayError, verify_witness

from conftest import CLI_TIMEOUT_SECONDS, SEEDED_SAMPLES
from dfa_judges import dfa_intersection_nonempty, dfa_language_nonempty

# the 20 fixed ad-hoc quasi-identities for criterion 7 (sides total <= 5
# letters, at most 4 distinct variables so brute force stays enumerable)
ADHOC_IDENTITIES = (
    "x1 = x1 x1",
    "x1 x1 = x1 x1 x1",
    "x1 x2 = x2 x1",
    "x1 x2 x1 = x1",
    "x1 x2 x3 = x1 x3",
    "x1 x1 x2 = x1 x1",
    "x2 x1 x1 = x1 x1",
    "x1 x2 = x1",
    "x1 x2 = x2",
    "x1 x2 x2 = x1 x2",
    "x1 x1 = x2 x2",
    "x1 x2 x1 = x1 x2",
    "x1 x2 x3 = x3 x2",
    "x1 x2 x3 x4 = x1",
    "idem(x1) => x1 x2 = x2",
    "idem(x1) => x2 x1 = x2",
    "idem(x1) => x1 x2 x1 = x1",
    "idem(x1,x2) => x1 x2 = x2 x1",
    "idem(x1,x2) => x1 x2 x1 = x1",
    "idem(x3) => x1 x3 x2 = x1 x2",
)


def _oracle_true(table, key):
    return definitional_check(table, key).verdict.value == "TRUE"


def _letter_combos(states, max_letters):
    maps = [()]
    for _ in range(states):
        maps = [m + (q,) for m in maps for q in range(1, states + 1)]
    for k in range(1, max_letters + 1):
        for combo in itertools.product(maps, repeat=k):
            yield tuple(Transformation(states, m) for m in combo)


def _replay(gens, report, table, failures):
    if report.witness is None:
        return 0
    try:
        verify_witness(gens, report, table=table)
        return 1
    except WitnessReplayError as exc:
        failures.append((report.property, str(exc)))
        return 0


@pytest.fixture(scope="module")
def reduction_suites():
    """Exhaustive criterion-3 run over all three constructions.

    Returns aggregate data that criteria 6 and 7 reuse: failures, counts,
    nilpotency degree pairs, and the branch-separation record for the
    rectangular-collapse identity.
    """
    data = {
        "zero_failures": [], "nil_failures": [], "digraph_failures": [],
        "zero_count": 0, "nil_count": 0, "digraph_count": 0,
        "nilpotency": [],          # (exact degree, structural bound, n)
        "separation": [],          # (identity holds, language empty)
        "witnesses_checked": 0, "witness_failures": [],
    }
    wf = data["witness_failures"]

    # zero construction: every DFA with <= 3 states, <= 2 letters, and a
    # nonempty final-state set (initial state fixed at 1 w.l.o.g.)
    for states in (1, 2, 3):
        final_sets = [frozenset(f) for r in range(1, states + 1)
                      for f in itertools.combinations(range(1, states + 1), r)]
        for letters in _letter_combos(states, 2):
            for finals in final_sets:
                dfa = DFA(states, 1, finals, letters)
                gens = dfa_emptiness_to_zero(dfa)
                table = enumerate_semigroup(gens)
                structural = has_zero(gens)
                nonempty = dfa_language_nonempty(dfa)
                if not (bool(structural.verdict)
                        == _oracle_true(table, "zero_exists") == nonempty):
                    data["zero_failures"].append(dfa)
                data["witnesses_checked"] += _replay(gens, structural, table, wf)
                data["zero_count"] += 1
                if _oracle_true(table, "nilpotent"):
                    data["nilpotency"].append(
                        (nilpotency_degree(table),
                         nilpotency_degree_upper_bound(gens), gens.degree))

    # nilpotency construction: final states never contain the initial state
    # (construction precondition), letter count capped by the state count
    square_identity = PRESETS["squares_are_left_zeros"]
    for states in (1, 2, 3):
        final_sets = [frozenset()] + [
            frozenset(f) for r in range(1, states)
            for f in itertools.combinations(range(2, states + 1), r)]
        for letters in _letter_combos(states, min(2, states)):
            for finals in final_sets:
                dfa = DFA(states, 1, finals, letters)
                gens = dfa_emptiness_to_nilpotent(dfa)
                table = enumerate_semigroup(gens)
                structural = is_nilpotent(gens)
                empty = not dfa_language_nonempty(dfa)
                if not (bool(structural.verdict)
                        == _oracle_true(table, "nilpotent") == empty):
                    data["nil_failures"].append(dfa)
                data["witnesses_checked"] += _replay(gens, structural, table, wf)
                data["nil_count"] += 1
                if empty:
                    data["nilpotency"].append(
                        (nilpotency_degree(table),
                         nilpotency_degree_upper_bound(gens), gens.degree))
                data["separation"].append(
                    (bool(models(gens, square_identity).verdict), empty))

    # digraph construction: every nonempty loop-free edge set on <= 4 vertices
    for n_vertices in (2, 3, 4):
        arcs = [(u, v)
                for u in range(1, n_vertices + 1)
                for v in range(1, n_vertices + 1) if u != v]
        for r in range(1, len(arcs) + 1):
            for edges in itertools.combinations(arcs, r):
                gens = digraph_to_semigroup(InputDigraph(n_vertices, edges))
                table = enumerate_semigroup(gens)
                cyclic, _ = has_cycle(
                    Digraph(tuple(range(1, n_vertices + 1)), edges),
                    ignore_self_loops=False)
                nil = is_nilpotent(gens)
                ok = (bool(nil.verdict)
                      == _oracle_true(table, "nilpotent") == (not cyclic))
                data["witnesses_checked"] += _replay(gens, nil, table, wf)
                if cyclic:
                    rt = is_r_trivial(gens)
                    cen = idempotents_central(gens)
                    ok = ok and not (
                        rt.verdict or _oracle_true(table, "r_trivial")
                        or cen.verdict
                        or _oracle_true(table, "idempotents_central"))
                    data["witnesses_checked"] += _replay(gens, rt, table, wf)
                    data["witnesses_checked"] += _replay(gens, cen, table, wf)
                else:
                    data["nilpotency"].append(
                        (nilpotency_degree(table),
                         nilpotency_degree_upper_bound(gens), gens.degree))
                if not ok:
                    data["digraph_failures"].append((n_vertices, edges))
                data["digraph_count"] += 1
    return data


def test_criterion_1_exhaustive_oracle_equivalence(exhaustive_stats,
                                                   exhaustive_pool_seconds):
    assert exhaustive_stats.instances == 756
    assert exhaustive_stats.disagreements == []
    assert exhaustive_pool_seconds + exhaustive_stats.elapsed_seconds < 300


def test_criterion_2_randomized_oracle_equivalence(seeded_stats):
    assert seeded_stats.instances >= 1000
    assert seeded_stats.instances == SEEDED_SAMPLES
    assert seeded_stats.disagreements == []
    assert seeded_stats.elapsed_seconds < 600


def test_criterion_3_reduction_soundness(reduction_suites):
    assert reduction_suites["zero_count"] == 5354
    assert reduction_suites["nil_count"] == 3065
    assert reduction_suites["digraph_count"] == 4161
    assert reduction_suites["zero_failures"] == []
    assert reduction_suites["nil_failures"] == []
    assert reduction_suites["digraph_failures"] == []


def test_criterion_4_intersection_reductions():
    rng = random.Random(20240818)
    built = found = missing = 0
    while built < 200:
        n_dfas = rng.randint(1, 2)
        letters_per = rng.randint(1, 2)
        dfas = []
        for _ in range(n_dfas):
            states = rng.randint(1, 3)
            letters = tuple(
                Transformation(states, tuple(rng.randint(1, states)
                                             for _ in range(states)))
                for _ in range(letters_per))
            dfas.append(DFA(states, rng.randint(1, states),
                            frozenset({rng.randint(1, states)}), letters))
        nonempty = dfa_intersection_nonempty(dfas)

        gens, target_index = dfa_intersection_to_regular(dfas)
        regularized = find_regularizer(gens, gens[target_index - 1]) is not None
        assert regularized == nonempty, dfas

        wgens, target = dfa_intersection_to_weak_inverse(dfas)
        weak = find_weak_inverse(wgens, target) is not None
        assert weak == nonempty, dfas

        built += 1
        found += nonempty
        missing += not nonempty
    assert built >= 200 and found > 20 and missing > 20


def test_criterion_5_weak_inverse_identity(exhaustive_stats, seeded_stats):
    # all 256 transformations of degree 4
    checked = 0
    for image in itertools.product((1, 2, 3, 4), repeat=4):
        s = Transformation(4, image)
        t, exponent = canonical_weak_inverse(s)
        assert exponent >= 1
        assert compose(compose(t, s), t) == t, image
        checked += 1
    assert checked == 256

    # every element of every table in criteria 1 and 2 (bulk check folded
    # into the sweeps; a failure records the offending element index)
    assert exhaustive_stats.weak_inverse_failures == []
    assert seeded_stats.weak_inverse_failures == []

    # the minimal idempotent exponent alone is NOT enough
    s = Transformation(3, (1, 1, 2))
    assert compose(compose(s, s), s) != s
    cubed = power(s, 3)
    assert compose(compose(cubed, s), cubed) == cubed


def test_criterion_6_nilpotency_degree_bound(exhaustive_stats, seeded_stats,
                                             reduction_suites):
    triples = (exhaustive_stats.nilpotency + seeded_stats.nilpotency
               + reduction_suites["nilpotency"])
    assert len(triples) > 1000  # plenty of nilpotent instances seen
    for exact, bound, degree in triples:
        assert exact is not None
        assert exact <= bound <= degree, (exact, bound, degree)


def test_criterion_7_identity_engine_completeness(exhaustive_pool,
                                                  reduction_suites):
    adhoc = [parse_quasi_identity(text) for text in ADHOC_IDENTITIES]
    assert len(adhoc) == 20
    for qid in adhoc:
        assert len(qid.lhs) + len(qid.rhs) <= 5
    identities = list(PRESETS.values()) + adhoc

    compared = 0
    for gens, table in exhaustive_pool:
        for qid in identities:
            fast = bool(models(gens, qid).verdict)
            slow, _ = models_by_enumeration(table, qid)
            assert fast == slow, (gens, qid.render())
            compared += 1
    assert compared == 756 * 27

    # x.x.y = x.x separates the two output branches of the nilpotency
    # construction: it holds exactly on the empty-language side
    separation = reduction_suites["separation"]
    assert all(holds == empty for holds, empty in separation)
    assert any(empty for _, empty in separation)
    assert any(not empty for _, empty in separation)


def test_criterion_8_witness_replay(exhaustive_stats, seeded_stats,
                                    reduction_suites):
    assert exhaustive_stats.witness_failures == []
    assert seeded_stats.witness_failures == []
    assert reduction_suites["witness_failures"] == []
    total = (exhaustive_stats.witnesses_checked
             + seeded_stats.witnesses_checked
             + reduction_suites["witnesses_checked"])
    assert total > 25_000


def test_criterion_9_crosscheck_determinism(tmp_path, cli_command):
    module_argv, env = cli_command
    cmd = module_argv + ["crosscheck", "--samples", "60", "--seed", "11",
                         "--n", "4", "--k", "2"]
    run = dict(capture_output=True, env=env, cwd=tmp_path,
               timeout=CLI_TIMEOUT_SECONDS)
    first = subprocess.run(cmd, **run)
    second = subprocess.run(cmd, **run)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith(b"{")
