"""Witness replay: every reported witness must reproduce, tampered ones must not."""

import ast
import copy
from importlib import resources

import pytest

from tsprops import cli, graph
from tsprops.core import GeneratorSet, Transformation
from tsprops.crosscheck import check_instance
from tsprops.errors import (EnumerationCapExceeded, LimitExceeded,
                            StateBudgetExceeded)
from tsprops.identity_engine import models, parse_quasi_identity
from tsprops.oracle import (
    PROPERTIES,
    definitional_check,
    enumerate_semigroup,
    models_by_enumeration,
)
from tsprops.witnesses import _HANDLERS, WitnessReplayError, verify_witness


def gen_set(*maps):
    n = len(maps[0])
    return GeneratorSet(n, tuple(Transformation(n, m) for m in maps))


S3GEN = gen_set((2, 3, 1))
CONSTS = gen_set((1, 1, 1), (2, 2, 2))
COLLAPSE = gen_set((1, 1, 2))
SWAP = gen_set((2, 1, 3))
SWAPCONST = gen_set((2, 1, 3), (3, 3, 3))
SHIFT = gen_set((2, 3, 3))
PAIR = gen_set((1, 1, 2), (1, 2, 1))
T3 = gen_set((2, 3, 1), (2, 1, 3), (1, 1, 3))
LEFTZ = gen_set((1, 1, 3), (1, 3, 3))
KPAIR = gen_set((1, 2, 1), (2, 1, 1))

HARVEST_INSTANCES = (S3GEN, CONSTS, COLLAPSE, SWAP, SWAPCONST,
                     SHIFT, PAIR, T3, LEFTZ, KPAIR)


@pytest.fixture(scope="module")
def harvest():
    """kind -> list of (gens, table, witness) gathered from real checker runs."""
    bag = {}

    def keep(gens, table, report):
        if report.witness is not None:
            bag.setdefault(report.witness["kind"], []).append(
                (gens, table, report.witness))

    for gens in HARVEST_INSTANCES:
        table = enumerate_semigroup(gens)
        result = check_instance(gens, table=table, collect_reports=True)
        assert result.ok, (gens, result.mismatches)
        for report in result.reports:
            keep(gens, table, report)
        for key in PROPERTIES:
            keep(gens, table, definitional_check(table, key))

    qid = parse_quasi_identity("x1 x2 = x2 x1")
    table = enumerate_semigroup(PAIR)
    keep(PAIR, table, models(PAIR, qid))
    holds, witness = models_by_enumeration(table, qid)
    assert not holds
    bag.setdefault(witness["kind"], []).append((PAIR, table, witness))
    return bag


# every kind the harvest is expected to produce organically
EXPECTED_KINDS = {
    "non-commuting", "non-idempotent-generator", "group-condition",
    "non-collapsible-pair", "point-misses-fixed", "graph-cycle",
    "image-collapse", "quasi-identity-counterexample",
    "assignment-counterexample", "non-regular-element", "inverse-count",
    "non-commuting-elements", "non-idempotent-element", "element-certificate",
    "nilpotency-degree", "persistent-element", "two-idempotents",
    "identity-failure", "non-commuting-idempotents", "non-idempotent-product",
    "non-central-idempotent", "element-outside-subgroup",
    "mutually-reachable-pair", "periodic-element", "identity-list",
}


def test_harvest_covers_all_organic_kinds(harvest):
    assert EXPECTED_KINDS <= set(harvest)


def test_all_harvested_witnesses_replay(harvest):
    count = 0
    for entries in harvest.values():
        for gens, table, witness in entries:
            assert verify_witness(gens, witness, table=table)
            count += 1
    assert count > 60


def test_certificate_roles_all_harvested(harvest):
    roles = {w["role"] for _, _, w in harvest["element-certificate"]}
    assert roles == {"left-zero", "right-zero", "zero"}


def test_group_conditions_all_harvested(harvest):
    conds = {w["condition"] for _, _, w in harvest["group-condition"]}
    assert conds == {"common-image", "permutes-image", "common-kernel"}


def _bump_map(desc):
    """Shift every image point by one; the word no longer replays to it."""
    desc["map"] = [p % len(desc["map"]) + 1 for p in desc["map"]]


def _corrupt_element(field):
    def mutate(w):
        _bump_map(w[field])
    return mutate


# at least one mutation per kind that must break replay
TAMPER = {
    "non-commuting": [lambda w: w.update(point_images=w["point_images"][::-1])],
    "non-idempotent-generator": [
        lambda w: w.update(square=[p % len(w["square"]) + 1
                                   for p in w["square"]])],
    "group-condition": [lambda w: w.update(condition="wrong-condition")],
    "non-collapsible-pair": [lambda w: w.update(pair=[w["pair"][0]] * 2)],
    "point-misses-fixed": [
        lambda w: w.update(fixed_points=list(w["fixed_points"]) + [99])],
    "graph-cycle": [lambda w: w.update(cycle=w["cycle"][:1]),
                    lambda w: w.update(vertices="sideways")],
    "image-collapse": [lambda w: w.update(v=w["u"]),
                       lambda w: w.update(word=[])],
    "quasi-identity-counterexample": [
        lambda w: w.update(boundary_right=list(w["boundary_left"]))],
    "assignment-counterexample": [
        lambda w: _bump_map(w["assignment"][0]["element"])],
    "non-regular-element": [_corrupt_element("element")],
    "inverse-count": [lambda w: w.update(count=w["count"] + 1)],
    "non-commuting-elements": [_corrupt_element("left")],
    "non-idempotent-element": [_corrupt_element("element")],
    "element-certificate": [_corrupt_element("element"),
                            lambda w: w.update(role="sovereign")],
    "nilpotency-degree": [lambda w: w.update(degree=w["degree"] + 1),
                          _corrupt_element("zero")],
    "persistent-element": [_corrupt_element("element")],
    "two-idempotents": [lambda w: w.update(right=w["left"])],
    "identity-failure": [_corrupt_element("idempotent")],
    "non-commuting-idempotents": [_corrupt_element("left")],
    "non-idempotent-product": [_corrupt_element("right")],
    "non-central-idempotent": [_corrupt_element("other")],
    "element-outside-subgroup": [_corrupt_element("element")],
    "mutually-reachable-pair": [lambda w: w.update(word_left_to_right=[]),
                                _corrupt_element("left")],
    "periodic-element": [_corrupt_element("element")],
    "identity-list": [lambda w: w.update(side="middle")],
}


def test_tampered_witnesses_are_rejected(harvest):
    tried = 0
    for kind, mutations in TAMPER.items():
        assert kind in harvest, f"no harvested witness of kind {kind}"
        for gens, table, witness in harvest[kind]:
            for mutate in mutations:
                bad = copy.deepcopy(witness)
                mutate(bad)
                with pytest.raises(WitnessReplayError):
                    verify_witness(gens, bad, table=table)
                tried += 1
    assert tried > 40


def test_none_witness_passes_trivially():
    assert verify_witness(S3GEN, {"kind": "enumeration-cap", "cap": 2})
    report_like = None
    # a report whose witness is None verifies without any work
    from tsprops.report import ReportBuilder
    rb = ReportBuilder("commutative", S3GEN, "oracle")
    assert verify_witness(S3GEN, rb.true(None))
    assert report_like is None


def test_unknown_kind_rejected():
    with pytest.raises(WitnessReplayError):
        verify_witness(S3GEN, {"kind": "made-up-kind"})
    with pytest.raises(WitnessReplayError):
        verify_witness(S3GEN, {"kind": "enumeration-cap", "cap": 0})


def test_no_inverse_power_witness_paths():
    # this branch of the group check is defensive (the two earlier branches
    # subsume it on finite tables), so exercise the replay handler directly
    good = {
        "kind": "no-inverse-power",
        "idempotent": {"word": [1], "map": [1, 1, 1]},
        "element": {"word": [2], "map": [2, 2, 2]},
    }
    assert verify_witness(CONSTS, good)
    bad = copy.deepcopy(good)
    bad["element"] = bad["idempotent"]  # now the omega power IS the idempotent
    with pytest.raises(WitnessReplayError):
        verify_witness(CONSTS, bad)


def test_identity_list_completeness_enforced():
    table = enumerate_semigroup(CONSTS)
    full = definitional_check(table, "left_identities").witness
    assert full["side"] == "left" and len(full["identities"]) == 2

    missing = copy.deepcopy(full)
    del missing["identities"][0]
    with pytest.raises(WitnessReplayError):
        verify_witness(CONSTS, missing, table=table)

    doubled = copy.deepcopy(full)
    doubled["identities"].append(doubled["identities"][0])
    with pytest.raises(WitnessReplayError):
        verify_witness(CONSTS, doubled, table=table)

    flipped = copy.deepcopy(full)
    flipped["side"] = "right"  # the listed maps are not right identities
    with pytest.raises(WitnessReplayError):
        verify_witness(CONSTS, flipped, table=table)

    empty_right = definitional_check(table, "right_identities").witness
    assert empty_right["identities"] == []
    assert verify_witness(CONSTS, empty_right, table=table)


# One UNDECIDED structural report per limit, with the state budget lowered
# to 3, and mutations of its witness that replay must reject.
LIMITS = {
    EnumerationCapExceeded: (
        "enumeration-cap", T3, "regular", 5,
        [lambda w: w.update(cap=0), lambda w: w.update(cap=-2),
         lambda w: w.update(cap=27)]),   # |T3| = 27
    StateBudgetExceeded: (
        "state-budget", gen_set((2, 3, 1, 4), (1, 1, 3, 4)), "band", 1000,
        [lambda w: w.update(budget=0), lambda w: w.update(states=w["budget"]),
         lambda w: w.update(states=w["budget"] - 1)]),
}


def test_every_limit_witness_replays_and_rejects_tampering(monkeypatch):
    assert set(LIMITS) == set(LimitExceeded.__subclasses__())
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    for kind, gens, prop, cap, mutations in LIMITS.values():
        report = cli._structural_report(gens, prop, cap)
        assert report.verdict.value == "UNDECIDED"
        assert report.witness["kind"] == kind
        assert verify_witness(gens, report)
        for mutate in mutations:
            bad = copy.deepcopy(report.witness)
            mutate(bad)
            with pytest.raises(WitnessReplayError):
                verify_witness(gens, bad)


# kind -> the path to a word inside a witness of that kind
WORD_PATHS = {
    "image-collapse": ("word",),
    "quasi-identity-counterexample": ("assignment", 0, "word"),
    "assignment-counterexample": ("assignment", 0, "element", "word"),
    "non-regular-element": ("element", "word"),
    "mutually-reachable-pair": ("word_right_to_left",),
    "periodic-element": ("element", "word"),
    "non-central-idempotent": ("other", "word"),
}


def test_letters_outside_the_generators_fail_to_replay(harvest):
    # Letter -1 once replayed as the last generator, so this held.
    rotate_collapse = gen_set((2, 3, 1), (1, 1, 3))
    periodic = {"kind": "periodic-element",
                "element": {"map": [2, 3, 1], "word": [-1]}}
    with pytest.raises(WitnessReplayError):
        verify_witness(rotate_collapse, periodic)
    tried = 0
    for kind, path in WORD_PATHS.items():
        for gens, table, witness in harvest[kind]:
            for letter in (0, -1, len(gens) + 1):
                bad = copy.deepcopy(witness)
                word = bad
                for step in path:
                    word = word[step]
                word[0] = letter
                with pytest.raises(WitnessReplayError):
                    verify_witness(gens, bad, table=table)
                tried += 1
    assert tried > 30


# kind -> a field whose loss or wrong type must fail replay
DROPPED = {
    "non-commuting": lambda w: w.pop("point"),
    "image-collapse": lambda w: w.pop("v"),
    "non-regular-element": lambda w: w["element"].pop("word"),
    "mutually-reachable-pair": lambda w: w.pop("word_right_to_left"),
    "identity-list": lambda w: w.pop("identities"),
    "nilpotency-degree": lambda w: w.pop("zero"),
}


def test_malformed_witnesses_fail_to_replay(harvest):
    for kind, mutate in DROPPED.items():
        gens, table, witness = harvest[kind][0]
        bad = copy.deepcopy(witness)
        mutate(bad)
        with pytest.raises(WitnessReplayError, match="malformed"):
            verify_witness(gens, bad, table=table)
    for cap in ("2", None):
        with pytest.raises(WitnessReplayError, match="malformed"):
            verify_witness(S3GEN, {"kind": "enumeration-cap", "cap": cap})
    with pytest.raises(WitnessReplayError, match="malformed"):
        verify_witness(S3GEN, {"kind": "state-budget", "budget": 3})
    # Point 0 once read the last point's column and replayed.
    swap = gen_set((1, 3, 2))
    for point in (0, -1, 4):
        with pytest.raises(WitnessReplayError, match="not a point"):
            verify_witness(swap, {"kind": "point-misses-fixed",
                                  "fixed_points": [1], "point": point})


def emitted_witness_kinds():
    """kind -> modules, for each dict literal in the package whose ``"kind"``
    is a string constant."""
    kinds = {}
    for path in resources.files("tsprops").iterdir():
        if not path.name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (isinstance(key, ast.Constant) and key.value == "kind"
                            and isinstance(value, ast.Constant)):
                        kinds.setdefault(value.value, set()).add(path.name)
    return kinds


def test_every_emitted_witness_kind_has_a_replay_handler():
    kinds = emitted_witness_kinds()
    assert {"errors.py"} == kinds["state-budget"] == kinds["enumeration-cap"]
    missing = {kind: sorted(mods) for kind, mods in kinds.items()
               if kind not in _HANDLERS}
    assert not missing
