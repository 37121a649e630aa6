"""Independent replay of reported witnesses.

Every FALSE (and certificate-style TRUE) report carries a witness; this
module re-derives the claimed facts from the generator set alone so tests can
assert that no checker ever fabricates evidence.  Positive claims (words,
element equations) replay directly through ``core``.  Negative claims ("no
element collapses this pair") are checked against a full element table, which
is built on demand when the caller does not pass one in.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .core import (
    GeneratorSet,
    Transformation,
    apply_word,
    compose,
    fixed_points,
    idempotent_power_exponent,
    image,
    is_idempotent,
    kernel,
    power,
    word_to_transformation,
)
from .errors import EnumerationCapExceeded
from .graph import transformation_graph, undirected_components
from .identity_engine import parse_quasi_identity
from .oracle import (
    DEFAULT_CAP,
    ElementTable,
    enumerate_semigroup,
    left_identity_indices,
    nilpotency_degree,
    right_identity_indices,
)
from .report import PropertyReport


class WitnessReplayError(AssertionError):
    """A reported witness failed to reproduce the claimed fact."""


def _fail(msg: str):
    raise WitnessReplayError(msg)


def _element(gens: GeneratorSet, desc: Mapping, label: str) -> Transformation:
    """Replay a described element's word and confirm it lands on its map."""
    word = desc["word"]
    if not word:
        _fail(f"{label}: empty word")
    t = word_to_transformation(gens, word)
    if list(t.map) != list(desc["map"]):
        _fail(f"{label}: word {word} replays to {list(t.map)}, "
              f"not the reported {list(desc['map'])}")
    return t


def _is_graph_edge(gens: GeneratorSet, u: int, v: int) -> bool:
    return any(g.apply(u) == v for g in gens)


def _check_non_commuting(gens, w, get_table):
    a, b = gens[w["first"] - 1], gens[w["second"] - 1]
    q = w["point"]
    ab, ba = compose(a, b).apply(q), compose(b, a).apply(q)
    if [ab, ba] != list(w["point_images"]) or ab == ba:
        _fail(f"generators {w['first']},{w['second']} give images "
              f"{[ab, ba]} at {q}, reported {w['point_images']}")


def _check_non_idempotent_generator(gens, w, get_table):
    g = gens[w["generator"] - 1]
    sq = compose(g, g)
    if list(sq.map) != list(w["square"]) or sq == g:
        _fail(f"generator {w['generator']} squares to {list(sq.map)}")


def _check_group_condition(gens, w, get_table):
    g = gens[w["generator"] - 1]
    base = image(gens[0])
    cond = w["condition"]
    if cond == "common-image":
        if image(g) == base:
            _fail(f"generator {w['generator']} shares the base image")
    elif cond == "permutes-image":
        if {g.apply(q) for q in base} == base:
            _fail(f"generator {w['generator']} does permute the image")
    elif cond == "common-kernel":
        if kernel([g]).classes == kernel([gens[0]]).classes:
            _fail(f"generator {w['generator']} shares the base kernel")
    else:
        _fail(f"unknown group condition {cond!r}")


def _check_non_collapsible_pair(gens, w, get_table):
    p, q = w["pair"]
    if p == q:
        _fail("pair must be two distinct points")
    comps = undirected_components(transformation_graph(gens))
    if not any(p in c and q in c for c in comps):
        _fail(f"points {p},{q} are not in one component")
    table = get_table()
    if bool((table.maps[:, p - 1] == table.maps[:, q - 1]).any()):
        _fail(f"some element collapses {p} and {q}")


def _check_point_misses_fixed(gens, w, get_table):
    fix = sorted(fixed_points(gens))
    if fix != list(w["fixed_points"]):
        _fail(f"fixed points are {fix}, reported {w['fixed_points']}")
    q = w["point"]
    if not 1 <= q <= gens.degree:
        _fail(f"{q} is not a point in 1..{gens.degree}")
    if not fix:
        return
    table = get_table()
    targets = np.array(fix, dtype=table.maps.dtype) - 1
    if bool(np.isin(table.maps[:, q - 1], targets).any()):
        _fail(f"some element moves {q} into the fixed-point set")


def _check_graph_cycle(gens, w, get_table):
    cycle = list(w["cycle"])
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        _fail(f"not a closed walk: {cycle}")
    for u, v in zip(cycle, cycle[1:]):
        if not _is_graph_edge(gens, u, v):
            _fail(f"({u},{v}) is not an edge of the transformation graph")
    if w["vertices"] == "non-fixed":
        fix = fixed_points(gens)
        inside = [v for v in cycle if v in fix]
        if inside:
            _fail(f"cycle touches fixed points {inside}")
    elif w["vertices"] == "all":
        if len(set(cycle)) < 2:
            _fail("cycle is a self-loop; a violation needs length >= 2")
    else:
        _fail(f"unknown vertex restriction {w['vertices']!r}")


def _check_image_collapse(gens, w, get_table):
    p, q, u, v = w["p"], w["q"], w["u"], w["v"]
    word = w["word"]
    if u == v or not word:
        _fail("collapse witness needs u != v and a nonempty word")
    got = tuple(apply_word(gens, point, word) for point in (p, q, u, v))
    if got[0] != u or got[1] != v:
        _fail(f"word sends ({p},{q}) to {got[:2]}, not ({u},{v})")
    if got[2] != got[3]:
        _fail(f"word does not collapse {u},{v}: images {got[2:]}")


def _check_quasi_identity_counterexample(gens, w, get_table):
    qid = parse_quasi_identity(w["identity"])
    values: dict[int, Transformation] = {}
    for entry in w["assignment"]:
        t = word_to_transformation(gens, entry["word"])
        if entry["idempotent_substitution"]:
            t = power(t, idempotent_power_exponent(t))
            if entry["var"] not in qid.idempotent_vars:
                _fail(f"x{entry['var']} is unconstrained but was substituted")
        values[entry["var"]] = t
    for var in qid.idempotent_vars:
        if not is_idempotent(values[var]):
            _fail(f"x{var} must be idempotent after substitution")
    left, right = list(w["boundary_left"]), list(w["boundary_right"])
    if left[0] != right[0]:
        _fail("the two trajectories must share their start point")
    if left[-1] == right[-1]:
        _fail("trajectory endpoints agree; no violation shown")
    for side, boundary in ((qid.lhs, left), (qid.rhs, right)):
        if len(boundary) != len(side) + 1:
            _fail("boundary length does not fit the identity side")
        for j, var in enumerate(side):
            if values[var].apply(boundary[j]) != boundary[j + 1]:
                _fail(f"x{var} does not carry {boundary[j]} to {boundary[j + 1]}")


def _check_assignment_counterexample(gens, w, get_table):
    qid = parse_quasi_identity(w["identity"])
    values: dict[int, Transformation] = {}
    for entry in w["assignment"]:
        values[entry["var"]] = _element(gens, entry["element"],
                                        f"x{entry['var']}")
    for var in qid.idempotent_vars:
        if not is_idempotent(values[var]):
            _fail(f"x{var} is constrained to idempotents")
    def side_product(side):
        acc = values[side[0]]
        for var in side[1:]:
            acc = compose(acc, values[var])
        return acc
    if side_product(qid.lhs) == side_product(qid.rhs):
        _fail("assignment satisfies the identity; not a counterexample")


def _check_non_regular_element(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    table = get_table()
    srow = np.array(s.map, dtype=table.maps.dtype) - 1
    sts = srow[table.maps[:, srow]]
    if bool((sts == srow).all(axis=1).any()):
        _fail("an element t with s·t·s = s exists after all")


def _check_inverse_count(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    table = get_table()
    srow = np.array(s.map, dtype=table.maps.dtype) - 1
    sts = srow[table.maps[:, srow]]
    tst = table.maps[np.arange(len(table))[:, None],
                     srow[table.maps]]
    count = int(((sts == srow).all(axis=1)
                 & (tst == table.maps).all(axis=1)).sum())
    if count != w["count"] or count == 1:
        _fail(f"element has {count} inverses, reported {w['count']}")


def _check_enumeration_cap(gens, w, get_table):
    if w["cap"] < 1:
        _fail("cap must be positive")
    # Enumerates at most cap + 1 elements before the cap stops it.
    try:
        enumerate_semigroup(gens, w["cap"])
    except EnumerationCapExceeded:
        return
    _fail(f"the semigroup fits within the cap {w['cap']}")


def _check_state_budget(gens, w, get_table):
    if w["budget"] < 1:
        _fail("budget must be positive")
    if w["states"] <= w["budget"]:
        _fail(f"{w['states']} states are within the budget {w['budget']}")


def _check_non_commuting_elements(gens, w, get_table):
    a = _element(gens, w["left"], "left")
    b = _element(gens, w["right"], "right")
    q = w["point"]
    if compose(a, b).apply(q) == compose(b, a).apply(q):
        _fail(f"elements commute at point {q}")


def _check_non_idempotent_element(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    if is_idempotent(s):
        _fail("element is idempotent")


def _check_element_certificate(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    role = w["role"]
    # Generator-level equations extend to all of S: s·(g t) = (s·g)·t and
    # (g t)·s = g·(t·s) reduce any product to the generator case.
    if role in ("left-zero", "zero"):
        for i, g in enumerate(gens, start=1):
            if compose(s, g) != s:
                _fail(f"s·a{i} != s, so not a left zero")
    if role in ("right-zero", "zero"):
        for i, g in enumerate(gens, start=1):
            if compose(g, s) != s:
                _fail(f"a{i}·s != s, so not a right zero")
    if role not in ("left-zero", "right-zero", "zero"):
        _fail(f"unknown certificate role {role!r}")


def _check_nilpotency_degree(gens, w, get_table):
    _element(gens, w["zero"], "zero")
    _check_element_certificate(gens, {"element": w["zero"], "role": "zero"},
                               get_table)
    degree = nilpotency_degree(get_table())
    if degree != w["degree"]:
        _fail(f"recomputed degree {degree}, reported {w['degree']}")


def _check_persistent_element(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    table = get_table()
    idx = table.index_of(s)
    if nilpotency_degree(table) is not None:
        _fail("the semigroup is nilpotent; nothing persists but the zero")
    # The stable core of the set-product iteration S, S², S³, …
    if idx is None or not table.stable_power[1][idx]:
        _fail("element does not persist in high powers of S")


def _check_two_idempotents(gens, w, get_table):
    e = _element(gens, w["left"], "left")
    f = _element(gens, w["right"], "right")
    if not (is_idempotent(e) and is_idempotent(f)) or e == f:
        _fail("needs two distinct idempotents")


def _check_identity_failure(gens, w, get_table):
    e = _element(gens, w["idempotent"], "idempotent")
    s = _element(gens, w["element"], "element")
    if not is_idempotent(e):
        _fail("claimed idempotent is not idempotent")
    if compose(e, s) == s and compose(s, e) == s:
        _fail("the idempotent acts as a two-sided identity on the element")


def _check_no_inverse_power(gens, w, get_table):
    e = _element(gens, w["idempotent"], "idempotent")
    s = _element(gens, w["element"], "element")
    if not is_idempotent(e):
        _fail("claimed idempotent is not idempotent")
    om = power(s, idempotent_power_exponent(s))
    if om == e:
        _fail("the element's idempotent power is the identity after all")


def _check_non_commuting_idempotents(gens, w, get_table):
    e = _element(gens, w["left"], "left")
    f = _element(gens, w["right"], "right")
    if not (is_idempotent(e) and is_idempotent(f)):
        _fail("both elements must be idempotent")
    if compose(e, f) == compose(f, e):
        _fail("the idempotents commute")


def _check_non_idempotent_product(gens, w, get_table):
    e = _element(gens, w["left"], "left")
    f = _element(gens, w["right"], "right")
    if not (is_idempotent(e) and is_idempotent(f)):
        _fail("both factors must be idempotent")
    if is_idempotent(compose(e, f)):
        _fail("the product of the idempotents is idempotent")


def _check_non_central_idempotent(gens, w, get_table):
    e = _element(gens, w["idempotent"], "idempotent")
    s = _element(gens, w["other"], "other")
    if not is_idempotent(e):
        _fail("claimed idempotent is not idempotent")
    if compose(e, s) == compose(s, e):
        _fail("the idempotent commutes with the reported element")


def _check_element_outside_subgroup(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    om = idempotent_power_exponent(s)
    if power(s, om + 1) == s:
        _fail("s^(omega+1) = s, so the element lies in a subgroup")


def _check_mutually_reachable_pair(gens, w, get_table):
    s = _element(gens, w["left"], "left")
    t = _element(gens, w["right"], "right")
    if s == t:
        _fail("the pair must be distinct elements")
    lr, rl = w["word_left_to_right"], w["word_right_to_left"]
    if not lr or not rl:
        _fail("both connecting words must be nonempty")
    if compose(s, word_to_transformation(gens, lr)) != t:
        _fail("left element does not reach the right one by the word")
    if compose(t, word_to_transformation(gens, rl)) != s:
        _fail("right element does not reach the left one by the word")


def _check_periodic_element(gens, w, get_table):
    s = _element(gens, w["element"], "element")
    om = idempotent_power_exponent(s)
    if power(s, om) == power(s, om + 1):
        _fail("element has period 1")


def _check_identity_list(gens, w, get_table):
    side = w["side"]
    if side not in ("left", "right"):
        _fail(f"unknown side {side!r}")
    listed = []
    for j, desc in enumerate(w["identities"]):
        t = _element(gens, desc, f"identity {j}")
        listed.append(t)
        # Generator equations extend inductively to every product.
        for i, g in enumerate(gens, start=1):
            if side == "left" and compose(t, g) != g:
                _fail(f"listed element {j} is not a left identity (a{i})")
            if side == "right" and compose(g, t) != g:
                _fail(f"listed element {j} is not a right identity (a{i})")
    if len({t.map for t in listed}) != len(listed):
        _fail("identity list contains duplicates")
    table = get_table()
    if side == "left":
        expected = left_identity_indices(table)
    else:
        expected = right_identity_indices(table)
    if {tuple(t.map) for t in listed} != {tuple(table.element(i).map)
                                          for i in expected}:
        _fail(f"identity list is not the complete set of {side} identities")


_HANDLERS: dict[str, Callable] = {
    "non-commuting": _check_non_commuting,
    "non-idempotent-generator": _check_non_idempotent_generator,
    "group-condition": _check_group_condition,
    "non-collapsible-pair": _check_non_collapsible_pair,
    "point-misses-fixed": _check_point_misses_fixed,
    "graph-cycle": _check_graph_cycle,
    "image-collapse": _check_image_collapse,
    "quasi-identity-counterexample": _check_quasi_identity_counterexample,
    "assignment-counterexample": _check_assignment_counterexample,
    "non-regular-element": _check_non_regular_element,
    "inverse-count": _check_inverse_count,
    "enumeration-cap": _check_enumeration_cap,
    "state-budget": _check_state_budget,
    "non-commuting-elements": _check_non_commuting_elements,
    "non-idempotent-element": _check_non_idempotent_element,
    "element-certificate": _check_element_certificate,
    "nilpotency-degree": _check_nilpotency_degree,
    "persistent-element": _check_persistent_element,
    "two-idempotents": _check_two_idempotents,
    "identity-failure": _check_identity_failure,
    "no-inverse-power": _check_no_inverse_power,
    "non-commuting-idempotents": _check_non_commuting_idempotents,
    "non-idempotent-product": _check_non_idempotent_product,
    "non-central-idempotent": _check_non_central_idempotent,
    "element-outside-subgroup": _check_element_outside_subgroup,
    "mutually-reachable-pair": _check_mutually_reachable_pair,
    "periodic-element": _check_periodic_element,
    "identity-list": _check_identity_list,
}


def verify_witness(gens: GeneratorSet,
                   report: PropertyReport | Mapping,
                   table: ElementTable | None = None) -> bool:
    """Replay a report's witness; raise WitnessReplayError on any mismatch.

    Reports without a witness verify trivially.  Negative claims are settled
    against a full element table, built here under ``DEFAULT_CAP`` unless
    one is supplied.  A
    malformed witness (a missing field, a value of the wrong type, a letter
    outside 1..k, a point outside 1..n) fails to replay as well.
    """
    witness = report.witness if isinstance(report, PropertyReport) else report
    if witness is None:
        return True
    kind = witness.get("kind")
    if kind not in _HANDLERS:
        _fail(f"unknown witness kind {kind!r}")

    built: list[ElementTable | None] = [table]

    def get_table() -> ElementTable:
        if built[0] is None:
            built[0] = enumerate_semigroup(gens, DEFAULT_CAP)
        return built[0]

    try:
        _HANDLERS[kind](gens, witness, get_table)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise WitnessReplayError(f"malformed {kind} witness: {exc}") from exc
    return True
