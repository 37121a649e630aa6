"""Structural-versus-oracle agreement sweeps.

The package's central claim is that every structural checker returns the same
verdict as brute-force evaluation over the enumerated element table.  This
module generates instance streams (exhaustive and seeded-random), runs both
engines on each instance, and aggregates any disagreement into a
deterministic, JSON-ready summary.  The two routes stay independent: the
structural side never sees the element table, the oracle side never sees
the structural verdict, and no property runs ``graph.strong_components`` or
``graph.search`` on both sides (``tests/test_layering.py`` checks this),
although structural ``regular`` and oracle ``r_trivial`` both use them.  An
instance past the element cap has no oracle verdict: the sweep counts it as
``UNDECIDED`` for every swept property and goes on.  A structural check
that meets a state budget is ``UNDECIDED`` through ``ReportBuilder.run``:
the sweep counts that property of that instance as ``UNDECIDED``, compares
nothing for it, and goes on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from .core import GeneratorSet
from .errors import EnumerationCapExceeded
from .formats import cached_instance_digest, render_generators
from .oracle import (
    DEFAULT_CAP,
    ElementTable,
    definitional_check,
    enumerate_semigroup,
)
from .properties import REGISTRY
from .report import PropertyReport, ReportBuilder, Verdict


@dataclass
class InstanceResult:
    gens: GeneratorSet
    digest: str
    element_count: int
    verdicts: dict[str, dict[str, str]]
    mismatches: list[str] = field(default_factory=list)
    reports: list[PropertyReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def exhaustive_generator_sets(n: int, k_max: int) -> Iterator[GeneratorSet]:
    """All generator tuples of degree n with 1..k_max generators, in order.

    A tuple of k maps is one run of n*k points cut into k maps, so the
    tuples come in lexicographic order of their maps one at a time, with
    no list of all n**n maps held.
    """
    for k in range(1, k_max + 1):
        for points in product(range(1, n + 1), repeat=n * k):
            yield GeneratorSet.from_maps(
                [points[i:i + n] for i in range(0, n * k, n)])


def seeded_instances(seed: int, samples: int, n_max: int,
                     k_max: int) -> Iterator[GeneratorSet]:
    """Reproducible random stream of generator sets."""
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, n_max)
        k = rng.randint(1, k_max)
        maps = [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k)]
        yield GeneratorSet.from_maps(maps)


def _swept(properties: Iterable[str] | None) -> list[str]:
    """The registry's names with a structural route, in registry order,
    limited to ``properties`` when it is given."""
    wanted = set(properties) if properties is not None else None
    return [name for name, routes in REGISTRY.items()
            if routes.structural is not None
            and (wanted is None or name in wanted)]


def check_instance(gens: GeneratorSet,
                   table: ElementTable | None = None,
                   properties: Iterable[str] | None = None,
                   cap: int = DEFAULT_CAP,
                   collect_reports: bool = False) -> InstanceResult:
    """Run both engines on one instance and record any disagreement."""
    if table is None:
        table = enumerate_semigroup(gens, cap)
    result = InstanceResult(gens=gens, digest=cached_instance_digest(gens),
                            element_count=len(table), verdicts={})

    for name in _swept(properties):
        structural, oracle_key = REGISTRY[name]
        s_report = ReportBuilder(name, gens, "structural").run(
            lambda: structural(gens, cap))
        o_report = definitional_check(table, oracle_key)
        result.verdicts[name] = {
            "structural": s_report.verdict.value,
            "oracle": o_report.verdict.value,
        }
        if s_report.verdict is not Verdict.UNDECIDED and (
                s_report.verdict.value != o_report.verdict.value
                or _identity_maps(s_report) != _identity_maps(o_report)):
            result.mismatches.append(name)
        if collect_reports:
            result.reports.extend((s_report, o_report))

    return result


def _identity_maps(report: PropertyReport) -> set[tuple[int, ...]] | None:
    """The maps of an identity-list witness as a set; None for other kinds."""
    witness = report.witness
    if witness is None or witness.get("kind") != "identity-list":
        return None
    return {tuple(entry["map"]) for entry in witness["identities"]}


def run_sweep(instances: Iterable[GeneratorSet],
              properties: Iterable[str] | None = None,
              cap: int = DEFAULT_CAP) -> dict:
    """Check a stream of instances; summary is JSON-ready and timing-free.

    An instance past the element ``cap`` adds ``UNDECIDED`` to the verdict
    counts of every swept property, and a structural check past a state
    budget to those of its own property; the sweep goes on.
    """
    swept = _swept(properties)
    totals: dict[str, dict[str, int]] = {}
    mismatch_records = []
    count = 0
    largest = 0

    def tally(name: str, verdict: str) -> None:
        bucket = totals.setdefault(name, {})
        bucket[verdict] = bucket.get(verdict, 0) + 1

    for gens in instances:
        count += 1
        try:
            table = enumerate_semigroup(gens, cap)
        except EnumerationCapExceeded:
            for name in swept:
                tally(name, "UNDECIDED")
            continue
        res = check_instance(gens, table, swept, cap)
        largest = max(largest, res.element_count)
        for name, pair in res.verdicts.items():
            tally(name, "UNDECIDED" if pair["structural"] == "UNDECIDED"
                  else pair["oracle"])
        for name in res.mismatches:
            mismatch_records.append({
                "digest": res.digest,
                "generators": render_generators(gens),
                "property": name,
                "structural": res.verdicts[name]["structural"],
                "oracle": res.verdicts[name]["oracle"],
            })
    return {
        "instances": count,
        "largest_semigroup": largest,
        "verdict_counts": totals,
        "disagreements": len(mismatch_records),
        "mismatches": mismatch_records,
    }
