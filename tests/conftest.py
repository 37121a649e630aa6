"""Shared instance pools.

The exhaustive degree-3 pool (756 generator sets) is enumerated once per
session and kept with its element tables; several acceptance checks reuse it.
The large seeded pool is streamed once and reduced to aggregate statistics so
its tables never accumulate in memory.
"""

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import tsprops
from tsprops.core import GeneratorSet
from tsprops.crosscheck import (
    check_instance,
    exhaustive_generator_sets,
    seeded_instances,
)
from tsprops.nl_checks import nilpotency_degree_upper_bound
from tsprops.oracle import (
    ElementTable,
    enumerate_semigroup,
    weak_inverse_exponent_check,
)
from tsprops.witnesses import WitnessReplayError, verify_witness

SEED = 20240817
SEEDED_SAMPLES = 1000
CLI_TIMEOUT_SECONDS = 120


def full_monoid(n):
    """An n-cycle, a transposition and a rank-(n-1) idempotent generate T_n."""
    return GeneratorSet.from_maps([
        tuple(list(range(2, n + 1)) + [1]),
        tuple([2, 1] + list(range(3, n + 1))),
        tuple([1, 1] + list(range(3, n + 1))),
    ])


@pytest.fixture
def cli_command():
    """``(argv prefix, env)`` that run the CLI under test in a subprocess.

    The prefix is ``python -m tsprops``.  The child's ``PYTHONPATH`` starts
    with the directory holding the ``tsprops`` this session imported, so the
    child runs the code under test even where another copy is installed;
    existing entries are kept after it.  ``-m`` also puts the working
    directory first on ``sys.path``, so run the child from an empty directory
    such as ``tmp_path``.
    """
    package_parent = str(Path(tsprops.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_parent] + [p for p in inherited.split(os.pathsep) if p])
    return [sys.executable, "-m", "tsprops"], env


@dataclass
class SweepStats:
    """Aggregates from one structural-versus-oracle sweep."""

    instances: int = 0
    largest: int = 0
    elapsed_seconds: float = 0.0
    disagreements: list = field(default_factory=list)
    witnesses_checked: int = 0
    witness_failures: list = field(default_factory=list)
    weak_inverse_failures: list = field(default_factory=list)
    # (oracle exact degree, structural upper bound, instance degree n)
    nilpotency: list = field(default_factory=list)


def sweep_one(gens: GeneratorSet, table: ElementTable, stats: SweepStats):
    """Run the paired checkers on one instance and fold into ``stats``."""
    result = check_instance(gens, table=table, collect_reports=True)
    stats.instances += 1
    stats.largest = max(stats.largest, result.element_count)
    if not result.ok:
        stats.disagreements.append((result.digest, result.mismatches))

    for report in result.reports:
        if report.witness is None:
            continue
        try:
            verify_witness(gens, report, table=table)
            stats.witnesses_checked += 1
        except WitnessReplayError as exc:
            stats.witness_failures.append(
                (result.digest, report.property, str(exc)))

    ok, bad_index = weak_inverse_exponent_check(table)
    if not ok:
        stats.weak_inverse_failures.append((result.digest, bad_index))

    if result.verdicts["nilpotent"]["oracle"] == "TRUE":
        for report in result.reports:
            if report.engine == "oracle" and report.property == "nilpotent":
                exact = report.witness["degree"]
                break
        else:  # pragma: no cover - nilpotent TRUE always carries the degree
            raise AssertionError("nilpotent TRUE report lost its witness")
        stats.nilpotency.append(
            (exact, nilpotency_degree_upper_bound(gens), gens.degree))
    return result


_POOL_BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def exhaustive_pool():
    """All 756 degree-3 instances with 1 or 2 generators, plus their tables."""
    pool = []
    start = time.monotonic()
    for gens in exhaustive_generator_sets(3, 2):
        pool.append((gens, enumerate_semigroup(gens)))
    _POOL_BUILD_SECONDS["exhaustive"] = time.monotonic() - start
    assert len(pool) == 27 + 27 * 27
    return pool


@pytest.fixture(scope="session")
def exhaustive_pool_seconds(exhaustive_pool):
    return _POOL_BUILD_SECONDS["exhaustive"]


@pytest.fixture(scope="session")
def exhaustive_stats(exhaustive_pool):
    stats = SweepStats()
    start = time.monotonic()
    for gens, table in exhaustive_pool:
        sweep_one(gens, table, stats)
    stats.elapsed_seconds = time.monotonic() - start
    return stats


@pytest.fixture(scope="session")
def seeded_stats():
    """Stream the big seeded sweep once; tables are dropped as we go."""
    stats = SweepStats()
    start = time.monotonic()
    for gens in seeded_instances(SEED, SEEDED_SAMPLES, 6, 3):
        table = enumerate_semigroup(gens)
        sweep_one(gens, table, stats)
    stats.elapsed_seconds = time.monotonic() - start
    return stats
