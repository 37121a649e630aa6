"""Witness bytes stay fixed: one digest of every structural report, one of
every oracle report.

Every property in ``properties.REGISTRY`` with a structural route is run on
every generator set of degree <= 3 with <= 2 generators and on a seeded pool
of 100 sets, and the verdict and witness of each report, as sorted-key JSON,
go into one SHA-256 digest.  ``ORACLE_DIGEST`` does the same for every key of
``oracle.PROPERTIES``, on one element table per set of the same pool.  A
change that alters any witness on purpose updates the digest and says so in
its change log; run this file as a script, with ``src`` on ``PYTHONPATH``, to
print the new values.
"""

import hashlib
import json
import time

from tsprops.core import DEFAULT_CAP
from tsprops.crosscheck import exhaustive_generator_sets, seeded_instances
from tsprops.oracle import PROPERTIES, definitional_check, enumerate_semigroup
from tsprops.properties import REGISTRY

DIGEST = "8f57586d99da8e6fdf037731f11296cb13b8eacc80a8e2e1a59fb30c7b7925a4"
ORACLE_DIGEST = "562b75d82027db4c1a0b8ce4ca9ff6dec7a348575898eb914e8dfe0fcb0fb083"


def pool():
    for n in (1, 2, 3):
        yield from exhaustive_generator_sets(n, 2)
    yield from seeded_instances(20240817, 100, 5, 3)


def structural_digest() -> str:
    digest = hashlib.sha256()
    for gens in pool():
        for name, routes in REGISTRY.items():
            if routes.structural is None:
                continue
            report = routes.structural(gens, DEFAULT_CAP)
            line = json.dumps([name, report.verdict.value, report.witness],
                              sort_keys=True)
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def oracle_digest() -> str:
    digest = hashlib.sha256()
    for gens in pool():
        table = enumerate_semigroup(gens)
        for key in PROPERTIES:
            report = definitional_check(table, key)
            line = json.dumps([key, report.verdict.value, report.witness],
                              sort_keys=True)
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_structural_witness_digest():
    assert structural_digest() == DIGEST


def test_oracle_witness_digest():
    assert oracle_digest() == ORACLE_DIGEST


if __name__ == "__main__":
    for compute in (structural_digest, oracle_digest):
        started = time.perf_counter()
        print(compute(), f"{time.perf_counter() - started:.2f} s")
