"""The uniform result record returned by every property checker."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .core import GeneratorSet
from .formats import cached_instance_digest


class Verdict(str, Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNDECIDED = "UNDECIDED"

    def __bool__(self):
        return self is Verdict.TRUE


@dataclass(frozen=True)
class PropertyReport:
    """Verdict plus canonical witness and engine provenance for one property."""

    property: str
    verdict: Verdict
    witness: dict | None
    engine: str
    elapsed: float
    digest: str

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "property": self.property,
            "verdict": self.verdict.value,
            "witness": self.witness,
            "engine": self.engine,
            "digest": self.digest,
        }
        if include_elapsed:
            out["elapsed_seconds"] = round(self.elapsed, 6)
        return out


class ReportBuilder:
    """Times a check and stamps the instance digest into the report."""

    def __init__(self, prop: str, gens: GeneratorSet, engine: str):
        self.property = prop
        self.engine = engine
        self._digest = cached_instance_digest(gens)
        self._start = time.perf_counter()

    def done(self, verdict: Verdict, witness: dict | None = None) -> PropertyReport:
        return PropertyReport(
            property=self.property,
            verdict=verdict,
            witness=witness,
            engine=self.engine,
            elapsed=time.perf_counter() - self._start,
            digest=self._digest,
        )

    def true(self, witness: dict | None = None) -> PropertyReport:
        return self.done(Verdict.TRUE, witness)

    def false(self, witness: dict | None = None) -> PropertyReport:
        return self.done(Verdict.FALSE, witness)

    def undecided(self, witness: dict | None = None) -> PropertyReport:
        return self.done(Verdict.UNDECIDED, witness)
