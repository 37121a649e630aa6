"""The uniform result record returned by every property checker.

A checker decides or raises: it returns TRUE or FALSE, or raises an
``errors.LimitExceeded`` when a search reaches its cap or state budget.
``ReportBuilder.run`` is the one place where a limit becomes an UNDECIDED
report, and ``all_of`` is the one conjunction of structural reports.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

from .core import GeneratorSet
from .errors import LimitExceeded
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

    def run(self, decide: Callable[[], PropertyReport]) -> PropertyReport:
        """The report ``decide()`` returns, or, when it raises a
        ``LimitExceeded``, UNDECIDED with the limit's witness and the time
        spent since this call."""
        self._start = time.perf_counter()
        try:
            return decide()
        except LimitExceeded as exc:
            return self.done(Verdict.UNDECIDED, exc.witness)


def all_of(prop: str, gens: GeneratorSet,
           *checks: Callable[[GeneratorSet], PropertyReport]) -> PropertyReport:
    """The structural conjunction of ``checks``, asked in order: FALSE with
    the witness of the first FALSE conjunct, which ends the asking, or
    TRUE.  A limit in a conjunct propagates."""
    rb = ReportBuilder(prop, gens, "structural")
    for check in checks:
        report = check(gens)
        if not report.verdict:
            return rb.false(report.witness)
    return rb.true()


def remembered(checker):
    """``checker`` with each report kept on the generator set it was asked
    about, keyed by the checker and its other arguments as passed.

    Asked again with the same arguments, the checker returns the kept
    report with ``elapsed`` set to the lookup's own time, so no report
    claims time it did not spend; the verdict, witness, property, engine
    and digest are the kept ones.  A checker decides or raises, so every
    kept report is TRUE or FALSE: a ``LimitExceeded`` propagates and nothing
    is kept, so the next call runs again under the cap and budget in force
    then.  Only structural checkers that another checker calls are
    remembered.
    """
    def remember(gens: GeneratorSet, *args, **kwargs) -> PropertyReport:
        start = time.perf_counter()
        key = (checker, *args, *sorted(kwargs.items()))
        hit = gens._facts.get(key)
        if hit is not None:
            return replace(hit, elapsed=time.perf_counter() - start)
        report = gens._facts[key] = checker(gens, *args, **kwargs)
        return report

    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(remember, attr, getattr(checker, attr))
    remember.__wrapped__ = checker
    return remember
