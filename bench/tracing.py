"""The traced run: wrappers around each layer's public functions, spans kept
in memory, and the per-layer metrics derived from them.

A wrapper replaces every module attribute that is bound to the original
function, in every loaded tsprops module, so a call made through another
module's ``from .x import f`` is caught as well.  Each call records a span
(name, start, end, parent span); a layer's self time is the length of its
spans minus the length of their direct children.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

# (module, function, span name).  Graph searches all pass through
# multi_tuple_reachability, so wrapping it alone counts each search once.
SPANNED = (
    ("formats", "instance_digest", "report.digest"),
    ("fo_checks", "is_commutative", "fo_checks"),
    ("fo_checks", "is_semilattice", "fo_checks"),
    ("fo_checks", "is_group", "fo_checks"),
    ("nl_checks", "has_right_zero", "nl_checks"),
    ("nl_checks", "has_left_zero", "nl_checks"),
    ("nl_checks", "has_zero", "nl_checks"),
    ("nl_checks", "is_nilpotent", "nl_checks"),
    ("nl_checks", "nilpotency_degree_upper_bound", "nl_checks"),
    ("nl_checks", "is_r_trivial", "nl_checks"),
    ("nl_checks", "is_completely_regular", "nl_checks"),
    ("nl_checks", "is_regular_commutative", "nl_checks"),
    ("nl_checks", "is_clifford", "nl_checks"),
    ("identities_enum", "left_identities", "identities_enum"),
    ("identities_enum", "right_identities", "identities_enum"),
    ("graph", "multi_tuple_reachability", "graph.search"),
    ("identity_engine", "models", "identity_engine.models"),
    ("pspace_search", "find_regularizer", "pspace_search"),
    ("pspace_search", "find_weak_inverse", "pspace_search"),
    ("pspace_search", "find_inverse", "pspace_search"),
    ("pspace_search", "is_regular_semigroup", "pspace_search"),
    ("pspace_search", "is_inverse_semigroup", "pspace_search"),
    ("pspace_search", "canonical_weak_inverse", "pspace_search"),
    ("oracle", "enumerate_semigroup", "oracle.enumerate"),
    ("oracle", "definitional_check", "oracle.check"),
    ("witnesses", "verify_witness", "witnesses.replay"),
)

# Per-layer metrics: name -> unit.  The order is the order of the output.
LAYER_METRICS = {
    "report.digest_calls": "count",
    "report.digest_s": "s",
    "fo_checks.self_s": "s",
    "nl_checks.self_s": "s",
    "identities_enum.self_s": "s",
    "graph.search_calls": "count",
    "graph.search_s": "s",
    "identity_engine.models_calls": "count",
    "identity_engine.models_s": "s",
    "pspace_search.self_s": "s",
    "pspace_search.elements": "count",
    "oracle.enumerate_s": "s",
    "oracle.check_s": "s",
    "oracle.elements": "count",
    "witnesses.replays": "count",
    "witnesses.replay_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms": "ms",
    "traced.checks_per_s": "1/s",
}


class Tracer:
    """Spans and counts for one run, kept in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # [name index, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []    # (module, attribute, original)

    def _span(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import tsprops.cli  # noqa: F401  (load every module before patching)
        from tsprops import oracle, pspace_search

        def count_elements(table):
            self.counts["oracle.elements"] += len(table)

        wrappers = {}
        for module, func, name in SPANNED:
            original = getattr(sys.modules[f"tsprops.{module}"], func)
            hook = count_elements if original is oracle.enumerate_semigroup else None
            wrappers[original] = self._span(name, original, hook)
        wrappers[pspace_search.iter_elements] = self._counting(
            "pspace_search.elements", pspace_search.iter_elements)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tsprops" and not mod_name.startswith("tsprops."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts),
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, checks: int, cli: dict,
                  checks_per_s: float) -> dict:
    """Per-layer figures; counts and seconds are per 1000 completed checks,
    so that runs which completed different numbers of checks compare."""
    t = tracer.layer_totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return t.get(name, empty)

    values = {
        "report.digest_calls": get("report.digest")["calls"],
        "report.digest_s": get("report.digest")["total_s"],
        "fo_checks.self_s": get("fo_checks")["self_s"],
        "nl_checks.self_s": get("nl_checks")["self_s"],
        "identities_enum.self_s": get("identities_enum")["self_s"],
        "graph.search_calls": get("graph.search")["calls"],
        "graph.search_s": get("graph.search")["total_s"],
        "identity_engine.models_calls": get("identity_engine.models")["calls"],
        "identity_engine.models_s": get("identity_engine.models")["total_s"],
        "pspace_search.self_s": get("pspace_search")["self_s"],
        "pspace_search.elements": tracer.counts["pspace_search.elements"],
        "oracle.enumerate_s": get("oracle.enumerate")["total_s"],
        "oracle.check_s": get("oracle.check")["total_s"],
        "oracle.elements": tracer.counts["oracle.elements"],
        "witnesses.replays": get("witnesses.replay")["calls"],
        "witnesses.replay_s": get("witnesses.replay")["total_s"],
    }
    per_check = 1000 / max(checks, 1)
    values = {name: value * per_check for name, value in values.items()}
    values.update(cli)
    values["traced.checks_per_s"] = checks_per_s
    return {name: values[name] for name in LAYER_METRICS}


_IMPORT_CLI = ("import time; t = time.perf_counter(); import tsprops.cli; "
               "print(time.perf_counter() - t)")


def cli_layers(root: Path, env: dict, pairs: list, repeats: int = 3) -> dict:
    """Start-up costs of the CLI, each the median of ``repeats`` fresh children,
    and ``cli.main`` run in-process (untraced) on ``pairs`` of (file, property)."""

    def child(*argv):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        return time.perf_counter() - start, done

    interpreter = [child("-c", "pass")[0] for _ in range(repeats)]
    imports = [float(child("-c", _IMPORT_CLI)[1].stdout) for _ in range(repeats)]
    numpy_us = []
    for _ in range(repeats):
        err = child("-X", "importtime", "-c", "import tsprops.cli")[1].stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "numpy":
                numpy_us.append(int(parts[1]))
    from tsprops import cli
    mains = []
    for path, prop in pairs:
        argv = ["check", str(path), "--property", prop, "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(argv)
            mains.append(time.perf_counter() - start)
    return {
        "cli.interpreter_ms": 1000 * statistics.median(interpreter),
        "cli.import_ms": 1000 * statistics.median(imports),
        "cli.import_numpy_ms": statistics.median(numpy_us) / 1000 if numpy_us else 0.0,
        "cli.main_ms": 1000 * statistics.median(mains),
    }
