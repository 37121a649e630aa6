"""Benchmark for tsprops.

Run from the root of a checkout:

    python3 bench/run.py --workload seeded-sweep --seed 1 --seconds 20 --trace 0

Workloads: seeded-sweep, large-semigroups, wide-degree, cli-check (see
bench/README.md).  The run sets up (imports tsprops, builds the round-0
inputs, warms every checker), then runs whole rounds of checks until the
timed phase has lasted ``--seconds``, judging every verdict against answers
the benchmark computes on its own.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, taken with
wrappers around each layer, with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread for every numeric library, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2      # fresh processes that repeat the set-up, beside the run's own
WALL_LIMIT_S = 150    # no new round starts after this much wall time

import reference as ref  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "structural_p50_ms": "ms",
    "structural_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the program's set-up seconds")
    return p.parse_args(argv)


def set_up(args) -> tuple:
    """Import tsprops, build round 0, warm up: (program, workload, tasks, seconds)."""
    watch = workloads.Stopwatch()
    with watch:
        prog = workloads.Program()
    wl = workloads.make(args.workload, args.seed, ROOT, OUT)
    tasks = wl.round(0, prog, watch)
    wl.warm_up(prog, watch)
    return prog, wl, tasks, watch.total


def setup_probe(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=True, env=workloads.child_env(ROOT))
    return float(done.stdout.split()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_rounds(prog, wl, tasks, seconds: float, traced: bool) -> workloads.Stats:
    """Whole rounds until the timed phase reaches ``seconds``."""
    stats = workloads.Stats()
    started = time.monotonic()
    r = 0
    while True:
        for task in tasks:
            task.reference()
        # Start every round from a clean heap, so that collections of the
        # benchmark's own garbage do not land in the timed phase.
        gc.collect()
        for task in tasks:
            task.run(prog, stats)
            if traced and isinstance(task, workloads.CliTask):
                task.run_in_process()
        r += 1
        if stats.timed_s >= seconds or time.monotonic() - started > WALL_LIMIT_S:
            return stats
        tasks = wl.round(r, prog, workloads.Stopwatch())


def end_to_end(args, wl, stats, own_setup: float) -> dict:
    # On cli-check the only children so far are CLI checks (the warm-up one
    # included), so the children's peak is that of the largest of them.
    who = (resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCheck)
           else resource.RUSAGE_SELF)
    peak_kb = resource.getrusage(who).ru_maxrss
    setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    times_ms = [1000 * s for s in stats.structural_s]
    beyond = len(times_ms) * (100 - wl.tail_pct) // 100
    print(f"# structural_tail_ms is p{wl.tail_pct} of {len(times_ms)} "
          f"structural times ({beyond} beyond it)")
    print(f"# set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "setup_s": statistics.median(setups),
        "checks_per_s": (stats.attempted - stats.failed) / stats.timed_s,
        "structural_p50_ms": statistics.median(times_ms),
        "structural_tail_ms": percentile(times_ms, wl.tail_pct),
        "peak_rss_mb": peak_kb / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tsprops" / "__init__.py").is_file():
        print(f"error: no tsprops sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    ref.self_test()

    if args.setup_probe:
        print(set_up(args)[3])
        return 0

    prog, wl, tasks, own_setup = set_up(args)
    if args.trace:
        import tracing
        # The CLI start-up figures use the first CLI files of this seed.
        cli_tasks = (tasks if isinstance(wl, workloads.CliCheck) else
                     workloads.CliCheck(args.seed, ROOT, OUT).round(
                         0, prog, workloads.Stopwatch()))
        tracer = tracing.Tracer()
        tracer.install()
        stats = run_rounds(prog, wl, tasks, args.seconds, traced=True)
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}.json")
        cli = tracing.cli_layers(ROOT, workloads.child_env(ROOT),
                                 [(t.path, t.prop) for t in cli_tasks[:8]])
        done = stats.attempted - stats.failed
        values = tracing.layer_metrics(tracer, done, cli, done / stats.timed_s)
        units = tracing.LAYER_METRICS
    else:
        stats = run_rounds(prog, wl, tasks, args.seconds, traced=False)
        values = end_to_end(args, wl, stats, own_setup)
        units = END_TO_END_UNITS

    for note in stats.notes:
        print(f"# failed: {note}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {stats.attempted} checks in "
          f"{stats.timed_s:.2f} s timed, {stats.failed} failed")
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
