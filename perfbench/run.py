"""The benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload submit-cold --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then again with timing
wrappers on every layer, and reports the per-layer metrics plus the
self-time table (see ``perfbench/NOTES.md``).  The last line of
standard output is always the JSON result; every line above it is a
human-readable report.  Exit code 0 means the run completed; the
``correct`` field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: end-to-end metrics: (name, unit); the meaning of the latency and
#: rate on each workload is in :data:`OPERATION`.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
)

#: per workload: the timed operation, and the route-specific names
#: the generic latency / rate metrics stand for.
OPERATION = {
    "submit-cold": ("POST /v1/dags (fresh dag)", "submit"),
    "simulate-hot": ("POST /v1/simulate (by fingerprint)", "simulate"),
    "restart-replay": ("POST /v1/dags (journaled dag)", "submit"),
    "library-sweep": ("api.verify / api.compare call; rate in dags",
                      "sweep"),
}

#: the percentile reported as the tail, and the samples it needs
#: beyond it.
TAIL_Q = 0.99
TAIL_BEYOND = 10
#: samples per timed route: untraced runs report the p99 and so need
#: ten beyond it; a traced run's two legs report only medians and
#: per-layer means, which half as many samples settle.
MIN_SAMPLES = 1000
TRACE_SAMPLES = 500


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def end_to_end(out) -> tuple[dict, list[str]]:
    lat = sorted(1e3 * x for x in out.latencies)
    problems = []
    if beyond(len(lat), TAIL_Q) < TAIL_BEYOND:
        problems.append(f"p99 from {len(lat)} samples has fewer than "
                        f"{TAIL_BEYOND} beyond it")
    values = {
        "setup_s": statistics.median(out.setup),
        "p50_ms": percentile(lat, 0.5),
        "p99_ms": percentile(lat, TAIL_Q),
        "ops_per_s": out.ops / out.wall,
        "rss_peak_mb": out.rss_mb,
    }
    return values, problems


def report(workload: str, out, values: dict) -> None:
    op, alias = OPERATION[workload]
    print(f"workload {workload}: timed operation {op}")
    print(f"  samples {len(out.latencies)}, attempted {out.attempted}, "
          f"failed {out.failed}, window {out.wall:.2f} s, "
          f"set-up samples {len(out.setup)}")
    names = {"p50_ms": f"{alias}_p50_ms", "p99_ms": f"{alias}_p99_ms",
             "ops_per_s": ("sweep_dags_per_s" if alias == "sweep"
                           else f"{alias}_per_s")}
    for name, unit in END_TO_END:
        also = f"  ({names[name]})" if name in names else ""
        print(f"  {name:<14}{values[name]:>14.4f} {unit}{also}")
    print(f"  error_rate    {out.failed / max(1, out.attempted):>14.6f} "
          f"ratio")
    for key, val in out.info.items():
        print(f"  info {key}: {val}")
    print("  telemetry (window deltas of exported counters):")
    for key, val in out.telemetry.items():
        print(f"    {key} = {val:g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    # the build step: byte-compile the checkout's sources, so every
    # timed boot loads cached bytecode, whatever ran in the checkout
    # before (with PYTHONDONTWRITEBYTECODE set nothing else writes it)
    import compileall

    if not compileall.compile_dir(str(ROOT / "src"), quiet=2):
        print("perfbench: src/ does not byte-compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    try:
        for sub in ("untraced", "traced"):
            (workdir / sub).mkdir()
        samples = TRACE_SAMPLES if args.trace else MIN_SAMPLES
        out = run(args.seed, args.seconds, samples, False,
                  workdir / "untraced")
        values, problems = end_to_end(out)
        if args.trace:
            problems = []  # the traced report carries no p99
        report(args.workload, out, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        if args.trace:
            traced = run(args.seed, args.seconds, samples, True,
                         workdir / "traced")
            traced_values, _ = end_to_end(traced)
            layer_values, layer_problems, table = layers.compute(
                args.workload, traced, values["p50_ms"],
                traced_values["p50_ms"])
            problems += layer_problems + traced.problems
            print(f"traced run: p50 {traced_values['p50_ms']:.4f} ms, "
                  f"self-time table over {traced.attempted} operations:")
            for line in layers.render_table(table, traced.attempted):
                print("  " + line)
            metrics = {name: {"value": layer_values[name], "unit": unit}
                       for name, unit in layers.PER_LAYER}
            out.attempted += traced.attempted
            out.failed += traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += out.problems
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
