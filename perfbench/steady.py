"""Steadiness tool: run one workload N times and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload submit-cold --runs 10

Runs ``perfbench/run.py`` with seeds ``seed0 .. seed0+N-1`` and the
``run_seconds`` of ``BENCHMARK.json``, then prints, for every metric,
the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread — the
interquartile distance as a share of the median — against the
metric's bound.  Exit code 1 when a run fails or is incorrect, or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    bad = 0
    for k in range(args.runs):
        seed = args.seed0 + k
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            bad += 1
            continue
        ok = result["correct"] and result["failed"] == 0
        bad += not ok
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={m['value']:.4g}"
                         for n, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if len(values.get("setup_s", ())) < 2:
        print("not enough successful runs to compute a spread")
        return 1
    print(f"\n{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        bound = bounds[name]
        flag = ""
        if sp > bound:
            flag = "  OVER"
            bad += 1
        elif sp > bound / 3:
            flag = "  (over a third of the bound)"
        print(f"{name:<34}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{100 * sp:>8.2f}%{100 * bound:>7.0f}%{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
