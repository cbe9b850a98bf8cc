"""Steadiness check: run one workload N times and compare the spread
of every end-to-end metric with its bound in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload steady --runs 10

Each run gets its own ``--seed`` (``--first-seed``, then upwards) and
runs in a fresh process for ``run_seconds``, exactly as
``BENCHMARK.json``'s command is run: the bounds hold for runs of that
length only. For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median, next to the
metric's bound. Every run's failed share is printed too; it must be
the same in all of them. Exits 1 if any run failed to produce a
result, reported ``correct: false``, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in config["workloads"]]
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = one_run(
            config["command"], args.workload, seed, config["run_seconds"]
        )
        shares = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} (share {shares:.6f})",
            flush=True,
        )
        results.append(result)

    ok = all(result["correct"] for result in results)
    shares = {result["failed"] / result["attempted"] for result in results}
    if len(shares) > 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    print(
        f"\n{'metric':20s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'spread':>8s} {'bound':>6s} {'bound/3':>8s}"
    )
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3, share = spread(values)
        held = share is not None and share <= bound
        verdict = "ok" if share is not None and share <= bound / 3 else (
            "within" if held else "OVER"
        )
        if not held:
            ok = False
        print(
            f"{name:20s} {metric['unit']:5s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
            f"{(share or 0.0):8.4f} {bound:6.3f} {bound / 3:8.4f}  {verdict}"
        )
        print("    runs: " + " ".join(f"{value:.4g}" for value in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
