"""Rerun a workload on several seeds and judge the spread of each metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload paper_reads --runs 10
    python3 perfbench/steady.py --workload http_mixed --runs 10 --sets 2
    python3 perfbench/steady.py --workload http_mixed --tiny

For every end-to-end metric in ``BENCHMARK.json`` it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread, ``(q3 - q1) / median``, against the metric's bound.
It exits non-zero when any spread but ``setup_s``'s exceeds its bound,
when a run is incorrect or fails, or when the share of failed
operations differs between runs.  With ``--sets 2`` it runs a second
set on the next seeds and also exits non-zero when any metric's median,
``setup_s``'s included, is worse in the second set than in the first by
more than the metric's bound.  ``--tiny`` runs the harness on tiny
inputs for a second each, to test itself in seconds; the spreads of
such runs are not expected to hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    if tiny:
        command += ["--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit("seed %d exited %d:\n%s" % (seed, done.returncode,
                                                     done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def run_set(args, seconds, first_seed):
    results = []
    for seed in range(first_seed, first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.tiny)
        results.append(result)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (name, entry["value"])
            for name, entry in result["metrics"].items())), flush=True)
    return results


def judge(bench, results, earlier=None):
    """Print one set's table; whether it holds (and, given the medians
    of an earlier set, whether no median drifted beyond its bound),
    and its medians."""
    ok = True
    print("%-16s %12s %12s %12s %8s %6s %8s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "drift"))
    medians = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) < 2:
            continue
        q1, median, q3, width = spread(values)
        medians[name] = median
        verdict = "ok" if width <= bound else "OVER"
        if name == "setup_s":
            verdict = "(not judged)"
        else:
            ok = ok and width <= bound
        drift = ""
        if earlier is not None:
            change = median / earlier[name] - 1.0
            worse = -change if metric["better"] == "higher" else change
            drift = "%+8.4f" % change
            if worse > bound:
                ok = False
                drift += " DRIFT"
        print("%-16s %12.5g %12.5g %12.5g %8.4f %6.2f %s %s" % (
            name, q1, median, q3, width, bound, drift, verdict))
    return ok, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.runs = args.runs or (3 if args.tiny else 10)
    seconds = args.seconds or (1.0 if args.tiny else bench["run_seconds"])
    ok = True
    everything = []
    medians = None
    for number in range(args.sets):
        first = args.first_seed + number * args.runs
        results = run_set(args, seconds, first)
        everything += results
        incorrect = sum(not r["correct"] for r in results)
        print("\nset %d: %d runs of %s, %gs each, seeds %d-%d; "
              "incorrect: %d" % (number + 1, args.runs, args.workload,
                                 seconds, first, first + args.runs - 1,
                                 incorrect))
        held, medians = judge(bench, results, medians)
        ok = ok and held and not incorrect
    shares = {Fraction(r["failed"], r["attempted"]) for r in everything}
    print("failed share(s): %s" % ", ".join(str(s) for s in sorted(shares)))
    if len(shares) > 1 or any(r["failed"] for r in everything):
        ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
