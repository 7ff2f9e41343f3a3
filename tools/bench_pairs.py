"""Interleaved parent/change pairs of the benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --workload paper \
        --pairs 10 --seconds 30 --seed 60 --out pairs.json

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``bench/run.py --trace 0`` of each checkout (so each on its own ``src/``,
in a new process) on seed SEED + i, the parent first in even pairs and the
change first in odd ones, so that a drift in machine speed falls on both
sides alike.  With several workloads, each pair runs them in turn.

Prints one JSON line per workload and end-to-end metric: the parent and
change medians, the change in percent, the parent's interquartile range
over its median, how many pairs the change won (by the metric's ``better``
direction in CHANGE's ``BENCHMARK.json``), and each pair's two values in
seed order.  A last line per workload gives both sides' failed and
attempted op counts and their first failures (from each run's ``record``
line: unit, op and why).  Progress goes to stderr, with each failure as it
is seen.  With ``--out PATH``, the same summary is also written to PATH as
one JSON file: the machine (each distinct ``environment`` of the runs'
``record`` lines), the settings and seeds, and per workload the metric
records and the failed and attempted ops.  Exits 1 when the change fails
more ops than the parent on any workload.  Nothing under ``bench/`` is
imported or written by this script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


FIRST_FAILURES = 5  # failures kept per side and workload


def run_bench(checkout: Path, workload: str, seed: int,
              seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run, parsed, with the
    failures and environment of the ``record`` line before it under
    ``failures`` and ``environment``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n"
                         f"{out.stderr}")
    *_, record, result = out.stdout.strip().splitlines()
    result, record = json.loads(result), json.loads(record)["record"]
    result["failures"] = record["failures"]
    result["environment"] = record["environment"]
    return result


def summarize(workload: str, runs: list, better: dict) -> list[dict]:
    """One record per metric from the (parent, change) result pairs."""
    lines = []
    for name in runs[0][0]["metrics"]:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        lower = better.get(name, "lower") == "lower"
        lines.append({
            "workload": workload,
            "metric": name,
            "unit": runs[0][0]["metrics"][name]["unit"],
            "parent_median": p_med,
            "change_median": c_med,
            "delta_pct": 100.0 * (c_med / p_med - 1.0),
            "parent_iqr_over_median": (q3 - q1) / p_med,
            "pairs_won": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": [list(pc) for pc in pairs],
        })
    sides = list(zip(*runs))  # (parent runs, change runs)
    lines.append({
        "workload": workload,
        "failed": [sum(r["failed"] for r in side) for side in sides],
        "attempted": [sum(r["attempted"] for r in side) for side in sides],
        "first_failures": [[f for r in side for f in r["failures"]]
                           [:FIRST_FAILURES] for side in sides],
    })
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path,
                    help="also write the summary to this JSON file")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: [] for w in args.workload}
    for i in range(args.pairs):
        seed = args.seed + i
        for w in args.workload:
            sides = {}
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            for side in order:
                sides[side] = run_bench(getattr(args, side), w, seed,
                                        args.seconds)
                print(f"pair {i} seed {seed} {w} {side}: "
                      + json.dumps({k: round(v["value"], 6) for k, v in
                                    sides[side]["metrics"].items()}),
                      file=sys.stderr, flush=True)
                for f in sides[side]["failures"][:FIRST_FAILURES]:
                    print(f"  {side} failed: {json.dumps(f)}",
                          file=sys.stderr, flush=True)
            runs[w].append((sides["parent"], sides["change"]))
    worse, summary = [], {}
    for w in args.workload:
        lines = summarize(w, runs[w], better)
        summary[w] = {"metrics": lines[:-1], "ops": lines[-1]}
        for line in lines:
            print(json.dumps(line))
        parent_failed, change_failed = lines[-1]["failed"]
        if change_failed > parent_failed:
            worse.append(f"{w}: {change_failed} failed ops against the "
                         f"parent's {parent_failed}")
    for why in worse:
        print(f"change fails more ops on {why}", file=sys.stderr)
    if args.out is not None:
        envs = [r["environment"] for w in runs.values() for pair in w
                for r in pair]
        args.out.write_text(json.dumps({
            "environments": [e for i, e in enumerate(envs)
                             if e not in envs[:i]],
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "order": "parent first in even pairs, change first in odd ones",
            "workloads": summary,
        }, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
