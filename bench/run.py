"""rirkit benchmark.

    python3 bench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Drives rirkit from outside, through its public entry points only, in one
single-threaded process per workload (see ``workloads.py`` for what each
workload runs and why).  The rirkit under test is the one in ``src/`` next
to this directory; nothing is installed.

``--trace 0`` times whole passes over the workload's fixed, seeded input
set and prints the end-to-end metrics; ``--trace 1`` runs a fixed prefix of
that set alternately without and with the tracer and prints the per-layer
metrics.  Either way the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON record of the environment, the
input properties, the error rate and failures, and the machine-speed
calibration.

These numbers replace the provisional single-run baseline table in
ROADMAP.md and its plan of one ``BENCH_<pr>.json`` file per change.
"""

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, so the
# numbers are about the program rather than the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Per workload:
#  - count: plants generated, the fixed input set every pass times whole
#    (paper's set is its one chain).  One pass at the seed commit takes
#    20-30 s on a 2-vCPU Xeon VM; a faster program makes more passes of the
#    same set, never a different set.
#  - min_passes: paper's p90 reads fhn-find from 3 passes up (see tail_pct).
#  - tail_pct: the op-latency tail percentile, the highest that stays
#    steady between seeds.  paper: a pass is 7 ops; sorted by time they are
#    analyze, pcr-max, synth, maglev, fhn-sim x2, fhn-find, so p50 reads
#    maglev and p90 the slowest command, fhn-find, for any pass count from
#    3 up.  (p60, the highest with ten ops beyond it in 4 passes, falls on
#    the lower edge of the fhn-sim block and spread 18% between seeds.)
#    Plant families: above p90 on plants-small and around p90 on
#    plants-large, a handful of rare costly ops decide the value, which
#    then moves 10-140% between seeds; p98 on plants-large lies inside the
#    ~10% of Aberth-miss plants and is steady.
#  - deadline: 10x or more the slowest op seen at the seed commit; an op
#    past it fails and its input is not run again in that run.
#  - traced_units: the fixed prefix the traced run uses, so that its work
#    counts repeat exactly for a given seed.
WORKLOADS = {
    "paper": {"min_passes": 3, "tail_pct": 90, "deadline": 30.0,
              "traced_units": 1},
    "plants-small": {"degrees": (2, 8), "count": 1400, "min_passes": 1,
                     "tail_pct": 90, "deadline": 5.0, "traced_units": 300},
    "plants-large": {"degrees": (9, 12), "count": 500, "min_passes": 1,
                     "tail_pct": 98, "deadline": 10.0, "traced_units": 100},
}
SETUP_REPEATS = 3

TRACED_MODULES = ["polycore", "transfer", "nyquist", "rir", "casestudies",
                  "cli"]
TRACED_METHODS = [("transfer.RationalTF", "poles"),
                  ("transfer.RationalTF", "zeros")]
COMMAND_KINDS = ["analyze", "synth", "maglev", "fhn-find", "pcr-max",
                 "fhn-sim"]

# name -> unit.  ``<traced name>.<stat>`` metrics come from the tracer.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms"}
PER_LAYER = {
    "polycore.poly_roots.calls": "count",
    "polycore.poly_roots.roots": "count",
    "polycore.poly_roots.self_s": "s",
    "polycore.poly_eval.calls": "count",
    "polycore.poly_eval.self_s": "s",
    "transfer.RationalTF.poles.calls": "count",
    "transfer.RationalTF.zeros.calls": "count",
    "transfer.evaluate.calls": "count",
    "transfer.evaluate.points": "count",
    "transfer.evaluate.self_s": "s",
    "transfer.linf_norm.calls": "count",
    "transfer.linf_norm.self_s": "s",
    "transfer.classify.self_s": "s",
    "transfer.pip_check.self_s": "s",
    "transfer.unstable_pole_count.self_s": "s",
    "nyquist.crossing_counts.calls": "count",
    "nyquist.crossing_counts.self_s": "s",
    "nyquist.marginal_verdict.self_s": "s",
    "nyquist.closed_loop_poles.calls": "count",
    "nyquist.closed_loop_poles.self_s": "s",
    "nyquist.warnings": "count",
    "rir.exact_rir_analyze.calls": "count",
    "rir.exact_rir_analyze.self_s": "s",
    "rir.synth_marginal_perturbation.self_s": "s",
    "rir.pcr_max_search.self_s": "s",
    "casestudies.fhn_search_eo.self_s": "s",
    "casestudies.fhn_linearize.calls": "count",
    "casestudies.fhn_simulate.self_s": "s",
    "casestudies.maglev_zoh.self_s": "s",
    "casestudies.maglev_upper_bound.self_s": "s",
    "cli.main.self_s": "s",
    **{f"cmd.{k}_ms": "ms" for k in COMMAND_KINDS},
    "trace.pass_s": "s",
    "trace.self_s": "s",
    "trace.overhead_s": "s",
}
STAT_INDEX = {"calls": 0, "self_s": 2, "roots": 3, "points": 3}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up, timed by the parent
    return ap.parse_args(argv)


def load_rirkit() -> None:
    if not (SRC / "rirkit" / "__init__.py").is_file():
        sys.exit(f"error: no rirkit sources at {SRC}")
    sys.path.insert(0, str(SRC))


def build(name: str, seed: int, tick):
    import workloads
    cfg = WORKLOADS[name]
    if name == "paper":
        return workloads.PaperChain(seed, cfg["deadline"], tick)
    return workloads.PlantFamily(seed, cfg["degrees"], cfg["count"],
                                 cfg["deadline"], tick)


def measure_setup(args, tick) -> float:
    """Median wall time of fresh processes that import rirkit, build the
    inputs and run one warm-up op."""
    times = []
    for _ in range(SETUP_REPEATS):
        tick()
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-probe"], check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- running ------------------------------------------------------------------
#
# A pass is one run over a workload's fixed input set, as a dict from each
# input it ran to that input's ops.  Times are raw; they are scaled to
# nominal machine speed by one factor per run (``Calibrator.factor``).

def pass_ops(p: dict) -> list:
    return [op for ops in p.values() for op in ops]


def pass_seconds(p: dict, units) -> float:
    return sum(op.seconds for u in units for op in p[u])


def _key(ops) -> list:
    return [(op.kind, op.outcome, op.warnings, op.failure is None)
            for op in ops]


def mismatched(a: dict, b: dict) -> list:
    """Inputs run in both passes whose outcomes differ."""
    return [u for u in a if u in b and _key(a[u]) != _key(b[u])]


def run_pass(wl, units, skip=frozenset()) -> dict:
    return {u: wl.run_unit(u) for u in units if u not in skip}


def timed_passes(wl, seconds: float, min_passes: int) -> list[dict]:
    """Whole passes over the workload's fixed input set: at least
    ``min_passes``, then more while another pass of average length still
    ends within ``seconds``.  An input that missed its deadline is not run
    again."""
    passes: list[dict] = []
    dead: set = set()
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        if len(passes) >= min_passes and \
                elapsed + elapsed / len(passes) > seconds:
            return passes
        passes.append(run_pass(wl, wl.units(), dead))
        dead |= {u for u, ops in passes[-1].items()
                 if any(op.outcome == ("deadline",) for op in ops)}


def judge(wl, passes: list[dict]) -> dict:
    """Oracle checks, outside every timed region.  Every pass starts with
    the whole input set, so the first pass holds each input's outcome."""
    bad_ops = {u: wl.check(u, ops) for u, ops in passes[0].items()}
    attempted = failed = 0
    failures = []
    wrong = []
    for p in passes:
        for unit, ops in p.items():
            for op, reason in zip(ops, bad_ops[unit]):
                attempted += 1
                if op.failure or reason:
                    failed += 1
                    if len(failures) < 20:
                        failures.append({"unit": unit, "op": op.kind,
                                         "why": op.failure or reason})
                if reason:
                    wrong.append(unit)
    nondet = [u for p in passes[1:] for u in mismatched(passes[0], p)]
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "wrong_units": sorted(set(map(str, wrong))),
            "nondeterministic_units": sorted(set(map(str, nondet))),
            "correct": not wrong and not nondet}


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct))


def good_units(passes: list[dict]) -> list:
    """Inputs that ran the same ops in every pass and never failed."""
    return [u for u in passes[0]
            if all(u in p and len(p[u]) == len(passes[0][u])
                   and all(op.failure is None for op in p[u])
                   for p in passes)]


def op_times(passes: list[dict], units) -> list[float]:
    return [op.seconds for p in passes for u in units for op in p[u]]


def end_to_end(args, passes: list[dict], speed: float) -> dict:
    """``wall_s`` is the time of one pass with each op at its median over
    the passes, so that a burst of host load during one op does not move
    it; op statistics pool the ops of all passes.  Only inputs that never
    failed count, so every pass times the same work.  ``speed`` scales to
    nominal speed."""
    units = good_units(passes)
    ops = op_times(passes, units)
    tail = WORKLOADS[args.workload]["tail_pct"]
    return {
        "wall_s": speed * sum(
            statistics.median(p[u][i].seconds for p in passes)
            for u in units for i in range(len(passes[0][u]))),
        "op_p50_ms": speed * 1e3 * percentile(ops, 50),
        "op_tail_ms": speed * 1e3 * percentile(ops, tail),
    }


def per_layer(args, wl, seconds: float, cal):
    """Alternate untraced and traced passes over a fixed prefix of the
    workload, so that counts repeat exactly for a given seed.  Times are
    per pass, at nominal machine speed."""
    from tracer import Tracer
    tracer = Tracer(TRACED_MODULES, TRACED_METHODS, {
        "polycore.poly_roots": lambda p, *a, **k: p.degree,
        "transfer.evaluate": lambda g, z, *a, **k: int(np.size(z)),
    })
    prefix = wl.units()[:WORKLOADS[args.workload]["traced_units"]]
    plain, traced, snaps = [], [], []
    differs = []
    t0 = perf_counter()
    while not plain or perf_counter() - t0 < seconds:
        plain.append(run_pass(wl, prefix))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(wl, prefix))
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        differs += mismatched(plain[-1], traced[-1])

    factor = cal.factor()
    metrics = {}
    for name, unit in PER_LAYER.items():
        head, _, stat = name.rpartition(".")
        if head not in tracer.stats:
            continue
        vals = [snap[head][STAT_INDEX[stat]] for snap in snaps]
        if unit == "count":
            if len(set(vals)) > 1:
                differs.append(f"{name} differs between traced passes")
            metrics[name] = statistics.fmean(vals)
        else:
            metrics[name] = factor * statistics.fmean(vals)
    metrics["nyquist.warnings"] = statistics.fmean(
        sum(op.warnings for op in pass_ops(p)) for p in traced)
    for kind in COMMAND_KINDS:
        times = [op.seconds for p in plain for op in pass_ops(p)
                 if op.kind == kind and op.failure is None]
        metrics[f"cmd.{kind}_ms"] = factor * 1e3 * statistics.median(times) \
            if times else 0.0
    plain_s = factor * statistics.median(pass_seconds(p, p) for p in plain)
    traced_s = factor * statistics.median(pass_seconds(p, p) for p in traced)
    metrics["trace.pass_s"] = plain_s
    metrics["trace.self_s"] = factor * statistics.fmean(
        sum(v[2] for v in snap.values()) for snap in snaps)
    metrics["trace.overhead_s"] = traced_s - plain_s
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    functions = {name: {"calls": st[0], "total_s": st[1] * factor,
                        "self_s": st[2] * factor, "work": st[3]}
                 for name, st in snaps[0].items() if st[0]}
    return metrics, plain + traced, differs, len(snaps), functions


# -- records ------------------------------------------------------------------

def environment() -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    load_rirkit()
    from calibrate import Calibrator
    cal = Calibrator()
    wl = build(args.workload, args.seed, cal.tick)
    wl.warm_up()
    if args.setup_probe:
        return 0
    phases = {"setup": perf_counter() - t0}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "phase_s": phases}

    def phase(name, fn, *a):
        t = perf_counter()
        out = fn(*a)
        phases[name] = perf_counter() - t
        return out

    if args.trace:
        metrics, passes, differs, n_traced, functions = phase(
            "measure", per_layer, args, wl, args.seconds, cal)
        record["traced_passes"] = n_traced
        record["traced_functions"] = functions  # first traced pass
        record["traced_vs_untraced_mismatches"] = differs[:20]
        verdict = phase("oracles", judge, wl, passes)
        verdict["correct"] = verdict["correct"] and not differs
        metric_units = PER_LAYER
    else:
        passes = phase("measure", timed_passes, wl, args.seconds,
                       WORKLOADS[args.workload]["min_passes"])
        setup = phase("setup_probes", measure_setup, args, cal.tick)
        speed = cal.factor()
        metrics = end_to_end(args, passes, speed)
        metrics["setup_s"] = speed * setup
        verdict = phase("oracles", judge, wl, passes)
        metric_units = END_TO_END
        units = good_units(passes)
        record["pass_s"] = [speed * pass_seconds(p, units) for p in passes]
        good = op_times(passes, units)
        record["ops_timed"] = len(good)
        record["op_percentiles_ms"] = {
            str(q): speed * 1e3 * percentile(good, q)
            for q in (50, 60, 80, 90, 95, 98, 99)}
        record["skipped_after_deadline"] = sorted(
            map(str, set(passes[0]) - set(passes[-1])))
    record["speed_factor"] = cal.factor()
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    record["calibration_samples"] = len(cal.samples)
    record["inputs"] = wl.properties(passes[0], cal.factor())
    record["error_rate"] = verdict["failed"] / max(verdict["attempted"], 1)
    record.update({k: verdict[k] for k in
                   ("failures", "wrong_units", "nondeterministic_units")})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(verdict["correct"]),
        "attempted": int(verdict["attempted"]),
        "failed": int(verdict["failed"]),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in metric_units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
