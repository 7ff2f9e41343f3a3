"""In-process A/B timing of rirkit's kernels between two checkouts.

    python3 tools/ab_inprocess.py PARENT CHANGE --reps 15

PARENT and CHANGE are two checkouts of the repository.  Each one's
``src/rirkit`` is copied into a temporary directory under a package name of
its own and imported, so both run in this one process on the same inputs.
This times private kernels, which the benchmark's tracer cannot see (it
rebinds public functions only), without a process start in each number.

The inputs are the seed-0 ``plants-small`` and ``plants-large`` families
(``bench/plants.py``, at ``bench/run.py``'s degrees), the first ``--count``
plants of each, built once per copy with their poles and zeros solved
before any timing.  Three passes over each family are timed:

* ``linf_norm`` of each plant;
* ``crossing_counts`` of each plant as a loop, at epsilon = 0;
* ``analyze+synth``: ``exact_rir_analyze`` of a fresh ``RationalTF`` on the
  same (root-cached) polynomials, then ``synth_marginal_perturbation`` when
  the verdict is ``exact_sufficient``, as the plant workloads do.

The ``paper-plants`` family is the four low-degree plants of the paper's
CLI chain: the printed plant, the maglev plant g_d and its compensated
loop (``maglev_upper_bound`` at the CLI's default eps 0.01), and g_eo of
the default FHN model.  Its one pass, ``solve+analyze+synth``, rebuilds
each plant from its coefficients, as ``analyze`` and ``synth`` read them,
so its roots are solved in the pass, then runs ``analyze+synth`` on it.

Two FHN families get one pass, ``fhn_search_eo`` of each model, which
``fhn-find`` runs: ``fhn-default`` is the default ``FHNModel`` and
``fhn-seeded`` 25 models drawn from ``default_rng(7)`` as the search's
tests draw them.  One more pass of each FHN family, untimed, counts each
copy's peak-gain evaluations (its ``casestudies.linf_norm`` calls), so a
search change is quoted with its count beside its time.

A typed rirkit error counts as the call's outcome.  The copy loaded second
pays a few microseconds a call, so the copies are loaded twice, in both
orders: even reps run the pair loaded parent first, parent first, and odd
reps the pair loaded change first, change first.  The garbage collector is
off while a run is timed, as ``timeit`` has it.  Warm-up times each pass
once on every copy and sizes its runs from the fastest: a pass under 10 ms
is run a fixed number of times back to back, and a longer one is split
into slices of its inputs that take about 10 ms each, the same on both
sides.  Within a rep the two sides alternate run by run, so a drift of the
machine's speed moves both alike, and each rep gives one change/parent
ratio of the summed times.  Prints one line per family and pass: the
passes in a run and the slices, both sides' median pass time, the median
of the reps' change/parent ratios as a change in percent and their
interquartile range in percent, and for the FHN families both sides'
peak-gain evaluations in a pass and their median pass time over that
count, in microseconds an evaluation, so that a change in the cost of one
evaluation shows apart from a change in the count.
Nothing under ``bench/`` is written.
"""

import argparse
import gc
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing bench/ must leave no cache there
sys.path.insert(0, str(ROOT / "bench"))

from plants import plant_family  # noqa: E402
from run import WORKLOADS  # noqa: E402

PASSES = {"plants-small": ("linf_norm", "crossing_counts", "analyze+synth"),
          "plants-large": ("linf_norm", "crossing_counts", "analyze+synth"),
          "paper-plants": ("solve+analyze+synth",),
          "fhn-default": ("fhn_search_eo",),
          "fhn-seeded": ("fhn_search_eo",)}
FAMILIES = tuple(PASSES)
SIDES = ("parent", "change")
RUN_S = 0.01  # shortest timed run of back-to-back passes


def load(checkout: Path, name: str, tmp: Path):
    """The checkout's ``rirkit`` imported as package ``name``."""
    shutil.copytree(checkout / "src" / "rirkit", tmp / name)
    for module in ("transfer", "nyquist", "rir", "casestudies", "errors"):
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def build(pkg, plants: list[dict]) -> list:
    """The plants as ``pkg``'s transfer functions, with their roots solved."""
    out = []
    for p in plants:
        g = pkg.transfer.RationalTF(p["num"], p["den"])
        g.poles(), g.zeros()
        out.append(g)
    return out


def paper_plants(pkg) -> list:
    """The paper chain's four low-degree plants, as ``pkg``'s."""
    cs, transfer = pkg.casestudies, pkg.transfer
    bound = cs.maglev_upper_bound(cs.MaglevParams(), 0.01)
    return [transfer.RationalTF([1.5679e-5, -2.5685e-5],
                                [1.0, -2.000985, 1.000994]),
            bound.g_d, bound.g_d * bound.compensator,
            cs.fhn_search_eo(cs.FHNModel()).g_eo]


def fhn_models(pkg, family: str) -> list:
    """The family's FHN models, as ``pkg``'s."""
    if family == "fhn-default":
        return [pkg.casestudies.FHNModel()]
    rng = np.random.default_rng(7)
    return [pkg.casestudies.FHNModel(
        c=rng.uniform(0.6, 1.5), alpha=rng.uniform(0.5, 0.9),
        beta=rng.uniform(0.6, 1.0), tau=rng.uniform(0.005, 0.02),
        d=rng.uniform(5.0, 15.0), current=rng.uniform(0.2, 0.6))
        for _ in range(25)]


def passes(pkg) -> dict:
    """Pass name -> function of one plant or model, for ``pkg``."""
    nyquist, rir, transfer = pkg.nyquist, pkg.rir, pkg.transfer
    spec = nyquist.ContourSpec(epsilon=0.0)

    def analyze_synth(g):
        h = transfer.RationalTF(g.num, g.den)
        if rir.exact_rir_analyze(h).status == rir.EXACT_SUFFICIENT:
            rir.synth_marginal_perturbation(h)

    def solve_analyze_synth(g):
        analyze_synth(transfer.RationalTF(g.num.coeffs, g.den.coeffs))

    return {"linf_norm": transfer.linf_norm,
            "crossing_counts": lambda g: nyquist.crossing_counts(g, spec),
            "analyze+synth": analyze_synth,
            "solve+analyze+synth": solve_analyze_synth,
            "fhn_search_eo": pkg.casestudies.fhn_search_eo}


def timed(fn, plants: list, error, loops: int) -> float:
    """Seconds for ``loops`` back-to-back passes of fn over the plants, with
    the garbage collector off, as ``timeit`` times."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(loops):
            for g in plants:
                try:
                    fn(g)
                except error:
                    pass
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_gain_evals(pkg, models: list) -> int:
    """``pkg.casestudies.linf_norm`` calls in one ``fhn_search_eo`` pass."""
    cs, calls = pkg.casestudies, []
    real = cs.linf_norm

    def counting(g):
        calls.append(g)
        return real(g)

    cs.linf_norm = counting
    try:
        timed(cs.fhn_search_eo, models, pkg.errors.RirkitError, 1)
    finally:
        cs.linf_norm = real
    return len(calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--count", type=int, default=700)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        # pairs[order][side]: order 0 loads the parent first, 1 the change
        pairs = [{}, {}]
        for order, sides in enumerate((SIDES, SIDES[::-1])):
            for side in sides:
                pairs[order][side] = load(getattr(args, side),
                                          f"ab_{side}_{order}", Path(tmp))
        inputs, fastest = {}, {}
        for family in FAMILIES:
            plants = (plant_family(0, args.count, WORKLOADS[family]["degrees"])
                      if family in WORKLOADS else None)
            for order, pair in enumerate(pairs):
                for side, pkg in pair.items():
                    if plants is not None:
                        xs = build(pkg, plants)
                    elif family == "paper-plants":
                        xs = paper_plants(pkg)
                    else:
                        xs = fhn_models(pkg, family)
                    for name in PASSES[family]:  # warm-up, then one timing
                        fn = passes(pkg)[name]
                        timed(fn, xs, pkg.errors.RirkitError, 1)
                        t = timed(fn, xs, pkg.errors.RirkitError, 1)
                        fastest[family, name] = min(
                            t, fastest.get((family, name), math.inf))
                    inputs[family, order, side] = xs
        # a short pass runs `loops` times back to back, a long one in
        # `parts` slices of its inputs, each run about RUN_S
        loops = {key: max(1, math.ceil(RUN_S / t))
                 for key, t in fastest.items()}
        parts = {key: max(1, int(t / RUN_S)) for key, t in fastest.items()}

        times = {(f, p, s): []
                 for f in FAMILIES for p in PASSES[f] for s in SIDES}
        for rep in range(args.reps):
            order = rep % 2
            sides = SIDES if order == 0 else SIDES[::-1]
            for family in FAMILIES:
                for name in PASSES[family]:
                    k, n = loops[family, name], parts[family, name]
                    spent = dict.fromkeys(SIDES, 0.0)
                    for i in range(n):  # the sides alternate slice by slice
                        for side in sides:
                            pkg, xs = (pairs[order][side],
                                       inputs[family, order, side])
                            spent[side] += timed(
                                passes(pkg)[name],
                                xs[i * len(xs) // n:(i + 1) * len(xs) // n],
                                pkg.errors.RirkitError, k)
                    for side in SIDES:
                        times[family, name, side].append(spent[side] / k)
            print(f"rep {rep + 1}/{args.reps}", file=sys.stderr, flush=True)
        evals = {(f, s): peak_gain_evals(pairs[0][s], inputs[f, 0, s])
                 for f in FAMILIES if f.startswith("fhn") for s in SIDES}

    print(f"{'family':<14}{'pass':<21}{'loops':>6}{'slices':>7}"
          f"{'parent ms':>10}{'change ms':>10}{'change':>9}{'ratio IQR':>11}"
          f"{'parent n':>10}{'change n':>10}{'parent us/n':>13}"
          f"{'change us/n':>13}")
    for family in FAMILIES:
        for name in PASSES[family]:
            parent = times[family, name, "parent"]
            change = times[family, name, "change"]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            ratios = [c / p for c, p in zip(change, parent)]
            q1, r_med, q3 = statistics.quantiles(ratios, n=4,
                                                 method="inclusive")
            counts = "".join(f"{evals.get((family, s), ''):>10}"
                             for s in SIDES)
            if family.startswith("fhn"):
                counts += "".join(
                    f"{1e6 * med / evals[family, s]:>13.1f}"
                    for s, med in zip(SIDES, (p_med, c_med)))
            print(f"{family:<14}{name:<21}{loops[family, name]:>6}"
                  f"{parts[family, name]:>7}"
                  f"{1e3 * p_med:>10.2f}{1e3 * c_med:>10.2f}"
                  f"{100.0 * (r_med - 1.0):>+8.1f}%"
                  f"{100.0 * (q3 - q1):>10.1f}%{counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
