"""The benchmark's workloads, their ops and their oracles.

A workload is a list of *units*; a unit is the piece of work a user runs at
once and is made of one or more timed *ops*, each a call into a public
rirkit entry point:

* ``paper``: one unit is the paper's whole command chain, each CLI command
  one op.  Poles within ~1e-3 of the unit circle push the frequency grids to
  2^17-2^22 points, so grid work (``linf_norm``, ``crossing_counts``,
  ``evaluate``) and the ``fhn_simulate`` step loop carry most of the time
  and ``poly_roots`` little.  Grid-free peaks and a faster step loop show
  here.
* ``plants-small``: one unit is one seeded plant of degree 2-8, taken
  through ``exact_rir_analyze`` and, when the verdict is
  ``exact_sufficient``, ``synth_marginal_perturbation``.  Poles stay 0.1 from
  the circle, so grids stay at their 4096-point base and the time goes to
  many cheap, converging root solves, most of them repeats of the same
  factorization.  This is the factor-once / per-call-overhead workload;
  grid and simulation work is nearly nil, so a grid-only change should
  leave it unchanged.
* ``plants-large``: the same generator at degree 9-12.  On ~10% of these
  plants Aberth iteration misses its tolerance (all 500 iterations, 3-6
  times a plant), against many plants whose solves converge; ``poly_roots``
  is ~95% of the time.  A root-finder change that helps one kind of solve
  and costs the other shows here.  (At degree 12-24 the deflation fallback
  also fires, but per-plant times then spread from 5 ms to 3 s and no
  statistic of the ~100 plants a run affords holds still between seeds;
  see README.md.)

Every entry point is looked up on its module at call time, so the tracer's
rebinding is seen.  Oracles use numpy alone and run outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import warnings
from time import perf_counter
from typing import NamedTuple

import numpy as np

import rirkit
import rirkit.cli
from plants import plant_family

PRINTED_PLANT = {"num": [1.5679e-5, -2.5685e-5],
                 "den": [1.0, -2.000985, 1.000994]}
PAPER_EO = -0.1192

# Typed outcomes a caller is told to expect: not failures.
PRECONDITION = (rirkit.PreconditionError, rirkit.NotInGClassError)


class Op(NamedTuple):
    kind: str
    seconds: float
    outcome: tuple      # compared bit for bit across repeats and tracing
    warnings: int       # nyquist diagnostics emitted during the op
    failure: str | None


class DeadlineExceeded(BaseException):
    """Raised in an op that runs past its deadline.

    A BaseException, so that no ``except`` in the program swallows it.
    """


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _nyquist_warnings(caught) -> int:
    return sum(1 for w in caught if w.filename.endswith("nyquist.py"))


def timed(kind: str, fn, limit: float) -> tuple[Op, object]:
    """Run ``fn`` as one op; classify how it ended."""
    value = None
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            with deadline(limit):
                value = fn()
            outcome = ("ok",)
        except DeadlineExceeded:
            outcome, failure = ("deadline",), f"no result within {limit} s"
        except PRECONDITION as exc:
            outcome = ("precondition", type(exc).__name__)
        except Exception as exc:  # untyped or internal: the op failed
            outcome, failure = ("error", type(exc).__name__), repr(exc)[:200]
        seconds = perf_counter() - t0
    return Op(kind, seconds, outcome, _nyquist_warnings(caught), failure), value


# -- paper ----------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = rirkit.cli.main(argv)
    return code, out.getvalue()


class PaperChain:
    """The paper's command chain; the run's seed goes to ``pcr-max``."""

    # fhn-sim runs at the e_o that fhn-find printed in the same pass
    COMMANDS = [
        ("analyze", ["analyze", "--input", json.dumps(PRINTED_PLANT)]),
        ("synth", ["synth", "--input", json.dumps(PRINTED_PLANT)]),
        ("maglev", ["maglev", "--eps", "0.01"]),
        ("fhn-find", ["fhn-find"]),
        ("pcr-max", ["pcr-max", "--param", "omega_p=1.0",
                     "--param", "theta_p=-0.8", "--seed", "{seed}"]),
        ("fhn-sim", ["fhn-sim", "--eps=-0.05", "--param", "e_o={e_o}"]),
        ("fhn-sim", ["fhn-sim", "--eps=0.05", "--param", "e_o={e_o}"]),
    ]

    def __init__(self, seed: int, deadline: float, tick):
        self.seed = seed
        self.deadline = deadline
        self.tick = tick  # called before each op (machine-speed sampling)

    def units(self) -> list[int]:
        return [0]

    def warm_up(self) -> None:
        kind, argv = self.COMMANDS[0]
        timed(kind, lambda: _cli(argv), self.deadline)

    def run_unit(self, _unit) -> list[Op]:
        ops = []
        e_o = PAPER_EO  # used only if fhn-find itself failed
        for kind, template in self.COMMANDS:
            argv = [a.replace("{seed}", str(self.seed))
                    .replace("{e_o}", repr(e_o)) for a in template]
            self.tick()
            op, value = timed(kind, lambda: _cli(argv), self.deadline)
            if op.failure is None:
                code, text = value
                op = op._replace(outcome=(code, text))
                if code != 0:
                    op = op._replace(failure=f"{kind} exited {code}")
                elif kind == "fhn-find":
                    e_o = json.loads(text)["e_o"]
            ops.append(op)
        return ops

    def check(self, _unit, ops: list[Op]) -> list[str | None]:
        """Oracle verdict per op: None when right, else the reason."""
        return [None if op.failure else _paper_oracle(op) for op in ops]

    def properties(self, results: dict, speed: float) -> dict:
        """Inputs that drive the grid sizes: the three plants the chain
        analyzes, and the verdicts it reaches."""
        reports = {op.kind: json.loads(op.outcome[1]) for op in results[0]
                   if op.failure is None and op.kind != "fhn-sim"}
        tfs = {"printed": PRINTED_PLANT}
        if "maglev" in reports:
            tfs["maglev_g_d"] = reports["maglev"]["g_d"]
        if "fhn-find" in reports:
            tfs["fhn_g_eo"] = reports["fhn-find"]["g_eo"]
        return {
            "plants": {k: {"degree": len(v["den"]) - 1,
                           "min_dist_to_circle": _circle_distance(v)}
                       for k, v in tfs.items()},
            "verdicts": {k: r["verdict"]["status"] for k, r in reports.items()
                         if "verdict" in r},
        }


def _paper_oracle(op: Op) -> str | None:
    rep = json.loads(op.outcome[1])
    if op.kind == "analyze":
        v = rep["verdict"]
        ok = (v["status"] == "exact_sufficient"
              and abs(v["lower_bound"] - 0.2938) < 1e-4)
    elif op.kind == "synth":
        ok = abs(rep["allpass"]["a"] - (-0.9965)) < 1e-4
    elif op.kind == "maglev":
        ok = (rep["verdict"]["status"] == "not_exact"
              and rep["compensated_status"] == "exact_sufficient")
    elif op.kind == "fhn-find":
        ok = abs(rep["e_o"] - PAPER_EO) < 3e-3
    elif op.kind == "pcr-max":
        ok = abs(rep["best"] - rep["ceiling"]) <= 1e-9
    elif rep["epsilon"] < 0:
        ok = rep["verdict"] == "oscillating" and not rep["diverged"]
    else:
        ok = not rep["diverged"]
    return None if ok else f"{op.kind} report fails its oracle"


# -- plant families ---------------------------------------------------------

class PlantFamily:
    """Seeded plants, each analyzed and, when exact_sufficient, synthesized."""

    def __init__(self, seed: int, degrees: tuple[int, int], count: int,
                 deadline: float, tick):
        self.plants = plant_family(seed, count, degrees)
        self.deadline = deadline
        self.tick = tick  # called before each op (machine-speed sampling)

    def units(self) -> list[int]:
        return list(range(len(self.plants)))

    def warm_up(self) -> None:
        """One op on a fixed plant, so set-up cost does not depend on the
        seed's draw."""
        timed("analyze", lambda: rirkit.exact_rir_analyze(
            rirkit.RationalTF(PRINTED_PLANT["num"], PRINTED_PLANT["den"])),
            self.deadline)

    def run_unit(self, i: int) -> list[Op]:
        p = self.plants[i]

        def analyze():
            g = rirkit.RationalTF(p["num"], p["den"])
            return g, rirkit.exact_rir_analyze(g)

        self.tick()
        op, value = timed("analyze", analyze, self.deadline)
        if value is None:  # failed, or a typed precondition outcome
            return [op]
        g, v = value
        t = v.class_tag
        ops = [op._replace(outcome=(v.status, t.class_name, t.n_unstable,
                                    v.lower_bound, t.peak_omega))]
        if v.status == "exact_sufficient":
            self.tick()
            op, f = timed("synth",
                          lambda: rirkit.synth_marginal_perturbation(g),
                          self.deadline)
            if f is not None:
                op = op._replace(outcome=(f.num.coeffs, f.den.coeffs))
            ops.append(op)
        return ops

    def check(self, i: int, ops: list[Op]) -> list[str | None]:
        p = self.plants[i]
        out: list[str | None] = []
        for op in ops:
            if op.failure is not None:
                out.append(None)  # already failed; nothing to check
            elif op.outcome[0] == "precondition":
                out.append(f"{op.outcome[1]} on a plant with unstable poles")
            elif op.kind == "analyze":
                out.append(_analyze_oracle(p, op.outcome))
            else:
                out.append(_synth_oracle(p, ops[0].outcome[3], op.outcome))
        return out

    def properties(self, results: dict, speed: float) -> dict:
        """Degree histogram, distance to the circle (it sets the grid size),
        verdict mix and per-degree median unit time (ms, calibrated) of the
        plants this run analyzed, so a change that helps only some plants
        shows which share it helps."""
        plants = [self.plants[i] for i in results]
        degrees: dict[int, int] = {}
        verdicts: dict[str, int] = {}
        times: dict[int, list[float]] = {}
        for i, ops in results.items():
            d = self.plants[i]["degree"]
            degrees[d] = degrees.get(d, 0) + 1
            if all(op.failure is None for op in ops):
                times.setdefault(d, []).append(
                    1e3 * speed * sum(op.seconds for op in ops))
        for ops in results.values():
            key = "failed" if ops[0].failure else str(ops[0].outcome[0])
            verdicts[key] = verdicts.get(key, 0) + 1
        dist = np.array([p["min_dist_to_circle"] for p in plants])
        return {
            "plants": len(plants),
            "synthesized": sum(len(ops) - 1 for ops in results.values()),
            "degree_histogram": dict(sorted(degrees.items())),
            "min_dist_to_circle": {
                "min": float(dist.min()),
                "quartiles": [float(q) for q in
                              np.quantile(dist, [0.25, 0.5, 0.75])],
                "share_below_1e-2": float(np.mean(dist < 1e-2)),
            },
            "verdicts": dict(sorted(verdicts.items())),
            "unit_ms_by_degree": {d: float(np.median(v))
                                  for d, v in sorted(times.items())},
        }


def _circle_distance(tf: dict) -> float:
    roots = [r for c in (tf["num"], tf["den"]) if len(c) > 1
             for r in np.roots(c)]
    return float(min(abs(abs(r) - 1.0) for r in roots))


def _peak_gain(num, den) -> float:
    """Dense-grid peak of |num/den| on the unit circle, zoomed three times."""
    def gain(w):
        z = np.exp(1j * w)
        return np.abs(np.polyval(num, z) / np.polyval(den, z))
    w = np.linspace(0.0, np.pi, 2 ** 14 + 1)
    for _ in range(4):
        g = gain(w)
        i = int(np.argmax(g))
        lo, hi = w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)]
        w = np.linspace(lo, hi, 1025)
    return float(np.max(gain(w)))


def _analyze_oracle(p: dict, outcome: tuple) -> str | None:
    status, _cls, n_unstable, lower_bound, _omega = outcome
    expect_n = int(np.sum(np.abs(np.roots(p["den"])) > 1.0))
    if n_unstable != expect_n:
        return f"n_unstable {n_unstable}, companion eigenvalues give {expect_n}"
    peak = _peak_gain(p["num"], p["den"])
    if abs(lower_bound * peak - 1.0) > 1e-6:
        return f"lower_bound {lower_bound} vs dense-grid 1/peak {1.0 / peak}"
    return None


def _synth_oracle(p: dict, lower_bound: float, outcome: tuple) -> str | None:
    fnum, fden = outcome
    z = np.exp(1j * np.linspace(0.0, np.pi, 513))
    mag = np.abs(np.polyval(fnum, z) / np.polyval(fden, z))
    if np.max(np.abs(mag - lower_bound)) > 1e-8 * lower_bound:
        return "|f| is not constant at lower_bound"
    # positive feedback: 1 - f g = 0  <=>  den_g den_f - num_g num_f = 0
    char = np.polysub(np.polymul(p["den"], fden), np.polymul(p["num"], fnum))
    rho = float(np.max(np.abs(np.roots(char))))
    if abs(rho - 1.0) > 1e-6:
        return f"closed-loop max root modulus {rho}, not 1"
    return None
