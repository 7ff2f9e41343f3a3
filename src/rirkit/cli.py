"""Command-line front end.

Parses transfer functions and model parameters, runs the analyses, and
emits JSON verdicts plus CSV plot data with a stable schema.  Exit codes:
0 success, 2 invalid input, 3 analysis precondition unmet, 4 internal
verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import casestudies, nyquist, rir, transfer
from .errors import (
    DegenerateCrossingError,
    EpsilonSweepError,
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    PreconditionError,
    SynthesisVerificationError,
    ZeroOnCircleError,
)
from .transfer import RationalTF

SCHEMA = "rirkit/1"

_INPUT_ERRORS = (ImproperTransferError, PoleOnCircleError, ZeroOnCircleError,
                 json.JSONDecodeError, KeyError, ValueError)
_PRECONDITION_ERRORS = (NotInGClassError, PreconditionError)
_INTERNAL_ERRORS = (SynthesisVerificationError, DegenerateCrossingError,
                    EpsilonSweepError)


def _load_tf(spec: str) -> RationalTF:
    """Accept a path to a JSON file or an inline JSON object."""
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read --input {spec!r}: {exc}") from exc
    obj = json.loads(text)
    return RationalTF(obj["num"], obj["den"])


def _tf_json(g: RationalTF) -> dict:
    return {"num": list(g.num.coeffs), "den": list(g.den.coeffs)}


def _params(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"--param expects key=value, got {item!r}")
        out[key.strip()] = float(val)
    return out


def _emit(report: dict, out_dir: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text + "\n")


def _write_csv(out_dir: str | None, name: str, header: list[str],
               rows) -> str | None:
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return path


def _verdict_json(v: rir.RIRVerdict) -> dict:
    t = v.class_tag
    return {
        "class": t.class_name,
        "n_unstable": t.n_unstable,
        "pip": t.pip,
        "peak_omega": t.peak_omega,
        "peak_gain": t.peak_gain,
        "peak_unique": t.peak_unique,
        "theta_p": v.theta_p,
        "theta_rate": v.theta_rate,
        "rho_threshold": v.rho_threshold,
        "status": v.status,
        "lower_bound": v.lower_bound,
    }


def cmd_analyze(args) -> dict:
    g = _load_tf(args.input)
    verdict = rir.exact_rir_analyze(g, rate_tol=args.tol_rate, grid=args.grid)
    if args.dump and args.out:
        w = np.linspace(0.0, np.pi, 2048)
        vals = transfer.evaluate(g, np.exp(1j * w))
        gain = np.abs(vals)
        _write_csv(args.out, "response.csv",
                   ["omega", "gain", "gain_db", "phase"],
                   zip(w, gain, 20 * np.log10(np.maximum(gain, 1e-300)),
                       np.angle(vals)))
    return {"schema": SCHEMA, "command": "analyze",
            "verdict": _verdict_json(verdict)}


def cmd_synth(args) -> dict:
    g = _load_tf(args.input)
    f, spec, verdict = rir._synthesize(g, rate_tol=args.tol_rate,
                                       grid=args.grid)
    return {
        "schema": SCHEMA,
        "command": "synth",
        "allpass": {"c": spec.c, "a": spec.a, "scale": spec.scale},
        "perturbation": _tf_json(f),
        "verdict": _verdict_json(verdict),
    }


def cmd_nyquist(args) -> dict:
    g = _load_tf(args.input)
    spec = nyquist.ContourSpec(epsilon=args.eps, samples=max(args.grid, 1024))
    rep = nyquist.crossing_counts(g, spec)
    if args.dump and args.out:
        n = max(args.grid, 1024)
        w = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
        vals = transfer.evaluate(g, np.exp(-1j * w) / (1.0 - args.eps))
        _write_csv(args.out, "contour.csv", ["omega", "re", "im"],
                   zip(w, vals.real, vals.imag))
    roots = nyquist.closed_loop_poles(g)
    return {
        "schema": SCHEMA,
        "command": "nyquist",
        "epsilon": args.eps,
        "nu_plus": rep.nu_plus,
        "nu_minus": rep.nu_minus,
        "nu_o": rep.nu_o,
        "encirclements_cw": rep.encirclements_cw,
        "closed_loop_pole_moduli": sorted(abs(r) for r in roots.flat),
    }


def cmd_pcr_max(args) -> dict:
    p = _params(args.param)
    omega_p = p["omega_p"]
    theta_p = p["theta_p"]
    best, desc = rir.pcr_max_search(omega_p, theta_p,
                                    max_order=int(p.get("max_order", 4)),
                                    trials=int(p.get("trials", 20000)),
                                    seed=args.seed)
    ceiling = (0.0 if omega_p in (0.0, np.pi)
               else -rir.rho_threshold(omega_p, theta_p))
    return {"schema": SCHEMA, "command": "pcr-max", "best": best,
            "ceiling": ceiling, "search": desc}


def cmd_maglev(args) -> dict:
    p = _params(args.param)
    params = casestudies.MaglevParams(k=p.get("k", 1.0), p=p.get("p", 1.0),
                                      tau=p.get("tau", 0.1),
                                      T=p.get("T", 0.01))
    g = casestudies.maglev_zoh(params)
    static = casestudies.maglev_partial_fraction(params, 1.0 + 0.0j).real
    verdict = rir.exact_rir_analyze(g, grid=args.grid)
    bound = casestudies.maglev_upper_bound(params, args.eps)
    fh = casestudies.highpass(bound.abar * (1.0 - 1e-6),
                              bound.abar * (1.0 - 1e-6) + bound.P_eps)
    comp_verdict = rir.exact_rir_analyze(g * fh, grid=args.grid)
    return {
        "schema": SCHEMA,
        "command": "maglev",
        "params": {"k": params.k, "p": params.p, "tau": params.tau,
                   "T": params.T},
        "g_d": _tf_json(g),
        "static_gain": static,
        "verdict": _verdict_json(verdict),
        "bound": {"P_eps": bound.P_eps, "abar": bound.abar,
                  "ratio": bound.ratio},
        "compensated_status": comp_verdict.status,
    }


def _fhn_model(p: dict) -> casestudies.FHNModel:
    return casestudies.FHNModel(
        c=p.get("c", 1.0), alpha=p.get("alpha", 0.7), beta=p.get("beta", 0.8),
        tau=p.get("tau", 0.01), d=p.get("d", 10.0),
        current=p.get("I", p.get("current", 0.4)))


def cmd_fhn_find(args) -> dict:
    model = _fhn_model(_params(args.param))
    res = casestudies.fhn_search_eo(model, grid=args.grid)
    _write_csv(args.out, "fig1.csv", ["e", "inv_norm"], res.sweep)
    spec, _ = rir.synth_allpass_spec(res.g_eo, grid=args.grid)
    return {
        "schema": SCHEMA,
        "command": "fhn-find",
        "e_o": res.e_o,
        "fixed_point": {"x": res.fixed_point.xbar, "y": res.fixed_point.ybar},
        "g_eo": _tf_json(res.g_eo),
        "allpass": {"c": spec.c, "a": spec.a, "scale": spec.scale},
    }


def cmd_fhn_sim(args) -> dict:
    p = _params(args.param)
    model = _fhn_model(p)
    if "e_o" in p:
        e_o = p["e_o"]
        g_eo = casestudies.fhn_linearize(model, e_o)
    else:
        res = casestudies.fhn_search_eo(model, grid=args.grid)
        e_o, g_eo = res.e_o, res.g_eo
    delta = casestudies.fhn_perturbation(e_o, g_eo, args.eps)
    traj = casestudies.fhn_simulate(model, delta, args.steps)
    _write_csv(args.out, "trajectory.csv", ["n", "x", "y"],
               ((i, xv, yv) for i, (xv, yv) in
                enumerate(zip(traj.x, traj.y))))
    return {
        "schema": SCHEMA,
        "command": "fhn-sim",
        "e_o": e_o,
        "epsilon": args.eps,
        "steps": args.steps,
        "verdict": traj.verdict(),
        "last_quarter_amplitude": traj.last_quarter_amplitude(),
        "diverged": traj.diverged,
    }


_COMMANDS = {
    "analyze": cmd_analyze,
    "synth": cmd_synth,
    "nyquist": cmd_nyquist,
    "pcr-max": cmd_pcr_max,
    "maglev": cmd_maglev,
    "fhn-find": cmd_fhn_find,
    "fhn-sim": cmd_fhn_sim,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rirkit",
        description="Robust instability radius analysis for discrete-time "
                    "SISO LTI systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="transfer function JSON (path or inline)")
        sp.add_argument("--out", help="output directory for reports and CSVs")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid", type=int, default=4096)
        sp.add_argument("--tol-rate", type=float, default=rir.RATE_TOL,
                        dest="tol_rate")
        sp.add_argument("--eps", type=float, default=0.01)
        sp.add_argument("--steps", type=int, default=200000)
        sp.add_argument("--dump", action="store_true",
                        help="also write plot CSV data")
        sp.add_argument("--param", action="append",
                        help="model parameter key=value (repeatable)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except _PRECONDITION_ERRORS as exc:
        _fail(exc, 3)
        return 3
    except _INTERNAL_ERRORS as exc:
        _fail(exc, 4)
        return 4
    except _INPUT_ERRORS as exc:
        _fail(exc, 2)
        return 2
    _emit(report, args.out)
    return 0


def _fail(exc: Exception, code: int) -> None:
    print(json.dumps({
        "schema": SCHEMA,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }, sort_keys=True))
    print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
