"""Command-line front end.

Parses transfer functions and model parameters, runs the analyses, and
emits JSON verdicts plus CSV plot data with a stable schema.  Exit codes:
0 success, 2 invalid input, 3 analysis precondition unmet, 4 internal
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import casestudies, nyquist, rir, transfer
from .errors import (
    DegenerateCrossingError,
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
_INTERNAL_ERRORS = (SynthesisVerificationError, DegenerateCrossingError)


def _load_tf(spec: str) -> RationalTF:
    """A JSON file path or inline JSON object, common roots cancelled."""
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read --input {spec!r}: {exc}") from exc
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("--input must be a JSON object with num and den")
    return transfer.cancel_common_roots(
        RationalTF(_coeffs(obj, "num"), _coeffs(obj, "den")))


def _coeffs(obj: dict, key: str) -> list[float]:
    """The list obj[key] as floats; JSON bools and strings are not numbers."""
    vals = obj.get(key)
    if isinstance(vals, list) and all(type(v) in (int, float) for v in vals):
        try:
            if all(map(math.isfinite, vals)):
                return [float(v) for v in vals]
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"--input {key!r} must be a list of real, finite numbers")


def _tf_json(g: RationalTF) -> dict:
    return {"num": list(g.num.coeffs), "den": list(g.den.coeffs)}


def _model_keys(cls) -> dict[str, type]:
    return {f.name: float for f in dataclasses.fields(cls)}


# The --param keys each subcommand accepts, and the type each value must have.
_PARAM_KEYS = {
    "pcr-max": {"omega_p": float, "theta_p": float, "trials": int,
                "max_order": int},
    "maglev": _model_keys(casestudies.MaglevParams),
    "fhn-find": _model_keys(casestudies.FHNModel),
    "fhn-sim": {**_model_keys(casestudies.FHNModel), "e_o": float},
}


def _params(args) -> dict[str, float | int]:
    """The subcommand's --param pairs, each key one it accepts and each
    value finite (and integral for an integer key)."""
    accepted = _PARAM_KEYS[args.command]
    out: dict[str, float | int] = {}
    for item in args.param or []:
        key, sep, text = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"--param expects key=value, got {item!r}")
        if key not in accepted:
            raise ValueError(f"unknown --param {key!r} for {args.command}; "
                             f"accepted: {', '.join(accepted)}")
        try:
            val = float(text)
        except ValueError:
            raise ValueError(
                f"--param {key} must be a number, got {text!r}") from None
        if accepted[key] is int:
            if not val.is_integer():
                raise ValueError(
                    f"--param {key} must be an integer, got {val!r}")
            val = int(val)
        elif not math.isfinite(val):
            raise ValueError(f"--param {key} must be finite, got {val!r}")
        out[key] = val
    return out


def _emit(report: dict, out_dir: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text + "\n")


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


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
    verdict = rir.exact_rir_analyze(g)
    if args.out is not None:
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
    f = rir.synth_marginal_perturbation(g)
    spec, verdict = rir.synth_allpass_spec(g)
    return {
        "schema": SCHEMA,
        "command": "synth",
        "allpass": {"c": spec.c, "a": spec.a, "scale": spec.scale},
        "perturbation": _tf_json(f),
        "verdict": _verdict_json(verdict),
    }


def cmd_nyquist(args) -> dict:
    g = _load_tf(args.input)
    rep = nyquist.crossing_counts(g, nyquist.ContourSpec(epsilon=args.eps))
    if args.out is not None:
        w = -np.pi + (np.arange(4096) + 0.5) * (2 * np.pi / 4096)
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
    p = _params(args)
    ceiling = rir.pcr_ceiling(p["omega_p"], p["theta_p"])
    best, desc = rir.pcr_max_search(seed=args.seed, **p)
    return {"schema": SCHEMA, "command": "pcr-max", "best": best,
            "ceiling": ceiling, "search": desc}


def cmd_maglev(args) -> dict:
    params = casestudies.MaglevParams(**_params(args))
    bound = casestudies.maglev_upper_bound(params, args.eps)
    static = casestudies.maglev_partial_fraction(params, 1.0 + 0.0j).real
    verdict = rir.exact_rir_analyze(bound.g_d)
    comp_verdict = rir.exact_rir_analyze(bound.g_d * bound.compensator)
    return {
        "schema": SCHEMA,
        "command": "maglev",
        "params": dataclasses.asdict(params),
        "g_d": _tf_json(bound.g_d),
        "static_gain": static,
        "verdict": _verdict_json(verdict),
        "bound": {"P_eps": bound.P_eps, "abar": bound.abar,
                  "ratio": bound.ratio},
        "compensated_status": comp_verdict.status,
    }


def cmd_fhn_find(args) -> dict:
    model = casestudies.FHNModel(**_params(args))
    res = casestudies.fhn_search_eo(model)
    if args.out is not None:
        _write_csv(args.out, "fig1.csv", ["e", "inv_norm"],
                   casestudies.fhn_inv_norm_sweep(model))
    spec, _ = rir.synth_allpass_spec(res.g_eo)
    return {
        "schema": SCHEMA,
        "command": "fhn-find",
        "e_o": res.e_o,
        "fixed_point": {"x": res.fixed_point.xbar, "y": res.fixed_point.ybar},
        "g_eo": _tf_json(res.g_eo),
        "allpass": {"c": spec.c, "a": spec.a, "scale": spec.scale},
    }


def cmd_fhn_sim(args) -> dict:
    p = _params(args)
    e_o = p.pop("e_o", None)
    model = casestudies.FHNModel(**p)
    if e_o is not None:
        g_eo = casestudies.fhn_linearize(model, e_o)
    else:
        res = casestudies.fhn_search_eo(model)
        e_o, g_eo = res.e_o, res.g_eo
    delta = casestudies.fhn_perturbation(e_o, g_eo, args.eps)
    traj = casestudies.fhn_simulate(model, delta, args.steps)
    if args.out is not None:
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


def _out_dir(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


# Every flag the CLI knows, and the ones each subcommand's cmd_* reads.
_FLAGS = {
    "--input": {"help": "transfer function JSON (path or inline)"},
    "--out": {"type": _out_dir,
              "help": "output directory for reports and CSVs"},
    "--seed": {"type": int, "default": 0},
    "--eps": {"type": float, "default": 0.01},
    "--steps": {"type": int, "default": 200000},
    "--param": {"action": "append",
                "help": "model parameter key=value (repeatable)"},
}
_COMMAND_FLAGS = {
    "analyze": ("--input", "--out"),
    "synth": ("--input", "--out"),
    "nyquist": ("--input", "--out", "--eps"),
    "pcr-max": ("--param", "--seed", "--out"),
    "maglev": ("--param", "--eps", "--out"),
    "fhn-find": ("--param", "--out"),
    "fhn-sim": ("--param", "--eps", "--steps", "--out"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state
    in it between calls."""
    ap = argparse.ArgumentParser(
        prog="rirkit",
        description="Robust instability radius analysis for discrete-time "
                    "SISO LTI systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        for flag in _COMMAND_FLAGS[name]:
            sp.add_argument(flag, **_FLAGS[flag])
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
