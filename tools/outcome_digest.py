"""Outcome digest: what rirkit prints and decides, hashed per section.

    python3 tools/outcome_digest.py

Takes no options.  Prints one JSON record per line, then one
``{"section": ..., "sha256": ...}`` line per section, the hash of that
section's records.  Two checkouts that print the same hashes reach the same
outcomes, so a refactor that claims to change no result can be checked by
running this on both and comparing the output.

Sections:

* ``paper``: stdout and exit code of each command of the benchmark's paper
  CLI chain (``bench/workloads.py``, ``PaperChain.COMMANDS``) at seed 0,
  with ``fhn-sim`` at the ``e_o`` that ``fhn-find`` printed.
* ``plants-small`` and ``plants-large``: for seeds 0-2 of the benchmark's
  plant families (``bench/plants.py``, the sizes of ``bench/run.py``), each
  plant's poles and zeros, the ``exact_rir_analyze`` verdict, the crossing
  counts and the extended Nyquist check of the plant as a loop, the
  synthesized perturbation's coefficients when the verdict is
  ``exact_sufficient``, and the types of the warnings and errors raised.

The benchmark's files are imported, never changed.  A run takes about 12 s
on a 2-vCPU VM.
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import rirkit  # noqa: E402
import rirkit.cli  # noqa: E402
from plants import plant_family  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import PaperChain  # noqa: E402

SEEDS = (0, 1, 2)


def _call(fn):
    """(repr of the value or of the error type, warning type names)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = repr(fn())
        except Exception as exc:  # the outcome includes its error type
            value = f"error: {type(exc).__name__}"
    return value, [type(w.message).__name__ for w in caught]


def paper_records():
    e_o = None
    for kind, template in PaperChain.COMMANDS:
        argv = [a.replace("{seed}", "0").replace("{e_o}", repr(e_o))
                for a in template]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = rirkit.cli.main(argv)
        if kind == "fhn-find" and code == 0:
            e_o = json.loads(out.getvalue())["e_o"]
        yield {"command": argv, "code": code, "stdout": out.getvalue()}


def _synth(g):
    f = rirkit.synth_marginal_perturbation(g)
    return f.num.coeffs, f.den.coeffs


def plant_record(p: dict) -> dict:
    try:
        g = rirkit.RationalTF(p["num"], p["den"])
    except Exception as exc:
        return {"construct": f"error: {type(exc).__name__}"}
    rec = {}
    for key, fn in (
            ("poles", g.poles),
            ("zeros", g.zeros),
            ("verdict", lambda: rirkit.exact_rir_analyze(g)),
            ("crossings", lambda: rirkit.crossing_counts(
                g, rirkit.ContourSpec())),
            ("nyquist", lambda: rirkit.extended_nyquist_check(g))):
        rec[key], rec[key + "_warnings"] = _call(fn)
    if "status='exact_sufficient'" in rec["verdict"]:
        rec["synth"], rec["synth_warnings"] = _call(lambda: _synth(g))
    return rec


def main() -> None:
    sections = {"paper": list(paper_records())}
    for name in ("plants-small", "plants-large"):
        cfg = WORKLOADS[name]
        sections[name] = [
            {"seed": seed, "plant": i, **plant_record(p)}
            for seed in SEEDS
            for i, p in enumerate(plant_family(seed, cfg["count"],
                                               cfg["degrees"]))]
    for name, records in sections.items():
        digest = hashlib.sha256()
        for rec in records:
            line = json.dumps({"section": name, **rec}, sort_keys=True)
            print(line)
            digest.update(line.encode() + b"\n")
        print(json.dumps({"section": name, "sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
