"""Outcome digest: what rirkit prints and decides, hashed per section.

    python3 tools/outcome_digest.py > before.jsonl
    python3 tools/outcome_digest.py --against before.jsonl

Without options it prints one JSON record per line, then one
``{"section": ..., "sha256": ...}`` line per section, the hash of that
section's records.  Two checkouts that print the same hashes reach the same
outcomes, so a refactor that claims to change no result can be checked by
running this on both and comparing the output.

``--against FILE`` compares this checkout's records with FILE, an earlier
run's output, and prints one JSON line per section and field: how many
records differ once numpy scalar wrappers are stripped from both texts
(``np.float64(x)`` reads as ``x`` and ``np.True_`` as ``True``; the
printed records and hashes keep them), how many of those differ in
structure (text, flags or the count of numbers, not only in digits), how
many change ``status``, ``class``, ``n_unstable``, ``pip`` or
``peak_unique``, and, per numeric field, the largest relative and absolute
difference.  A numeric field is named by the nearest ``name=`` or
``"name":`` before the number in the record's text
(``verdict.lower_bound``), or by the record field alone (``poles``);
complex numbers compare as one value.  One last line per section gives
both hashes.

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

The benchmark's files are imported, never changed.  A run takes about 15 s
on a 2-vCPU VM.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
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


def sections() -> dict:
    out = {"paper": list(paper_records())}
    for name in ("plants-small", "plants-large"):
        cfg = WORKLOADS[name]
        out[name] = [
            {"seed": seed, "plant": i, **plant_record(p)}
            for seed in SEEDS
            for i, p in enumerate(plant_family(seed, cfg["count"],
                                               cfg["degrees"]))]
    return out


def _lines(name: str, records: list):
    """The printed record lines of a section, and their sha256."""
    digest = hashlib.sha256()
    lines = []
    for rec in records:
        line = json.dumps({"section": name, **rec}, sort_keys=True)
        lines.append(line)
        digest.update(line.encode() + b"\n")
    return lines, digest.hexdigest()


_NUM = r"(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)"
# a real, an imaginary or a complex literal, not a digit inside a name
NUMBER = re.compile(rf"(?<![\w.])[-+]?{_NUM}(?:[-+]{_NUM}j|j)?(?![\w.])")
LABEL = re.compile(r"(\w+)(?:=|\": )[^=:]*$")
DECISIONS = re.compile(
    r"\b(status|class_name|class|n_unstable|pip|peak_unique)(?:=|\": )"
    r"('[^']*'|\"[^\"]*\"|\w+)")


def _numbers(text: str):
    """(label, value) of each number in text, and text with each number
    replaced by '#'."""
    found = []
    for m in NUMBER.finditer(text):
        label = LABEL.search(text[max(0, m.start() - 60):m.start()])
        found.append((label.group(1) if label else None, m.group()))
    return found, NUMBER.sub("#", text)


# the repr of a numpy scalar: np.float64(x), np.int64(n), np.True_, ...
NUMPY_SCALAR = re.compile(
    r"np\.(?:float|int|uint|complex)\d+\(([^()]*)\)|np\.(True|False)_")


def _text(value) -> str:
    """The field as text, with numpy scalar wrappers stripped."""
    text = value if isinstance(value, str) else json.dumps(value)
    return NUMPY_SCALAR.sub(lambda m: m.group(1) or m.group(2), text)


def _decisions(text: str) -> dict:
    return {("class" if k == "class_name" else k): v
            for k, v in DECISIONS.findall(text)}


def _key(index: int, rec: dict):
    return (rec["seed"], rec["plant"]) if "seed" in rec else index


def compare(current: dict, path: str) -> None:
    before: dict = {}
    hashes: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        name = rec.pop("section")
        if "sha256" in rec:
            hashes[name] = rec["sha256"]
        else:
            before.setdefault(name, []).append(rec)
    for name, records in current.items():
        old = {_key(i, r): r for i, r in enumerate(before.get(name, []))}
        stats: dict = {}
        for i, rec in enumerate(records):
            prev = old.pop(_key(i, rec), None)
            fields = set(rec) | set(prev or {})
            for field in sorted(fields - {"seed", "plant"}):
                a = _text(prev.get(field) if prev else None)
                b = _text(rec.get(field))
                st = stats.setdefault(field, {
                    "differing": 0, "structural": 0, "changed": {},
                    "max_rel": {}, "max_abs": {}})
                if a == b:
                    continue
                st["differing"] += 1
                (na, sa), (nb, sb) = _numbers(a), _numbers(b)
                if sa != sb:
                    st["structural"] += 1
                da, db = _decisions(a), _decisions(b)
                for k in set(da) | set(db):
                    if da.get(k) != db.get(k):
                        st["changed"][k] = st["changed"].get(k, 0) + 1
                if sa != sb:
                    continue
                for (label, x), (_, y) in zip(na, nb):
                    key = f"{field}.{label}" if label else field
                    x, y = (0j, 0j) if x == y else (complex(x), complex(y))
                    diff = abs(x - y)
                    rel = diff / max(abs(x), abs(y)) if diff else 0.0
                    st["max_abs"][key] = max(st["max_abs"].get(key, 0.0), diff)
                    st["max_rel"][key] = max(st["max_rel"].get(key, 0.0), rel)
        if old:
            stats["<record>"] = {"differing": len(old), "structural": len(old)}
        for field, st in sorted(stats.items()):
            if st["differing"]:
                print(json.dumps({"section": name, "field": field, **st},
                                 sort_keys=True))
        print(json.dumps({"section": name, "sha256": _lines(name, records)[1],
                          "against": hashes.get(name)}))


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Outcome digest of rirkit's decisions.")
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier run's output to compare with")
    args = parser.parse_args()
    current = sections()
    if args.against:
        compare(current, args.against)
        return
    for name, records in current.items():
        lines, sha = _lines(name, records)
        for line in lines:
            print(line)
        print(json.dumps({"section": name, "sha256": sha}))


if __name__ == "__main__":
    main()
