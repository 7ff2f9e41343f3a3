"""The sign-change search over [0, pi] has one home, and no analysis grid.

Peaks (``linf_norm``), crossings (``crossing_counts``) and the maglev
gain-rate check are all sign changes between the roots of a Chebyshev
series in cos(omega), refined by Newton steps.  ``transfer._sign_changes``
is the one loop that trims the series, partitions [0, pi], brackets and
refines; every reference in the package to those three steps sits inside
it, so a second copy of the loop cannot grow back unnoticed.  Nor can a
sampled frequency grid: ``linspace`` is left only to the ``analyze --out``
response table and ``maglev_zoh``'s eight-point cross-check off the circle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rirkit"
STEPS = ("_partition", "_trim_to_rounding", "_newton_root")
KERNEL = "transfer._sign_changes"
GRIDS = ("cli.cmd_analyze", "casestudies.maglev_zoh")


def _references(path: Path, names=STEPS) -> list[tuple[str, str]]:
    """(module.function, name) for each reference to one of names in the file,
    the function being the outermost definition around it (the module
    alone at top level); imports count as references, the step's own
    definition does not."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and where == path.stem:
                inner = f"{path.stem}.{child.name}"
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name in names:
                found.append((where, name))
            visit(child, inner)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_sign_change_steps_are_called_only_by_the_kernel():
    refs = [r for p in sorted(SRC.glob("*.py")) for r in _references(p)]
    outside = [r for r in refs if r[0] != KERNEL]
    assert not outside, outside
    assert sorted(name for _, name in refs) == sorted(STEPS)


def test_linspace_only_in_the_csv_table_and_the_zoh_cross_check():
    refs = [r for p in sorted(SRC.glob("*.py"))
            for r in _references(p, ("linspace",))]
    assert sorted(where for where, _ in refs) == sorted(GRIDS)
