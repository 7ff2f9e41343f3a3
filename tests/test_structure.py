"""The sign-change search over [0, pi] has one home, and no analysis grid.

Peaks (``linf_norm``), crossings (``crossing_counts``) and the maglev
gain-rate check are all sign changes between the roots of a Chebyshev
series in cos(omega), refined by Newton steps.  ``transfer._sign_changes``
is the one loop that trims the series, partitions [0, pi], brackets and
refines; every reference in the package to those three steps sits inside
it, so a second copy of the loop cannot grow back unnoticed.  Nor can a
sampled frequency grid: ``linspace`` is left only to the ``analyze --out``
response table and ``maglev_zoh``'s eight-point cross-check off the circle.

Two questions call the loop, each through one helper in ``transfer``: where
the gain turns (``_gain_turns``) and where L meets the real axis
(``_axis_turns``).  The series they build, Clenshaw's sum and the factors'
log slope stay in ``transfer``, and the kernel hands back whole answers,
the ends included, so no caller rebuilds the 0 and pi candidates.

The checks of the paper's supporting bounds live in ``bounds`` alone, off
the analysis path: ``rir`` does not import them, and no other module but the
package's ``__init__`` names them.  One ``wrap_angle`` serves floats and
arrays.

Where a root lies has one owner too: each root of a ``polycore.RootSet``
carries an inclusion disk, and ``RootSet.sides`` holds the one on-circle
test, ``abs(abs(x) - c)``, that places roots against a circle.  No module
keeps an absolute clustering or circle tolerance (``CLUSTER_TOL``,
``CIRCLE_TOL``) beside it.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import rirkit.transfer as transfer
from conftest import random_tf
from rirkit.casestudies import MaglevParams, highpass, maglev_upper_bound

SRC = Path(__file__).resolve().parents[1] / "src" / "rirkit"
STEPS = ("_partition", "_trim_to_rounding", "_newton_root")
KERNEL = "transfer._sign_changes"
HELPERS = ("transfer._axis_turns", "transfer._gain_turns")
TRANSFER_ONLY = ("_stationary_series", "_sin_series", "_chebval", "_u_to_t",
                 "_log_slope")
GRIDS = ("cli.cmd_analyze", "casestudies.maglev_zoh")
BOUND_SUITE = ("allpass_pcr_bound_check", "construct_real_pole_dominator",
               "verify_dominance_witness", "RealPoleDominanceWitness",
               "minimum_phase_pcr_bound_check", "gain_phase_integral",
               "_require_minimum_phase", "PCR_TOL", "GAIN_PHASE_MAX_NODES")


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


def _all_references(names) -> list[tuple[str, str]]:
    return [r for p in sorted(SRC.glob("*.py")) for r in _references(p, names)]


def test_the_kernel_is_called_only_by_the_two_turn_helpers():
    refs = _all_references(("_sign_changes",))
    assert sorted(where for where, _ in refs) == sorted(HELPERS)


def test_series_and_factor_slopes_stay_in_transfer():
    refs = _all_references(TRANSFER_ONLY)
    outside = [r for r in refs if r[0].split(".")[0] != "transfer"]
    assert not outside, outside
    assert {name for _, name in refs} == set(TRANSFER_ONLY)


def test_power_of_two_rescale_only_in_poly_roots():
    refs = _all_references(("frexp", "ldexp"))
    assert {where for where, _ in refs} == {"polycore.poly_roots"}
    assert {name for _, name in refs} == {"frexp", "ldexp"}


def test_bound_suite_is_named_only_in_bounds_and_the_package():
    refs = _all_references(BOUND_SUITE)
    outside = [r for r in refs
               if r[0].split(".")[0] not in ("bounds", "__init__")]
    assert not outside, outside
    assert any(where.startswith("bounds") for where, _ in refs)


def test_rir_does_not_import_bounds():
    tree = ast.parse((SRC / "rir.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name for alias in node.names}
    assert imported and not {"bounds", "rirkit.bounds"} & imported


def test_one_angle_wrap():
    defined = {node.name for p in SRC.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "wrap_angle" in defined and "_wrap_angles" not in defined
    assert not _all_references(("_wrap_angles",))


def _on_circle_tests(tree) -> int:
    """Count of abs(abs(x) - c) and abs(c - abs(x)) in the tree, x a name:
    a value's modulus against a radius (an angle's, abs(np.angle(r)), is
    not one)."""
    def is_abs(node, of):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs" and len(node.args) == 1
                and isinstance(node.args[0], of))
    return sum(1 for node in ast.walk(tree)
               if is_abs(node, ast.BinOp)
               and isinstance(node.args[0].op, ast.Sub)
               and (is_abs(node.args[0].left, ast.Name)
                    or is_abs(node.args[0].right, ast.Name)))


def test_root_location_has_one_owner():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined = {target.id for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])
               if isinstance(target, ast.Name)}
    assert not {"CLUSTER_TOL", "CIRCLE_TOL"} & defined
    counts = {stem: _on_circle_tests(tree) for stem, tree in trees.items()}
    assert counts.pop("polycore") >= 1
    assert not any(counts.values()), counts


def _shape_cases():
    printed = transfer.RationalTF([1.5679e-5, -2.5685e-5],
                                  [1.0, -2.000985, 1.000994])
    g = maglev_upper_bound(MaglevParams(), 0.01).g_d
    rng = np.random.default_rng(31)
    return ([printed, g * highpass(0.5, 8.0)]
            + [random_tf(rng, n_stable=3, n_unstable=2, n_zeros=2)
               for _ in range(8)])


@pytest.mark.parametrize("helper, arg", [("_gain_turns", False),
                                         ("_gain_turns", True),
                                         ("_axis_turns", 1.0),
                                         ("_axis_turns", 1.0 / 0.99)])
def test_kernel_turns_run_end_to_end(helper, arg):
    for g in _shape_cases():
        turns = getattr(transfer, helper)(g, arg)
        assert (turns[0][0], turns[-1][0]) == (0.0, math.pi)
        omegas = [w for w, _ in turns]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert all(isinstance(up, bool) for _, up in turns)
        if arg is False:  # a peak search refines falling changes only
            assert not any(up for _, up in turns[1:-1])
