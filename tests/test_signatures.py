"""Guard on the library's settable values.

Tolerances that only ever take one value are module constants or literals,
not arguments.  The defaulted parameters below are the ones some caller
sets to a different value, or model inputs; a new one must be added here
on purpose.
"""

import inspect

from rirkit import casestudies, nyquist, polycore, rir, transfer

KEPT_DEFAULTS = {
    "polycore.from_roots(leading)",
    "transfer.RationalTF.__init__(cancel_tol)",
    "nyquist.ContourSpec.__init__(epsilon)",
    "nyquist.crossing_counts(exclude_near_one)",
    "rir.AllPassSpec.__init__(scale)",
    "rir.pcr_max_search(max_order)",
    "rir.pcr_max_search(trials)",
    "rir.pcr_max_search(seed)",
    "casestudies.MaglevParams.__init__(k)",
    "casestudies.MaglevParams.__init__(p)",
    "casestudies.MaglevParams.__init__(tau)",
    "casestudies.MaglevParams.__init__(T)",
    "casestudies.FHNModel.__init__(c)",
    "casestudies.FHNModel.__init__(alpha)",
    "casestudies.FHNModel.__init__(beta)",
    "casestudies.FHNModel.__init__(tau)",
    "casestudies.FHNModel.__init__(d)",
    "casestudies.FHNModel.__init__(current)",
    "casestudies.Trajectory.__init__(diverged)",
    "casestudies.fhn_simulate(init)",
}


def _defaulted_parameters():
    """'module.qualname(param)' for every defaulted parameter of the
    functions and methods each library module defines."""
    out = set()
    for mod in (polycore, transfer, nyquist, rir, casestudies):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                funcs = [(name, obj)]
            elif inspect.isclass(obj):
                funcs = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                         if inspect.isfunction(f)]
            else:
                continue
            for qual, f in funcs:
                out |= {f"{short}.{qual}({p.name})"
                        for p in inspect.signature(f).parameters.values()
                        if p.default is not inspect.Parameter.empty}
    return out


def test_defaulted_parameters_are_the_kept_ones():
    assert len(KEPT_DEFAULTS) == 20
    assert _defaulted_parameters() == KEPT_DEFAULTS


def test_extended_nyquist_check_derives_n():
    params = inspect.signature(nyquist.extended_nyquist_check).parameters
    assert list(params) == ["L"]
