"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from rirkit.polycore import from_roots
from rirkit.transfer import RationalTF, evaluate


def random_poles(rng, n_stable: int, n_unstable: int) -> list[complex]:
    """Poles kept away from the unit circle so verdicts stay well-posed."""
    poles: list[complex] = []
    k = 0
    while k < n_stable:
        if rng.uniform() < 0.5 or n_stable - k < 2:
            poles.append(complex(rng.uniform(-0.9, 0.9)))
            k += 1
        else:
            r = rng.uniform(0.2, 0.9)
            th = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    k = 0
    while k < n_unstable:
        if rng.uniform() < 0.5 or n_unstable - k < 2:
            s = 1.0 if rng.uniform() < 0.5 else -1.0
            poles.append(complex(s * rng.uniform(1.15, 2.5)))
            k += 1
        else:
            r = rng.uniform(1.15, 2.5)
            th = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    return poles


def random_tf(rng, n_stable=2, n_unstable=1, n_zeros=1,
              gain_range=(0.2, 3.0)) -> RationalTF:
    poles = random_poles(rng, n_stable, n_unstable)
    zeros: list[complex] = []
    k = 0
    while k < n_zeros:
        if rng.uniform() < 0.6 or n_zeros - k < 2:
            zeros.append(complex(rng.uniform(-0.9, 0.9)))
            k += 1
        else:
            r = rng.uniform(0.2, 0.9)
            th = rng.uniform(0.1, np.pi - 0.1)
            zeros.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
            k += 2
    gain = float(rng.uniform(*gain_range)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return RationalTF(from_roots(zeros, gain), from_roots(poles))


def brute_force_crossings(L: RationalTF, epsilon: float, n: int = 1_000_000):
    """Dense-sampling oracle for transverse crossing counts of (1, inf).

    Counts strict sign changes of the imaginary part with the bracket
    midpoint real part beyond 1; dense enough sampling makes this agree
    with the refined adaptive counter on well-separated systems.
    """
    w = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    vals = evaluate(L, np.exp(-1j * w) / (1.0 - epsilon))
    im = vals.imag
    re = vals.real
    sign = np.where(im >= 0.0, 1, -1)
    nxt = np.roll(sign, -1)
    re_mid = 0.5 * (re + np.roll(re, -1))
    up = (sign < 0) & (nxt > 0) & (re_mid > 1.0)
    down = (sign > 0) & (nxt < 0) & (re_mid > 1.0)
    return int(np.sum(up)), int(np.sum(down))


def dense_phase(g: RationalTF, omega: float, n: int = 20001) -> float:
    """Dense-sampling oracle for the continuous phase along [0, omega].

    Referenced to arg g(1) in {0, pi}; np.unwrap removes the 2 pi jumps of
    the principal argument, and dense enough sampling keeps every true step
    below pi.
    """
    w = np.linspace(0.0, omega, n)
    phase = np.unwrap(np.angle(evaluate(g, np.exp(1j * w))))
    theta0 = np.pi if evaluate(g, 1.0 + 0.0j).real < 0.0 else 0.0
    return float(theta0 + phase[-1] - phase[0])


@pytest.fixture
def solved(monkeypatch):
    """The polynomials handed to ``poly_roots`` while the test runs."""
    import rirkit.polycore as polycore

    calls = []
    real = polycore.poly_roots

    def counting(p, *args, **kwargs):
        calls.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(polycore, "poly_roots", counting)
    return calls


@pytest.fixture(scope="session")
def fhn_chain():
    """One shared FHN pipeline run: search, synthesis, perturbations."""
    from rirkit.casestudies import FHNModel, fhn_search_eo
    from rirkit.rir import synth_allpass_spec, synth_marginal_perturbation

    model = FHNModel()
    res = fhn_search_eo(model)
    spec, verdict = synth_allpass_spec(res.g_eo)
    delta_f = synth_marginal_perturbation(res.g_eo)
    return {
        "model": model,
        "result": res,
        "spec": spec,
        "verdict": verdict,
        "delta_f": delta_f,
    }
