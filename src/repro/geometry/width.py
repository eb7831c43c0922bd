"""Gaussian-width estimators: closed forms and Monte Carlo.

The Gaussian width of a set ``S ⊆ R^d`` (paper's Definition 3) is

    ``w(S) = E_{g ~ N(0, I_d)} [ sup_{a ∈ S} ⟨a, g⟩ ]``.

The supremum inside the expectation is the *support function* of ``S``
evaluated at ``g``, so any set exposing a support function gets a Monte
Carlo width estimate for free (:func:`monte_carlo_width`).  For the sets the
paper uses we additionally provide deterministic values:

* ``E ‖g‖₂`` — exact via the Gamma function (L2 balls);
* ``E ‖g‖₁ = d √(2/π)`` — exact (L∞ balls);
* ``E max_i |g_i|`` and ``E max_i g_i`` — exact 1-D integrals evaluated with
  ``scipy`` quadrature (L1 balls and the simplex).

scipy is imported inside the functions that call it, never at module
level: ``import repro`` (which every spawned shard worker pays before it
serves) stays numpy-only — ``tests/test_import_graph.py`` checks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .._validation import check_int, check_rng

__all__ = [
    "expected_gaussian_norm",
    "expected_max_abs_gaussian",
    "expected_max_gaussian",
    "expected_l1_norm_gaussian",
    "monte_carlo_width",
]


def expected_gaussian_norm(dim: int) -> float:
    """``E ‖g‖₂`` for ``g ~ N(0, I_d)``: ``√2 Γ((d+1)/2) / Γ(d/2)``.

    This is the exact Gaussian width of the unit L2 ball; it satisfies
    ``d/√(d+1) ≤ E‖g‖ ≤ √d``.
    """
    from scipy import special

    dim = check_int("dim", dim, minimum=1)
    # Use log-gamma for numerical stability at large d.
    log_ratio = special.gammaln((dim + 1) / 2.0) - special.gammaln(dim / 2.0)
    return math.sqrt(2.0) * math.exp(log_ratio)


def _std_normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    from scipy import special

    return 0.5 * (1.0 + special.erf(np.asarray(x) / math.sqrt(2.0)))


def expected_max_abs_gaussian(dim: int) -> float:
    """``E max_{i ≤ d} |g_i|`` — the exact width of the unit L1 ball.

    Uses the tail-integral identity ``E M = ∫₀^∞ P(M > x) dx`` with
    ``P(max |g_i| > x) = 1 − (2Φ(x) − 1)^d``, evaluated by quadrature.
    Asymptotically ``≈ √(2 ln d)``, the ``Θ(√log d)`` the paper quotes.
    """
    from scipy import integrate

    dim = check_int("dim", dim, minimum=1)

    def tail(x: float) -> float:
        inner = 2.0 * _std_normal_cdf(x) - 1.0
        return 1.0 - inner**dim

    upper = math.sqrt(2.0 * math.log(2.0 * dim)) + 8.0
    value, _ = integrate.quad(tail, 0.0, upper, limit=200)
    return float(value)


def expected_max_gaussian(dim: int) -> float:
    """``E max_{i ≤ d} g_i`` — the exact width of the probability simplex.

    ``E M = ∫₀^∞ (1 − Φ(x)^d) dx − ∫₀^∞ Φ(−x)^d dx``.
    """
    from scipy import integrate

    dim = check_int("dim", dim, minimum=1)
    if dim == 1:
        return 0.0

    def upper_tail(x: float) -> float:
        return 1.0 - _std_normal_cdf(x) ** dim

    def lower_tail(x: float) -> float:
        return _std_normal_cdf(-x) ** dim

    bound = math.sqrt(2.0 * math.log(2.0 * dim)) + 8.0
    pos, _ = integrate.quad(upper_tail, 0.0, bound, limit=200)
    neg, _ = integrate.quad(lower_tail, 0.0, bound, limit=200)
    return float(pos - neg)


def expected_l1_norm_gaussian(dim: int) -> float:
    """``E ‖g‖₁ = d √(2/π)`` — the exact width of the unit L∞ ball."""
    dim = check_int("dim", dim, minimum=1)
    return dim * math.sqrt(2.0 / math.pi)


def monte_carlo_width(
    support: Callable[[np.ndarray], float],
    dim: int,
    n_samples: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte-Carlo estimate of ``E_g [support(g)]``.

    Parameters
    ----------
    support:
        The set's support function ``g ↦ sup_{a∈S} ⟨a, g⟩``.
    dim:
        Ambient dimension of ``g``.
    n_samples:
        Number of Gaussian samples.  The estimator's standard error is
        ``O(diam(S) / √n)`` by Gaussian concentration of the support
        function (it is Lipschitz with constant ``diam(S)``).
    rng:
        Seed or Generator; pass a fixed seed for deterministic estimates.
    """
    dim = check_int("dim", dim, minimum=1)
    n_samples = check_int("n_samples", n_samples, minimum=1)
    generator = check_rng(rng)
    draws = generator.normal(size=(n_samples, dim))
    values = np.fromiter((support(g) for g in draws), dtype=float, count=n_samples)
    return float(values.mean())
