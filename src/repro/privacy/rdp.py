"""Rényi differential privacy accounting (a modern-composition extension).

The paper (2017) composes with the Dwork-Rothblum-Vadhan advanced theorem
(its Theorem A.4).  Modern DP systems usually account Gaussian-mechanism
compositions in Rényi DP (Mironov 2017), which is *exactly additive* for
Gaussian noise and converts back to ``(ε, δ)`` tightly:

* the Gaussian mechanism with sensitivity ``Δ`` and scale ``σ`` satisfies
  ``(λ, λΔ²/(2σ²))``-RDP for every order ``λ > 1``;
* RDP parameters add over (adaptive) composition;
* ``(λ, ρ)``-RDP implies ``(ρ + log(1/δ)/(λ−1), δ)``-DP for every δ.

This module provides that pipeline so users can ask "what does the whole
tree-mechanism release *actually* cost under modern accounting?" — a
strictly tighter answer than Theorem A.4 for long compositions.  It is an
extension beyond the paper (flagged as such); none of the paper-faithful
mechanisms depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


from .._validation import check_positive, check_probability
from .parameters import PrivacyParams

__all__ = ["RdpAccountant", "gaussian_rdp", "rdp_to_dp"]

#: Default grid of Rényi orders to optimize the conversion over.
DEFAULT_ORDERS = tuple([1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0])


def gaussian_rdp(l2_sensitivity: float, sigma: float, order: float) -> float:
    """RDP of one Gaussian release: ``ρ(λ) = λ·Δ²/(2σ²)``."""
    l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
    sigma = check_positive("sigma", sigma)
    order = check_positive("order", order)
    if order <= 1.0:
        raise ValueError(f"RDP order must exceed 1, got {order}")
    return order * l2_sensitivity**2 / (2.0 * sigma**2)


def rdp_to_dp(order: float, rho: float, delta: float) -> float:
    """The standard conversion: ``ε = ρ + log(1/δ)/(λ − 1)``."""
    delta = check_probability("delta", delta)
    return rho + math.log(1.0 / delta) / (order - 1.0)


@dataclass
class RdpAccountant:
    """Additively track Gaussian releases across a grid of Rényi orders.

    Examples
    --------
    >>> acct = RdpAccountant()
    >>> for _ in range(100):
    ...     acct.add_gaussian(l2_sensitivity=1.0, sigma=8.0)
    >>> eps = acct.epsilon(delta=1e-6)
    >>> one = RdpAccountant()
    >>> one.add_gaussian(l2_sensitivity=1.0, sigma=8.0)
    >>> round(eps, 2), round(100 * one.epsilon(delta=1e-6), 1)
    (7.45, 69.6)
    >>> eps < 100 * one.epsilon(delta=1e-6)  # far below naive linear composition
    True
    """

    orders: tuple[float, ...] = DEFAULT_ORDERS
    _rho: dict[float, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for order in self.orders:
            self._rho.setdefault(order, 0.0)

    def add_gaussian(self, l2_sensitivity: float, sigma: float, count: int = 1) -> None:
        """Record ``count`` Gaussian releases at the given calibration."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        for order in self.orders:
            self._rho[order] += count * gaussian_rdp(l2_sensitivity, sigma, order)

    def rho(self, order: float) -> float:
        """Accumulated RDP at one order."""
        if order not in self._rho:
            raise KeyError(f"order {order} not tracked (grid: {self.orders})")
        return self._rho[order]

    def epsilon(self, delta: float) -> float:
        """The tightest ``(ε, δ)`` over the order grid."""
        return min(rdp_to_dp(order, self._rho[order], delta) for order in self.orders)

    def as_privacy_params(self, delta: float) -> PrivacyParams:
        """Package the converted guarantee as a :class:`PrivacyParams`."""
        return PrivacyParams(self.epsilon(delta), delta)

    def tree_mechanism_cost(
        self, levels: int, node_sigma: float, l2_sensitivity: float, delta: float
    ) -> float:
        """What one Tree Mechanism costs under RDP accounting.

        Each stream element touches at most ``levels`` noisy nodes; the
        tight way to account this is ``levels`` Gaussian compositions at
        per-node scale ``node_sigma`` — exactly what :meth:`add_gaussian`
        with ``count=levels`` computes.  Returns the converted ε without
        mutating this accountant.
        """
        probe = RdpAccountant(self.orders)
        probe.add_gaussian(l2_sensitivity, node_sigma, count=levels)
        return probe.epsilon(delta)
